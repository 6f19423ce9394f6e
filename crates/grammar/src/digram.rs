//! Digram keys, the crate's one hash, and Sequitur's digram index.
//!
//! A digram is two adjacent symbols; its key packs them into one `u64`.
//! [`mix`] spreads *both* symbols over every bit of the hash, so a table
//! may take its bucket from either end. (The hasher this replaces returned
//! `key * K` unmixed to a table that buckets by the low bits, which depend
//! on the second symbol alone: every digram ending in the same word probed
//! from the same group.)
//!
//! [`DigramIndex`] is the index Sequitur keeps over the grammar under
//! construction: digram → the node that starts its one indexed occurrence.
//! A slot holds only that node id (4 B). The key is not stored — it is read
//! back from the node list through the `key_of` closure every operation
//! takes — so the caller must keep one condition true: **while a node is in
//! the index, the digram starting at it does not change**. Sequitur removes
//! a node's entry before it frees or relinks the node, which is that
//! condition. Collisions probe linearly; deletion shifts the rest of the
//! cluster back over the hole, so there are no tombstones and a probe
//! sequence always ends at the first empty slot.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::symbol::Symbol;

/// Index of a node in Sequitur's slab.
pub(crate) type NodeId = u32;

/// "No node": the empty slot, and the null link of the node lists.
pub(crate) const NIL: NodeId = u32::MAX;

/// The digram `a b` as one integer.
#[inline]
pub(crate) fn digram_key(a: Symbol, b: Symbol) -> u64 {
    ((a.raw() as u64) << 32) | b.raw() as u64
}

/// Hash of a `u64` key: the workspace's one integer hash (digram keys
/// here, raw symbols in the DAG pool's pruning). Two multiplications with a fold between them:
/// after the first, the high half depends on both symbols and the low half
/// on the second only; the fold carries the high half down, and the second
/// multiplication carries everything back up.
#[inline]
pub fn mix(key: u64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let x = key.wrapping_mul(K);
    (x ^ (x >> 32)).wrapping_mul(K)
}

/// [`mix`] as a [`Hasher`], for the `u64`-keyed maps of the merge passes.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = mix(self.0 ^ key);
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A map keyed by `u64`s — digram keys here, raw symbols elsewhere in the
/// workspace — hashed by [`mix`].
pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Open-addressed digram → node index; see the module docs.
pub(crate) struct DigramIndex {
    /// A power of two of slots, each [`NIL`] or an indexed node.
    slots: Vec<NodeId>,
    /// Occupied slots; kept at or below a quarter of `slots.len()`.
    len: usize,
    /// `64 - log2(slots.len())`: the bucket is the hash's top bits.
    shift: u32,
    /// Slots inspected while looking for a key, a node or the end of a
    /// probe sequence, and operations run: for the probe-length test.
    #[cfg(test)]
    pub(crate) probes: std::cell::Cell<u64>,
    #[cfg(test)]
    pub(crate) ops: std::cell::Cell<u64>,
}

impl DigramIndex {
    const MIN_SLOTS: usize = 256;

    pub(crate) fn new() -> Self {
        DigramIndex {
            slots: vec![NIL; Self::MIN_SLOTS],
            len: 0,
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            #[cfg(test)]
            probes: Default::default(),
            #[cfg(test)]
            ops: Default::default(),
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (mix(key) >> self.shift) as usize
    }

    #[inline]
    fn count_op(&self) {
        #[cfg(test)]
        self.ops.set(self.ops.get() + 1);
    }

    #[inline]
    fn count_probe(&self) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
    }

    /// The slot holding `key`'s entry (`true`), or the empty slot that ends
    /// its probe sequence (`false`).
    #[inline]
    fn probe(&self, key: u64, key_of: &impl Fn(NodeId) -> u64) -> (usize, bool) {
        self.count_op();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            self.count_probe();
            let node = self.slots[i];
            if node == NIL {
                return (i, false);
            }
            if key_of(node) == key {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table once one more entry would fill over a quarter of
    /// it. Sparse on purpose: at 4 bytes a slot that is still at most 32
    /// bytes per entry, and Sequitur over the benchmark corpus runs in 43 ms
    /// against 57 ms at half full (36 ms at an eighth) — shorter probe
    /// loops end more predictably.
    #[inline]
    fn reserve_one(&mut self, key_of: &impl Fn(NodeId) -> u64) {
        if (self.len + 1) * 4 > self.slots.len() {
            self.grow(key_of);
        }
    }

    #[cold]
    fn grow(&mut self, key_of: &impl Fn(NodeId) -> u64) {
        let doubled = vec![NIL; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for node in old.into_iter().filter(|&n| n != NIL) {
            let mut i = self.home(key_of(node));
            while self.slots[i] != NIL {
                i = (i + 1) & mask;
            }
            self.slots[i] = node;
        }
    }

    /// The node indexed under `key`.
    #[cfg(test)]
    pub(crate) fn get(&self, key: u64, key_of: impl Fn(NodeId) -> u64) -> Option<NodeId> {
        let (i, found) = self.probe(key, &key_of);
        found.then(|| self.slots[i])
    }

    /// The node indexed under `key`; if there is none, index `node` (whose
    /// digram must be `key`) and return `None`.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        key: u64,
        node: NodeId,
        key_of: impl Fn(NodeId) -> u64,
    ) -> Option<NodeId> {
        self.reserve_one(&key_of);
        let (i, found) = self.probe(key, &key_of);
        if found {
            return Some(self.slots[i]);
        }
        self.slots[i] = node;
        self.len += 1;
        None
    }

    /// Index `node` (whose digram must be `key`) under `key`, replacing the
    /// node indexed there.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, node: NodeId, key_of: impl Fn(NodeId) -> u64) {
        self.reserve_one(&key_of);
        let (i, found) = self.probe(key, &key_of);
        self.slots[i] = node;
        self.len += usize::from(!found);
    }

    /// Drop `key`'s entry if it is `node` (whose digram must be `key`).
    #[inline]
    pub(crate) fn remove_if(&mut self, key: u64, node: NodeId, key_of: impl Fn(NodeId) -> u64) {
        self.count_op();
        let mask = self.slots.len() - 1;
        // `node` can only sit on `key`'s probe sequence, so ids are compared
        // and no key is read back.
        let mut hole = self.home(key);
        loop {
            self.count_probe();
            match self.slots[hole] {
                NIL => return,
                n if n == node => break,
                _ => hole = (hole + 1) & mask,
            }
        }
        self.len -= 1;
        // Back-shift: an entry further down the cluster moves into the hole
        // when the hole lies on its own probe sequence, i.e. when it sits at
        // least as far from its home as from the hole.
        let mut j = (hole + 1) & mask;
        loop {
            let n = self.slots[j];
            if n == NIL {
                break;
            }
            let from_home = j.wrapping_sub(self.home(key_of(n))) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = n;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = NIL;
    }

    /// Check that every entry is reachable: no empty slot between an
    /// entry's home and where it sits, and `len` counts the entries.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self, key_of: impl Fn(NodeId) -> u64) {
        let mask = self.slots.len() - 1;
        let mut live = 0;
        for (at, &node) in self.slots.iter().enumerate() {
            if node == NIL {
                continue;
            }
            live += 1;
            let mut i = self.home(key_of(node));
            while i != at {
                assert_ne!(self.slots[i], NIL, "node {node} is cut off from its home bucket");
                i = (i + 1) & mask;
            }
        }
        assert_eq!(live, self.len);
        assert!(self.len * 4 <= self.slots.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntadoc_pmem::{for_each_case, Prng};
    use std::collections::HashSet;

    /// Index `keys` and count the distinct home buckets they start from.
    fn distinct_homes(keys: &[u64]) -> usize {
        let mut index = DigramIndex::new();
        for (node, &key) in keys.iter().enumerate() {
            assert_eq!(index.get_or_insert(key, node as NodeId, |n| keys[n as usize]), None);
        }
        index.assert_consistent(|n| keys[n as usize]);
        keys.iter().map(|&key| index.home(key)).collect::<HashSet<_>>().len()
    }

    #[test]
    fn both_symbols_reach_the_bucket_bits() {
        // What uniformly random keys do: 4 096 draws of a splitmix64 stream.
        let mut rng = Prng::new(0x1234_5678_9ABC_DEF0);
        let random: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        let random = distinct_homes(&random);
        for fixed in [Symbol::word(7), Symbol::rule(7), Symbol::word(40_000)] {
            let first_varies: Vec<u64> =
                (0..4096).map(|a| digram_key(Symbol::word(a), fixed)).collect();
            let second_varies: Vec<u64> =
                (0..4096).map(|b| digram_key(fixed, Symbol::word(b))).collect();
            for (what, keys) in [("first", first_varies), ("second", second_varies)] {
                let spread = distinct_homes(&keys);
                assert!(
                    spread * 10 >= random * 9,
                    "{what} symbol varying beside {fixed:?}: {spread} distinct home buckets, \
                     random keys reach {random}"
                );
            }
        }
    }

    #[test]
    fn low_bits_spread_too() {
        // `KeyMap` (hashbrown) takes its bucket from the hash's low bits.
        let low_buckets = |keys: &mut dyn Iterator<Item = u64>| {
            keys.map(|k| mix(k) & 0x1FFF).collect::<HashSet<_>>().len()
        };
        for fixed in [Symbol::word(7), Symbol::rule(7)] {
            let a = low_buckets(&mut (0..4096).map(|a| digram_key(Symbol::word(a), fixed)));
            let b = low_buckets(&mut (0..4096).map(|b| digram_key(fixed, Symbol::word(b))));
            // 4 096 random keys reach about 3 220 of 8 192 buckets.
            assert!(a > 2900 && b > 2900, "{a} / {b} distinct low-bit buckets of 4096 keys");
        }
    }

    /// One step of the model test. Keys are drawn from a small space so
    /// that operations meet; a node is made for every (re-)insertion, as
    /// Sequitur's nodes are.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        GetOrInsert(u64),
        Insert(u64),
        /// Remove `key`'s entry if it is the `n`-th node ever made for the
        /// key (modulo how many there are): sometimes the indexed one,
        /// sometimes one that was replaced.
        RemoveIf(u64, usize),
        Get(u64),
    }

    fn op(rng: &mut Prng) -> Op {
        let (kind, k, n) = (rng.next_below(8), rng.next_below(600), rng.next_below(4) as usize);
        // Keys that differ in one symbol only, like real digrams.
        let key = if k % 2 == 0 { (k / 2) << 32 | 9 } else { 9 << 32 | (k / 2) };
        match kind {
            0..=2 => Op::GetOrInsert(key),
            3 => Op::Insert(key),
            4..=6 => Op::RemoveIf(key, n),
            _ => Op::Get(key),
        }
    }

    #[test]
    fn index_agrees_with_a_hash_map() {
        let ops = |rng: &mut Prng| {
            let len = rng.next_below(3000);
            (0..len).map(|_| op(rng)).collect::<Vec<Op>>()
        };
        for_each_case("index_agrees_with_a_hash_map", 0xD16A_0001, 64, ops, |ops| {
            let mut index = DigramIndex::new();
            let mut model: HashMap<u64, NodeId> = HashMap::new();
            // Node id → its key; key → every node made for it.
            let mut keys: Vec<u64> = Vec::new();
            let mut made: HashMap<u64, Vec<NodeId>> = HashMap::new();
            for &op in ops {
                match op {
                    Op::GetOrInsert(key) | Op::Insert(key) => {
                        let node = keys.len() as NodeId;
                        keys.push(key);
                        made.entry(key).or_default().push(node);
                        let key_of = |n: NodeId| keys[n as usize];
                        if matches!(op, Op::Insert(_)) {
                            index.insert(key, node, key_of);
                            model.insert(key, node);
                        } else {
                            let got = index.get_or_insert(key, node, key_of);
                            assert_eq!(got, model.get(&key).copied());
                            model.entry(key).or_insert(node);
                        }
                    }
                    Op::RemoveIf(key, n) => {
                        let Some(nodes) = made.get(&key) else { continue };
                        let node = nodes[n % nodes.len()];
                        index.remove_if(key, node, |n| keys[n as usize]);
                        if model.get(&key) == Some(&node) {
                            model.remove(&key);
                        }
                    }
                    Op::Get(key) => {
                        assert_eq!(index.get(key, |n| keys[n as usize]), model.get(&key).copied());
                    }
                }
            }
            index.assert_consistent(|n| keys[n as usize]);
            assert_eq!(index.len, model.len());
            for (&key, &node) in &model {
                assert_eq!(index.get(key, |n| keys[n as usize]), Some(node));
            }
        });
    }
}
