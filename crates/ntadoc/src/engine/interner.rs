//! Host-side n-gram dictionary for the sequence tasks.

use std::sync::{Mutex, MutexGuard};

use ntadoc_pmem::PmemError;

use super::lock;
use crate::Result;

/// Number of id spaces in the [`Interner`] (a power of two). Ids carry
/// the index of their space in their low bits.
pub(crate) const INTERN_SHARDS: usize = 16;

/// Bits of an id that name its space.
const SPACE_BITS: u32 = INTERN_SHARDS.trailing_zeros();

/// Grams one id space can name: an index has the id's remaining bits.
const SPACE_GRAMS: u32 = 1 << (u32::BITS - SPACE_BITS);

/// FNV-1a over a gram's words: its low bits choose the id space.
fn fnv(gram: &[u32]) -> u64 {
    gram.iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The table hash of a gram with FNV hash `hash`. FNV's own high bits
/// cluster badly over small word ids (59 probe steps per lookup on the
/// benchmark corpus, 1.9 after this fold-and-multiply), so they are mixed
/// once more.
fn table_hash(hash: u64) -> u32 {
    ((hash ^ (hash >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// One id space of the interner: its grams back to back in one arena, and
/// an open-addressing table over them (so a lookup compares against the
/// arena in place, and an insert copies the words once).
#[derive(Default)]
struct InternShard {
    /// Index of the space's first gram: zero, except in the test that
    /// starts a space next to the end of its id range.
    first: u32,
    /// Position `i` holds the words `words[ends[i - 1]..ends[i]]`.
    words: Vec<u32>,
    ends: Vec<u32>,
    /// `(table hash, gram position + 1)` per slot, zero while empty; a
    /// power of two long and at most three quarters full. A gram probes
    /// linearly from `table hash & (len - 1)`, and only a slot with its
    /// hash is compared against the arena.
    slots: Vec<(u32, u32)>,
}

impl InternShard {
    fn gram(&self, at: usize) -> &[u32] {
        let start = if at == 0 { 0 } else { self.ends[at - 1] as usize };
        &self.words[start..self.ends[at] as usize]
    }

    /// Double the table and re-seat every entry (by its stored hash).
    fn grow(&mut self) {
        let doubled = vec![(0, 0); (self.slots.len() * 2).max(64)];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|slot| slot.1 != 0) {
            let mut at = slot.0 as usize & mask;
            while self.slots[at].1 != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    /// The index of `gram` in this space, and whether it was new. A gram the
    /// space has no index (or `u32` arena offset) left for is refused.
    fn intern(&mut self, hash: u64, gram: &[u32]) -> Result<(u32, bool)> {
        if (self.ends.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = table_hash(hash);
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            match self.slots[at] {
                (_, 0) => break,
                (t, entry) if t == tag && self.gram(entry as usize - 1) == gram => {
                    return Ok((self.first + (entry - 1), false))
                }
                _ => at = (at + 1) & mask,
            }
        }
        let full = |len, max| PmemError::TooLarge { what: "n-gram id space", len, max };
        let idx = self.first as u64 + self.ends.len() as u64;
        if idx >= SPACE_GRAMS as u64 {
            return Err(full(idx, SPACE_GRAMS as u64 - 1));
        }
        let end = (self.words.len() + gram.len()) as u64;
        self.ends.push(u32::try_from(end).map_err(|_| full(end, u32::MAX as u64))?);
        self.words.extend_from_slice(gram);
        self.slots[at] = (tag, self.ends.len() as u32);
        Ok((idx as u32, true))
    }
}

/// Host-side n-gram interner (CPU-side sequence dictionary; its DRAM
/// footprint is ledger-tracked, which is why sequence tasks show the
/// smallest DRAM savings in §VI-C).
///
/// Ids are part of the cost model, not just names: sequence lists are
/// stored id-sorted, and ranked inverted index materialises its result in
/// id order through the stateful line cache, so the order ids are assigned
/// in decides which dictionary lines hit. Every n-gram is therefore
/// interned on the session's controlling thread, in item order (parallel
/// cache builders hand their raw n-grams back to the level barrier), which
/// makes ids — and with them pool bytes and virtual time — independent of
/// scheduling. An n-gram hashes (deterministically) to one of
/// [`INTERN_SHARDS`] id spaces and takes the next index there; ids encode
/// the space in their low bits.
#[derive(Default)]
pub(crate) struct Interner {
    shards: Mutex<[InternShard; INTERN_SHARDS]>,
}

impl Interner {
    /// Intern an n-gram, returning its id and whether it was new; `TooLarge`
    /// once its id space is full (a further id would alias an earlier one).
    pub fn intern(&self, gram: &[u32]) -> Result<(u32, bool)> {
        let hash = fnv(gram);
        let s = (hash as usize) & (INTERN_SHARDS - 1);
        let (idx, fresh) = lock(&self.shards)[s].intern(hash, gram)?;
        Ok(((idx << SPACE_BITS) | s as u32, fresh))
    }

    /// Intern the `n`-word grams laid back to back in `flat`, in order,
    /// under one lock: `flat` ends holding their ids, one per gram, and
    /// `fresh` counts the new ones. On an error `flat` is left part-way
    /// and `fresh` counts the grams interned before it.
    pub fn intern_flat(&self, flat: &mut Vec<u32>, n: usize, fresh: &mut u64) -> Result<()> {
        let mut shards = lock(&self.shards);
        for k in 0..flat.len() / n {
            // Id `k` overwrites slot `k`, at or before gram `k`'s words.
            let gram = &flat[k * n..][..n];
            let hash = fnv(gram);
            let s = (hash as usize) & (INTERN_SHARDS - 1);
            let (idx, new) = shards[s].intern(hash, gram)?;
            *fresh += new as u64;
            flat[k] = (idx << SPACE_BITS) | s as u32;
        }
        flat.truncate(flat.len() / n);
        Ok(())
    }

    /// Read access to the interned n-grams: one lock for a whole pass over
    /// them, words handed out in place.
    pub fn grams(&self) -> Grams<'_> {
        Grams(lock(&self.shards))
    }
}

/// The interned n-grams, locked for reading ([`Interner::grams`]).
pub(crate) struct Grams<'a>(MutexGuard<'a, [InternShard; INTERN_SHARDS]>);

impl Grams<'_> {
    /// The n-gram behind `id`.
    pub fn get(&self, id: u32) -> &[u32] {
        let shard = &self.0[(id as usize) & (INTERN_SHARDS - 1)];
        shard.gram(((id >> SPACE_BITS) - shard.first) as usize)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Ids are what the map-of-vectors interner assigned: the FNV id space
    /// in the low bits, first-seen order within a space above them.
    #[test]
    fn ids_follow_first_seen_order_within_each_fnv_space() {
        let interner = Interner::default();
        let mut next = [0u32; INTERN_SHARDS];
        let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
        // Grams of mixed length over a small alphabet: plenty of repeats,
        // and enough distinct ones to grow every table several times.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let gram: Vec<u32> = (0..2 + x % 3).map(|k| (x >> (8 * k)) as u32 % 23).collect();
            let (id, fresh) = interner.intern(&gram).unwrap();
            match seen.get(&gram) {
                Some(&known) => assert_eq!((id, fresh), (known, false)),
                None => {
                    let s = (fnv(&gram) as usize) & (INTERN_SHARDS - 1);
                    assert_eq!((id, fresh), ((next[s] << SPACE_BITS) | s as u32, true));
                    next[s] += 1;
                    seen.insert(gram, id);
                }
            }
        }
        assert!(seen.len() > 5_000);
        let grams = interner.grams();
        for (gram, &id) in &seen {
            assert_eq!(grams.get(id), gram);
        }
    }

    /// An id space runs out at 2^28 grams. The index that would follow is
    /// refused with a typed error — shifted into an id it would drop its
    /// top bits and alias the space's first gram — and the space still
    /// answers for what it holds.
    #[test]
    fn an_exhausted_id_space_is_a_typed_error_not_an_aliased_id() {
        let interner = Interner::default();
        for shard in lock(&interner.shards).iter_mut() {
            shard.first = SPACE_GRAMS - 2;
        }
        let grams: Vec<[u32; 2]> = (0..200).map(|w| [w, w + 1]).collect();
        let mut taken = [0u32; INTERN_SHARDS];
        let mut refused = 0;
        for gram in &grams {
            let s = (fnv(gram) as usize) & (INTERN_SHARDS - 1);
            match interner.intern(gram) {
                Ok((id, fresh)) => {
                    assert!(fresh && taken[s] < 2, "{gram:?}");
                    assert_eq!(id, ((SPACE_GRAMS - 2 + taken[s]) << SPACE_BITS) | s as u32);
                    taken[s] += 1;
                }
                Err(PmemError::TooLarge { what: "n-gram id space", len, max }) => {
                    assert_eq!((taken[s], len, max), (2, 1 << 28, (1 << 28) - 1), "{gram:?}");
                    refused += 1;
                }
                Err(other) => panic!("{gram:?}: {other}"),
            }
        }
        assert!(refused > 100, "{refused} refusals");
        // Known grams are still found, under their ids; refused ones left
        // nothing behind.
        let mut seen = [0u32; INTERN_SHARDS];
        for gram in &grams {
            let s = (fnv(gram) as usize) & (INTERN_SHARDS - 1);
            if seen[s] < 2 {
                let (id, fresh) = interner.intern(gram).unwrap();
                assert_eq!((id >> SPACE_BITS, fresh), (SPACE_GRAMS - 2 + seen[s], false));
                assert_eq!(interner.grams().get(id), gram);
                seen[s] += 1;
            } else {
                assert!(interner.intern(gram).is_err(), "{gram:?}");
            }
        }
    }
}
