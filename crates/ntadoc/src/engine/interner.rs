//! Host-side n-gram dictionary for the sequence tasks.

use std::collections::HashMap;
use std::sync::Mutex;

use super::lock;

/// Number of id spaces in the [`Interner`] (a power of two). Ids carry
/// the index of their space in their low bits.
pub(crate) const INTERN_SHARDS: usize = 16;

/// One id space of the interner: its own map and id list.
#[derive(Default)]
struct InternShard {
    map: HashMap<Vec<u32>, u32>,
    list: Vec<Vec<u32>>,
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
    /// Deterministic id space for a gram (FNV-1a over its words).
    fn shard_of(gram: &[u32]) -> usize {
        let h = gram.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (h as usize) & (INTERN_SHARDS - 1)
    }

    /// Intern an n-gram, returning its id and whether it was new.
    pub fn intern(&self, gram: &[u32]) -> (u32, bool) {
        let s = Self::shard_of(gram);
        let sh = &mut lock(&self.shards)[s];
        if let Some(&id) = sh.map.get(gram) {
            return (id, false);
        }
        let id = ((sh.list.len() as u32) << INTERN_SHARDS.trailing_zeros()) | s as u32;
        sh.list.push(gram.to_vec());
        sh.map.insert(gram.to_vec(), id);
        (id, true)
    }

    /// The n-gram behind `id`.
    pub fn gram(&self, id: u32) -> Vec<u32> {
        let s = (id as usize) & (INTERN_SHARDS - 1);
        let idx = (id >> INTERN_SHARDS.trailing_zeros()) as usize;
        lock(&self.shards)[s].list[idx].clone()
    }
}
