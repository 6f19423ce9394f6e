//! Result counters wired to the persistence strategy.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use ntadoc_nstruct::PHashTable;
use ntadoc_pmem::{PmemError, TxLog};

use super::lock;
use crate::Result;

/// Counter table wired to the persistence strategy: under operation-level
/// persistence every update is undo-logged and transactions commit every
/// `batch` updates.
pub(crate) struct TxCounter {
    pub table: PHashTable,
    tx: Option<Arc<Mutex<TxLog>>>,
    pending: Cell<usize>,
    batch: usize,
}

impl TxCounter {
    /// Wrap a table with an optional transaction log (operation-level
    /// persistence) committing every `batch` updates. The batch is the
    /// "operation": one rule interpretation for the compressed engines,
    /// one I/O block for the scan baseline.
    pub(crate) fn new(table: PHashTable, tx: Option<Arc<Mutex<TxLog>>>, batch: usize) -> Self {
        TxCounter { table, tx, pending: Cell::new(0), batch }
    }

    /// Add `delta` at `key` under the session's persistence regime.
    pub fn add(&self, key: u64, delta: u64) -> Result<()> {
        match &self.tx {
            None => self.table.add(key, delta),
            Some(tx) => {
                let mut tx = lock(tx);
                if !tx.is_active() {
                    tx.begin()?;
                }
                match self.table.add_tx(key, delta, &mut tx) {
                    Err(
                        e @ (PmemError::LogExhausted { .. }
                        | PmemError::GrowDuringTransaction { .. }),
                    ) => {
                        // Mid-batch pressure: a full log (a fixed-size log
                        // region flushes on pressure), or a growable table
                        // (summation off, or n-gram spaces) at its load
                        // factor. Commit what we have and retry in a fresh
                        // transaction. The reconstruction's bulk writes
                        // are not undo-logged, so growth happens between
                        // the two: a crash in the gap re-runs the traversal
                        // from the last checkpoint, no rollback needed.
                        tx.commit()?;
                        if matches!(e, PmemError::GrowDuringTransaction { .. }) {
                            self.table.reserve_for_insert()?;
                        }
                        tx.begin()?;
                        self.table.add_tx(key, delta, &mut tx)?;
                        self.pending.set(1);
                        return Ok(());
                    }
                    other => other?,
                }
                let p = self.pending.get() + 1;
                if p >= self.batch {
                    tx.commit()?;
                    self.pending.set(0);
                } else {
                    self.pending.set(p);
                }
                Ok(())
            }
        }
    }

    /// Commit any open transaction (end of a traversal loop).
    pub fn finish(&self) -> Result<()> {
        commit_open(&self.tx)
    }
}

/// Commit the transaction open on `tx`, if there is a log and one is open.
pub(crate) fn commit_open(tx: &Option<Arc<Mutex<TxLog>>>) -> Result<()> {
    if let Some(tx) = tx {
        let mut tx = lock(tx);
        if tx.is_active() {
            tx.commit()?;
        }
    }
    Ok(())
}
