//! The reference loop: a fixed piece of work the benchmark itself does
//! between the program's operations, so that a job's time can be stated in
//! reference loops timed at the same moment rather than in milliseconds of
//! a host whose speed changes under it.
//!
//! This host is a few cores of a shared machine. In waves of seconds to
//! tens of minutes the neighbours slow everything on it: the same `ntadoc`
//! command on the same input takes up to 1.6× longer, and ten runs of a
//! workload spread by 15–45 % whatever quantile of a window they report.
//! The loop below is slowed by the same neighbours at the same moment, so
//! the ratio of the two stays put.
//!
//! It does what the program does most: it hashes and counts into a table
//! that does not fit the private caches (as word counting, the engine's
//! counters and Sequitur's digram table do) and it scans bytes (as the
//! tokenizer and the JSON writer do). What goes into it was measured, not
//! guessed: over 36 rounds of all four workloads in 45 minutes of changing
//! host load, each workload's time followed this loop's with an elasticity
//! of 0.8–1.3, and the ratio's spread was a third of the plain time's.
//! A dependent pointer chase through 8 MB, the obvious stand-in for the DAG
//! traversal, moved half as much as the program did and left twice the
//! spread; a block copy moved a third as much.
//!
//! The loop is part of the benchmark, which a change that claims a gain may
//! not edit: it is the same on both sides of every comparison.

use std::time::Instant;

const TABLE_SLOTS: usize = 1 << 19; // 4 MB of u64
const TABLE_UPDATES: usize = 150_000;
const TEXT_BYTES: usize = 2 << 20;

/// A loop is timed before an operation once this long has passed since the
/// last one: before every CLI command, and every few dozen socket requests.
const DUE_MS: f64 = 20.0;

pub struct Yard {
    table: Vec<u64>,
    text: Vec<u8>,
    state: u64,
    last: Instant,
    /// Wall time of every loop since [`Yard::restart`], ms.
    pub loops_ms: Vec<f64>,
}

impl Yard {
    pub fn new() -> Yard {
        let text = (0..TEXT_BYTES)
            .map(|i| if i % 7 == 0 { b' ' } else { b'a' + (i % 23) as u8 })
            .collect();
        let mut yard = Yard {
            table: vec![0; TABLE_SLOTS],
            text,
            state: 1,
            last: Instant::now(),
            loops_ms: Vec::new(),
        };
        yard.run_loop(); // touch every page once
        yard
    }

    fn run_loop(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..TABLE_UPDATES {
            self.state =
                self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let slot = (self.state >> 45) as usize;
            self.table[slot] = self.table[slot].wrapping_add(self.state);
        }
        let (mut words, mut hash) = (0u64, 0u64);
        for &c in &self.text {
            if c == b' ' {
                words += hash & 1;
                hash = 0;
            } else {
                hash = hash.wrapping_mul(31).wrapping_add(c as u64);
            }
        }
        // Feed the scan's result back so neither half can be elided.
        self.state ^= words;
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Forget the loops timed so far: the measured window starts here.
    pub fn restart(&mut self) {
        self.loops_ms.clear();
    }

    /// Time one loop if one is due. Call it between operations, never
    /// inside a timed one.
    pub fn tick(&mut self) {
        if self.loops_ms.is_empty() || self.last.elapsed().as_secs_f64() * 1e3 >= DUE_MS {
            let ms = self.run_loop();
            self.loops_ms.push(ms);
            self.last = Instant::now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_are_timed_when_due_and_do_their_work() {
        let mut yard = Yard::new();
        assert!(yard.table.iter().any(|&v| v != 0));
        yard.tick();
        yard.tick(); // not due yet
        assert_eq!(yard.loops_ms.len(), 1);
        assert!(yard.loops_ms[0] > 0.0);
        yard.restart();
        yard.tick();
        assert_eq!(yard.loops_ms.len(), 1);
    }
}
