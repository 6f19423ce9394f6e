//! Seeded open-loop arrival traces for the serve daemon.
//!
//! The generator is the *only* place randomness enters the serve stack, and
//! it is fully seeded: the same [`TraceSpec`] always yields the same trace,
//! which the daemon then replays deterministically in virtual time.

use ntadoc::{Query, Task, TenantId};
use ntadoc_pmem::Prng;

/// One arrival: a typed query hitting the daemon at a virtual timestamp.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual arrival time in nanoseconds.
    pub at_ns: u64,
    /// The query as the tenant submitted it.
    pub query: Query,
}

/// Open-loop workload description. Arrivals do not wait for completions —
/// gaps are drawn independently of service, the standard way to expose
/// queueing behaviour under load.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Number of distinct tenants (round-robin-free: drawn uniformly).
    pub tenants: u32,
    /// Total arrivals to generate.
    pub queries: usize,
    /// Mean inter-arrival gap; gaps are uniform on `[0, 2 * mean]`.
    pub mean_gap_ns: u64,
    /// Percent (0–100) of arrivals drawn from the small hot query set —
    /// higher values mean more cache hits and more intra-batch dedup.
    pub hot_percent: u32,
    /// RNG seed; same seed ⇒ byte-identical trace.
    pub seed: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec { tenants: 4, queries: 64, mean_gap_ns: 500_000, hot_percent: 70, seed: 0x5eed }
    }
}

impl TraceSpec {
    /// Generate the arrival trace (sorted by `at_ns` by construction).
    pub fn generate(&self) -> Vec<TraceEvent> {
        let mut rng = Prng::new(self.seed);
        // Hot set: the queries tenants keep re-asking. Restricted to the
        // servable read-only tasks.
        let hot: Vec<(Task, Option<usize>)> = vec![
            (Task::WordCount, Some(5)),
            (Task::WordCount, None),
            (Task::Sort, Some(10)),
            (Task::InvertedIndex, None),
        ];
        let cold: Vec<Task> =
            vec![Task::WordCount, Task::Sort, Task::TermVector, Task::InvertedIndex];
        let tenant_max = self.tenants.saturating_sub(1);
        let mut at_ns: u64 = 0;
        let mut events = Vec::with_capacity(self.queries);
        for _ in 0..self.queries {
            at_ns = at_ns.saturating_add(rng.range(0, self.mean_gap_ns.saturating_mul(2)));
            let tenant = TenantId(rng.range(0, tenant_max.into()) as u32);
            let query = if rng.range(1, 100) <= self.hot_percent.into() {
                let (task, top_k) = hot[rng.next_below(hot.len() as u64) as usize];
                let q = Query::new(tenant, task);
                match top_k {
                    Some(k) => q.top_k(k),
                    None => q,
                }
            } else {
                // Cold queries vary top-k so most miss the cache.
                let task = cold[rng.next_below(cold.len() as u64) as usize];
                Query::new(tenant, task).top_k(rng.range(1, 64) as usize)
            };
            events.push(TraceEvent { at_ns, query });
        }
        events
    }
}

/// Nearest-rank percentile over latency samples; `p` in `[0, 100]`.
/// Sorts a copy — callers keep their completion ordering intact.
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let spec = TraceSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ns, y.at_ns);
            assert_eq!(x.query, y.query);
        }
        // Sorted by construction.
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn different_seed_different_trace() {
        let a = TraceSpec::default().generate();
        let b = TraceSpec { seed: 0xdead_beef, ..TraceSpec::default() }.generate();
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.at_ns != y.at_ns || x.query != y.query),
            "seeds should steer the trace"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&s, 50.0), 50);
        assert_eq!(percentile_ns(&s, 99.0), 99);
        assert_eq!(percentile_ns(&s, 100.0), 100);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }
}
