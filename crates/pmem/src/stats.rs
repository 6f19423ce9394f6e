//! Access statistics and the virtual clock.

use crate::json::Json;

/// Counters accumulated by a [`crate::SimDevice`].
///
/// `virtual_ns` is the model time: the sum of the costs of every access,
/// miss, write-back, flush and fence the device has served. Experiments
/// report differences of snapshots of this value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Read operations issued (typed loads and bulk reads each count once).
    pub reads: u64,
    /// Write operations issued.
    pub writes: u64,
    /// Bytes moved by read operations.
    pub bytes_read: u64,
    /// Bytes moved by write operations.
    pub bytes_written: u64,
    /// Media lines fetched because of cache read/write misses.
    pub line_misses: u64,
    /// Accesses that hit the front cache.
    pub line_hits: u64,
    /// Dirty lines written back to media (evictions + flushes).
    pub write_backs: u64,
    /// Explicit flush operations.
    pub flushes: u64,
    /// Persistence fences.
    pub fences: u64,
    /// Bytes copied into undo logs by transactional persistence.
    pub log_bytes: u64,
    /// Write attempts re-issued against transiently faulted lines before
    /// the bounded retry budget succeeded (endurance-relevant: retries are
    /// extra media writes).
    pub media_retries: u64,
    /// Accumulated model time in nanoseconds.
    pub virtual_ns: u64,
}

/// Apply `$op` to every counter field of [`AccessStats`]; keeps the
/// element-wise helpers in sync with the field list.
macro_rules! for_each_field {
    ($op:ident) => {
        $op!(
            reads,
            writes,
            bytes_read,
            bytes_written,
            line_misses,
            line_hits,
            write_backs,
            flushes,
            fences,
            log_bytes,
            media_retries,
            virtual_ns
        )
    };
}

impl AccessStats {
    /// `self - earlier`, element-wise, checking *every* counter: returns
    /// the name of the first field on which `earlier` is not actually an
    /// earlier snapshot of the same device (a stale or cross-device
    /// snapshot), instead of silently underflowing.
    pub fn checked_since(&self, earlier: &AccessStats) -> Result<AccessStats, &'static str> {
        macro_rules! check {
            ($($f:ident),+) => {
                $(if self.$f < earlier.$f {
                    return Err(stringify!($f));
                })+
            };
        }
        for_each_field!(check);
        Ok(self.saturating_since(earlier))
    }

    /// `self - earlier`, element-wise, saturating at zero per field.
    pub fn saturating_since(&self, earlier: &AccessStats) -> AccessStats {
        macro_rules! sub {
            ($($f:ident),+) => {
                AccessStats { $($f: self.$f.saturating_sub(earlier.$f)),+ }
            };
        }
        for_each_field!(sub)
    }

    /// `self - earlier`, element-wise. Every field is validated, not just
    /// `virtual_ns`: in debug builds a stale snapshot panics with the name
    /// of the offending counter; in release builds the subtraction
    /// saturates at zero instead of underflow-panicking without diagnosis.
    pub fn since(&self, earlier: &AccessStats) -> AccessStats {
        match self.checked_since(earlier) {
            Ok(delta) => delta,
            Err(field) => {
                debug_assert!(
                    false,
                    "AccessStats::since: `{field}` went backwards \
                     (now {self:?}, claimed-earlier {earlier:?}) — \
                     not an earlier snapshot of the same device"
                );
                self.saturating_since(earlier)
            }
        }
    }

    /// Add `other` into `self`, element-wise (span-tree roll-ups).
    pub fn accumulate(&mut self, other: &AccessStats) {
        macro_rules! add {
            ($($f:ident),+) => {
                $(self.$f += other.$f;)+
            };
        }
        for_each_field!(add);
    }

    /// Serialize into a [`Json`] object, one member per counter field.
    pub fn to_json(&self) -> Json {
        macro_rules! obj {
            ($($f:ident),+) => {
                Json::object([$((stringify!($f), Json::U64(self.$f))),+])
            };
        }
        for_each_field!(obj)
    }

    /// Deserialize from a [`Json`] object produced by [`Self::to_json`].
    /// Missing members default to zero; a non-object or a non-integer
    /// member is an error naming the field.
    pub fn from_json(v: &Json) -> Result<AccessStats, String> {
        if v.as_obj().is_none() {
            return Err("AccessStats: expected an object".to_string());
        }
        macro_rules! read {
            ($($f:ident),+) => {
                AccessStats {
                    $($f: match v.get(stringify!($f)) {
                        None => 0,
                        Some(m) => m.as_u64().ok_or_else(|| {
                            format!("AccessStats: `{}` is not a u64", stringify!($f))
                        })?,
                    }),+
                }
            };
        }
        Ok(for_each_field!(read))
    }

    /// Fraction of line-granular accesses that hit the front cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.line_hits + self.line_misses;
        if total == 0 {
            return 0.0;
        }
        self.line_hits as f64 / total as f64
    }

    /// Number of persistence-ordering points reached so far: every flush
    /// and every fence is a distinct point a crash-sweep harness can
    /// schedule a failure at (see [`crate::faultsim`]).
    pub fn persist_points(&self) -> u64 {
        self.flushes + self.fences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fields() {
        let a = AccessStats { reads: 10, virtual_ns: 100, ..Default::default() };
        let b = AccessStats { reads: 4, virtual_ns: 40, ..Default::default() };
        let d = a.since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.virtual_ns, 60);
    }

    #[test]
    fn checked_since_names_the_backwards_field() {
        let newer = AccessStats { reads: 10, flushes: 2, virtual_ns: 100, ..Default::default() };
        let stale = AccessStats { reads: 10, flushes: 5, virtual_ns: 90, ..Default::default() };
        // `virtual_ns` moved forward but `flushes` went backwards: the old
        // debug assertion (virtual_ns only) missed exactly this case.
        assert_eq!(newer.checked_since(&stale), Err("flushes"));
        let ok = AccessStats { reads: 4, virtual_ns: 40, ..Default::default() };
        assert_eq!(newer.checked_since(&ok).unwrap().reads, 6);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = AccessStats { reads: 1, virtual_ns: 10, ..Default::default() };
        let b = AccessStats { reads: 5, virtual_ns: 3, ..Default::default() };
        let d = a.saturating_since(&b);
        assert_eq!(d.reads, 0);
        assert_eq!(d.virtual_ns, 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`writes` went backwards")]
    fn since_panics_with_field_name_in_debug() {
        let a = AccessStats { virtual_ns: 100, ..Default::default() };
        let b = AccessStats { writes: 3, virtual_ns: 50, ..Default::default() };
        let _ = a.since(&b);
    }

    #[test]
    fn accumulate_adds_fields() {
        let mut a = AccessStats { reads: 1, virtual_ns: 10, ..Default::default() };
        a.accumulate(&AccessStats { reads: 2, flushes: 4, virtual_ns: 5, ..Default::default() });
        assert_eq!(a.reads, 3);
        assert_eq!(a.flushes, 4);
        assert_eq!(a.virtual_ns, 15);
    }

    #[test]
    fn hit_rate_handles_zero_accesses() {
        assert_eq!(AccessStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes_fraction() {
        let s = AccessStats { line_hits: 3, line_misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_every_field() {
        let s = AccessStats {
            reads: 1,
            writes: 2,
            bytes_read: 3,
            bytes_written: 4,
            line_misses: 5,
            line_hits: 6,
            write_backs: 7,
            flushes: 8,
            fences: 9,
            log_bytes: 10,
            media_retries: 11,
            virtual_ns: 12,
        };
        let back = AccessStats::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Missing members default to zero (forward-compatible reads).
        let partial = Json::object([("reads", 5u64)]);
        assert_eq!(AccessStats::from_json(&partial).unwrap().reads, 5);
        // Type errors name the field.
        let bad = Json::object([("writes", Json::Str("x".into()))]);
        assert!(AccessStats::from_json(&bad).unwrap_err().contains("writes"));
        assert!(AccessStats::from_json(&Json::Null).is_err());
    }
}
