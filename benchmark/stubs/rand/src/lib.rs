//! Offline stand-in for the sliver of `rand` 0.8 that `ntadoc-serve`'s
//! `TraceSpec::generate` names. The benchmark never calls that generator
//! (it has its own seeded one), so this only has to compile; it is a
//! splitmix64, not the real `StdRng` stream.
use std::ops::RangeInclusive;

pub mod rngs {
    /// Stand-in for `rand::rngs::StdRng`.
    pub struct StdRng(pub(crate) u64);
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

/// Integer types `gen_range` can draw.
pub trait SampleInt: Copy {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl SampleInt for $t {
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
sample_int!(u32, u64, usize);

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen_range<T: SampleInt>(&mut self, range: RangeInclusive<T>) -> T {
        let (lo, hi) = (range.start().to_u64(), range.end().to_u64());
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        let draw = self.next_u64();
        T::from_u64(if span == 0 { draw } else { lo + draw % span })
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
