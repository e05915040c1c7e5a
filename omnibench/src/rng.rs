//! The benchmark's own seeded generator (SplitMix64).
//!
//! Positions, walks, send schedules and fault windows are drawn here rather
//! than from the simulator's RNG, so the program under test only ever sees
//! the generated inputs and a change to its random streams cannot change
//! the workload.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`stream`) of one benchmark seed, so
    /// independent draws (say, positions and fault windows) never share a
    /// sequence and adding draws to one leaves the others unchanged.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_streams() {
        let draw = |seed, stream| {
            let mut g = SplitMix::new(seed, stream);
            (0..4).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut g = SplitMix::new(3, 0);
        for _ in 0..1000 {
            assert!(g.below(7) < 7);
            let x = g.range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }
}
