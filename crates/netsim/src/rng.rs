//! Deterministic randomness.
//!
//! Every stochastic element of the simulation (fault injection, workload
//! arrivals, payload filling) draws from a [`DetRng`] seeded at simulator
//! construction, so runs are exactly reproducible. The generator is a
//! self-contained xoshiro256++ (seeded through splitmix64) — the same
//! construction `rand`'s `SmallRng` uses on 64-bit targets — implemented
//! locally so the simulation substrate carries no external dependencies.

/// A seedable, fast, deterministic random number generator
/// (xoshiro256++).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// A raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Bernoulli trial: returns `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Uniform value in `[0, 1)` (53-bit resolution).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range {lo}..{hi}");
        let span = hi - lo;
        // Multiply-shift bounded draw (Lemire); bias is < 2^-64 × span,
        // irrelevant for simulation workloads.
        let hi128 = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi128
    }

    /// Exponentially distributed value with the given mean (inverse-CDF
    /// sampling). Used for Poisson arrival processes in the workload models.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = self.unit().max(f64::EPSILON);
        -mean * u.ln()
    }

    /// Approximately normal value via the central limit of 12 uniforms
    /// (Irwin–Hall); adequate for jitter models and far faster than
    /// Box–Muller in the hot path.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let s: f64 = (0..12).map(|_| self.unit()).sum::<f64>() - 6.0;
        mean + std_dev * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = DetRng::new(7);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = DetRng::new(9);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn range_u64_in_bounds() {
        let mut r = DetRng::new(13);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }
}
