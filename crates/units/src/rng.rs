//! Hand-rolled deterministic pseudo-random number generation for the
//! serving-workload generators (no external deps, stable across
//! platforms and versions).
//!
//! Two pieces, both classics with public-domain reference code:
//!
//! * [`splitmix64`] — the one-instruction-per-state-word mixer used to
//!   expand a user seed into full-entropy state (it cannot get stuck at
//!   zero and decorrelates adjacent seeds);
//! * [`Rng`] — an xorshift128+ generator seeded through
//!   [`splitmix64`], with helpers for unit-interval doubles,
//!   exponential inter-arrival draws, and weighted choices over a
//!   [`WeightedPicker`] (the weights prepared once for many draws).
//!
//! Determinism is the whole point: a serving trace is keyed by its
//! `(seed, workload)` pair, and the same seed must replay byte-identically
//! on every machine, worker count, and run. Everything here is pure
//! integer/f64 arithmetic with no platform-dependent calls.
//!
//! # Examples
//!
//! ```
//! use smart_units::rng::Rng;
//!
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u = a.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

/// Advances `state` by the splitmix64 step and returns the mixed output.
/// The underlying counter sequence visits every `u64`, so any seed —
/// including 0 — yields a full-period, well-mixed stream.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small, fast xorshift128+ generator. Not cryptographic — it drives
/// workload synthesis, where speed and reproducibility matter and
/// adversarial prediction does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s0: u64,
    s1: u64,
}

impl Rng {
    /// A generator seeded from `seed` via two splitmix64 draws (so
    /// seeds 0, 1, 2, … give decorrelated streams, and the all-zero
    /// xorshift fixed point is unreachable).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        Self { s0, s1 }
    }

    /// An independent generator for substream `stream` of this seed
    /// (tenant-local or phase-local randomness that must not shift when
    /// another stream draws a different amount).
    #[must_use]
    pub fn stream(seed: u64, stream: u64) -> Self {
        // Mix the stream id through splitmix64 before xoring so streams
        // 0 and 1 of one seed share no state structure.
        let mut sm = stream;
        Self::new(seed ^ splitmix64(&mut sm))
    }

    /// The next raw 64-bit draw (xorshift128+).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// A uniform draw in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An exponential draw with the given mean (inter-arrival times of a
    /// Poisson process). Returns 0.0 for a non-positive mean.
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // 1 - u is in (0, 1], so ln is finite and the draw non-negative.
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// A weighted choice through a prepared [`WeightedPicker`]: index `i`
    /// with probability `weights[i] / total`, one unit draw per pick
    /// (none when no weight is positive).
    pub fn pick(&mut self, picker: &WeightedPicker) -> usize {
        if picker.total <= 0.0 {
            return 0;
        }
        let mut target = self.next_f64() * picker.total;
        for &(i, w) in &picker.positive {
            if target < w {
                return i;
            }
            target -= w;
        }
        // Float round-off on the last subtraction: the last positive
        // weight wins.
        picker.last
    }
}

/// A weight vector prepared once for many [`Rng::pick`] draws: its
/// positive weights in order and their sum, so a pick walks the weights
/// without re-summing them.
///
/// Zero, negative and NaN weights never win; when no weight is positive
/// every pick returns 0 (callers validate their mixes — this is a total
/// fallback, not an error path).
#[derive(Debug)]
pub struct WeightedPicker {
    /// `(index, weight)` of each positive weight, in index order.
    positive: Vec<(usize, f64)>,
    /// The positive weights summed in index order.
    total: f64,
    /// Index of the last positive weight (0 when there is none).
    last: usize,
}

impl WeightedPicker {
    /// Prepares `weights` for picking.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        let positive: Vec<(usize, f64)> = weights
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0.0)
            .collect();
        Self {
            total: positive.iter().map(|&(_, w)| w).sum(),
            last: positive.last().map_or(0, |&(i, _)| i),
            positive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nonzero() {
        let mut a = 0u64;
        let mut b = 0u64;
        let xs: Vec<u64> = (0..4).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..4).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x != 0));
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        let mut s0 = Rng::stream(7, 0);
        let mut s1 = Rng::stream(7, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn unit_draws_stay_in_range_and_cover() {
        let mut rng = Rng::new(1);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
            lo |= u < 0.5;
            hi |= u >= 0.5;
        }
        assert!(lo && hi, "1000 draws never crossed 0.5");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(3);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.next_exp(mean)).sum();
        let got = sum / f64::from(n);
        assert!((got - mean).abs() < 0.15 * mean, "sample mean {got}");
        assert_eq!(rng.next_exp(0.0), 0.0);
        assert_eq!(rng.next_exp(-1.0), 0.0);
    }

    #[test]
    fn weighted_pick_follows_weights() {
        let mut rng = Rng::new(5);
        let picker = WeightedPicker::new(&[1.0, 0.0, 3.0]);
        let mut counts = [0u32; 3];
        for _ in 0..4000 {
            counts[rng.pick(&picker)] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight must never win");
        assert!(counts[2] > counts[0], "3:1 weight ratio inverted");
        assert!(counts[0] > 500, "1/4 of the mass missing: {counts:?}");
        // Degenerate mixes fall back to index 0 without drawing.
        let before = rng.clone();
        assert_eq!(rng.pick(&WeightedPicker::new(&[])), 0);
        assert_eq!(rng.pick(&WeightedPicker::new(&[0.0, -1.0])), 0);
        assert_eq!(rng, before);
    }

    /// The weighted choice with the sum taken on every draw: total the
    /// positive weights, scale one unit draw by it, and subtract the
    /// positive weights in order until the target falls below one.
    fn pick_summing_per_draw(rng: &mut Rng, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        if total <= 0.0 {
            return 0;
        }
        let mut target = rng.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.iter().rposition(|w| *w > 0.0).unwrap_or(0)
    }

    #[test]
    fn prepared_pick_equals_the_per_draw_sum() {
        let mut case_rng = Rng::new(0x5eed);
        for case in 0..200 {
            // 0-8 weights, each zero, negative, or positive at one of two
            // magnitudes six decades apart.
            let len = (case_rng.next_u64() % 9) as usize;
            let weights: Vec<f64> = (0..len)
                .map(|_| match case_rng.next_u64() % 4 {
                    0 => 0.0,
                    1 => -10.0 * case_rng.next_f64(),
                    2 => 1e-3 * case_rng.next_f64(),
                    _ => 1e3 * case_rng.next_f64(),
                })
                .collect();
            let picker = WeightedPicker::new(&weights);
            let seed = case_rng.next_u64();
            let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
            for draw in 0..500 {
                assert_eq!(
                    a.pick(&picker),
                    pick_summing_per_draw(&mut b, &weights),
                    "case {case}, draw {draw}: {weights:?}"
                );
            }
            assert_eq!(a, b, "case {case}: the two consumed different draws");
        }
    }
}
