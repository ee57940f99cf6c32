//! Tenant mixes and seeded open-loop arrival-trace generation.
//!
//! A serving scenario is a [`Workload`]: a set of [`Tenant`]s (each a CNN
//! model with a share of the offered load), an [`ArrivalModel`] (Poisson
//! or bursty on/off), an aggregate request rate, and a seed. From those,
//! [`Workload::trace`] synthesizes a deterministic open-loop trace of
//! `(arrival_cycle, tenant)` pairs through the hand-rolled
//! [`smart_units::rng`] generators — the same seed replays byte-identical
//! on every machine and worker count. [`Workload::arrivals`] is the same
//! trace as a stream made [`ARRIVAL_BLOCK`] requests at a time; the
//! simulator reads it that way, so it never holds the whole trace.
//!
//! Arrivals are *open-loop*: request `k`'s arrival never depends on when
//! request `k - 1` completed, which is what saturates a server and
//! exposes the latency knee. Traces are generated by request count, not
//! by time horizon, so sweeping the rate rescales one fixed arrival
//! pattern: with a shared seed, the trace at rate `2λ` is exactly the
//! rate-`λ` trace with every gap halved (same exponential draws, same
//! tenant sequence). That makes per-request latency — and therefore every
//! latency quantile — provably monotone in offered load under FCFS
//! dispatch.

use smart_systolic::models::ModelId;
use smart_units::rng::{Rng, WeightedPicker};
use smart_units::Frequency;

/// One tenant of the accelerator: a model and its share of the offered
/// request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display name (defaults to the model name).
    pub name: String,
    /// The CNN this tenant serves.
    pub model: ModelId,
    /// Relative share of the aggregate arrival rate (weights are
    /// normalized; non-positive weights receive no traffic).
    pub weight: f64,
}

impl Tenant {
    /// A tenant named after its model.
    #[must_use]
    pub fn of(model: ModelId, weight: f64) -> Self {
        Self {
            name: model.name().to_owned(),
            model,
            weight,
        }
    }
}

/// The arrival process of the aggregate request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless open-loop arrivals at the workload's rate.
    Poisson,
    /// A two-state on/off modulated Poisson process (MMPP-style): during
    /// ON phases requests arrive at `rate / on_fraction` so the long-run
    /// average still equals the workload rate; OFF phases are silent.
    /// Phase durations are exponential with means `period * on_fraction`
    /// and `period * (1 - on_fraction)`.
    Bursty {
        /// Long-run fraction of time spent ON, in `(0, 1]`.
        on_fraction: f64,
        /// Mean ON + OFF cycle length in seconds.
        period_s: f64,
    },
}

/// One synthesized request: an arrival cycle and the tenant it belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time in accelerator cycles.
    pub arrival: u64,
    /// Index into the workload's tenant list.
    pub tenant: u16,
}

/// A complete serving scenario: tenants, arrival model, aggregate rate,
/// and the seed of its deterministic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The tenant mix.
    pub tenants: Vec<Tenant>,
    /// Arrival process of the aggregate stream.
    pub arrivals: ArrivalModel,
    /// Aggregate offered load in requests per second.
    pub rate_rps: f64,
    /// Seed of the arrival trace.
    pub seed: u64,
}

impl Workload {
    /// A Poisson workload over `tenants` at `rate_rps`.
    #[must_use]
    pub fn poisson(tenants: Vec<Tenant>, rate_rps: f64, seed: u64) -> Self {
        Self {
            tenants,
            arrivals: ArrivalModel::Poisson,
            rate_rps,
            seed,
        }
    }

    /// The first `n` requests of this workload's arrival process at
    /// `clock` (the accelerator clock that converts seconds to cycles), as
    /// a stream read a block at a time. Deterministic in
    /// `(self, n, clock)`; arrivals are non-decreasing.
    ///
    /// The seconds-to-cycles conversion saturates: an arrival later than
    /// `u64::MAX` cycles (about 11 years at 52.6 GHz) is reported at
    /// `u64::MAX`, so at a low enough rate every later arrival piles onto
    /// that one cycle. A caller that takes the rate from user input
    /// checks the last arrival before simulating.
    ///
    /// # Panics
    ///
    /// Panics when the workload is degenerate: no tenants, more than
    /// `u16::MAX` tenants, no tenant with positive weight, a non-positive
    /// rate, or a bursty model with `on_fraction` outside `(0, 1]` or a
    /// non-positive period.
    #[must_use]
    pub fn arrivals(&self, n: usize, clock: Frequency) -> Arrivals {
        assert!(
            !self.tenants.is_empty() && self.tenants.len() <= usize::from(u16::MAX),
            "workload needs 1..=65535 tenants"
        );
        assert!(
            self.rate_rps > 0.0 && self.rate_rps.is_finite(),
            "offered load must be a positive rate"
        );
        let weights: Vec<f64> = self.tenants.iter().map(|t| t.weight).collect();
        assert!(
            weights.iter().any(|w| *w > 0.0),
            "at least one tenant needs positive weight"
        );

        // Independent substreams: gaps, tenant picks and burst phases.
        // Keeping them separate means a different tenant count cannot
        // shift the arrival times (and vice versa), which the
        // rate-rescaling monotonicity argument relies on.
        let mut phases = Rng::stream(self.seed, 2);
        let (mean_gap, bursts, phase_end) = match self.arrivals {
            ArrivalModel::Poisson => (1.0 / self.rate_rps, None, 0.0),
            ArrivalModel::Bursty {
                on_fraction,
                period_s,
            } => {
                assert!(
                    on_fraction > 0.0 && on_fraction <= 1.0,
                    "on_fraction must be in (0, 1]"
                );
                assert!(
                    period_s > 0.0 && period_s.is_finite(),
                    "burst period must be positive"
                );
                let on_rate = self.rate_rps / on_fraction;
                let mean_on = period_s * on_fraction;
                let mean_off = period_s * (1.0 - on_fraction);
                let first_end = phases.next_exp(mean_on);
                (1.0 / on_rate, Some((mean_on, mean_off)), first_end)
            }
        };
        Arrivals {
            gaps: Rng::stream(self.seed, 0),
            picks: Rng::stream(self.seed, 1),
            phases,
            picker: WeightedPicker::new(&weights),
            hz: clock.as_si(),
            mean_gap,
            bursts,
            t: 0.0,
            phase_end,
            remaining: n,
        }
    }

    /// The first `n` requests of [`Self::arrivals`], collected.
    ///
    /// # Panics
    ///
    /// As [`Self::arrivals`].
    #[must_use]
    pub fn trace(&self, n: usize, clock: Frequency) -> Vec<Request> {
        let mut out = Vec::with_capacity(n);
        self.arrivals(n, clock).fill(&mut out, n);
        out
    }
}

/// Requests per block of an [`Arrivals`] stream.
pub const ARRIVAL_BLOCK: usize = 4096;

/// A workload's arrival process as a stream ([`Workload::arrivals`]):
/// each [`Self::next_block`] call makes the next [`ARRIVAL_BLOCK`]
/// requests in one tight loop, so a reader holds one block of the trace
/// at a time instead of all of it.
#[derive(Debug)]
pub struct Arrivals {
    /// Exponential gap draws.
    gaps: Rng,
    /// Tenant picks.
    picks: Rng,
    /// ON/OFF phase lengths (bursty arrivals only).
    phases: Rng,
    /// The tenant weights, prepared once for every pick.
    picker: WeightedPicker,
    /// Accelerator cycles per second.
    hz: f64,
    /// Mean gap between arrivals in seconds (within ON phases when
    /// bursty).
    mean_gap: f64,
    /// Mean ON and OFF phase lengths in seconds; `None` for Poisson.
    bursts: Option<(f64, f64)>,
    /// Time of the last arrival made, in seconds.
    t: f64,
    /// End of the current ON phase in seconds (bursty arrivals only).
    phase_end: f64,
    /// Requests still to make.
    remaining: usize,
}

impl Arrivals {
    /// Replaces `block` with the next [`ARRIVAL_BLOCK`] requests (fewer at
    /// the end of the stream). Returns `false`, leaving `block` empty,
    /// once the stream is exhausted.
    pub fn next_block(&mut self, block: &mut Vec<Request>) -> bool {
        block.clear();
        let k = self.remaining.min(ARRIVAL_BLOCK);
        self.fill(block, k);
        k > 0
    }

    /// Appends the next `k <= remaining` requests to `out`.
    fn fill(&mut self, out: &mut Vec<Request>, k: usize) {
        out.reserve(k);
        let (hz, mean_gap) = (self.hz, self.mean_gap);
        let (gaps, picks, picker) = (&mut self.gaps, &mut self.picks, &self.picker);
        let mut t = self.t;
        match self.bursts {
            None => {
                for _ in 0..k {
                    t += gaps.next_exp(mean_gap);
                    out.push(Request {
                        arrival: (t * hz) as u64,
                        tenant: picks.pick(picker) as u16,
                    });
                }
            }
            Some((mean_on, mean_off)) => {
                // Walk ON phases; exponential gaps are memoryless, so
                // redrawing at each phase boundary is exact.
                let mut phase_end = self.phase_end;
                for _ in 0..k {
                    t += gaps.next_exp(mean_gap);
                    while t > phase_end {
                        // Jump over the OFF phase and restart the clock
                        // of the truncated ON draw at the next ON start.
                        let off = self.phases.next_exp(mean_off);
                        t = phase_end + off + gaps.next_exp(mean_gap);
                        phase_end += off + self.phases.next_exp(mean_on);
                    }
                    out.push(Request {
                        arrival: (t * hz) as u64,
                        tenant: picks.pick(picker) as u16,
                    });
                }
                self.phase_end = phase_end;
            }
        }
        self.t = t;
        self.remaining -= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Frequency {
        Frequency::from_ghz(52.6)
    }

    fn mix() -> Vec<Tenant> {
        vec![
            Tenant::of(ModelId::AlexNet, 3.0),
            Tenant::of(ModelId::Vgg16, 1.0),
        ]
    }

    #[test]
    fn poisson_trace_is_deterministic_and_sorted() {
        let w = Workload::poisson(mix(), 1e5, 9);
        let a = w.trace(500, clock());
        let b = w.trace(500, clock());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(a.iter().all(|r| usize::from(r.tenant) < 2));
        // The empirical rate is in the right ballpark.
        let span_s = a.last().expect("nonempty").arrival as f64 / clock().as_si();
        let rate = 500.0 / span_s;
        assert!((rate / 1e5 - 1.0).abs() < 0.25, "empirical rate {rate}");
    }

    #[test]
    fn tenant_shares_follow_weights() {
        let w = Workload::poisson(mix(), 1e5, 4);
        let trace = w.trace(4000, clock());
        let alex = trace.iter().filter(|r| r.tenant == 0).count();
        let frac = alex as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "AlexNet share {frac}");
    }

    #[test]
    fn doubling_the_rate_halves_the_gaps_exactly() {
        let slow = Workload::poisson(mix(), 5e4, 11).trace(300, clock());
        let fast = Workload {
            rate_rps: 1e5,
            ..Workload::poisson(mix(), 5e4, 11)
        }
        .trace(300, clock());
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.tenant, f.tenant, "tenant sequence must be shared");
            // Same exponential draws, scaled: cycle truncation allows
            // off-by-one per event.
            let expect = s.arrival / 2;
            assert!(
                f.arrival.abs_diff(expect) <= 150,
                "{} vs {expect}",
                f.arrival
            );
        }
    }

    #[test]
    fn bursty_trace_clusters_arrivals() {
        let rate = 1e5;
        let bursty = Workload {
            arrivals: ArrivalModel::Bursty {
                on_fraction: 0.2,
                period_s: 1e-4,
            },
            ..Workload::poisson(mix(), rate, 13)
        };
        let n = 2000;
        let b = bursty.trace(n, clock());
        let p = Workload::poisson(mix(), rate, 13).trace(n, clock());
        assert!(b.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Burstiness: the squared coefficient of variation of gaps is
        // well above the Poisson value of ~1.
        let scv = |t: &[Request]| {
            let gaps: Vec<f64> = t
                .windows(2)
                .map(|w| (w[1].arrival - w[0].arrival) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        assert!(
            scv(&b) > 1.5 * scv(&p),
            "bursty SCV {} vs poisson {}",
            scv(&b),
            scv(&p)
        );
    }

    /// Reading the stream block by block carries the generator state
    /// across every refill: the blocks, back to back, are `trace(n)`.
    #[test]
    fn block_stream_equals_the_collected_trace() {
        let bursty = Workload {
            arrivals: ArrivalModel::Bursty {
                on_fraction: 0.25,
                period_s: 2e-4,
            },
            ..Workload::poisson(mix(), 1e5, 21)
        };
        for w in [Workload::poisson(mix(), 1e5, 21), bursty] {
            for n in [0, 1, 4095, 4096, 4097, 3 * ARRIVAL_BLOCK + 7] {
                let mut stream = w.arrivals(n, clock());
                let (mut block, mut streamed) = (Vec::new(), Vec::new());
                while stream.next_block(&mut block) {
                    assert!(!block.is_empty() && block.len() <= ARRIVAL_BLOCK);
                    assert!(
                        streamed.len() % ARRIVAL_BLOCK == 0,
                        "n {n}: a short block before the last"
                    );
                    streamed.extend_from_slice(&block);
                }
                assert!(block.is_empty());
                assert!(
                    !stream.next_block(&mut block),
                    "n {n}: refilled after the end"
                );
                assert_eq!(streamed.len(), n);
                assert!(streamed == w.trace(n, clock()), "n {n}: {:?}", w.arrivals);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_is_rejected() {
        let _ = Workload::poisson(mix(), 0.0, 1).trace(10, clock());
    }
}
