//! [`ServingReport`]: what one serving simulation says about tail
//! latency, goodput, utilization, and SPM thrash.
//!
//! The report keeps every request's latency (cycles), once: each tenant's
//! sorted sample, rather than pre-baked quantiles, so callers can ask for
//! any quantile — the canonical ones, [`p50`]/[`p99`]/[`p999`], use the
//! nearest-rank definition (the smallest sample with at least a `q`
//! fraction of the mass at or below it), which is exact on discrete
//! samples and never interpolates latencies that no request experienced.
//! The aggregate quantiles answer from the per-tenant samples without
//! merging them: the nearest rank over their union is the least latency
//! with that many samples at or below it, found by bisecting the latency
//! range with a binary search per tenant. [`ServingReport::latencies`]
//! merges the samples for a caller that wants the whole aggregate.
//!
//! Rate-style metrics are defined over the *makespan* (first arrival to
//! last completion): [`goodput_rps`] counts SLO-met completions per
//! second of makespan, so past the saturation knee it converges to the
//! server's sustainable service rate rather than echoing the offered
//! load back.
//!
//! [`p50`]: ServingReport::p50
//! [`p99`]: ServingReport::p99
//! [`p999`]: ServingReport::p999
//! [`goodput_rps`]: ServingReport::goodput_rps

// lint:allow-file(index, percentile ranks are clamped to the sorted sample length)

use smart_units::{Frequency, Time};

/// Per-tenant slice of a serving run. Its latency sample is sorted by
/// construction ([`TenantServingStats::new`]), which every quantile
/// relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServingStats {
    /// Tenant display name.
    pub name: String,
    /// Requests of this tenant injected by the trace.
    pub injected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that met the tenant's SLO deadline.
    pub slo_met: u64,
    /// Sorted per-request latencies of this tenant, in cycles.
    latencies: Vec<u64>,
}

impl TenantServingStats {
    /// The stats of a tenant that injected `injected` requests and
    /// completed one per entry of `latencies` (cycles, in any order): the
    /// sample is sorted and trimmed, and `completed` and `slo_met` (the
    /// latencies at or under `slo_cycles`) are counted from it.
    #[must_use]
    pub fn new(name: String, injected: u64, mut latencies: Vec<u64>, slo_cycles: u64) -> Self {
        latencies.sort_unstable();
        // The report outlives the run; its sample keeps no growth slack.
        latencies.shrink_to_fit();
        Self {
            name,
            injected,
            completed: latencies.len() as u64,
            slo_met: latencies.partition_point(|&l| l <= slo_cycles) as u64,
            latencies,
        }
    }

    /// This tenant's per-request latencies in cycles, sorted.
    #[must_use]
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Nearest-rank quantile of this tenant's latency sample, in cycles
    /// (`0` when the tenant completed nothing).
    #[must_use]
    pub fn quantile_cycles(&self, q: f64) -> u64 {
        quantile(&self.latencies, q)
    }

    /// Mean latency in cycles (`0.0` when empty).
    #[must_use]
    pub fn mean_cycles(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
        }
    }
}

/// Result of one serving simulation: a workload replayed through the
/// dispatch simulator on one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Scheme the tenants were profiled on.
    pub scheme: &'static str,
    /// Accelerator clock (cycle counts convert to time with this).
    pub clock: Frequency,
    /// Offered aggregate load in requests per second.
    pub offered_rps: f64,
    /// Requests injected by the trace.
    pub injected: u64,
    /// Requests completed (the simulator drains, so this equals
    /// [`Self::injected`]; the conservation property test asserts it).
    pub completed: u64,
    /// Completions that met their tenant's SLO deadline.
    pub slo_met: u64,
    /// First arrival to last completion, in cycles.
    pub makespan_cycles: u64,
    /// Cycles the array spent executing layers.
    pub service_cycles: u64,
    /// Cycles spent re-staging SPM-resident data across tenant switches
    /// (the thrash the paper's warm/cold distinction prices).
    pub switch_cycles: u64,
    /// Number of cold tenant switches paid.
    pub switches: u64,
    /// Batches launched: each is one to `max_batch` requests of one
    /// tenant dispatched together.
    pub batches: u64,
    /// Batches parked at a layer boundary for another tenant's work;
    /// each resumes later, so the event loop ran `batches + preemptions`
    /// layer segments.
    pub preemptions: u64,
    /// Per-tenant breakdown, in workload tenant order. Its sorted latency
    /// samples are the report's only copy of the per-request latencies.
    pub per_tenant: Vec<TenantServingStats>,
}

impl ServingReport {
    /// The per-tenant sorted latency samples.
    fn samples(&self) -> impl Iterator<Item = &[u64]> {
        self.per_tenant.iter().map(|t| t.latencies.as_slice())
    }

    /// Every request's latency in cycles, sorted: the per-tenant samples
    /// merged.
    #[must_use]
    pub fn latencies(&self) -> Vec<u64> {
        let mut all = Vec::with_capacity(self.samples().map(<[u64]>::len).sum());
        for s in self.samples() {
            all.extend_from_slice(s);
        }
        // Sorted runs back to back, which the stable sort detects and
        // merges in linear passes.
        all.sort();
        all
    }

    /// Nearest-rank quantile of the aggregate latency sample (every
    /// tenant's requests), in cycles; `0` when nothing completed.
    #[must_use]
    pub fn quantile_cycles(&self, q: f64) -> u64 {
        let n = self.samples().map(<[u64]>::len).sum();
        if n == 0 {
            return 0;
        }
        let rank = nearest_rank(q, n);
        let at_or_below =
            |v: u64| -> usize { self.samples().map(|s| s.partition_point(|&x| x <= v)).sum() };
        // The answer is the least latency with `rank` samples at or below
        // it; the count only steps at sample values, so it is one of them.
        let mut lo = 0;
        let mut hi = self
            .samples()
            .filter_map(<[u64]>::last)
            .copied()
            .max()
            .unwrap_or(0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if at_or_below(mid) >= rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Nearest-rank quantile as wall-clock time.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Time {
        self.clock.period() * self.quantile_cycles(q) as f64
    }

    /// Median latency.
    #[must_use]
    pub fn p50(&self) -> Time {
        self.quantile(0.50)
    }

    /// 99th-percentile latency.
    #[must_use]
    pub fn p99(&self) -> Time {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency.
    #[must_use]
    pub fn p999(&self) -> Time {
        self.quantile(0.999)
    }

    /// Mean latency over every tenant's requests, in cycles (`0.0` when
    /// nothing completed).
    #[must_use]
    pub fn mean_cycles(&self) -> f64 {
        let n: usize = self.samples().map(<[u64]>::len).sum();
        if n == 0 {
            0.0
        } else {
            self.samples().map(|s| s.iter().sum::<u64>()).sum::<u64>() as f64 / n as f64
        }
    }

    /// Makespan as wall-clock time.
    #[must_use]
    pub fn makespan(&self) -> Time {
        self.clock.period() * self.makespan_cycles as f64
    }

    /// SLO-met completions per second of makespan. Below saturation this
    /// tracks the offered load; past the knee it converges to the
    /// sustainable service rate and then *falls* as queueing pushes
    /// completions over their deadlines.
    #[must_use]
    pub fn goodput_rps(&self) -> f64 {
        let span_s = self.makespan().as_s();
        if span_s <= 0.0 {
            0.0
        } else {
            self.slo_met as f64 / span_s
        }
    }

    /// Completions (SLO-blind) per second of makespan.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let span_s = self.makespan().as_s();
        if span_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / span_s
        }
    }

    /// Fraction of the makespan the array spent doing useful layer work.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.service_cycles as f64 / self.makespan_cycles as f64
        }
    }

    /// SPM-thrash overhead: re-staging cycles as a fraction of all busy
    /// cycles (service + re-staging). `0.0` when nothing ran.
    #[must_use]
    pub fn thrash_overhead(&self) -> f64 {
        let busy = self.service_cycles + self.switch_cycles;
        if busy == 0 {
            0.0
        } else {
            self.switch_cycles as f64 / busy as f64
        }
    }

    /// Fraction of completions that met their SLO (`1.0` when nothing
    /// completed, vacuously).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.completed as f64
        }
    }
}

/// The nearest rank of quantile `q` in a sample of `n >= 1`: `ceil(q * n)`
/// with `q` clamped to `(0, 1]`, itself clamped to `1..=n`.
fn nearest_rank(q: f64, n: usize) -> usize {
    let q = q.clamp(f64::MIN_POSITIVE, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of a **sorted** sample: the smallest element
/// with at least `ceil(q * n)` elements at or below it. `0` on an empty
/// sample; `q` is clamped to `(0, 1]`.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(q, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_units::rng::Rng;

    #[test]
    fn nearest_rank_matches_hand_computation() {
        let s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&s, 0.50), 50);
        assert_eq!(quantile(&s, 0.99), 100);
        assert_eq!(quantile(&s, 0.10), 10);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.999), 7);
    }

    fn tenant(latencies: Vec<u64>) -> TenantServingStats {
        TenantServingStats::new("t".to_owned(), latencies.len() as u64, latencies, u64::MAX)
    }

    fn report(per_tenant: Vec<TenantServingStats>) -> ServingReport {
        let n: u64 = per_tenant.iter().map(|t| t.completed).sum();
        ServingReport {
            scheme: "SMART",
            clock: Frequency::from_ghz(52.6),
            offered_rps: 1e5,
            injected: n,
            completed: n,
            slo_met: 0,
            makespan_cycles: 0,
            service_cycles: 0,
            switch_cycles: 0,
            switches: 0,
            batches: 0,
            preemptions: 0,
            per_tenant,
        }
    }

    #[test]
    fn report_metrics_are_consistent() {
        let r = ServingReport {
            slo_met: 3,
            makespan_cycles: 1_000_000,
            service_cycles: 600_000,
            switch_cycles: 200_000,
            switches: 2,
            batches: 4,
            preemptions: 1,
            ..report(vec![tenant(vec![100, 300]), tenant(vec![200, 400])])
        };
        assert_eq!(r.latencies(), [100, 200, 300, 400]);
        assert_eq!(r.per_tenant[1].latencies(), [200, 400]);
        assert_eq!(r.quantile_cycles(0.5), 200);
        assert_eq!(r.quantile_cycles(0.99), 400);
        assert!(r.p50() < r.p99());
        assert!((r.utilization() - 0.6).abs() < 1e-12);
        assert!((r.thrash_overhead() - 0.25).abs() < 1e-12);
        assert!((r.slo_attainment() - 0.75).abs() < 1e-12);
        let span_s = r.makespan().as_s();
        assert!((r.goodput_rps() - 3.0 / span_s).abs() < 1e-6);
        assert!(r.throughput_rps() > r.goodput_rps());
        assert!((r.mean_cycles() - 250.0).abs() < 1e-12);
    }

    /// The aggregate quantiles and mean, answered from the per-tenant
    /// samples, equal the nearest rank and mean of the merged sorted
    /// sample, on random reports with empty tenants, single samples,
    /// repeated latencies and ranks on every side of a tenant boundary.
    #[test]
    fn aggregate_metrics_equal_the_merged_sample() {
        let mut rng = Rng::new(0xa66e);
        let mut below = |n: u64| rng.next_u64() % n;
        for case in 0..500 {
            let per_tenant: Vec<TenantServingStats> = (0..1 + below(4))
                .map(|_| {
                    let len = match below(4) {
                        0 => 0,
                        1 => 1,
                        _ => below(200),
                    };
                    // A narrow range forces ties within and across tenants.
                    let range = if below(2) == 0 { 20 } else { 1 << 40 };
                    tenant((0..len).map(|_| below(range)).collect())
                })
                .collect();
            let r = report(per_tenant);
            let merged = r.latencies();
            assert!(merged.windows(2).all(|w| w[0] <= w[1]));
            for q in [0.0, 1e-9, 0.5, 0.999, 1.0, 2.0] {
                assert_eq!(
                    r.quantile_cycles(q),
                    quantile(&merged, q),
                    "case {case}, q {q}"
                );
            }
            let mean = if merged.is_empty() {
                0.0
            } else {
                merged.iter().sum::<u64>() as f64 / merged.len() as f64
            };
            assert_eq!(r.mean_cycles().to_bits(), mean.to_bits(), "case {case}");
        }
    }

    /// Stats built from a shuffled sample answer every quantile, alone
    /// and as a report's only tenant, as the sorted sample does.
    #[test]
    fn stats_from_a_shuffled_sample_equal_the_sorted_ones() {
        let mut rng = Rng::new(0x5047);
        let sorted: Vec<u64> = (0..500).map(|i| i / 3).collect();
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let t = TenantServingStats::new("t".to_owned(), 500, shuffled, 100);
        assert_eq!(
            (t.latencies(), t.completed, t.slo_met),
            (&sorted[..], 500, 303)
        );
        let alone = report(vec![t.clone()]);
        for q in [0.0, 1e-9, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0, 2.0] {
            assert_eq!(t.quantile_cycles(q), quantile(&sorted, q), "q {q}");
            assert_eq!(alone.quantile_cycles(q), quantile(&sorted, q), "q {q}");
        }
    }
}
