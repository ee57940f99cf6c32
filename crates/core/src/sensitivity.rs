//! Sensitivity studies (Sec. 6.3): SHIFT capacity (Fig. 22), RANDOM
//! capacity (Fig. 23), prefetch iteration count (Fig. 24), and RANDOM write
//! latency (Fig. 25). All results are gmean speedups over SuperNPU across
//! the six CNN models, for single-image and batch inference.
//!
//! Every sweep evaluates through a shared [`EvalCache`], so the SuperNPU
//! baselines (one single-image and one batch evaluation per model) are
//! computed once per cache rather than once per sweep point, and sweep
//! points run concurrently on up to `jobs` worker threads. The sweeps are
//! analytic: none of them solves an ILP.

use crate::cache::EvalCache;
use crate::scheme::{AllocationPolicy, Scheme, SpmOrganization};
use smart_cryomem::array::RandomArrayKind;
use smart_report::parallel_map;
use smart_spm::hetero::HeterogeneousSpm;
use smart_systolic::models::ModelId;
use smart_units::Time;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// One sweep point: gmean speedups over SuperNPU.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable parameter label (e.g. "32KB", "a=3").
    pub label: String,
    /// Gmean single-image speedup over SuperNPU.
    pub single: f64,
    /// Gmean batch speedup over SuperNPU.
    pub batch: f64,
}

/// Geometric mean of per-model speedups of `scheme` over SuperNPU.
fn gmean_speedup(cache: &EvalCache, scheme: &Scheme, batch_mode: bool) -> f64 {
    let baseline = Scheme::supernpu();
    let mut log_sum = 0.0;
    for id in ModelId::ALL {
        let (b_scheme, b_base) = if batch_mode {
            (id.smart_batch(), id.supernpu_batch())
        } else {
            (1, 1)
        };
        let r = cache.report(scheme, id, b_scheme);
        let base = cache.report(&baseline, id, b_base);
        log_sum += (r.throughput_tmacs() / base.throughput_tmacs()).ln();
    }
    (log_sum / ModelId::ALL.len() as f64).exp()
}

fn smart_with_spm(spm: HeterogeneousSpm, policy: AllocationPolicy) -> Scheme {
    Scheme {
        name: "SMART",
        config: crate::config::AcceleratorConfig::smart(),
        spm: SpmOrganization::Heterogeneous(spm),
        policy,
    }
}

/// Prices one labelled scheme variant at both batch modes.
fn sweep_point(cache: &EvalCache, label: String, scheme: &Scheme) -> SweepPoint {
    SweepPoint {
        label,
        single: gmean_speedup(cache, scheme, false),
        batch: gmean_speedup(cache, scheme, true),
    }
}

/// Fig. 22: sweep the per-class SHIFT staging capacity.
#[must_use]
pub fn shift_capacity_sweep(
    cache: &EvalCache,
    capacities_kb: &[u64],
    jobs: usize,
) -> Vec<SweepPoint> {
    parallel_map(jobs, capacities_kb, |&kb| {
        let spm = HeterogeneousSpm::new(
            kb * KB,
            256,
            28 * MB,
            256,
            RandomArrayKind::PipelinedCmosSfq,
        );
        let scheme = smart_with_spm(spm, AllocationPolicy::Prefetch { window: 3 });
        sweep_point(cache, format!("{kb}KB"), &scheme)
    })
}

/// Fig. 23: sweep the shared RANDOM array capacity.
#[must_use]
pub fn random_capacity_sweep(
    cache: &EvalCache,
    capacities_mb: &[u64],
    jobs: usize,
) -> Vec<SweepPoint> {
    parallel_map(jobs, capacities_mb, |&mb| {
        let spm = HeterogeneousSpm::new(
            32 * KB,
            256,
            mb * MB,
            256,
            RandomArrayKind::PipelinedCmosSfq,
        );
        let scheme = smart_with_spm(spm, AllocationPolicy::Prefetch { window: 3 });
        sweep_point(cache, format!("{mb}MB"), &scheme)
    })
}

/// Fig. 24: sweep the prefetch iteration count `a` (1 = no prefetch).
#[must_use]
pub fn prefetch_sweep(cache: &EvalCache, windows: &[u32], jobs: usize) -> Vec<SweepPoint> {
    parallel_map(jobs, windows, |&a| {
        let scheme = smart_with_spm(
            HeterogeneousSpm::smart_default(),
            AllocationPolicy::Prefetch { window: a },
        );
        sweep_point(cache, format!("a={a}"), &scheme)
    })
}

/// Fig. 25: sweep the RANDOM array write latency (0.11 ns pipelined CMOS-SFQ
/// vs the 2 ns / 3 ns of dense MRAM/SNM cells).
#[must_use]
pub fn write_latency_sweep(
    cache: &EvalCache,
    latencies_ns: &[f64],
    jobs: usize,
) -> Vec<SweepPoint> {
    parallel_map(jobs, latencies_ns, |&ns| {
        let mut spm = HeterogeneousSpm::smart_default();
        spm.random.write_latency = Time::from_ns(ns);
        // A slower write also throttles the per-bank issue rate for
        // writes.
        spm.random.issue_interval = spm.random.issue_interval.max(Time::from_ns(ns / 8.0));
        let scheme = smart_with_spm(spm, AllocationPolicy::Prefetch { window: 3 });
        sweep_point(cache, format!("{ns}ns"), &scheme)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig22_small_shift_hurts() {
        let cache = EvalCache::new();
        let pts = shift_capacity_sweep(&cache, &[16, 32], 2);
        assert!(
            pts[0].single < pts[1].single,
            "16KB {} should trail 32KB {}",
            pts[0].single,
            pts[1].single
        );
        assert!(pts[0].batch <= pts[1].batch * 1.01);
    }

    #[test]
    fn fig23_larger_random_helps_batch_more() {
        let cache = EvalCache::new();
        let pts = random_capacity_sweep(&cache, &[14, 28, 112], 2);
        // 14 MB hurts relative to 28 MB.
        assert!(pts[0].batch <= pts[1].batch);
        // 112 MB helps batches (or at least never hurts).
        assert!(pts[2].batch >= pts[1].batch * 0.999);
        // Single-image inference is insensitive beyond 28 MB.
        let rel = (pts[2].single - pts[1].single).abs() / pts[1].single;
        assert!(rel < 0.05, "single-image sensitivity {rel:.2}");
    }

    #[test]
    fn fig24_prefetch_saturates_at_3() {
        let cache = EvalCache::new();
        let pts = prefetch_sweep(&cache, &[1, 2, 3, 4], 2);
        assert!(pts[0].single < pts[2].single, "a=1 must trail a=3");
        assert!(pts[1].single <= pts[2].single * 1.001);
        let rel = (pts[3].single - pts[2].single).abs() / pts[2].single;
        assert!(rel < 0.02, "a=4 ~= a=3, rel {rel:.3}");
    }

    #[test]
    fn fig25_slow_writes_hurt() {
        let cache = EvalCache::new();
        let pts = write_latency_sweep(&cache, &[0.11, 2.0, 3.0], 2);
        assert!(pts[1].single < pts[0].single);
        assert!(pts[2].single <= pts[1].single * 1.001);
        assert!(pts[2].batch < pts[0].batch);
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        // The pool must not change results, only wall-clock.
        let cache = EvalCache::new();
        let seq = prefetch_sweep(&cache, &[1, 3, 5], 1);
        let par = prefetch_sweep(&cache, &[1, 3, 5], 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn sweeps_share_the_baseline_through_the_cache() {
        let cache = EvalCache::new();
        let _ = shift_capacity_sweep(&cache, &[32, 64], 2);
        let before = cache.stats();
        // The random sweep's 28 MB point *is* the shift sweep's 32 KB point
        // (the paper's default SMART SPM), so only the 56 MB scheme
        // evaluates: 1 new scheme x 6 models x 2 modes = 12 evaluations.
        let _ = random_capacity_sweep(&cache, &[28, 56], 2);
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 12);
        assert!(after.hits > before.hits, "baseline lookups must hit");
    }
}
