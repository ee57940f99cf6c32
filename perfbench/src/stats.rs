//! Timing loops, order statistics, and the end-to-end metric set every
//! workload reports.

use std::time::{Duration, Instant};

/// Fewest timed iterations a run makes, whatever `--seconds` says: the
/// printed tail needs ten samples beyond it, plus one to stand on.
pub const MIN_ITERATIONS: usize = 11;

/// Hard stop for a timed loop, well inside the per-run limit.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Host time of [`reference_kernel`] on a quiet 2-vCPU x86-64 reference VM,
/// in seconds. `setup_s` is each set-up's time relative to the kernel run
/// right before it, converted back to seconds at this rate.
const QUIET_REFERENCE_S: f64 = 0.012;

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample at the highest percentile that still has at least ten
/// samples above it, with that percentile (in %) and the sample count.
/// Falls back to the maximum when fewer than eleven samples exist.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let rank = if n >= 11 { n - 11 } else { n - 1 };
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64, n)
}

/// Length of the reference kernel's table (4 MiB of `f64`; a power of two).
const REFERENCE_TABLE_LEN: usize = 1 << 19;

/// One timed iteration or set-up: its host time and that of the reference
/// kernel run right before it, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub reference_ms: f64,
}

/// Runs `iteration` until `seconds` have passed and at least
/// [`MIN_ITERATIONS`] completed, timing [`reference_kernel`] right before
/// each one. `iteration` returns the duration it wants counted, so callers
/// can keep verification outside the measured span.
pub fn timed_loop(seconds: f64, mut iteration: impl FnMut() -> Duration) -> Vec<Sample> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut table = vec![0.0; REFERENCE_TABLE_LEN];
    let mut samples = Vec::new();
    while (start.elapsed() < budget || samples.len() < MIN_ITERATIONS) && start.elapsed() < MAX_LOOP
    {
        let reference_ms = ms(reference_kernel(&mut table));
        samples.push(Sample {
            ms: ms(iteration()),
            reference_ms,
        });
    }
    samples
}

/// Runs `setup` `repeats` times (at least once), each right after the
/// reference kernel, returning the last result and every set-up's sample.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Sample>), String> {
    let mut table = vec![0.0; REFERENCE_TABLE_LEN];
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let reference_ms = ms(reference_kernel(&mut table));
        let start = Instant::now();
        last = Some(setup()?);
        samples.push(Sample {
            ms: ms(start.elapsed()),
            reference_ms,
        });
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, samples))
}

/// A fixed piece of work owned by the benchmark, so no library change
/// moves it: B-tree updates, small string allocations, and random
/// read-modify-writes over a 4 MiB table, the mix of pointer chasing,
/// allocation and cache misses the workloads spend their time in. Other
/// tenants of a shared host slow it about as much as they slow the
/// workloads (a cache-resident arithmetic loop tracked that slowdown
/// far worse), so an iteration's time divided by the kernel's time just
/// before it cancels most of the host's load.
///
/// The table is the caller's and lives across calls, so the kernel adds a
/// constant 4 MiB to `peak_rss_mb` rather than a transient peak that
/// could hide the workload's own.
pub fn reference_kernel(table: &mut [f64]) -> Duration {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    let mut strings: Vec<String> = Vec::new();
    let mut acc = 0.0f64;
    for i in 0..60_000u64 {
        let k = next() % 20_000;
        *map.entry(k).or_insert(0u64) += i;
        if i % 4 == 0 {
            strings.push(format!("{k}:{i}"));
        }
        for _ in 0..8 {
            let j = (next() as usize) & (table.len() - 1);
            table[j] += 1.5;
            acc += table[j].sqrt();
        }
    }
    std::hint::black_box((acc, map.len(), strings.len()));
    start.elapsed()
}

/// Process high-water resident set size in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median over samples of host time / reference-kernel time.
fn relative_p50(samples: &[Sample]) -> f64 {
    median(
        &samples
            .iter()
            .map(|s| s.ms / s.reference_ms)
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of an untraced run, plus the informational line
/// with the raw host times. Both times are relative to the reference
/// kernel: `run_rel_p50` in kernel runs, `setup_s` converted to seconds of
/// a quiet host. On a shared 2-vCPU VM whose other tenants slowed work by
/// up to 1.8x, the median host time of an iteration spread 21-51% over
/// five 25 s runs, its ratio to the kernel 4%; the median host time of a
/// set-up moved 35% between two sets of ten runs.
pub fn end_to_end(setups: &[Sample], samples: &[Sample]) -> (Vec<Metric>, String) {
    let ms_of = |v: &[Sample]| v.iter().map(|s| s.ms).collect::<Vec<_>>();
    let times = ms_of(samples);
    let reference = samples.iter().map(|s| s.reference_ms).collect::<Vec<_>>();
    let (tail_ms, pct, n) = tail(&times);
    let metrics = vec![
        Metric::new("setup_s", relative_p50(setups) * QUIET_REFERENCE_S, "s"),
        Metric::new("run_rel_p50", relative_p50(samples), "ref"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let info = format!(
        "host time (informational): run_ms_p50 {:.3} ms, run_ms_tail {tail_ms:.3} ms at \
         p{pct:.1} of {n} iterations (ten or more beyond it), set-up median {:.3} s of {}; \
         reference kernel median {:.3} ms",
        median(&times),
        median(&ms_of(setups)) / 1e3,
        setups.len(),
        median(&reference),
    );
    (metrics, info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_pick_the_expected_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (t, pct, n) = tail(&v);
        assert_eq!((t, n), (30.0, 40));
        assert_eq!(v.iter().filter(|x| **x > t).count(), 10);
        assert!((pct - 75.0).abs() < 1e-9);
        assert_eq!(tail(&[5.0, 1.0]).0, 5.0);
    }

    #[test]
    fn relative_time_is_the_median_of_per_iteration_ratios() {
        let samples = [(10.0, 2.0), (30.0, 3.0), (12.0, 4.0)]
            .map(|(ms, reference_ms)| Sample { ms, reference_ms });
        let (metrics, _) = end_to_end(&samples[..1], &samples);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("run_rel_p50"), Some(5.0));
        assert_eq!(value("setup_s"), Some(5.0 * QUIET_REFERENCE_S));
    }
}
