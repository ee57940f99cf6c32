//! `figures_cold` and `figures_warm`: all 35 registry experiments through
//! `run_experiments`, as a user's first and second `--cache-dir` run.
//!
//! An op is one table; an iteration is all 35, checked byte for byte
//! against `tests/snapshots/all_experiments.txt`. The cold iteration
//! starts from a fresh `ExperimentContext` and ends with `save_caches`
//! into an empty directory; the warm iteration starts with `load_caches`
//! from stores written during set-up and saves nothing.

use crate::spans::Spans;
use crate::stats::{self, median, ms, Metric};
use crate::{counter_metrics, Args, Report, JOBS, POOL_JOBS};
use smart_bench::registry::REGISTRY;
use smart_bench::{experiment_names, run_experiment, run_experiments, ExperimentContext};
use smart_report::{ResultTable, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The golden rendering of every experiment, relative to the repository
/// root the benchmark runs from.
const SNAPSHOT: &str = "tests/snapshots/all_experiments.txt";

/// Which of the two figure workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// The four persisted stores, with the public per-store save and load
/// functions `save_caches` / `load_caches` are made of.
type Save = fn(&ExperimentContext, &Path) -> smart_units::Result<()>;
type Load = fn(&ExperimentContext, &Path) -> usize;
const STORES: [(&str, Save, Load); 4] = [
    (
        "eval",
        |c, d| smart_core::cache::save(&c.cache, d),
        |c, d| smart_core::cache::load(&c.cache, d),
    ),
    (
        "circuit",
        |c, d| smart_josim::cache::save(&c.circuits, d),
        |c, d| smart_josim::cache::load(&c.circuits, d),
    ),
    (
        "timing",
        |c, d| smart_timing::persist::save(&c.timing, d),
        |c, d| smart_timing::persist::load(&c.timing, d),
    ),
    (
        "ilp",
        |c, d| c.timing.solver().save_to(d),
        |c, d| c.timing.solver().load_from(d),
    ),
];

/// The snapshot split into one `(name, rendered section)` per table.
struct Golden {
    sections: Vec<(String, String)>,
}

impl Golden {
    fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(SNAPSHOT).map_err(|e| format!("{SNAPSHOT}: {e}"))?;
        let mut sections: Vec<(String, String)> = Vec::new();
        for line in text.split_inclusive('\n') {
            let header = line
                .strip_prefix("==== ")
                .and_then(|l| l.trim_end().strip_suffix(" ===="));
            if let Some(name) = header {
                sections.push((name.to_owned(), String::new()));
            }
            let (_, body) = sections
                .last_mut()
                .ok_or_else(|| format!("{SNAPSHOT} does not start with a section header"))?;
            body.push_str(line);
        }
        Ok(Self { sections })
    }

    /// Tables whose rendering differs from their golden section, plus
    /// missing and extra tables.
    fn mismatches(&self, rendered: &[(String, String)]) -> u64 {
        let differing = self
            .sections
            .iter()
            .enumerate()
            .filter(|(i, golden)| rendered.get(*i) != Some(golden))
            .count();
        (differing + rendered.len().saturating_sub(self.sections.len())) as u64
    }
}

/// A table as `all_experiments` prints it.
fn render(tables: &[ResultTable]) -> Vec<(String, String)> {
    tables
        .iter()
        .map(|t| (t.name.clone(), format!("==== {} ====\n{t}\n", t.name)))
        .collect()
}

/// One untraced iteration: the timed part (context, optional store load,
/// all experiments, rendering, optional store save) and its output.
fn iteration(
    kind: Kind,
    jobs: usize,
    stores: &Path,
    fresh: &Path,
) -> Result<(Duration, Vec<(String, String)>), String> {
    let names = experiment_names();
    let start = Instant::now();
    let ctx = ExperimentContext::new(jobs);
    if kind == Kind::Warm {
        ctx.load_caches(stores);
    }
    let rendered = render(&run_experiments(&names, &ctx));
    if kind == Kind::Cold {
        ctx.save_caches(fresh)
            .map_err(|e| format!("save_caches: {e}"))?;
    }
    let elapsed = start.elapsed();
    if kind == Kind::Cold {
        let _ = std::fs::remove_dir_all(fresh);
    }
    Ok((elapsed, rendered))
}

/// Set-up: read the snapshot, then one cold run that checks it and writes
/// the stores the warm iterations load (and warms the process for both).
fn setup(stores: &Path) -> Result<Golden, String> {
    let golden = Golden::load()?;
    let _ = std::fs::remove_dir_all(stores);
    let names = experiment_names();
    let ctx = ExperimentContext::new(JOBS);
    let rendered = render(&run_experiments(&names, &ctx));
    ctx.save_caches(stores)
        .map_err(|e| format!("save_caches: {e}"))?;
    let bad = golden.mismatches(&rendered);
    if bad > 0 {
        return Err(format!(
            "set-up run differs from {SNAPSHOT} in {bad} tables"
        ));
    }
    Ok(golden)
}

pub fn run(args: &Args, kind: Kind, scratch: &Path, spans: &mut Spans) -> Result<Report, String> {
    let stores = scratch.join("stores");
    let (golden, setups) = stats::repeated_setup(args.setup_repeats(), || setup(&stores))?;
    let mut report = Report::default();
    report.info.push(format!(
        "inputs: the {} registry experiments (fixed; --seed is recorded, not used)",
        REGISTRY.len()
    ));
    if args.trace {
        traced(args, kind, &golden, &stores, scratch, spans, &mut report)?;
        return Ok(report);
    }

    let mut error = None;
    let mut n = 0usize;
    let times = stats::timed_loop(args.seconds, || {
        n += 1;
        match iteration(kind, JOBS, &stores, &scratch.join(format!("cold-{n}"))) {
            Ok((elapsed, rendered)) => {
                report.attempted += REGISTRY.len() as u64;
                report.failed += golden.mismatches(&rendered);
                elapsed
            }
            Err(e) => {
                error.get_or_insert(e);
                Duration::ZERO
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let (metrics, info) = stats::end_to_end(&setups, &times);
    report.metrics = metrics;
    report.info.push(info);
    Ok(report)
}

/// What one traced iteration measured.
struct Traced {
    total_ms: f64,
    group_ms: BTreeMap<&'static str, f64>,
    store_ms: Vec<(&'static str, f64)>,
    store_bytes: u64,
    counters: Vec<Metric>,
}

/// One traced iteration at jobs 1: each experiment in registry order, and
/// each store load (warm) or save (cold), under its own span.
fn traced_iteration(
    kind: Kind,
    id: usize,
    stores: &Path,
    fresh: &Path,
    spans: &mut Spans,
    golden: &Golden,
    report: &mut Report,
) -> Result<Traced, String> {
    let root = spans.open(
        id,
        &format!("figures_{kind:?} iteration").to_lowercase(),
        None,
    );
    let ctx = ExperimentContext::new(1);
    let mut store_ms = Vec::new();
    if kind == Kind::Warm {
        for (name, _, load) in STORES {
            let span = spans.open(id, &format!("load {name}"), Some(root));
            load(&ctx, stores);
            store_ms.push((name, ms(spans.close(span))));
        }
    }
    let mut group_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tables = Vec::with_capacity(REGISTRY.len());
    for d in REGISTRY {
        let span = spans.open(id, &format!("{}/{}", d.group.tag(), d.name), Some(root));
        tables.push((d.run)(&ctx));
        *group_ms.entry(d.group.tag()).or_default() += ms(spans.close(span));
    }
    let rendered = render(&tables);
    let store_dir = match kind {
        Kind::Warm => stores,
        Kind::Cold => {
            std::fs::create_dir_all(fresh).map_err(|e| format!("{}: {e}", fresh.display()))?;
            for (name, save, _) in STORES {
                let span = spans.open(id, &format!("save {name}"), Some(root));
                save(&ctx, fresh).map_err(|e| format!("saving the {name} store: {e}"))?;
                store_ms.push((name, ms(spans.close(span))));
            }
            fresh
        }
    };
    let total_ms = ms(spans.close(root));
    let store_bytes = dir_bytes(store_dir);
    if kind == Kind::Cold {
        let _ = std::fs::remove_dir_all(fresh);
    }
    report.attempted += REGISTRY.len() as u64;
    report.failed += golden.mismatches(&rendered);
    Ok(Traced {
        total_ms,
        group_ms,
        store_ms,
        store_bytes,
        counters: counter_metrics(&ctx.metrics_snapshot()),
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The traced run: rounds of (untraced pooled iteration, untraced jobs-1
/// iteration, traced jobs-1 iteration) until the time is up. The pooled
/// times are the denominator of the pool efficiency; the jobs-1 times are
/// the baseline of the tracing overhead.
fn traced(
    args: &Args,
    kind: Kind,
    golden: &Golden,
    stores: &Path,
    scratch: &Path,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let (mut pooled, mut sequential, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let fresh = |n: usize| -> PathBuf { scratch.join(format!("cold-{n}")) };
    while runs.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let n = runs.len();
        for (jobs, times) in [(POOL_JOBS, &mut pooled), (1, &mut sequential)] {
            let (elapsed, rendered) = iteration(kind, jobs, stores, &fresh(n))?;
            report.attempted += REGISTRY.len() as u64;
            report.failed += golden.mismatches(&rendered);
            times.push(ms(elapsed));
        }
        runs.push(traced_iteration(
            kind,
            n,
            stores,
            &fresh(n),
            spans,
            golden,
            report,
        )?);
    }

    let med = |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mut metrics: Vec<Metric> = [
        "paper", "ablation", "circuit", "timing", "search", "serving",
    ]
    .iter()
    .map(|g| {
        Metric::new(
            format!("exp_ms.{g}"),
            med(&|t| t.group_ms.get(g).copied().unwrap_or(0.0)),
            "ms",
        )
    })
    .collect();
    let verb = if kind == Kind::Cold { "save" } else { "load" };
    for (name, _, _) in STORES {
        let store_ms = med(&|t| {
            t.store_ms
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        });
        metrics.push(Metric::new(
            format!("units.store_{verb}_ms.{name}"),
            store_ms,
            "ms",
        ));
    }
    metrics.push(Metric::new(
        "units.store_bytes",
        med(&|t| t.store_bytes as f64),
        "bytes",
    ));
    let experiments_ms = med(&|t| t.group_ms.values().sum());
    metrics.push(Metric::new(
        "report.pool_efficiency",
        experiments_ms / (POOL_JOBS as f64 * median(&pooled)),
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (med(&|t| t.total_ms) / median(&sequential) - 1.0),
        "%",
    ));
    let first = &runs[0].counters;
    report.check(
        "work counters repeat exactly across traced jobs-1 iterations",
        runs.iter().all(|t| {
            t.counters
                .iter()
                .zip(first)
                .all(|(a, b)| a.value.to_bits() == b.value.to_bits())
        }),
    );
    metrics.extend(first.iter().cloned());
    report.metrics = metrics;
    report.info.push(format!(
        "traced: {} traced jobs-1 iterations, {} untraced jobs-1 (overhead baseline), \
         {} untraced jobs-{POOL_JOBS} (pool efficiency)",
        runs.len(),
        sequential.len(),
        pooled.len()
    ));
    Ok(())
}

/// The informational fidelity block: SMART's geometric-mean gains over
/// SuperNPU (the SHIFT column) in Figs. 18-21, beside the paper's.
pub fn fidelity() -> Result<String, String> {
    let ctx = ExperimentContext::new(JOBS);
    let gmean = |name: &str| -> Result<f64, String> {
        let t = run_experiment(name, &ctx).ok_or_else(|| format!("no experiment {name}"))?;
        gmean_ratio(&t, "SMART", "SHIFT")
    };
    let (single, batch) = (gmean("fig18")?, gmean("fig19")?);
    let (e_single, e_batch) = (1.0 - gmean("fig20")?, 1.0 - gmean("fig21")?);
    Ok(format!(
        "fidelity (informational, not gated): SMART vs SuperNPU (SHIFT) gmean over the six \
         models: single-image throughput {single:.2}x (paper 3.9x), batch throughput \
         {batch:.2}x (paper 2.2x), single-image energy reduction {:.0}% (paper 86%), batch \
         energy reduction {:.0}% (paper 71%); the model is unvalidated beyond these four points",
        100.0 * e_single,
        100.0 * e_batch
    ))
}

/// Geometric mean over a figure's model rows of column `num` / column
/// `den` (the `gmean` summary row excluded).
fn gmean_ratio(t: &ResultTable, num: &str, den: &str) -> Result<f64, String> {
    let col = |label: &str| {
        t.columns
            .iter()
            .position(|c| c.label == label)
            .ok_or_else(|| format!("{} has no column {label}", t.name))
    };
    let (n, d) = (col(num)?, col(den)?);
    let logs: Vec<f64> = t
        .rows
        .iter()
        .filter(|row| !matches!(row.first(), Some(Value::Text(s)) if s == "gmean"))
        .map(|row| {
            let v = |i: usize| row.get(i).and_then(Value::as_display_f64);
            match (v(n), v(d)) {
                (Some(a), Some(b)) if a > 0.0 && b > 0.0 => Ok((a / b).ln()),
                _ => Err(format!("{}: non-numeric or non-positive cell", t.name)),
            }
        })
        .collect::<Result<_, _>>()?;
    if logs.is_empty() {
        return Err(format!("{} has no model rows", t.name));
    }
    Ok((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}
