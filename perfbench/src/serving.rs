//! `serving_mix`: long seeded open-loop traces through
//! `smart_serving::simulate` over tenant profiles built in set-up.
//!
//! Tenants AlexNet:3, MobileNet:1, VGG16:1 on SMART and Pipe; policies
//! FCFS, `quantum 2`, and batch 4 with a one-service-time window; loads
//! 0.5, 0.9 and 1.2 of each scheme's mix capacity; Poisson and bursty
//! arrivals. An op is one simulated request; an iteration is the whole
//! 36-point sweep, each `ServingReport` checked against the set-up
//! reference for the same seed. The seed comes from `--seed`; the
//! simulator receives only the generated `Workload`.

use crate::spans::Spans;
use crate::stats::{self, median, ms, Metric};
use crate::{counter_metrics, Args, Report, JOBS};
use smart_bench::ExperimentContext;
use smart_core::scheme::Scheme;
use smart_report::parallel_map;
use smart_serving::{
    simulate, ArrivalModel, ServingConfig, ServingReport, Tenant, TenantProfile, Workload,
};
use smart_systolic::models::ModelId;
use smart_timing::TimingConfig;
use smart_trace::MetricsSnapshot;
use std::time::Instant;

/// Requests simulated per sweep point.
const REQUESTS: usize = 40_000;

/// Offered loads, as fractions of each scheme's mix capacity.
const LOADS: [f64; 3] = [0.5, 0.9, 1.2];

/// A seed no tuning run used; later performance claims should also hold
/// on it.
const HELD_OUT_SEED: u64 = 7_919;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Fcfs,
    Quantum,
    Batched,
}

impl Policy {
    const ALL: [Self; 3] = [Self::Fcfs, Self::Quantum, Self::Batched];

    fn name(self) -> &'static str {
        match self {
            Self::Fcfs => "fcfs",
            Self::Quantum => "quantum",
            Self::Batched => "batched",
        }
    }
}

fn tenants() -> Vec<Tenant> {
    vec![
        Tenant::of(ModelId::AlexNet, 3.0),
        Tenant::of(ModelId::MobileNet, 1.0),
        Tenant::of(ModelId::Vgg16, 1.0),
    ]
}

fn schemes() -> [Scheme; 2] {
    [Scheme::smart(), Scheme::pipe()]
}

/// One sweep point.
struct Point {
    label: String,
    scheme: usize,
    policy: Policy,
    workload: Workload,
    cfg: ServingConfig,
}

/// Aggregate capacity of a mix in requests per second: the harmonic
/// combination of the tenants' stand-alone rates under their shares.
fn mix_capacity_rps(profiles: &[TenantProfile], tenants: &[Tenant]) -> f64 {
    let total: f64 = tenants.iter().map(|t| t.weight).sum();
    let mean_service_s: f64 = profiles
        .iter()
        .zip(tenants)
        .map(|(p, t)| (t.weight / total) / p.standalone_rps())
        .sum();
    1.0 / mean_service_s
}

/// Builds every tenant profile through one fresh context (the ILP and
/// replay prepass work of this workload), returning its work counters.
fn build_profiles() -> Result<(Vec<Vec<TenantProfile>>, MetricsSnapshot), String> {
    let ctx = ExperimentContext::new(JOBS);
    let cfg = TimingConfig::nominal();
    let profiles = schemes()
        .iter()
        .map(|s| {
            tenants()
                .iter()
                .map(|t| TenantProfile::build(s, t.model, &cfg, &ctx.timing))
                .collect::<smart_units::Result<Vec<_>>>()
        })
        .collect::<smart_units::Result<Vec<_>>>()
        .map_err(|e| format!("tenant profiles: {e}"))?;
    Ok((profiles, ctx.metrics_snapshot()))
}

fn sweep_points(profiles: &[Vec<TenantProfile>], seed: u64) -> Vec<Point> {
    let tenants = tenants();
    let mut points = Vec::new();
    for (s, (scheme, profs)) in schemes().iter().zip(profiles).enumerate() {
        let capacity = mix_capacity_rps(profs, &tenants);
        let service_s = 1.0 / capacity;
        let window = (service_s * profs[0].clock.as_si()) as u64;
        for policy in Policy::ALL {
            let cfg = match policy {
                Policy::Fcfs => ServingConfig::fcfs(),
                Policy::Quantum => ServingConfig::fcfs().with_quantum(2),
                Policy::Batched => ServingConfig::fcfs().with_batching(4, window),
            };
            for load in LOADS {
                let arrivals = [
                    ("poisson", ArrivalModel::Poisson),
                    (
                        "bursty",
                        ArrivalModel::Bursty {
                            on_fraction: 0.25,
                            period_s: 50.0 * service_s,
                        },
                    ),
                ];
                for (arrival_name, model) in arrivals {
                    points.push(Point {
                        label: format!(
                            "{} {} load {load} {arrival_name}",
                            scheme.name,
                            policy.name()
                        ),
                        scheme: s,
                        policy,
                        workload: Workload {
                            tenants: tenants.clone(),
                            arrivals: model,
                            rate_rps: load * capacity,
                            seed,
                        },
                        cfg: cfg.clone(),
                    });
                }
            }
        }
    }
    points
}

/// The set-up of one run: profiles, sweep points, and the reference
/// reports every iteration must reproduce.
struct Setup {
    profiles: Vec<Vec<TenantProfile>>,
    points: Vec<Point>,
    reference: Vec<ServingReport>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let (profiles, _) = build_profiles()?;
    let points = sweep_points(&profiles, seed);
    let reference = sweep(&profiles, &points);
    Ok(Setup {
        profiles,
        points,
        reference,
    })
}

fn sweep(profiles: &[Vec<TenantProfile>], points: &[Point]) -> Vec<ServingReport> {
    parallel_map(JOBS, points, |p| {
        simulate(&profiles[p.scheme], &p.workload, REQUESTS, &p.cfg)
    })
}

/// Requests in reports that differ from the reference.
fn mismatches(reference: &[ServingReport], reports: &[ServingReport]) -> u64 {
    let differing = reference
        .iter()
        .enumerate()
        .filter(|(i, r)| reports.get(*i) != Some(*r))
        .count();
    (differing * REQUESTS) as u64
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Report, String> {
    let (setup, setups) = stats::repeated_setup(args.setup_repeats(), || setup(args.seed))?;
    let mut report = Report::default();
    report.info.push(format!(
        "inputs: seed {} drives every arrival trace ({} points x {REQUESTS} requests); \
         held-out seed for later claims: {HELD_OUT_SEED}",
        args.seed,
        setup.points.len()
    ));
    report.info.push(
        "arrivals are open-loop in simulated time (Workload::trace is consumed by the \
         simulator, not paced by the host), so generator lateness is 0 by construction"
            .to_owned(),
    );
    if args.trace {
        traced(args, &setup, spans, &mut report)?;
        return Ok(report);
    }

    let per_iteration = (setup.points.len() * REQUESTS) as u64;
    let times = stats::timed_loop(args.seconds, || {
        let start = Instant::now();
        let reports = sweep(&setup.profiles, &setup.points);
        let elapsed = start.elapsed();
        report.attempted += per_iteration;
        report.failed += mismatches(&setup.reference, &reports);
        elapsed
    });
    let (metrics, info) = stats::end_to_end(&setups, &times);
    report.metrics = metrics;
    report.info.push(info);
    Ok(report)
}

/// What one traced iteration measured.
struct Traced {
    profile_ms: f64,
    sweep_ms: f64,
    arrivals_ms: f64,
    dispatch_ms: [f64; 3],
}

/// One traced iteration: a timed profile build, then the sweep with each
/// point's arrival generation and simulation timed on its worker.
fn traced_iteration(
    id: usize,
    setup: &Setup,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Traced, String> {
    let span = spans.open(id, "serving.profile_build", None);
    let (profiles, _) = build_profiles()?;
    let profile_ms = ms(spans.close(span));
    report.check(
        format!("iteration {id}: rebuilt tenant profiles equal the set-up's"),
        profiles == setup.profiles,
    );

    let root = spans.open(id, "serving_mix sweep", None);
    let timed = parallel_map(JOBS, &setup.points, |p| {
        let clock = profiles[p.scheme][0].clock;
        let t0 = Instant::now();
        std::hint::black_box(p.workload.trace(REQUESTS, clock));
        let t1 = Instant::now();
        let r = simulate(&profiles[p.scheme], &p.workload, REQUESTS, &p.cfg);
        (r, t0, t1, Instant::now())
    });
    let sweep_ms = ms(spans.close(root));

    let mut t = Traced {
        profile_ms,
        sweep_ms,
        arrivals_ms: 0.0,
        dispatch_ms: [0.0; 3],
    };
    let mut reports = Vec::with_capacity(timed.len());
    for (p, (r, t0, t1, t2)) in setup.points.iter().zip(timed) {
        spans.record(id, &format!("arrivals {}", p.label), Some(root), t0, t1);
        spans.record(id, &format!("simulate {}", p.label), Some(root), t1, t2);
        let arrivals = t1 - t0;
        t.arrivals_ms += ms(arrivals);
        // `simulate` regenerates the same trace internally; its dispatch
        // share is the rest.
        let slot = Policy::ALL.iter().position(|q| *q == p.policy).unwrap_or(0);
        t.dispatch_ms[slot] += ms((t2 - t1).saturating_sub(arrivals));
        reports.push(r);
    }
    report.attempted += (setup.points.len() * REQUESTS) as u64;
    report.failed += mismatches(&setup.reference, &reports);
    Ok(t)
}

/// The traced run: alternating untraced sweeps (the overhead baseline)
/// and traced iterations.
fn traced(
    args: &Args,
    setup: &Setup,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let (mut untraced, mut runs) = (Vec::new(), Vec::new());
    while runs.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let reports = sweep(&setup.profiles, &setup.points);
        untraced.push(ms(t0.elapsed()));
        report.attempted += (setup.points.len() * REQUESTS) as u64;
        report.failed += mismatches(&setup.reference, &reports);
        runs.push(traced_iteration(runs.len(), setup, spans, report)?);
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let requests = (setup.points.len() * REQUESTS) as f64;
    let dispatch_ms: f64 = med(&|t| t.dispatch_ms.iter().sum());
    let reference = &setup.reference;
    let mean = |f: fn(&ServingReport) -> f64| {
        reference.iter().map(f).sum::<f64>() / reference.len().max(1) as f64
    };
    let mut metrics = vec![
        Metric::new("serving.profile_ms", med(&|t| t.profile_ms), "ms"),
        Metric::new("serving.arrivals_ms", med(&|t| t.arrivals_ms), "ms"),
    ];
    for (slot, policy) in Policy::ALL.iter().enumerate() {
        metrics.push(Metric::new(
            format!("serving.dispatch_ms.{}", policy.name()),
            med(&|t| t.dispatch_ms[slot]),
            "ms",
        ));
    }
    metrics.extend([
        Metric::new(
            "serving.dispatch_ns_per_request",
            1e6 * dispatch_ms / requests,
            "ns",
        ),
        Metric::new(
            "serving.switches",
            reference.iter().map(|r| r.switches as f64).sum(),
            "count",
        ),
        Metric::new(
            "serving.utilization",
            mean(ServingReport::utilization),
            "ratio",
        ),
        Metric::new(
            "serving.thrash_overhead",
            mean(ServingReport::thrash_overhead),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (med(&|t| t.sweep_ms) / median(&untraced) - 1.0),
            "%",
        ),
    ]);
    let (_, snapshot) = build_profiles()?;
    metrics.extend(counter_metrics(&snapshot));
    report.metrics = metrics;
    report.info.push(format!(
        "traced: {} traced sweeps, {} untraced (overhead baseline); work counters are the \
         profile build's (set-up work)",
        runs.len(),
        untraced.len()
    ));
    Ok(())
}
