//! One multi-tenant serving simulation from the command line: pick a
//! scheme, a tenant mix, an offered load, and a dispatch policy, and get
//! the full latency/goodput/thrash report as a table.
//!
//! Unlike the `serving_*` experiments (fixed sweeps for the golden
//! snapshot), this binary exposes every simulator knob, so it is the
//! interactive front end for exploring the serving design space.

use smart_bench::cli::{
    self, parse_non_negative, parse_non_negative_int, parse_positive, CliSpec, ExtraFlag,
};
use smart_bench::count_serving_work;
use smart_core::scheme::Scheme;
use smart_report::{ColumnSpec, ResultTable, Unit, Value};
use smart_serving::{
    mix_capacity_rps, simulate_traced, ArrivalModel, ServingConfig, Tenant, TenantProfile, Workload,
};
use smart_systolic::models::ModelId;
use smart_timing::TimingConfig;
use std::process::ExitCode;

const SPEC: CliSpec = CliSpec {
    bin: "serving_sim",
    about: "Run one multi-tenant serving simulation with explicit knobs",
    extras: &[
        ExtraFlag {
            flag: "--scheme",
            value: Some("NAME"),
            help: "heter | pipe | smart (default: smart)",
        },
        ExtraFlag {
            flag: "--tenant",
            value: Some("MODEL[:W]"),
            help: "add a tenant with traffic weight W (repeatable; default: alexnet:3 mobilenet:1)",
        },
        ExtraFlag {
            flag: "--load",
            value: Some("F"),
            help: "offered load as a fraction of mix capacity (default: 0.7)",
        },
        ExtraFlag {
            flag: "--rate",
            value: Some("RPS"),
            help: "absolute offered rate in requests/s (overrides --load)",
        },
        ExtraFlag {
            flag: "--requests",
            value: Some("N"),
            help: "requests to inject (default: 400)",
        },
        ExtraFlag {
            flag: "--batch",
            value: Some("N"),
            help: "max batch size per launch (default: 1)",
        },
        ExtraFlag {
            flag: "--window-us",
            value: Some("US"),
            help: "batch formation window in microseconds (default: 0)",
        },
        ExtraFlag {
            flag: "--quantum",
            value: Some("N"),
            help: "preemption quantum in layers, 0 = run to completion (default: 0)",
        },
        ExtraFlag {
            flag: "--bursty",
            value: None,
            help: "on/off modulated arrivals (25% duty, 200 us period) instead of Poisson",
        },
        ExtraFlag {
            flag: "--seed",
            value: Some("N"),
            help: "trace seed (default: 42)",
        },
        ExtraFlag {
            flag: "--slo-factor",
            value: Some("N"),
            help: "SLO deadline as a multiple of each tenant's stand-alone latency (default: 8)",
        },
    ],
    positional: None,
};

/// Most requests one run may inject. The simulator reads arrivals one
/// fixed-size block at a time, so its state per request is an 8 B latency
/// sample, plus an 8 B queue slot per request waiting at the deepest
/// backlog: at most 16 B, so this bound caps a run near 1.6 GB. Counts
/// far past it exhaust memory or abort on a failed allocation mid-run
/// instead of at parse time.
const MAX_REQUESTS: usize = 100_000_000;

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", SPEC.usage());
    std::process::exit(2);
}

fn parse_scheme(name: &str) -> Scheme {
    match name.to_ascii_lowercase().as_str() {
        "heter" => Scheme::heter(),
        "pipe" => Scheme::pipe(),
        "smart" => Scheme::smart(),
        other => fail(&format!(
            "unknown scheme `{other}`; serving schemes: heter pipe smart"
        )),
    }
}

fn parse_tenant(spec: &str) -> Tenant {
    let (name, weight) = match spec.split_once(':') {
        Some((n, w)) => {
            let weight: f64 = w
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x > 0.0)
                .unwrap_or_else(|| fail(&format!("tenant weight `{w}` needs a positive number")));
            (n, weight)
        }
        None => (spec, 1.0),
    };
    let model = ModelId::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            let known: Vec<&str> = ModelId::ALL.iter().map(|m| m.name()).collect();
            fail(&format!(
                "unknown model `{name}`; models: {}",
                known.join(" ")
            ))
        });
    Tenant::of(model, weight)
}

fn main() -> ExitCode {
    let args = SPEC.parse_env_or_exit();

    let selected = args.filters.is_empty()
        || args
            .filters
            .iter()
            .any(|f| "serving_sim".contains(f.as_str()) || f == "serving");
    if args.list {
        if selected {
            cli::write_stdout("serving_sim\n");
        }
        return ExitCode::SUCCESS;
    }
    if !selected {
        return ExitCode::SUCCESS;
    }

    let unwrap = |r: Result<f64, String>| r.unwrap_or_else(|e| fail(&e));
    let scheme = parse_scheme(args.value_of("--scheme").unwrap_or("smart"));
    let tenants: Vec<Tenant> = {
        let specs: Vec<&str> = args
            .extras
            .iter()
            .filter(|(f, _)| f == "--tenant")
            .filter_map(|(_, v)| v.as_deref())
            .collect();
        if specs.is_empty() {
            vec![
                Tenant::of(ModelId::AlexNet, 3.0),
                Tenant::of(ModelId::MobileNet, 1.0),
            ]
        } else {
            specs.iter().map(|s| parse_tenant(s)).collect()
        }
    };
    let load = unwrap(parse_non_negative(
        "--load",
        Some(args.value_of("--load").unwrap_or("0.7")),
    ));
    let requests = parse_positive(
        "--requests",
        Some(args.value_of("--requests").unwrap_or("400")),
    )
    .ok()
    .filter(|&n| n <= MAX_REQUESTS)
    .unwrap_or_else(|| {
        fail(&format!(
            "--requests needs a positive integer of at most {MAX_REQUESTS} \
             (up to 16 B of simulator state per request)"
        ))
    });
    let batch = parse_positive("--batch", Some(args.value_of("--batch").unwrap_or("1")))
        .unwrap_or_else(|e| fail(&e));
    let window_us = unwrap(parse_non_negative(
        "--window-us",
        Some(args.value_of("--window-us").unwrap_or("0")),
    ));
    let quantum: u32 =
        parse_non_negative_int("--quantum", Some(args.value_of("--quantum").unwrap_or("0")))
            .unwrap_or_else(|e| fail(&e));
    let seed: u64 = parse_non_negative_int("--seed", Some(args.value_of("--seed").unwrap_or("42")))
        .unwrap_or_else(|e| fail(&e));
    let slo_factor: u64 = parse_non_negative_int(
        "--slo-factor",
        Some(args.value_of("--slo-factor").unwrap_or("8")),
    )
    .unwrap_or_else(|e| fail(&e));
    if args.value_of("--rate").is_some() {
        // Validate eagerly so a bad value fails before the ILP prepass.
        let _ = unwrap(parse_non_negative("--rate", args.value_of("--rate")));
    }

    let ctx = args.context();
    if let Some(dir) = args.cache_dir.as_deref() {
        ctx.load_caches_verbose(dir);
    }

    let cfg = TimingConfig::nominal();
    let profs: Vec<TenantProfile> = tenants
        .iter()
        .map(|t| {
            TenantProfile::build(&scheme, t.model, &cfg, &ctx.timing)
                .unwrap_or_else(|e| fail(&format!("cannot profile {}: {e}", t.model.name())))
        })
        .collect();

    // Same capacity definition as the serving experiments.
    let capacity_rps = mix_capacity_rps(&profs, &tenants);
    let rate = match args.value_of("--rate") {
        Some(r) => unwrap(parse_non_negative("--rate", Some(r))),
        None => load * capacity_rps,
    };
    // A huge `--load`, or tenant weights whose sum overflows, makes it inf.
    if !(rate.is_finite() && rate > 0.0) {
        fail(&format!(
            "offered rate must be a finite positive number of requests/s, not {rate}; \
             change --load or --rate"
        ));
    }

    let arrivals = if args.has("--bursty") {
        ArrivalModel::Bursty {
            on_fraction: 0.25,
            period_s: 2e-4,
        }
    } else {
        ArrivalModel::Poisson
    };
    let workload = Workload {
        tenants: tenants.clone(),
        arrivals,
        rate_rps: rate,
        seed,
    };

    let clock = profs[0].clock;
    // Seconds convert to cycles with a saturating cast, so at a low enough
    // rate the later arrivals all pile onto `u64::MAX`. Arrivals never
    // decrease, so the last one tells; streaming to it holds one block.
    let (mut arrivals, mut block) = (workload.arrivals(requests, clock), Vec::new());
    let mut last_arrival = 0;
    while arrivals.next_block(&mut block) {
        last_arrival = block.last().map_or(last_arrival, |r| r.arrival);
    }
    if last_arrival == u64::MAX {
        fail(
            "offered rate too low: arrivals overflow the simulator's 64-bit cycle clock; \
             raise --load or --rate",
        );
    }
    let mut config = ServingConfig::fcfs()
        .with_batching(
            u32::try_from(batch).unwrap_or(u32::MAX),
            (window_us * 1e-6 * clock.as_si()) as u64,
        )
        .with_quantum(quantum);
    if slo_factor > 0 {
        let deadlines = profs
            .iter()
            .map(|p| p.standalone_cycles().checked_mul(slo_factor))
            .collect::<Option<Vec<u64>>>()
            .unwrap_or_else(|| {
                fail(
                    "--slo-factor too large: SLO deadlines overflow the simulator's 64-bit \
                     cycle clock; lower --slo-factor",
                )
            });
        config = config.with_slo(deadlines);
    }

    let report = simulate_traced(
        &profs,
        &workload,
        requests,
        &config,
        &ctx.tracer,
        "serving/",
    );
    count_serving_work(&ctx, std::slice::from_ref(&report));

    let mut t = ResultTable::new(
        "serving_sim",
        format!(
            "Serving simulation: {} on {}, {:.0} rps ({:.0}% of capacity)",
            tenants
                .iter()
                .map(|t| format!("{}:{:.0}", t.model.name(), t.weight))
                .collect::<Vec<_>>()
                .join("+"),
            scheme.name,
            rate,
            100.0 * rate / capacity_rps
        ),
    );
    t.columns = vec![
        ColumnSpec::left("metric", 22),
        ColumnSpec::right("value", 14),
    ];
    let rows: Vec<(&str, Value)> = vec![
        ("injected", Value::count(report.injected)),
        ("completed", Value::count(report.completed)),
        ("slo met", Value::count(report.slo_met)),
        ("p50 latency", Value::time(report.p50(), Unit::Us, 3)),
        ("p99 latency", Value::time(report.p99(), Unit::Us, 3)),
        ("p999 latency", Value::time(report.p999(), Unit::Us, 3)),
        (
            "throughput (krps)",
            Value::num(report.throughput_rps() / 1e3, 2),
        ),
        ("goodput (krps)", Value::num(report.goodput_rps() / 1e3, 2)),
        ("utilization", Value::percent(report.utilization(), 1)),
        ("SPM thrash", Value::percent(report.thrash_overhead(), 1)),
        ("context switches", Value::count(report.switches)),
        ("SLO attainment", Value::percent(report.slo_attainment(), 1)),
    ];
    for (metric, value) in rows {
        t.push_row(vec![Value::text(metric), value]);
    }
    for (tenant, stats) in tenants.iter().zip(&report.per_tenant) {
        t.push_note(format!(
            "{}: {} injected, {} completed, {} within SLO",
            tenant.model.name(),
            stats.injected,
            stats.completed,
            stats.slo_met
        ));
    }
    t.push_note(format!(
        "policy: batch {batch}, window {window_us} us, quantum {quantum} layers, \
         seed {seed}, SLO = {slo_factor}x stand-alone"
    ));

    cli::print_table(&t, args.format);
    if let Some(dir) = args.cache_dir.as_deref() {
        ctx.save_caches_or_warn(dir);
    }
    if !cli::emit_observability(&args, &ctx) {
        return ExitCode::FAILURE;
    }
    if args.check && !cli::check_tables(std::slice::from_ref(&t)) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
