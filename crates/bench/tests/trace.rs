//! End-to-end observability tests: `--trace-out` wiring from the shared
//! CLI through a traced experiment run to the Chrome trace-event JSON.
//!
//! The exporter's unit tests cover validation and escaping; these tests
//! pin the integration claims: a traced run records per-tenant serving
//! lanes and ILP solver lanes, the emitted JSON has the Chrome
//! trace-event shape, two same-seed traced runs serialize byte-identically,
//! and tracing changes nothing about the tables themselves.

use smart_bench::cli::{CliSpec, Parsed};
use smart_bench::{run_experiment, ExperimentContext};
use smart_trace::{chrome, Tracer};

/// A traced single-threaded context, the way `--trace-out` builds one.
fn traced_context() -> ExperimentContext {
    let spec = CliSpec {
        bin: "trace_test",
        about: "traced run",
        extras: &[],
        positional: None,
    };
    let argv = ["--jobs", "1", "--trace-out", "unused.json"];
    match spec.parse(argv.iter().map(|s| (*s).to_owned())) {
        Ok(Parsed::Run(args)) => {
            let ctx = args.context();
            assert!(ctx.tracer.is_enabled(), "--trace-out enables the tracer");
            ctx
        }
        other => panic!("expected a run, got {other:?}"),
    }
}

#[test]
fn traced_serving_run_is_byte_identical_and_chrome_shaped() {
    let run = |_: u32| {
        let ctx = traced_context();
        let table = run_experiment("serving_batch_tail", &ctx).expect("known name");
        let json = chrome::export(&ctx.tracer).expect("traced run must validate");
        (table.to_text(), json, ctx)
    };
    let (text_a, json_a, ctx) = run(0);
    let (text_b, json_b, _) = run(1);

    // Determinism: same seed, same bytes — table and trace both.
    assert_eq!(text_a, text_b);
    assert_eq!(json_a, json_b);

    // Tracing is observability only: the table matches an untraced run.
    let untraced = run_experiment("serving_batch_tail", &ExperimentContext::single_threaded())
        .expect("known name");
    assert_eq!(text_a, untraced.to_text());

    // The run recorded per-policy serving lanes with request lifecycle
    // events, and the ILP prepasses behind the tenant profiles landed in
    // solver lanes of the same trace.
    let lanes = ctx.tracer.lanes();
    assert!(
        lanes
            .keys()
            .any(|l| l.starts_with("serving_batch_tail/") && l.contains("tenant 0")),
        "missing per-tenant serving lane: {:?}",
        lanes.keys().collect::<Vec<_>>()
    );
    assert!(
        lanes.keys().any(|l| l.starts_with("ilp/")),
        "missing ILP solver lane"
    );
    for name in ["arrive", "complete", "dispatch batch=", "solve"] {
        assert!(
            lanes.values().flatten().any(|e| e.name.starts_with(name)),
            "no `{name}` event recorded"
        );
    }

    // Chrome trace-event shape, checked against the raw bytes: the
    // traceEvents envelope, one metadata record per lane, balanced
    // B/E phases, and braces that pair up.
    assert!(json_a.starts_with("{\"traceEvents\":[\n"), "{json_a}");
    assert!(json_a.ends_with("\n]}\n"), "{json_a}");
    let count = |needle: &str| json_a.matches(needle).count();
    assert_eq!(count("\"ph\":\"M\""), lanes.len());
    assert_eq!(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
    assert!(count("\"ph\":\"i\"") > 0, "no instants in the trace");
    assert_eq!(count("{"), count("}"));
    // Every record carries the single process id and a positive tid.
    assert_eq!(count("\"pid\":1"), ctx.tracer.event_count() + lanes.len());
}

#[test]
fn untraced_context_records_nothing_and_exports_the_empty_envelope() {
    let ctx = ExperimentContext::single_threaded();
    assert!(!ctx.tracer.is_enabled());
    let _ = run_experiment("table2", &ctx).expect("known name");
    assert_eq!(ctx.tracer.event_count(), 0);
    assert_eq!(
        chrome::export(&ctx.tracer).expect("valid"),
        chrome::export(&Tracer::disabled()).expect("valid")
    );
}
