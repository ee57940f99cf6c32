//! Round-trip of the shared CLI across the crate's drivers: each one
//! must accept the standard flag set and print the canonical error
//! strings, so no driver can drift from `smart_bench::cli`. Every
//! registry experiment is also selected by name through
//! `all_experiments`, the one way to run a single experiment.
//!
//! Most invocations stay on the parse path (`--help`, `--list`, bad
//! flags); only the by-name snapshot check runs experiments, and only
//! cheap ones.

use std::process::{Command, Output};

const ALL_EXPERIMENTS: &str = env!("CARGO_BIN_EXE_all_experiments");

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `--help` exits 0 and documents the standard flags; `names` are
/// positional experiment names placed before it.
fn check_help(bin: &str, exe: &str, names: &[&str]) {
    let out = run(exe, &[names, &["--help"]].concat());
    assert!(out.status.success(), "{bin} --help failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--jobs N",
        "--json",
        "--csv",
        "--check",
        "--cache-dir DIR",
        "--list",
        "--filter TAG",
    ] {
        assert!(text.contains(flag), "{bin} --help is missing `{flag}`");
    }
}

/// A bad `--jobs` exits 2 with the one canonical message, and an
/// unknown flag exits 2 and lists the accepted flags.
fn check_bad_flags(bin: &str, exe: &str, names: &[&str]) {
    let out = run(exe, &[names, &["--jobs", "0"]].concat());
    assert_eq!(out.status.code(), Some(2), "{bin} --jobs 0: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("--jobs needs a positive integer"),
        "{bin}: {err}"
    );
    let out = run(exe, &[names, &["--definitely-bogus"]].concat());
    assert_eq!(out.status.code(), Some(2), "{bin} bogus flag: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("unknown flag `--definitely-bogus`; flags: "),
        "{bin}: {err}"
    );
    assert!(err.contains("--jobs N"), "{bin}: {err}");
}

/// `--list` exits 0 without running anything; given `names`, it lists
/// exactly those experiments. A filter that matches nothing lists (and
/// would run) nothing.
fn check_list(bin: &str, exe: &str, names: &[&str]) {
    let out = run(exe, &[&["--list"], names].concat());
    assert!(out.status.success(), "{bin} --list failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.is_empty(), "{bin} --list printed nothing");
    if !names.is_empty() {
        let listed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(listed, names, "{bin} --list {names:?}: {text}");
    }
    let none = run(
        exe,
        &[&["--list", "--filter", "zzz_no_such_tag"], names].concat(),
    );
    assert!(none.status.success(), "{bin} filtered --list: {none:?}");
    assert!(
        none.stdout.is_empty(),
        "{bin} --list matched a nonsense filter: {:?}",
        String::from_utf8_lossy(&none.stdout)
    );
}

/// Three parse-path tests per module: one module per driver, and one per
/// registry experiment (named after its builder function) run as
/// `all_experiments NAME`, the one way to run a single experiment, whose
/// `--list NAME` must list exactly that experiment.
macro_rules! cli_round_trip {
    ($($module:ident: $exe:ident $(($name:literal))?),* $(,)?) => {
        $(
            mod $module {
                const EXE: &str = env!(concat!("CARGO_BIN_EXE_", stringify!($exe)));
                const NAMES: &[&str] = &[$($name)?];

                #[test]
                fn help_documents_the_standard_flags() {
                    super::check_help(stringify!($module), EXE, NAMES);
                }

                #[test]
                fn bad_jobs_and_unknown_flags_exit_2() {
                    super::check_bad_flags(stringify!($module), EXE, NAMES);
                }

                #[test]
                fn list_runs_nothing() {
                    super::check_list(stringify!($module), EXE, NAMES);
                }
            }
        )*
    };
}

cli_round_trip![
    all_experiments: all_experiments,
    pareto_search: pareto_search,
    serving_sim: serving_sim,
    ablation_ilp_vs_greedy: all_experiments("ablation_ilp_vs_greedy"),
    ablation_lane_length: all_experiments("ablation_lane_length"),
    fig02_wires: all_experiments("fig02"),
    fig05_homogeneous: all_experiments("fig05"),
    fig06_trace: all_experiments("fig06"),
    fig07_hetero: all_experiments("fig07"),
    fig09_htree_breakdown: all_experiments("fig09"),
    fig12_subbank_validation: all_experiments("fig12"),
    fig13_josim_validation: all_experiments("fig13"),
    fig14_design_space: all_experiments("fig14"),
    fig16_access_energy: all_experiments("fig16"),
    fig17_area: all_experiments("fig17"),
    fig18_single_speedup: all_experiments("fig18"),
    fig19_batch_speedup: all_experiments("fig19"),
    fig20_single_energy: all_experiments("fig20"),
    fig21_batch_energy: all_experiments("fig21"),
    fig22_shift_capacity: all_experiments("fig22"),
    fig23_random_capacity: all_experiments("fig23"),
    fig24_prefetch: all_experiments("fig24"),
    fig25_write_latency: all_experiments("fig25"),
    josim_fanout_characterization: all_experiments("josim_fanout"),
    josim_jtl_characterization: all_experiments("josim_jtl"),
    josim_ptl_characterization: all_experiments("josim_ptl"),
    search_frontier: all_experiments("search_frontier"),
    search_frontier_gap: all_experiments("search_frontier_gap"),
    search_warm_vs_cold: all_experiments("search_warm_vs_cold"),
    serving_batch_tail: all_experiments("serving_batch_tail"),
    serving_saturation: all_experiments("serving_saturation"),
    serving_tenant_mix: all_experiments("serving_tenant_mix"),
    table1_memories: all_experiments("table1"),
    table2_components: all_experiments("table2"),
    table4_configs: all_experiments("table4"),
    timing_buffer_depth: all_experiments("timing_buffer_depth"),
    timing_random_bandwidth: all_experiments("timing_random_bandwidth"),
    timing_stall_breakdown: all_experiments("timing_stall_breakdown"),
];

/// `all_experiments NAME...` prints exactly those sections of the golden
/// snapshot, in the order asked for, and an unknown name exits 1. (Each
/// module above checks that `--list NAME` lists only that experiment.)
#[test]
fn selecting_experiments_by_name_reproduces_the_snapshot() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/snapshots/all_experiments.txt"
    );
    let snapshot = std::fs::read_to_string(path).expect("committed snapshot");
    let section = |name: &str| {
        let start = snapshot
            .find(&format!("==== {name} ====\n"))
            .unwrap_or_else(|| panic!("no `{name}` section in the snapshot"));
        let end = snapshot[start..]
            .find("\n==== ")
            .map_or(snapshot.len(), |i| start + i + 1);
        snapshot[start..end].to_owned()
    };

    let names = ["table2", "fig16", "table4"];
    let out = run(ALL_EXPERIMENTS, &[&["--jobs", "1"], &names[..]].concat());
    assert!(out.status.success(), "{out:?}");
    let expected: String = names.iter().map(|n| section(n)).collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);

    let unknown = run(ALL_EXPERIMENTS, &["fig1"]);
    assert_eq!(unknown.status.code(), Some(1), "{unknown:?}");
    assert!(unknown.stdout.is_empty(), "{unknown:?}");
}

/// `serving_sim`'s integer knobs reject a fraction or an exponent with
/// the canonical message instead of truncating it: `--slo-factor 0.5`
/// truncated to 0 would silently switch the SLO off.
#[test]
fn serving_sim_integer_flags_are_not_truncated() {
    let exe = env!("CARGO_BIN_EXE_serving_sim");
    for (flag, value) in [
        ("--slo-factor", "0.5"),
        ("--quantum", "2.9"),
        ("--seed", "1e30"),
    ] {
        let out = run(exe, &[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("{flag} needs a non-negative integer")),
            "{flag} {value}: {err}"
        );
    }
}

/// An offered rate so low that arrivals overflow the 64-bit cycle clock
/// exits 2 with one canonical message instead of simulating requests
/// piled onto the last cycle; a low rate that still fits runs.
#[test]
fn serving_sim_rejects_rates_that_overflow_the_cycle_clock() {
    let exe = env!("CARGO_BIN_EXE_serving_sim");
    for args in [["--load", "1e-12"], ["--rate", "1e-300"]] {
        let out = run(exe, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(
                "offered rate too low: arrivals overflow the simulator's 64-bit cycle clock"
            ),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
    let out = run(exe, &["--load", "1e-9"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// An offered rate that is not finite and positive exits 2 naming the
/// flags, whether `--load` overflows it or the tenant weights' sum makes
/// the mix capacity infinite.
#[test]
fn serving_sim_rejects_offered_rates_that_are_not_finite() {
    let exe = env!("CARGO_BIN_EXE_serving_sim");
    let huge = ["--tenant", "alexnet:1e308", "--tenant", "vgg16:1e308"];
    for args in [&["--load", "1e308"][..], &["--load", "0"], &huge] {
        let out = run(exe, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("offered rate must be a finite positive number")
                && err.contains("--load or --rate"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

/// An `--slo-factor` whose deadlines overflow the 64-bit cycle clock
/// exits 2 with one canonical message instead of wrapping every deadline
/// below the tenants' own stand-alone latency; a large factor that still
/// fits runs.
#[test]
fn serving_sim_rejects_slo_deadlines_that_overflow_the_cycle_clock() {
    let exe = env!("CARGO_BIN_EXE_serving_sim");
    for factor in ["9709814314377", "18446744073709551615"] {
        let out = run(exe, &["--slo-factor", factor]);
        assert_eq!(out.status.code(), Some(2), "{factor}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(
                "--slo-factor too large: SLO deadlines overflow the simulator's 64-bit cycle clock"
            ),
            "{factor}: {err}"
        );
        assert!(out.stdout.is_empty(), "{factor}: {out:?}");
    }
    let out = run(exe, &["--slo-factor", "1000000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// A `--requests` count past the simulator's memory bound exits 2 with
/// one canonical message before any tenant profile is built, instead of
/// panicking on a capacity overflow (`usize::MAX`) or growing
/// gigabytes of latency samples (bound + 1).
#[test]
fn serving_sim_rejects_request_counts_past_the_memory_bound() {
    let exe = env!("CARGO_BIN_EXE_serving_sim");
    for count in ["18446744073709551615", "100000001"] {
        let out = run(exe, &["--requests", count]);
        assert_eq!(out.status.code(), Some(2), "{count}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("--requests needs a positive integer of at most 100000000"),
            "{count}: {err}"
        );
        assert!(out.stdout.is_empty(), "{count}: {out:?}");
    }
}

/// A reader that closes the pipe after one line (`all_experiments |
/// head -1`) ends the run quietly with status 0, for the listing and the
/// table output alike. Each run repeats a cheap experiment until its
/// output overflows the pipe buffer, so the writer is still writing when
/// the pipe closes.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let exe = ALL_EXPERIMENTS;
    for (mode, repeats) in [(Some("--list"), 4000), (None, 1000)] {
        let mut child = Command::new(exe)
            .args(["--jobs", "1"])
            .args(mode)
            .args(std::iter::repeat_n("table2", repeats))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut first)
            .expect("reads the first line");
        let out = child.wait_with_output().expect("waits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(first.contains("table2"), "{mode:?}: {first}");
        assert_eq!(out.status.code(), Some(0), "{mode:?}: {err}");
        assert!(!err.contains("panicked"), "{mode:?}: {err}");
    }
}

// `bench_check` has no `--list` mode (it gates two files, it does not
// run experiments), so it is exercised on the parse paths and on small
// baseline/current file pairs.
mod bench_check {
    const EXE: &str = env!("CARGO_BIN_EXE_bench_check");

    #[test]
    fn help_documents_the_standard_flags() {
        super::check_help("bench_check", EXE, &[]);
    }

    #[test]
    fn bad_jobs_and_unknown_flags_exit_2() {
        super::check_bad_flags("bench_check", EXE, &[]);
    }

    #[test]
    fn missing_baseline_fails_with_usage() {
        let out = super::run(EXE, &[]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--baseline"), "{err}");
    }

    /// Writes a shim-format results file holding `ids`, all at 100 ns.
    fn results_file(name: &str, ids: &[&str]) -> std::path::PathBuf {
        let entries: Vec<String> = ids
            .iter()
            .map(|id| format!("{{ \"id\": \"{id}\", \"mean_ns\": 100.0 }}"))
            .collect();
        let path = std::env::temp_dir().join(format!(
            "smart-bench-check-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!("{{\"benchmarks\": [{}]}}", entries.join(", ")),
        )
        .expect("writes the results file");
        path
    }

    /// A gated benchmark that disappears from the current run fails the
    /// gate by name; an ungated one stays informational.
    #[test]
    fn a_missing_gated_benchmark_fails_the_gate() {
        let baseline = results_file("baseline", &["ilp_a", "ilp_b", "other_c"]);
        let current = results_file("current", &["ilp_a"]);
        let (b, c) = (
            baseline.to_str().expect("utf-8 temp path"),
            current.to_str().expect("utf-8 temp path"),
        );
        let gated = super::run(EXE, &["--baseline", b, "--current", c, "--filter", "ilp_"]);
        let ungated = super::run(EXE, &["--baseline", b, "--current", c, "--filter", "ilp_a"]);
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&current).ok();

        assert_eq!(gated.status.code(), Some(1), "{gated:?}");
        let err = String::from_utf8_lossy(&gated.stderr);
        assert!(
            err.contains("missing from") && err.contains("ilp_b"),
            "{err}"
        );
        assert!(
            !err.contains("FAIL  other_c"),
            "ungated ids never fail: {err}"
        );
        assert_eq!(ungated.status.code(), Some(0), "{ungated:?}");
    }
}
