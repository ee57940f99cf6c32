//! Round-trip of the shared CLI across every binary in the crate: each
//! one must accept the standard flag set and print the canonical error
//! strings, so no binary can drift from `smart_bench::cli`.
//!
//! Only parse-path invocations are exercised (`--help`, `--list`, bad
//! flags) — nothing here runs an experiment, so the whole suite is a few
//! hundred process spawns.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `--help` exits 0 and documents the standard flags.
fn check_help(bin: &str, exe: &str) {
    let out = run(exe, &["--help"]);
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

/// A bad `--jobs` exits 2 with the one canonical message.
fn check_bad_jobs(bin: &str, exe: &str) {
    let out = run(exe, &["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "{bin} --jobs 0: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("--jobs needs a positive integer"),
        "{bin}: {err}"
    );
}

/// An unknown flag exits 2 and lists the accepted flags.
fn check_unknown_flag(bin: &str, exe: &str) {
    let out = run(exe, &["--definitely-bogus"]);
    assert_eq!(out.status.code(), Some(2), "{bin} bogus flag: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("unknown flag `--definitely-bogus`; flags: "),
        "{bin}: {err}"
    );
    assert!(err.contains("--jobs N"), "{bin}: {err}");
}

/// `--list` exits 0 without running anything; a filter that matches
/// nothing lists (and would run) nothing.
fn check_list(bin: &str, exe: &str) {
    let out = run(exe, &["--list"]);
    assert!(out.status.success(), "{bin} --list failed: {out:?}");
    assert!(!out.stdout.is_empty(), "{bin} --list printed nothing");
    let none = run(exe, &["--list", "--filter", "zzz_no_such_tag"]);
    assert!(none.status.success(), "{bin} filtered --list: {none:?}");
    assert!(
        none.stdout.is_empty(),
        "{bin} --list matched a nonsense filter: {:?}",
        String::from_utf8_lossy(&none.stdout)
    );
}

macro_rules! cli_round_trip {
    ($($bin:ident),* $(,)?) => {
        $(
            mod $bin {
                const EXE: &str = env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));

                #[test]
                fn help_documents_the_standard_flags() {
                    super::check_help(stringify!($bin), EXE);
                }

                #[test]
                fn bad_jobs_and_unknown_flags_exit_2() {
                    super::check_bad_jobs(stringify!($bin), EXE);
                    super::check_unknown_flag(stringify!($bin), EXE);
                }

                #[test]
                fn list_runs_nothing() {
                    super::check_list(stringify!($bin), EXE);
                }
            }
        )*
    };
}

cli_round_trip![
    ablation_ilp_vs_greedy,
    ablation_lane_length,
    all_experiments,
    fig02_wires,
    fig05_homogeneous,
    fig06_trace,
    fig07_hetero,
    fig09_htree_breakdown,
    fig12_subbank_validation,
    fig13_josim_validation,
    fig14_design_space,
    fig16_access_energy,
    fig17_area,
    fig18_single_speedup,
    fig19_batch_speedup,
    fig20_single_energy,
    fig21_batch_energy,
    fig22_shift_capacity,
    fig23_random_capacity,
    fig24_prefetch,
    fig25_write_latency,
    josim_fanout_characterization,
    josim_jtl_characterization,
    josim_ptl_characterization,
    pareto_search,
    search_frontier,
    search_frontier_gap,
    search_warm_vs_cold,
    serving_batch_tail,
    serving_saturation,
    serving_sim,
    serving_tenant_mix,
    table1_memories,
    table2_components,
    table4_configs,
    timing_buffer_depth,
    timing_random_bandwidth,
    timing_stall_breakdown,
];

/// A reader that closes the pipe after one line (`all_experiments |
/// head -1`) ends the run quietly with status 0, for the listing and the
/// table output alike. Each run repeats a cheap experiment until its
/// output overflows the pipe buffer, so the writer is still writing when
/// the pipe closes.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let exe = env!("CARGO_BIN_EXE_all_experiments");
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
// run experiments), so it is exercised on the parse paths only.
mod bench_check {
    const EXE: &str = env!("CARGO_BIN_EXE_bench_check");

    #[test]
    fn help_documents_the_standard_flags() {
        super::check_help("bench_check", EXE);
    }

    #[test]
    fn bad_jobs_and_unknown_flags_exit_2() {
        super::check_bad_jobs("bench_check", EXE);
        super::check_unknown_flag("bench_check", EXE);
    }

    #[test]
    fn missing_baseline_fails_with_usage() {
        let out = super::run(EXE, &[]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--baseline"), "{err}");
    }
}
