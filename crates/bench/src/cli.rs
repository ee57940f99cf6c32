//! The shared command-line front end of the four `smart-bench` drivers
//! (`all_experiments`, `pareto_search`, `serving_sim`, `bench_check`)
//! and of `smart_lint`.
//!
//! Each driver declares a [`CliSpec`] — its name, a one-line
//! description, and any extra flags beyond the standard set — and gets:
//!
//! * the standard flags every driver accepts: `--jobs N`, `--json`,
//!   `--csv`, `--check`, `--cache-dir DIR`, `--list`,
//!   `--filter TAG` (repeatable), `--trace-out FILE`, `--metrics`,
//!   `--help`;
//! * consistent error messages (one canonical string per failure mode,
//!   exercised by `tests/cli.rs` against every driver);
//! * `--help` text generated from the spec, so it cannot go stale.
//!
//! One experiment runs as `all_experiments NAME`; there is no
//! per-experiment binary.

use crate::registry::ExperimentDescriptor;
use crate::ExperimentContext;
use smart_report::ResultTable;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;

/// Output encoding selected by `--json` / `--csv` (text is the default;
/// the last format flag wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Fixed-width text, byte-stable for the golden snapshot.
    #[default]
    Text,
    /// The table's typed JSON.
    Json,
    /// One CSV block per table.
    Csv,
}

/// An extra flag a binary accepts beyond the standard set.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// The flag itself, with leading dashes (`"--small"`).
    pub flag: &'static str,
    /// Placeholder name of the value (`Some("R")`), or `None` for a
    /// boolean flag.
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// What a binary's command line looks like.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Binary name (for usage/help).
    pub bin: &'static str,
    /// One-line description (first line of `--help`).
    pub about: &'static str,
    /// Extra flags beyond the standard set.
    pub extras: &'static [ExtraFlag],
    /// Placeholder for positional arguments (`Some("EXPERIMENT")`), or
    /// `None` to reject positionals.
    pub positional: Option<&'static str>,
}

/// Parsed command line: the standard flags plus whatever extras the spec
/// declared.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--jobs N` (validated positive); `None` = available parallelism.
    pub jobs: Option<usize>,
    /// `--json` / `--csv` / default text.
    pub format: Format,
    /// `--check`: verify invariants after running, exit 1 on violation.
    pub check: bool,
    /// `--cache-dir DIR`: persistent warm-start stores.
    pub cache_dir: Option<PathBuf>,
    /// `--list`: print what would run and exit.
    pub list: bool,
    /// Every `--filter` value, in order.
    pub filters: Vec<String>,
    /// `--trace-out FILE`: write a Chrome trace of the run to FILE.
    pub trace_out: Option<PathBuf>,
    /// `--metrics`: print the unified metrics snapshot to stderr.
    pub metrics: bool,
    /// Extra flags seen, in order, with their values.
    pub extras: Vec<(String, Option<String>)>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Whether an extra boolean flag was passed.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.extras.iter().any(|(f, _)| f == flag)
    }

    /// The last value of an extra valued flag.
    #[must_use]
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// An [`ExperimentContext`] honoring `--jobs` (default: available
    /// parallelism), with span recording enabled when `--trace-out` was
    /// given and wall-clock profiling when `--metrics` was.
    #[must_use]
    pub fn context(&self) -> ExperimentContext {
        let mut ctx = self
            .jobs
            .map_or_else(ExperimentContext::default, ExperimentContext::new);
        if self.trace_out.is_some() {
            ctx = ctx.with_tracer(smart_trace::Tracer::enabled());
        }
        if self.metrics {
            ctx = ctx.with_wall_profile();
        }
        ctx
    }
}

/// Validates the value of a positive-integer flag (`--jobs`). The error
/// string is the canonical one every binary prints.
///
/// # Errors
///
/// `"{flag} needs a positive integer"`.
pub fn parse_positive(flag: &str, value: Option<&str>) -> Result<usize, String> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// Validates the value of a non-negative-integer flag (`--seed`,
/// `--quantum`, `--slo-factor`): a fraction, an exponent, or a value
/// that does not fit `T` is an error, never truncated.
///
/// # Errors
///
/// `"{flag} needs a non-negative integer"`.
pub fn parse_non_negative_int<T: TryFrom<u64>>(
    flag: &str,
    value: Option<&str>,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse::<u64>().ok())
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{flag} needs a non-negative integer"))
}

/// Validates the value of a non-negative-number flag
/// (`--max-regression`).
///
/// # Errors
///
/// `"{flag} needs a non-negative number"`.
pub fn parse_non_negative(flag: &str, value: Option<&str>) -> Result<f64, String> {
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|r| *r >= 0.0 && r.is_finite())
        .ok_or_else(|| format!("{flag} needs a non-negative number"))
}

/// Requires a flag's value to be present (`--cache-dir`, `--filter`, …).
///
/// # Errors
///
/// `"{flag} needs a {noun}"`.
pub fn require_value(flag: &str, noun: &str, value: Option<&str>) -> Result<String, String> {
    value
        .map(str::to_owned)
        .ok_or_else(|| format!("{flag} needs a {noun}"))
}

const STANDARD_FLAGS: &[ExtraFlag] = &[
    ExtraFlag {
        flag: "--jobs",
        value: Some("N"),
        help: "worker threads (default: available parallelism)",
    },
    ExtraFlag {
        flag: "--json",
        value: None,
        help: "typed JSON output instead of fixed-width text",
    },
    ExtraFlag {
        flag: "--csv",
        value: None,
        help: "CSV output instead of fixed-width text",
    },
    ExtraFlag {
        flag: "--check",
        value: None,
        help: "verify invariants after running; exit 1 on violation",
    },
    ExtraFlag {
        flag: "--cache-dir",
        value: Some("DIR"),
        help: "load persistent warm-start stores before, save after",
    },
    ExtraFlag {
        flag: "--list",
        value: None,
        help: "print what would run (name, group, figure) and exit",
    },
    ExtraFlag {
        flag: "--filter",
        value: Some("TAG"),
        help: "select experiments by group tag or name substring (repeatable)",
    },
    ExtraFlag {
        flag: "--trace-out",
        value: Some("FILE"),
        help: "write a deterministic Chrome trace of the run to FILE",
    },
    ExtraFlag {
        flag: "--metrics",
        value: None,
        help: "print the unified metrics snapshot to stderr after running",
    },
    ExtraFlag {
        flag: "--help",
        value: None,
        help: "print this help and exit",
    },
];

impl CliSpec {
    /// The one-line usage string.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut s = format!("usage: {} [FLAGS]", self.bin);
        if let Some(pos) = self.positional {
            s.push_str(&format!(" [{pos}]..."));
        }
        s
    }

    /// The full `--help` text, generated from the spec.
    #[must_use]
    pub fn help(&self) -> String {
        let mut s = format!("{}\n\n{}\n\nflags:\n", self.about, self.usage());
        let all = STANDARD_FLAGS.iter().chain(self.extras.iter());
        for f in all {
            let left = match f.value {
                Some(v) => format!("{} {v}", f.flag),
                None => f.flag.to_owned(),
            };
            s.push_str(&format!("  {left:<18} {}\n", f.help));
        }
        s
    }

    /// The flag list for the canonical unknown-flag error.
    fn flag_list(&self) -> String {
        STANDARD_FLAGS
            .iter()
            .chain(self.extras.iter())
            .map(|f| match f.value {
                Some(v) => format!("{} {v}", f.flag),
                None => f.flag.to_owned(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses an argument list into either arguments to run with or the
    /// help text to print ([`Parsed`]).
    ///
    /// # Errors
    ///
    /// The canonical message for the first invalid argument.
    pub fn parse<I: IntoIterator<Item = String>>(&self, argv: I) -> Result<Parsed, String> {
        let mut args = Args::default();
        let argv: Vec<String> = argv.into_iter().collect();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => return Ok(Parsed::Help(self.help())),
                "--json" => args.format = Format::Json,
                "--csv" => args.format = Format::Csv,
                "--check" => args.check = true,
                "--list" => args.list = true,
                "--jobs" => {
                    args.jobs = Some(parse_positive("--jobs", it.next().map(String::as_str))?);
                }
                "--cache-dir" => {
                    args.cache_dir = Some(PathBuf::from(require_value(
                        "--cache-dir",
                        "directory",
                        it.next().map(String::as_str),
                    )?));
                }
                "--filter" => {
                    args.filters.push(require_value(
                        "--filter",
                        "group tag or name substring",
                        it.next().map(String::as_str),
                    )?);
                }
                "--trace-out" => {
                    args.trace_out = Some(PathBuf::from(require_value(
                        "--trace-out",
                        "file path",
                        it.next().map(String::as_str),
                    )?));
                }
                "--metrics" => args.metrics = true,
                other => {
                    if let Some(extra) = self.extras.iter().find(|f| f.flag == other) {
                        let value = match extra.value {
                            Some(noun) => {
                                Some(require_value(other, noun, it.next().map(String::as_str))?)
                            }
                            None => None,
                        };
                        args.extras.push((other.to_owned(), value));
                    } else if other.starts_with('-') {
                        return Err(format!(
                            "unknown flag `{other}`; flags: {}",
                            self.flag_list()
                        ));
                    } else if self.positional.is_some() {
                        args.positional.push(other.to_owned());
                    } else {
                        return Err(format!(
                            "unexpected argument `{other}` ({} takes no positional arguments)",
                            self.bin
                        ));
                    }
                }
            }
        }
        Ok(Parsed::Run(args))
    }

    /// Parses the process arguments, printing help (exit 0) or the error
    /// plus usage (exit 2) as needed.
    #[must_use]
    pub fn parse_env_or_exit(&self) -> Args {
        // lint:allow(determinism, the CLI parser is the single sanctioned ambient-state reader; parsed flags become explicit inputs downstream)
        match self.parse(std::env::args().skip(1)) {
            Ok(Parsed::Run(args)) => args,
            Ok(Parsed::Help(text)) => {
                write_stdout(&format!("{text}\n"));
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// Outcome of [`CliSpec::parse`]: run, or print help.
#[derive(Debug)]
pub enum Parsed {
    /// Normal run with the parsed arguments.
    Run(Args),
    /// `--help`: print this text and exit 0.
    Help(String),
}

/// Writes `text` to stdout: the one writer behind the binaries' tables,
/// listings and help. A closed pipe (`all_experiments | head -1`) ends
/// the process quietly with status 0 instead of panicking like `print!`;
/// any other write failure is reported on stderr and exits 1.
pub fn write_stdout(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing stdout failed: {e}");
        std::process::exit(1);
    }
}

/// Prints the `--list` line of each experiment, `name  group  figure`
/// (the format the README catalogue mirrors).
pub fn print_listing(descriptors: &[&ExperimentDescriptor]) {
    let listing: String = descriptors
        .iter()
        .map(|d| format!("{:<24} {:<9} {}\n", d.name, d.group.tag(), d.figure))
        .collect();
    write_stdout(&listing);
}

/// Renders one table in the selected format. Text is the bare
/// fixed-width table; `all_experiments` adds its own `==== name ====`
/// headers.
pub fn print_table(table: &ResultTable, format: Format) {
    write_stdout(&match format {
        Format::Text => table.to_string(),
        Format::Json => format!("{}\n", table.to_json()),
        Format::Csv => format!("# {}: {}\n{}\n", table.name, table.title, table.to_csv()),
    });
}

/// Emits the observability outputs of a finished run, shared by every
/// binary: writes the Chrome trace when `--trace-out FILE` was given
/// (validated before writing, so a malformed span tree fails loudly
/// instead of producing a file Perfetto rejects) and prints the unified
/// metrics snapshot plus the wall-clock profile on stderr when
/// `--metrics` was. Returns whether everything requested succeeded.
pub fn emit_observability(args: &Args, ctx: &ExperimentContext) -> bool {
    let mut ok = true;
    if let Some(path) = &args.trace_out {
        match smart_trace::chrome::export(&ctx.tracer) {
            Ok(json) => match std::fs::write(path, json) {
                Ok(()) => eprintln!(
                    "trace-out: {} events in {} lanes -> {}",
                    ctx.tracer.event_count(),
                    ctx.tracer.lanes().len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("trace-out: writing {} failed: {e}", path.display());
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("trace-out: invalid trace: {e}");
                ok = false;
            }
        }
    }
    if args.metrics {
        eprint!("{}", ctx.metrics_snapshot().to_text());
        eprint!("{}", ctx.wall.to_text("wall"));
    }
    ok
}

/// The non-finite-cell gate behind every binary's `--check`: reports
/// each offending cell on stderr, returns whether all cells were finite.
pub fn check_tables(tables: &[ResultTable]) -> bool {
    let mut ok = true;
    for table in tables {
        for (row, col, rendered) in table.non_finite_cells() {
            eprintln!(
                "non-finite value in {} at row {row}, column {col}: {rendered}",
                table.name
            );
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CliSpec {
        CliSpec {
            bin: "test_bin",
            about: "a test spec",
            extras: &[
                ExtraFlag {
                    flag: "--small",
                    value: None,
                    help: "small grid",
                },
                ExtraFlag {
                    flag: "--max-regression",
                    value: Some("R"),
                    help: "gate threshold",
                },
            ],
            positional: Some("EXPERIMENT"),
        }
    }

    fn parse(words: &[&str]) -> Result<Parsed, String> {
        spec().parse(words.iter().map(|s| (*s).to_owned()))
    }

    fn args(words: &[&str]) -> Args {
        match parse(words) {
            Ok(Parsed::Run(a)) => a,
            other => panic!("expected a run, got {other:?}"),
        }
    }

    #[test]
    fn standard_flags_round_trip() {
        let a = args(&[
            "--jobs",
            "4",
            "--json",
            "--check",
            "--cache-dir",
            "/tmp/x",
            "--filter",
            "timing",
            "--filter",
            "serving_",
            "fig18",
        ]);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.format, Format::Json);
        assert!(a.check);
        assert_eq!(a.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.filters, ["timing", "serving_"]);
        assert_eq!(a.positional, ["fig18"]);
        assert!(!a.list);
    }

    #[test]
    fn extras_are_collected_in_order() {
        let a = args(&["--small", "--max-regression", "0.3"]);
        assert!(a.has("--small"));
        assert_eq!(a.value_of("--max-regression"), Some("0.3"));
        assert_eq!(a.value_of("--small"), None);
        assert!(!a.has("--csv"));
    }

    #[test]
    fn canonical_error_strings() {
        assert_eq!(
            parse(&["--jobs", "0"]).unwrap_err(),
            "--jobs needs a positive integer"
        );
        assert_eq!(
            parse(&["--jobs"]).unwrap_err(),
            "--jobs needs a positive integer"
        );
        assert_eq!(
            parse(&["--cache-dir"]).unwrap_err(),
            "--cache-dir needs a directory"
        );
        assert_eq!(
            parse(&["--max-regression"]).map(|_| ()),
            Err("--max-regression needs a R".to_owned())
        );
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--bogus`; flags: "), "{err}");
        assert!(err.contains("--jobs N"), "{err}");
        assert!(err.contains("--small"), "{err}");
    }

    #[test]
    fn positionals_only_where_declared() {
        let no_pos = CliSpec {
            bin: "fig",
            about: "about",
            extras: &[],
            positional: None,
        };
        let err = no_pos.parse(["stray".to_owned()]).map(|_| ()).unwrap_err();
        assert!(err.contains("takes no positional arguments"), "{err}");
    }

    #[test]
    fn help_lists_every_flag() {
        let h = match parse(&["--help"]) {
            Ok(Parsed::Help(h)) => h,
            other => panic!("expected help, got {other:?}"),
        };
        for f in STANDARD_FLAGS {
            assert!(h.contains(f.flag), "help is missing {}", f.flag);
        }
        assert!(h.contains("--small"));
        assert!(h.contains("--max-regression R"));
        assert!(h.contains("a test spec"));
    }

    #[test]
    fn validators_expose_canonical_messages() {
        assert_eq!(parse_positive("--jobs", Some("3")), Ok(3));
        assert_eq!(
            parse_positive("--jobs", Some("nope")).unwrap_err(),
            "--jobs needs a positive integer"
        );
        assert_eq!(
            parse_non_negative("--max-regression", Some("0.25")),
            Ok(0.25)
        );
        assert_eq!(
            parse_non_negative("--max-regression", Some("-0.1")).unwrap_err(),
            "--max-regression needs a non-negative number"
        );
        assert_eq!(parse_non_negative_int::<u64>("--seed", Some("42")), Ok(42));
        for bad in [
            None,
            Some("0.5"),
            Some("-1"),
            Some("1e30"),
            Some("18446744073709551616"),
        ] {
            assert_eq!(
                parse_non_negative_int::<u64>("--seed", bad).unwrap_err(),
                "--seed needs a non-negative integer"
            );
        }
        assert_eq!(
            parse_non_negative_int::<u32>("--quantum", Some("4294967296")).unwrap_err(),
            "--quantum needs a non-negative integer"
        );
        assert_eq!(
            require_value("--baseline", "file path", None).unwrap_err(),
            "--baseline needs a file path"
        );
    }
}
