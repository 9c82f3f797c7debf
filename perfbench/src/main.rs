//! End-to-end delivery benchmark for plabi.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive|dashboard|audit --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is one single-threaded closed-loop client driving a
//! `BiSystem` built on its defaults (no `ExecConfig`, render-sharing or
//! cache-capacity knob touched, observability off) with a WAL attached.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! separate traced pass and prints the per-layer split. The last stdout
//! line is one JSON object; the exit code is non-zero when any
//! correctness check failed. See `perfbench/README.md` for the
//! workloads and the metric definitions.

mod audit;
mod dashboard;
mod deploy;
mod interactive;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Run parameters shared by the workloads.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input for the benchmark's own tests.
    pub tiny: bool,
    /// Private directory for WAL files; removed after the run.
    pub scratch: PathBuf,
}

impl Params {
    /// A WAL path inside the run's scratch directory.
    pub fn wal(&self, name: &str) -> PathBuf {
        self.scratch.join(format!("{name}.wal"))
    }
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: operation counts, metrics, and notes
/// printed ahead of the result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Traced runs keep their spans here until exit.
    pub spans: Vec<trace::Span>,
}

/// Failure messages printed per run; the count is always exact.
const MAX_FAILURE_NOTES: usize = 20;

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed as usize <= MAX_FAILURE_NOTES {
                self.notes.push(format!("CHECK FAILED: {}", what()));
            }
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit Rust prints (non-finite values
/// never come out of a correct run; they print as 0 and fail it).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

pub const WORKLOADS: [&str; 3] = ["interactive", "dashboard", "audit"];

/// The measured configuration, printed with every result.
fn host_note() -> String {
    let exec = bi_core::exec::ExecConfig::default();
    format!(
        "host: {} cores available; BiSystem::new defaults: ExecConfig {{ threads: {}, columnar: {}, pipeline: {}, pinned: {} }}, render sharing on, render cache 256 renders (documented default), observability off; WAL attached, flushed per append, no fsync",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        exec.threads,
        exec.columnar,
        exec.pipeline,
        exec.pinned
    )
}

/// Runs one workload; `Err` means the deployment could not be built.
pub fn run(workload: &str, p: &Params) -> Result<Report, String> {
    let mut report = match workload {
        "interactive" => interactive::run(p),
        "dashboard" => dashboard::run(p),
        "audit" => audit::run(p),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let bad: Vec<&'static str> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    for name in bad {
        report.check(false, || format!("metric {name} is not finite"));
    }
    report.notes.insert(0, host_note());
    Ok(report)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `perfbench/run`, beside this package's manifest (inside the checkout).
fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <interactive|dashboard|audit> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = run_dir().join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        scratch: scratch.clone(),
    };
    let outcome = run(&args.workload, &params);
    let _ = std::fs::remove_dir_all(&scratch);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = run_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    for line in &report.notes {
        println!("# {line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Parameters for a tiny run with a private scratch directory.
    pub(crate) fn tiny(name: &str, trace: bool) -> Params {
        let scratch = run_dir().join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        Params {
            seed: 7,
            seconds: 0.3,
            trace,
            tiny: true,
            scratch,
        }
    }

    const END_TO_END: [(&str, &str); 6] = [
        ("setup_s", "s"),
        ("latency_p50_ms", "ms"),
        ("latency_p90_ms", "ms"),
        ("throughput_per_s", "1/s"),
        ("recover_s", "s"),
        ("wal_bytes_per_delivery", "B"),
    ];

    const PER_LAYER: [(&str, &str); 25] = [
        ("query.execute_ms", "ms"),
        ("report.render_ms", "ms"),
        ("report.enforce_ms", "ms"),
        ("pla.check_run_us", "us"),
        ("pla.check_compile_us", "us"),
        ("pla.compiles_per_key", "ratio"),
        ("audit.record_us", "us"),
        ("core.wal.append_us", "us"),
        ("core.wal.bytes_per_record", "B"),
        ("core.render_cache.hit_ratio", "ratio"),
        ("core.render_shared_ratio", "ratio"),
        ("core.renders_per_call", "count"),
        ("etl.check_ms", "ms"),
        ("etl.run_ms", "ms"),
        ("warehouse.load_ms", "ms"),
        ("core.wal.read_ms", "ms"),
        ("core.recover.replay_ms", "ms"),
        ("audit.recheck_us_per_entry", "us"),
        ("audit.catalog_at_versions_us", "us"),
        ("warehouse.exact_resolve_ratio", "ratio"),
        ("audit.replay_redundancy", "ratio"),
        ("audit.dispute_us_per_entry", "us"),
        ("warehouse.snapshot_us", "us"),
        ("core.residual_share", "ratio"),
        ("bench.trace_overhead_ms", "ms"),
    ];

    /// Runs `workload` tiny, untraced then traced: every metric is
    /// present once with its unit, every end-to-end value is positive,
    /// and every correctness check passed.
    fn check_workload(workload: &str) {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let p = tiny(workload, trace);
            let report = run(workload, &p).expect("tiny deployment builds");
            let _ = std::fs::remove_dir_all(&p.scratch);
            let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{workload} trace={trace}");
            assert!(
                report.correct(),
                "{workload} trace={trace}: {:?}",
                report.notes
            );
            if !trace {
                for m in &report.metrics {
                    assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
                }
            } else {
                assert!(!report.spans.is_empty(), "{workload}: no spans");
            }
            let line = report.json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }

    #[test]
    fn interactive_reports_every_metric_and_passes_its_checks() {
        check_workload("interactive");
    }

    #[test]
    fn dashboard_reports_every_metric_and_passes_its_checks() {
        check_workload("dashboard");
    }

    #[test]
    fn audit_reports_every_metric_and_passes_its_checks() {
        check_workload("audit");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "broken".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
