//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! why; `BENCHMARK.json` at the repo root lists the names it prints.
//!
//! Three ways in, all through `benchmark/run.sh`:
//!
//! - `--workload W --seed N --seconds S --trace 0|1`: one run. The last
//!   line of standard output is the result object.
//! - no `--workload`: every workload, untraced then traced, each in a
//!   child process of its own so peak memory is per workload.
//! - `--repeat-check`: two sets of untraced runs of every workload on the
//!   same build; fails if any end-to-end metric differs by more than its
//!   bound.

mod metrics;
mod operator;
mod probes;
mod request;
mod run;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sa_json::Json;

use crate::run::{RunOpts, RunOutcome, Size, Workload};

const DEFAULT_SEED: u64 = 7;

fn main() -> ExitCode {
    silence_injected_faults();
    match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli.dispatch(),
        Err(message) => {
            eprintln!("sa-benchmark: {message}");
            eprintln!(
                "usage: run.sh [--workload <name> --trace <0|1>] [--repeat-check] [--seed <u64>] [--seconds <s>]"
            );
            ExitCode::from(2)
        }
    }
}

/// The stock serving trace carries transient faults whose contained
/// panics would flood stderr; everything else still reaches the default
/// hook.
fn silence_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(|m| m.starts_with("injected fault:")) {
            default(info);
        }
    }));
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeat_check: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            traced: false,
            repeat_check: false,
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    cli.workload =
                        Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => {
                    cli.seed = value("a u64")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let seconds: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(format!(
                            "--seconds must be a non-negative number, got {seconds}"
                        ));
                    }
                    cli.seconds = Some(seconds);
                }
                "--trace" => {
                    cli.traced = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--repeat-check" => cli.repeat_check = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    fn dispatch(self) -> ExitCode {
        let spec = match Spec::load(Path::new("BENCHMARK.json")) {
            Ok(spec) => spec,
            Err(message) => {
                eprintln!("sa-benchmark: BENCHMARK.json: {message}");
                return ExitCode::from(2);
            }
        };
        let seconds = self.seconds.unwrap_or(spec.run_seconds);
        let ok = match self.workload {
            Some(workload) => single_run(&RunOpts {
                workload,
                seed: self.seed,
                seconds,
                traced: self.traced,
                size: Size::Full,
            }),
            None if self.repeat_check => repeat_check(&spec, self.seed, seconds),
            None => run_everything(self.seed, seconds),
        };
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

pub fn run_workload(opts: &RunOpts) -> RunOutcome {
    match opts.workload {
        Workload::RequestNiah4k => request::run(opts),
        Workload::OpSparse16k | Workload::OpCapped8k => operator::run(opts),
        Workload::ServeOpenLoop16rps => serve::run(opts),
    }
}

/// Where run records and span files go (`run.sh` points this inside the
/// benchmark's own directory).
fn out_dir() -> PathBuf {
    std::env::var_os("SA_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// One run in this process. Prints every metric by name, then the run
/// record, then the result object as the last line.
fn single_run(opts: &RunOpts) -> bool {
    let outcome = run_workload(opts);
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mode = if opts.traced { "traced" } else { "untraced" };
    println!("# {} seed {} ({mode})", opts.workload.name(), opts.seed);
    for (name, unit, value, samples) in outcome.metrics.rows() {
        println!("{name:<34} {value:>16.6} {unit:<8} n={samples}");
    }
    for failure in &outcome.failures {
        println!("FAILED CHECK: {failure}");
    }

    let out = out_dir();
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        if let Some(spans) = &outcome.spans {
            std::fs::write(
                out.join(format!("trace_{}.json", opts.workload.name())),
                spans.render(None),
            )?;
        }
        let record = run_record(opts, &outcome);
        println!("{}", record.render(None));
        std::fs::write(
            out.join(format!("run_{}_{mode}.json", opts.workload.name())),
            record.render(Some(2)),
        )
    });
    if let Err(e) = written {
        eprintln!("sa-benchmark: cannot write under {}: {e}", out.display());
        return false;
    }

    let result = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
        ("failed".to_string(), Json::Int(outcome.failed as i64)),
        ("metrics".to_string(), outcome.metrics.to_json()),
    ]);
    println!("{}", result.render(None));
    correct
}

/// Everything needed to read a run's numbers later: inputs, host, build.
fn run_record(opts: &RunOpts, outcome: &RunOutcome) -> Json {
    let env = |key: &str| Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Object(vec![
        (
            "workload".to_string(),
            Json::Str(opts.workload.name().to_string()),
        ),
        (
            "seed".to_string(),
            i64::try_from(opts.seed).map_or_else(|_| Json::Str(opts.seed.to_string()), Json::Int),
        ),
        ("seconds".to_string(), Json::Float(opts.seconds)),
        ("traced".to_string(), Json::Bool(opts.traced)),
        (
            "setup_repetitions".to_string(),
            Json::Int(if opts.traced {
                1
            } else {
                run::SETUP_REPS as i64
            }),
        ),
        (
            "operations_attempted".to_string(),
            Json::Int(outcome.attempted as i64),
        ),
        (
            "operations_failed".to_string(),
            Json::Int(outcome.failed as i64),
        ),
        ("nproc".to_string(), Json::Int(nproc as i64)),
        (
            "pool_threads".to_string(),
            Json::Int(sa_tensor::pool::hardware_threads() as i64),
        ),
        ("rustc".to_string(), env("SA_BENCH_RUSTC")),
        ("git_commit".to_string(), env("SA_BENCH_COMMIT")),
        ("facts".to_string(), Json::Object(outcome.facts.clone())),
        ("samples".to_string(), outcome.metrics.samples_json()),
        (
            "failures".to_string(),
            Json::Array(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// The parts of `BENCHMARK.json` this program reads.
struct Spec {
    run_seconds: f64,
    /// `(name, better, bound)` per end-to-end metric.
    end_to_end: Vec<(String, String, f64)>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let json = sa_json::parse(&text).map_err(|e| e.to_string())?;
        let run_seconds = json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds")?;
        let end_to_end = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or("no end_to_end")?
            .iter()
            .map(|m| {
                let text = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
                Some((text("name")?, text("better")?, m.get("bound")?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed end_to_end entry")?;
        Ok(Spec {
            run_seconds,
            end_to_end,
        })
    }
}

/// Runs one workload in a child process and returns its metrics by name,
/// or `None` if the child failed or printed no result.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, rest) = lines.split_last()?;
    if echo {
        // The table and failed checks; the record and result stay in out/.
        for line in rest.iter().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    let result = sa_json::parse(last).ok()?;
    let correct = result.get("correct").and_then(Json::as_bool)?;
    if !(output.status.success() && correct) {
        return None;
    }
    let metrics = result.get("metrics")?.as_object()?;
    metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// The one command: every workload, untraced then traced.
fn run_everything(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            if child_run(workload, seed, seconds, traced, true).is_none() {
                println!("FAILED: {} (trace {})", workload.name(), u8::from(traced));
                ok = false;
            }
            println!();
        }
    }
    println!(
        "{}",
        if ok {
            "all workloads passed their output checks"
        } else {
            "some workloads FAILED"
        }
    );
    ok
}

/// Two sets of untraced runs on the same build, side by side.
fn repeat_check(spec: &Spec, seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    println!(
        "{:<24} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for workload in Workload::ALL {
        let sets: Vec<_> = (0..2)
            .map(|_| child_run(workload, seed, seconds, false, false))
            .collect();
        let (Some(first), Some(second)) = (&sets[0], &sets[1]) else {
            println!("{:<24} a run FAILED its output checks", workload.name());
            ok = false;
            continue;
        };
        for (name, _, bound) in &spec.end_to_end {
            let value =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            let (Some(a), Some(b)) = (value(first), value(second)) else {
                println!("{:<24} {name:<14} missing from a run", workload.name());
                ok = false;
                continue;
            };
            let differ = (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE);
            let verdict = if differ > *bound { "  DIFFERS" } else { "" };
            println!(
                "{:<24} {name:<14} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                workload.name(),
                differ * 100.0,
                bound * 100.0
            );
            ok &= differ <= *bound;
        }
    }
    println!(
        "{}",
        if ok {
            "both sets agree within the bounds"
        } else {
            "the sets DIFFER by more than a bound"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// `field` of every entry of BENCHMARK.json's list `key`, in order.
    fn spec_column(json: &Json, key: &str, field: &str) -> Vec<String> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        sa_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    /// A miniature of every workload, traced and untraced: each name
    /// printed is a name in `BENCHMARK.json` with the same unit, and the
    /// other way round, and every output check passes.
    #[test]
    fn miniature_workloads_print_exactly_the_names_in_benchmark_json() {
        let json = benchmark_json();
        let workloads = spec_column(&json, "workloads", "name");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        for workload in Workload::ALL {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run_workload(&RunOpts {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    traced,
                    size: Size::Miniature,
                });
                assert_eq!(
                    outcome.failures,
                    Vec::<String>::new(),
                    "{} {key}",
                    workload.name()
                );
                assert!(outcome.attempted >= 1 && outcome.failed == 0);
                let printed: Vec<(String, String)> = outcome
                    .metrics
                    .rows()
                    .into_iter()
                    .map(|(name, unit, _, _)| (name.to_string(), unit.to_string()))
                    .collect();
                let listed: Vec<(String, String)> = spec_column(&json, key, "name")
                    .into_iter()
                    .zip(spec_column(&json, key, "unit"))
                    .collect();
                assert_eq!(printed, listed, "{} {key}", workload.name());
                assert_eq!(outcome.spans.is_some(), traced);
                if !traced {
                    for (name, _, value, samples) in outcome.metrics.rows() {
                        assert!(
                            value > 0.0 && samples > 0,
                            "{} {name} = {value}",
                            workload.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn name_tables_have_no_duplicates_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        let parse = |args: &[&str]| Cli::parse(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        let cli = parse(&[
            "--workload",
            "op_capped_8k",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (cli.workload, cli.seed, cli.seconds, cli.traced),
            (Some(Workload::OpCapped8k), 9, Some(3.0), true)
        );
    }
}
