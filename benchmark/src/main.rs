//! Wall-clock benchmark of the assembled RPC engine. See `README.md`.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--smoke]            all workloads, counted then traced
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]   one run
//! benchmark --layers [--workload W]                       isolated probes only
//! benchmark compare A.json B.json                         two result files, metric by metric
//! ```

mod compare;
mod contract;
mod echo;
mod gen;
mod host;
mod json;
mod kv;
mod layers;
mod run;
mod spans;
mod stats;
mod window;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use contract::WORKLOADS;
use json::Json;
use run::{RunArgs, RunResult};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// Marks the line of a run's output that carries what the final result
/// line has no room for (slice spreads, notes).
const DETAIL: &str = "#detail ";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    layers: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        layers: false,
        // Relative to where the command is run from: the repository root.
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
    };
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => {
                cli.compare = Some((a.into(), b.into()));
                Ok(cli)
            }
            _ => Err("usage: compare A.json B.json".into()),
        };
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                contract::workload(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                cli.workload = Some(name.to_string());
            }
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => cli.out_dir = value()?.into(),
            "--smoke" => cli.smoke = true,
            "--layers" => cli.layers = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.smoke {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    let mut obj = Json::obj();
    for (name, value) in metrics {
        obj.set(
            name,
            Json::obj()
                .field("value", *value)
                .field("unit", contract::unit_of(name)),
        );
    }
    obj
}

fn print_metrics(workload: &str, metrics: &[(&'static str, f64)]) {
    for (name, value) in metrics {
        println!(
            "{workload:<13} {name:<40} {value:>16.4} {}",
            contract::unit_of(name)
        );
    }
}

/// One run in this process: the metric table, the detail line, and last
/// the one-line result the driver reads.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        setups: if cli.smoke { 1 } else { 3 },
        out_dir: cli.out_dir.clone(),
    };
    let result: RunResult = match run::run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &result.notes {
        eprintln!("benchmark: {workload}: {note}");
    }
    print_metrics(workload, &result.metrics);
    let mut spread = Json::obj();
    for (name, value) in &result.spread {
        spread.set(name, *value);
    }
    let notes: Vec<Json> = result.notes.iter().map(|n| n.as_str().into()).collect();
    println!(
        "{DETAIL}{}",
        Json::obj()
            .field("spread", spread)
            .field(
                "slice_calls_per_s",
                result
                    .slice_calls_per_s
                    .iter()
                    .map(|r| Json::Num(r.round()))
                    .collect::<Vec<_>>(),
            )
            .field("notes", notes)
            .compact()
    );
    println!(
        "{}",
        Json::obj()
            .field("correct", result.correct)
            .field("attempted", result.attempted)
            .field("failed", result.failed)
            .field("metrics", metrics_json(&result.metrics))
            .compact()
    );
    ExitCode::SUCCESS
}

/// Re-execute this binary for one run and read back its detail and result
/// lines. A fresh process per run: no warm allocator, no interned state.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &cli.seed.to_string()])
    .args(["--seconds", &cli.seconds.to_string()])
    .arg("--out")
    .arg(&cli.out_dir)
    .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and reaps it.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            out.status
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL))
        .ok_or("no detail line")
        .and_then(|l| json::parse(l).map_err(|_| "unreadable detail line"))?;
    let result = stdout
        .lines()
        .last()
        .ok_or("no result line")
        .and_then(|l| json::parse(l).map_err(|_| "unreadable result line"))?;
    Ok((detail, result))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_block(cli: &Cli, nproc: usize, pinned_cpu: Option<usize>) -> Json {
    simnet::set_fast_forward(true);
    Json::obj()
        .field("nproc", nproc)
        .field("pinned_cpu", pinned_cpu.map_or(Json::Null, Json::from))
        .field("callers", window::CALLERS)
        .field("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .field("rustc", command_line("rustc", &["-V"]))
        .field("seed", cli.seed)
        .field("seconds", cli.seconds)
        .field("smoke", cli.smoke)
        .field("fast_forward", simnet::fast_forward())
}

/// Every workload in a fixed order, each counted and then traced in its own
/// child process; prints every metric and writes `results.json`.
fn run_all(cli: &Cli, nproc: usize, pinned_cpu: Option<usize>) -> ExitCode {
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let mut entry = Json::obj();
        // Standard errors from each run's own slices, both runs together
        // (the names differ: gated counts, then wall-clock figures).
        let mut spread = Json::obj();
        for trace in [false, true] {
            let (detail, result) = match run_child(cli, workload, trace) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::from(2);
                }
            };
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct;
            let metrics = result.get("metrics").cloned().unwrap_or(Json::obj());
            for (name, m) in metrics.as_obj() {
                println!(
                    "{workload:<13} {name:<40} {:>16.4} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                );
            }
            let counts = |e: Json| {
                e.field("correct", correct)
                    .field(
                        "attempted",
                        result.get("attempted").cloned().unwrap_or(Json::Null),
                    )
                    .field(
                        "failed",
                        result.get("failed").cloned().unwrap_or(Json::Null),
                    )
            };
            if trace {
                entry.set("per_layer", metrics);
                entry.set("traced", counts(Json::obj()));
            } else {
                entry = counts(entry);
                // Each end-to-end figure carries its direction and bound,
                // so a results file can be read without the contract.
                let mut gated = Json::obj();
                for (m, (name, value)) in contract::END_TO_END.iter().zip(metrics.as_obj()) {
                    gated.set(
                        name,
                        value
                            .clone()
                            .field("better", m.better.name())
                            .field("bound", m.bound),
                    );
                }
                entry.set("end_to_end", gated);
            }
            for (name, value) in detail.get("spread").unwrap_or(&Json::obj()).as_obj() {
                spread.set(name, value.clone());
            }
            for note in detail.get("notes").map_or(&[][..], Json::as_arr) {
                println!("{workload:<13} note: {}", note.as_str().unwrap_or(""));
            }
        }
        entry.set("spread", spread);
        workloads.set(workload, entry);
    }
    let doc = Json::obj()
        .field("env", env_block(cli, nproc, pinned_cpu))
        .field("workloads", workloads);
    let path = cli.out_dir.join("results.json");
    let written =
        std::fs::create_dir_all(&cli.out_dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    if let Err(e) = written {
        eprintln!("benchmark: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a workload failed its correctness checks");
        ExitCode::FAILURE
    }
}

fn run_layers(cli: &Cli) -> ExitCode {
    for workload in WORKLOADS.iter().map(|w| w.name) {
        if cli.workload.as_deref().is_some_and(|only| only != workload) {
            continue;
        }
        let payload = echo::spec(workload).map_or(kv::VALUE_BYTES, |s| s.payload_bytes());
        print_metrics(workload, &layers::probe(payload));
    }
    ExitCode::SUCCESS
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if compare::compare(&a, &b) {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: B is worse than A beyond a bound");
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // Read the CPU count first (pinning shrinks it), then pin before any
    // other thread exists, so that all of them inherit the pin.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned_cpu = host::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("benchmark: could not pin to one CPU; numbers will be noisier");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        run_compare(a, b)
    } else if cli.layers {
        run_layers(&cli)
    } else if let Some(workload) = &cli.workload {
        run_one(&cli, workload)
    } else {
        run_all(&cli, nproc, pinned_cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contract::{END_TO_END, PER_LAYER};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_reads_the_driver_arguments() {
        let cli = parse_cli(&args(
            "--workload bulk_verbs --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("bulk_verbs"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 12.0, true));
        assert_eq!(parse_cli(&args("--smoke")).unwrap().seconds, 1.0);
        assert!(parse_cli(&args("compare a.json b.json"))
            .unwrap()
            .compare
            .is_some());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` and the tables in `contract.rs` say the same thing,
    /// within the driver's limits: every name a result can carry is listed.
    #[test]
    fn benchmark_json_mirrors_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let well_formed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed = doc.get("workloads").unwrap().as_arr();
        assert!((2..=8).contains(&listed.len()));
        assert_eq!(listed.len(), WORKLOADS.len());
        for (have, want) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(have, "name"), want.name);
            assert_eq!(text(have, "why"), want.why);
            assert!(well_formed(want.name) && want.why.len() <= 200 && !want.why.contains('\n'));
        }

        let mut seen = std::collections::HashSet::new();
        for (block, table, limit) in [
            ("end_to_end", &END_TO_END[..], 16),
            ("per_layer", &PER_LAYER[..], 128),
        ] {
            let listed = doc.get(block).unwrap().as_arr();
            assert!((1..=limit).contains(&listed.len()), "{block}");
            assert_eq!(listed.len(), table.len(), "{block}");
            for (have, want) in listed.iter().zip(table) {
                assert_eq!(text(have, "name"), want.name);
                assert_eq!(text(have, "unit"), want.unit, "{}", want.name);
                assert_eq!(text(have, "better"), want.better.name(), "{}", want.name);
                assert!(
                    well_formed(want.name) && unit_ok(want.unit),
                    "{}",
                    want.name
                );
                assert!(seen.insert(want.name), "{} is used twice", want.name);
                if block == "end_to_end" {
                    let bound = have.get("bound").and_then(Json::as_f64).unwrap();
                    assert_eq!(bound, want.bound, "{}", want.name);
                    assert!(bound > 0.0 && bound <= 0.25);
                } else {
                    assert!(have.get("bound").is_none());
                }
            }
        }
        for w in &WORKLOADS {
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
