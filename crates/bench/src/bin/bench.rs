//! The figure-sweep regression driver (EXPERIMENTS.md "Bench regression
//! harness"): reruns the paper-figure sweeps under seeded modeled time,
//! writes `results/BENCH_<figure>.json`, and optionally gates against a
//! committed baseline.
//!
//! ```text
//! bench [--quick|--full] [--seed N] [--out DIR] [--fast]
//!       [--figure NAME|all] [--check BASELINE.json] [--tolerance PCT]
//! ```
//!
//! * `--figure` — one of [`figures::FIGURES`], or `all` (the default).
//! * `--quick` — CI-sized iteration counts (the committed baselines are
//!   quick runs at seed 42).
//! * `--seed` — fault-RNG seed; same seed ⇒ byte-identical files.
//! * `--fast` — enable simnet fast-forward: modeled delays are charged
//!   to the ledger but not spun, so sweeps finish in wall-seconds.
//!   Serialized results are identical with or without it.
//! * `--check` — after running, compare the matching figure against the
//!   given baseline file; exit 1 if any p99 regressed beyond
//!   `--tolerance` percent (default 25).

use std::path::PathBuf;
use std::process::ExitCode;

use rpcoib_bench::figures::{self, RunOpts};
use rpcoib_bench::json;
use rpcoib_bench::regress::check_regression;

struct Args {
    opts: RunOpts,
    out_dir: PathBuf,
    figure: String,
    fast: bool,
    check: Option<PathBuf>,
    tolerance_pct: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: RunOpts {
            quick: false,
            seed: 42,
        },
        out_dir: PathBuf::from("results"),
        figure: "all".to_string(),
        fast: false,
        check: None,
        tolerance_pct: 25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => args.opts.quick = true,
            "--full" => args.opts.quick = false,
            "--fast" => args.fast = true,
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--figure" => args.figure = value("--figure")?,
            "--check" => args.check = Some(PathBuf::from(value("--check")?)),
            "--tolerance" => {
                args.tolerance_pct = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--help" | "-h" => {
                let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.0).collect();
                println!(
                    "usage: bench [--quick|--full] [--seed N] [--out DIR] [--fast] \
                     [--figure {}|all] [--check BASELINE.json] [--tolerance PCT]",
                    names.join("|")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.fast {
        simnet::set_fast_forward(true);
    }

    // With --check, only the baseline's figure needs to run.
    let mut figure = args.figure.clone();
    let baseline = match &args.check {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("bench: cannot read baseline {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let doc = match json::parse(&text) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("bench: cannot parse baseline {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if figure == "all" {
                if let Some(f) = doc.get("figure").and_then(json::Json::as_str) {
                    figure = f.to_string();
                }
            }
            Some(doc)
        }
        None => None,
    };

    let git_rev = figures::git_rev();
    let runs: Vec<_> = figures::FIGURES
        .iter()
        .filter(|(name, _, _)| figure == "all" || figure == *name)
        .collect();
    if runs.is_empty() {
        eprintln!("bench: unknown figure {figure}");
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("bench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut produced = Vec::new();
    for (name, run, _) in runs {
        eprintln!(
            "bench: running figure {name} (quick={}, seed={})",
            args.opts.quick, args.opts.seed
        );
        let doc = run(&args.opts, &git_rev);
        let path = args.out_dir.join(format!("BENCH_{name}.json"));
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("bench: wrote {}", path.display());
        produced.push(doc);
    }

    if let Some(baseline) = baseline {
        let fig = baseline
            .get("figure")
            .and_then(json::Json::as_str)
            .unwrap_or("?");
        let Some(current) = produced
            .iter()
            .find(|d| d.get("figure").and_then(json::Json::as_str) == Some(fig))
        else {
            eprintln!("bench: no current run matches baseline figure {fig}");
            return ExitCode::FAILURE;
        };
        match check_regression(current, &baseline, args.tolerance_pct) {
            Ok(outcome) if outcome.passed() => {
                eprintln!(
                    "bench: check passed — {} rows within +{}% of baseline p99",
                    outcome.compared, args.tolerance_pct
                );
            }
            Ok(outcome) => {
                for f in &outcome.failures {
                    eprintln!("bench: REGRESSION {f}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bench: check error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
