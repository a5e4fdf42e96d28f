//! The acceptance properties of the bench harness: two runs with the same
//! seed serialize byte-identically (the committed baselines — and CI's
//! `bench --check` — depend on it), and every figure's claim can fail.
//! Latency numbers come from the modeled-time ledger, and jitter comes
//! from the seeded fault RNG, so nothing in the files depends on wall
//! clock or scheduling.
//!
//! Each `run_*` panics when its own output breaks its `check_*`, so the
//! runs below also hold each figure's claim; the `committed_*` tests hold
//! it on the files in `results/`, and on a copy doctored to break it.

use std::path::Path;

use rpcoib_bench::figures::{
    run_batching, run_bufpool, run_bulk, run_pingpong, run_smallcall, RunOpts, FIGURES,
};
use rpcoib_bench::json::{self, Json};
use rpcoib_bench::regress::{check_regression, row_key};

const OPTS: RunOpts = RunOpts {
    quick: true,
    seed: 42,
};

fn enable_fast_forward() {
    // Process-global; modeled charges are unaffected, only the busy-wait
    // spins are skipped, so this cannot change the serialized output.
    simnet::set_fast_forward(true);
}

fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// The committed `results/BENCH_<figure>.json`.
fn committed(figure: &str) -> Json {
    let path = results_dir().join(format!("BENCH_{figure}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

/// The committed `figure` with `field` of row `key` set to `value`.
fn doctored(figure: &str, key: &str, field: &str, value: u64) -> Json {
    let mut doc = committed(figure);
    let Json::Obj(top) = &mut doc else {
        panic!("{figure}: not an object")
    };
    let Some((_, Json::Arr(rows))) = top.iter_mut().find(|(k, _)| k == "rows") else {
        panic!("{figure}: no rows")
    };
    let Some(Json::Obj(row)) = rows.iter_mut().find(|r| row_key(r).as_deref() == Some(key)) else {
        panic!("{figure}: no row {key}")
    };
    let slot = row.iter_mut().find(|(k, _)| k == field);
    slot.unwrap_or_else(|| panic!("{key}: no field {field}")).1 = Json::U64(value);
    doc
}

#[test]
fn the_committed_figures_are_exactly_the_checked_ones() {
    let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            Some(
                name.strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .to_string(),
            )
        })
        .collect();
    on_disk.sort();
    let mut checked: Vec<String> = FIGURES.iter().map(|(f, _, _)| f.to_string()).collect();
    checked.sort();
    assert_eq!(on_disk, checked);
}

#[test]
fn committed_figures_pass_their_checks() {
    for (figure, _, check) in FIGURES {
        let doc = committed(figure);
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some(*figure));
        if let Err(e) = check(&doc) {
            panic!("results/BENCH_{figure}.json breaks its claim: {e}");
        }
    }
}

/// One claim-bearing field per figure, doctored to break the claim: the
/// check must refuse it, naming the row.
#[test]
fn doctored_figures_fail_their_checks() {
    let cases = [
        ("pingpong", "verbs/payload=512", "p50_ns", 40_000), // verbs slower than sockets
        ("bufpool", "verbs/mix=steady_512", "hit_rate_bp", 0), // a steady size never predicted
        ("smallcall", "verbs_interned/payload=64", "max_ns", 2_656), // one dearer lone call
        ("batching", "verbs/point=multi8_p32", "speedup_bp", 19_999), // 1 bp short of 2x
        ("qos", "model/point=on_flood_light", "p99_ns", 20_001), // just over 2x quiet
        ("connections", "model/point=event_idle50000", "pops", 129), // one pop an idle conn cost
        (
            "bulk",
            "verbs/point=lone_p65536_slots4",
            "ledger_saved_ns",
            15_601,
        ), // not whole credits
        ("handlers_mn", "model/point=parked_flood", "p99_ns", 8_001), // just over 2x quiet
    ];
    assert_eq!(cases.len(), FIGURES.len(), "a doctored case per figure");
    for (figure, key, field, value) in cases {
        let (_, _, check) = FIGURES.iter().find(|(f, _, _)| *f == figure).unwrap();
        match check(&doctored(figure, key, field, value)) {
            Ok(()) => panic!("{figure}: {key} with {field} = {value} passed its check"),
            Err(e) => assert!(e.contains(key), "{figure}: {e:?} does not name {key}"),
        }
    }
}

#[test]
fn pingpong_runs_are_byte_identical() {
    enable_fast_forward();
    let a = run_pingpong(&OPTS, "test-rev").pretty();
    let b = run_pingpong(&OPTS, "test-rev").pretty();
    assert_eq!(a, b, "same seed must produce byte-identical pingpong JSON");

    // And a different seed draws different jitter (the percentiles are
    // really fed by the RNG, not constants).
    let c = run_pingpong(
        &RunOpts {
            quick: true,
            seed: 1337,
        },
        "test-rev",
    )
    .pretty();
    assert_ne!(a, c, "different seed must perturb the samples");
}

#[test]
fn bufpool_runs_are_byte_identical_and_pass_self_check() {
    enable_fast_forward();
    let a = run_bufpool(&OPTS, "test-rev");
    let b = run_bufpool(&OPTS, "test-rev");
    assert_eq!(a.pretty(), b.pretty());

    // A run always passes a zero-tolerance check against itself.
    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert!(
        outcome.compared >= 8,
        "both transports x all mixes compared"
    );

    // The verbs rows carry pool counters that actually counted.
    let rows = a.get("rows").unwrap().as_arr().unwrap();
    let verbs_lookups: u64 = rows
        .iter()
        .filter(|r| r.get("transport").and_then(|t| t.as_str()) == Some("verbs"))
        .filter_map(|r| r.get("pool"))
        .filter_map(|p| {
            Some(
                p.get("history_hits")?.as_u64()?
                    + p.get("grows")?.as_u64()?
                    + p.get("shrinks")?.as_u64()?
                    + p.get("cold")?.as_u64()?,
            )
        })
        .sum();
    assert!(verbs_lookups > 0, "verbs rows must surface pool activity");
}

/// The small-call figure: byte-identical per seed and self-check clean;
/// `run_smallcall` itself holds the lone-call guard ([`check_smallcall`]):
/// a sequential caller never waits for company, so every one of its
/// calls charges the same ledger.
#[test]
fn smallcall_runs_are_byte_identical_and_hold_the_lone_call_guard() {
    enable_fast_forward();
    let a = run_smallcall(&OPTS, "test-rev");
    let b = run_smallcall(&OPTS, "test-rev");
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "same seed must produce byte-identical smallcall JSON"
    );

    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert_eq!(
        outcome.compared, 16,
        "both transports × two modes × four payloads"
    );
}

/// The batching figure: byte-identical per seed and self-check clean;
/// `run_batching` itself holds the ≥ 2× bar ([`check_batching`]).
#[test]
fn batching_runs_are_byte_identical_and_meet_the_bar() {
    enable_fast_forward();
    let a = run_batching(&OPTS, "test-rev");
    let b = run_batching(&OPTS, "test-rev");
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "same seed must produce byte-identical batching JSON"
    );

    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert_eq!(outcome.compared, 6, "both transports × three payloads");
}

/// The bulk figure: byte-identical per seed and self-check clean;
/// `run_bulk` itself holds the pipelining, credit-message and
/// registration-cache claims ([`check_bulk`]) and, transfer by transfer,
/// that no lone transfer costs more through the ring than the gate.
#[test]
fn bulk_runs_are_byte_identical_and_meet_the_bar() {
    enable_fast_forward();
    let a = run_bulk(&OPTS, "test-rev");
    let b = run_bulk(&OPTS, "test-rev");
    assert_eq!(
        a.pretty(),
        b.pretty(),
        "same seed must produce byte-identical bulk JSON"
    );

    let outcome = check_regression(&a, &b, 0).expect("comparable");
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert!(
        outcome.compared >= 12,
        "lone guards + pipeline points all gate on p99"
    );
}
