//! Baseline comparison for `bench --check`: fail when p99 regresses
//! beyond a configurable tolerance.
//!
//! Rows are matched by a composite key (`transport` plus whichever sweep
//! axis the figure uses — `payload`, `mix`, or `point`), so adding new
//! rows to a sweep never breaks an old baseline; only rows the baseline
//! *has* must still exist and stay within tolerance.

use crate::json::Json;

/// Result of one baseline comparison.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Rows compared (present in both baseline and current).
    pub compared: usize,
    /// Human-readable failure descriptions; empty means the check passed.
    pub failures: Vec<String>,
}

impl CheckOutcome {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The identity of a row within its figure: transport + sweep axis.
pub fn row_key(row: &Json) -> Option<String> {
    let transport = row.get("transport")?.as_str()?;
    for axis in ["payload", "mix", "point"] {
        if let Some(v) = row.get(axis) {
            let v = match v {
                Json::U64(n) => n.to_string(),
                Json::Str(s) => s.clone(),
                _ => continue,
            };
            return Some(format!("{transport}/{axis}={v}"));
        }
    }
    None
}

/// Compare `current` against `baseline` (both full `BENCH_*.json`
/// documents of the same figure). A row fails when its current `p99_ns`
/// exceeds the baseline's by more than `tolerance_pct` percent, or when
/// a baseline row disappeared from the current run.
pub fn check_regression(
    current: &Json,
    baseline: &Json,
    tolerance_pct: u64,
) -> Result<CheckOutcome, String> {
    let fig_cur = current
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("current run has no figure field")?;
    let fig_base = baseline
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("baseline has no figure field")?;
    if fig_cur != fig_base {
        return Err(format!(
            "figure mismatch: current is {fig_cur}, baseline is {fig_base}"
        ));
    }
    let rows = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing rows array")?
            .to_vec())
    };
    let current_rows = rows(current)?;
    let baseline_rows = rows(baseline)?;

    let mut outcome = CheckOutcome {
        compared: 0,
        failures: Vec::new(),
    };
    for base_row in &baseline_rows {
        let Some(key) = row_key(base_row) else {
            continue;
        };
        let Some(cur_row) = current_rows
            .iter()
            .find(|r| row_key(r).as_deref() == Some(key.as_str()))
        else {
            outcome.failures.push(format!(
                "{key}: present in baseline but missing from current run"
            ));
            continue;
        };
        let base_p99 = base_row.get("p99_ns").and_then(Json::as_u64);
        let cur_p99 = cur_row.get("p99_ns").and_then(Json::as_u64);
        let (Some(base_p99), Some(cur_p99)) = (base_p99, cur_p99) else {
            outcome.failures.push(format!("{key}: missing p99_ns"));
            continue;
        };
        outcome.compared += 1;
        // Integer-only: cur > base * (100 + tol) / 100, without division.
        if cur_p99 * 100 > base_p99 * (100 + tolerance_pct) {
            outcome.failures.push(format!(
                "{key}: p99 regressed {base_p99} ns -> {cur_p99} ns (> +{tolerance_pct}%)"
            ));
        }
    }
    if outcome.compared == 0 && outcome.failures.is_empty() {
        return Err("no comparable rows between baseline and current run".into());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(fig: &str, rows: &[(&str, u64, u64)]) -> Json {
        let rows = rows
            .iter()
            .map(|(t, payload, p99)| {
                Json::obj()
                    .field("transport", *t)
                    .field("payload", *payload)
                    .field("p99_ns", *p99)
            })
            .collect();
        Json::obj()
            .field("figure", fig)
            .field("rows", Json::Arr(rows))
    }

    #[test]
    fn within_tolerance_passes() {
        let base = doc("pingpong", &[("socket", 512, 1000), ("verbs", 512, 400)]);
        let cur = doc("pingpong", &[("socket", 512, 1200), ("verbs", 512, 380)]);
        let out = check_regression(&cur, &base, 25).unwrap();
        assert_eq!(out.compared, 2);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn beyond_tolerance_fails() {
        let base = doc("pingpong", &[("socket", 512, 1000)]);
        let cur = doc("pingpong", &[("socket", 512, 1251)]);
        let out = check_regression(&cur, &base, 25).unwrap();
        assert!(!out.passed());
        assert!(out.failures[0].contains("regressed"));
    }

    #[test]
    fn missing_row_fails_and_new_rows_are_ignored() {
        let base = doc("pingpong", &[("socket", 512, 1000)]);
        let cur = doc("pingpong", &[("socket", 4096, 900), ("verbs", 512, 100)]);
        let out = check_regression(&cur, &base, 25).unwrap();
        assert!(!out.passed());
        assert!(out.failures[0].contains("missing"));
    }

    #[test]
    fn figure_mismatch_is_an_error() {
        let base = doc("pingpong", &[("socket", 512, 1000)]);
        let cur = doc("bufpool", &[("socket", 512, 1000)]);
        assert!(check_regression(&cur, &base, 25).is_err());
    }

    #[test]
    fn parses_real_shape() {
        let text = r#"{"figure": "bulk", "rows": [
            {"transport": "verbs", "point": "lone_p65536_slots4", "p99_ns": 5000}
        ]}"#;
        let cur = parse(text).unwrap();
        let out = check_regression(&cur, &cur, 0).unwrap();
        assert_eq!(out.compared, 1);
        assert!(out.passed());
    }
}
