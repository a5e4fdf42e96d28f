//! `compare A.json B.json`: per workload and end-to-end metric, both values,
//! the relative difference (with its base) and the bound; then the ungated
//! wall-clock figures the same way, without a verdict. The tool for the
//! two-sets-of-one-commit agreement check and for parent-versus-change
//! pairs later.

use crate::contract::{Better, END_TO_END, PER_LAYER, WALL_CLOCK, WORKLOADS};
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Unchanged,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound: the only failing verdict.
    Worse,
    /// Within the bound, but by its own slices one input is unsure of its
    /// figure by more than the bound (two standard errors), so "no change"
    /// is not something these two runs can show.
    Unresolved,
    /// One side lacks the number.
    Missing,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(better: Better, bound: f64, a: f64, b: f64, std_err: f64) -> Verdict {
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Missing;
    }
    let worse_by = worsening(better, a, b);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else if 2.0 * std_err > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn number(doc: &Json, workload: &str, block: &str, metric: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(block))
        .and_then(|b| b.get(metric))
        .and_then(|m| m.get("value").or(Some(m)))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Print the table; true when no pair is `Worse`.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<13} {:<27} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "(B-A)/A", "bound"
    );
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let va = number(a, workload.name, "end_to_end", metric.name);
            let vb = number(b, workload.name, "end_to_end", metric.name);
            let spread = number(a, workload.name, "spread", metric.name).max(number(
                b,
                workload.name,
                "spread",
                metric.name,
            ));
            let spread = if spread.is_finite() { spread } else { 0.0 };
            let v = verdict(metric.better, metric.bound, va, vb, spread);
            ok &= v != Verdict::Worse;
            println!(
                "{:<13} {:<27} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}{}",
                workload.name,
                metric.name,
                va,
                vb,
                (vb - va) / va.abs() * 100.0,
                metric.bound * 100.0,
                v.name(),
                if v == Verdict::Unresolved {
                    format!(" (standard error {:.1}%)", spread * 100.0)
                } else {
                    String::new()
                },
            );
        }
    }
    // Not gated and so without a verdict: one pair of runs cannot tell a
    // change from the host's mood (README, "Why speed is not gated"). Ten
    // alternating pairs can; this is the table each pair contributes.
    println!("\nwall clock, untraced slices of the traced run (not gated):");
    for workload in &WORKLOADS {
        for metric in &PER_LAYER[..WALL_CLOCK] {
            let va = number(a, workload.name, "per_layer", metric.name);
            let vb = number(b, workload.name, "per_layer", metric.name);
            let spread = number(a, workload.name, "spread", metric.name).max(number(
                b,
                workload.name,
                "spread",
                metric.name,
            ));
            println!(
                "{:<13} {:<27} {:>14.4} {:>14.4} {:>+8.2}% (B is {}; standard error {:.1}%)",
                workload.name,
                metric.name,
                va,
                vb,
                (vb - va) / va.abs() * 100.0,
                if worsening(metric.better, va, vb) > 0.0 {
                    "worse"
                } else {
                    "no worse"
                },
                spread * 100.0,
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Lower, 0.10, 100.0, 105.0, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.10, 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.10, 100.0, 85.0, 0.02), Verdict::Better);
        assert_eq!(verdict(Higher, 0.10, 100.0, 85.0, 0.02), Verdict::Worse);
        assert_eq!(verdict(Higher, 0.10, 100.0, 111.0, 0.02), Verdict::Better);
        // Inside the bound, but the runs themselves are noisier than it.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 105.0, 0.06),
            Verdict::Unresolved
        );
        // A regression is a regression however noisy the slices were.
        assert_eq!(verdict(Lower, 0.10, 100.0, 120.0, 0.50), Verdict::Worse);
        assert_eq!(verdict(Lower, 0.10, f64::NAN, 1.0, 0.0), Verdict::Missing);
        assert_eq!(verdict(Lower, 0.10, 0.0, 1.0, 0.0), Verdict::Missing);
        assert!((worsening(Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }
}
