//! **Table IV drift guard** — diff two `table4.json` FoM files (the
//! committed one and a regenerated one) and flag metric movements
//! beyond a threshold. Usage:
//!
//! ```text
//! compare_runs <old.json> <new.json> [tolerance-percent]
//! ```
//!
//! The tolerance defaults to 10 %. A metric whose move cannot be
//! measured (NaN, or an infinite relative move off a zero) counts as
//! moved unless both values are equal, and a design row missing from
//! the new file counts too. Exits non-zero when any metric moved, which
//! makes it usable as a CI gate on the regenerated artefact.

use ferrotcam_eval::report::FomRow;
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<FomRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (new - old) / old * 100.0
}

/// Whether a metric moved from `old` to `new` beyond `tol` percent. A
/// non-finite relative move (a NaN on either side, or a move off zero)
/// has no size to compare, so it counts as moved unless the values are
/// equal.
fn moved(old: f64, new: f64, tol: f64) -> bool {
    let d = pct(old, new);
    if d.is_finite() {
        d.abs() > tol
    } else {
        old != new
    }
}

/// Print the per-metric diff of two Table IV files and return how many
/// metrics moved beyond `tol` percent; a removed design row counts as
/// one.
fn compare(old: &[FomRow], new: &[FomRow], tol: f64) -> usize {
    let mut regressions = 0usize;
    println!(
        "{:<12} {:<22} {:>10} {:>10} {:>8}",
        "design", "metric", "old", "new", "Δ%"
    );
    for o in old {
        let Some(n) = new.iter().find(|r| r.design == o.design) else {
            println!("{:<12} row removed", o.design);
            regressions += 1;
            continue;
        };
        let metrics: [(&str, f64, f64); 4] = [
            ("cell_area_um2", o.cell_area_um2, n.cell_area_um2),
            ("latency_ps", o.latency_ps, n.latency_ps),
            ("energy_avg_fj", o.energy_avg_fj, n.energy_avg_fj),
            (
                "write_energy_fj",
                o.write_energy_fj.unwrap_or(0.0),
                n.write_energy_fj.unwrap_or(0.0),
            ),
        ];
        for (name, ov, nv) in metrics {
            let flag = if moved(ov, nv, tol) {
                regressions += 1;
                "  <-- moved"
            } else {
                ""
            };
            if ov != 0.0 || nv != 0.0 {
                println!(
                    "{:<12} {:<22} {:>10.3} {:>10.3} {:>7.1}%{flag}",
                    o.design,
                    name,
                    ov,
                    nv,
                    pct(ov, nv)
                );
            }
        }
    }
    regressions
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (old_path, new_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            eprintln!("usage: compare_runs <old.json> <new.json> [tolerance-percent]");
            return ExitCode::FAILURE;
        }
    };
    let tol: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let regressions = compare(&old, &new, tol);
    if regressions > 0 {
        eprintln!("\n{regressions} metric(s) moved beyond ±{tol}%");
        ExitCode::FAILURE
    } else {
        println!("\nall metrics within ±{tol}%");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed Table IV.
    fn committed() -> Vec<FomRow> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table4.json");
        load(path).expect("committed table4.json")
    }

    #[test]
    fn nan_latency_fails() {
        let old = committed();
        let mut new = old.clone();
        new[0].latency_ps = f64::NAN;
        assert_eq!(compare(&old, &new, 10.0), 1);
    }

    #[test]
    fn move_off_zero_fails() {
        let old = committed();
        let mut new = old.clone();
        let row = old
            .iter()
            .position(|r| r.write_energy_fj.is_none())
            .expect("a design without a write energy");
        new[row].write_energy_fj = Some(1.0);
        assert_eq!(compare(&old, &new, 10.0), 1);
    }

    #[test]
    fn removed_design_row_fails() {
        let old = committed();
        assert_eq!(compare(&old, &old[1..], 10.0), 1);
    }

    #[test]
    fn move_within_tolerance_passes() {
        let old = committed();
        let mut new = old.clone();
        new[0].latency_ps *= 1.09;
        assert_eq!(compare(&old, &new, 10.0), 0);
        new[0].latency_ps = old[0].latency_ps * 1.11;
        assert_eq!(compare(&old, &new, 10.0), 1);
    }
}
