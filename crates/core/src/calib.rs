//! SPICE-datasheet calibration: pricing behavioural searches from the
//! measured figure-of-merit artefacts instead of re-simulating the
//! circuit per query.
//!
//! The calibration chain the serving layer relies on:
//!
//! 1. `results/table4.json` — per-design, per-cell step-1/step-2
//!    latency and energy at 64-cell words (the repo's own SPICE
//!    characterisation of Table IV);
//! 2. `results/fig7_energy.csv` / `results/fig7_latency.csv` — word-
//!    length scaling curves (per-cell energy, full-search latency) used
//!    to interpolate away from the 64-cell anchor.
//!
//! [`Calibration::search_metrics`] folds the chain into the same
//! [`SearchMetrics`] the shard layer already audits, so a behavioural
//! query is priced `step1_misses × E₁ + survivors × E₂` with SPICE-
//! derived constants — identical in form to the simulated path, which
//! is what makes the sampled audit lane a meaningful check.
//!
//! **Approximate match.** [`SenseModel`] is TAP-CAM's tunable sensing,
//! where the sense moment picks the accepted Hamming distance. It is
//! the closed-form law `t(m) = t₁ / m` anchored at the calibrated
//! step-1 latency, so it reads no file of its own; the serving layer
//! prices a threshold query's bank time at its sense moment and the
//! audit lane replays threshold queries through it.

use crate::cell::DesignKind;
use crate::fom::SearchMetrics;
use std::path::Path;

/// A word-length scaling curve: `(word_len, value)` points, ascending.
type Curve = Vec<(f64, f64)>;

/// SPICE-datasheet calibration for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Design the figures describe.
    pub design: DesignKind,
    /// Worst-case step-1 latency at the 64-cell anchor (s).
    pub latency_1step: f64,
    /// Full two-step latency at the 64-cell anchor (s).
    pub latency_2step: f64,
    /// Per-cell step-1 row energy at the anchor (J).
    pub energy_1step_per_cell: f64,
    /// Per-cell full two-step row energy at the anchor (J).
    pub energy_2step_per_cell: f64,
    /// Per-cell 3-step program (write) energy (J), from Table IV's
    /// write staircase. Prices online `Insert`/`Update`/`Delete`.
    pub write_energy_per_cell: f64,
    /// Fig. 7 per-cell average-energy scaling curve (fJ vs word length).
    pub energy_curve: Curve,
    /// Fig. 7 search-latency scaling curve (ps vs word length).
    pub latency_curve: Curve,
    /// Datasheets the figures actually came from (provenance for the
    /// audit report); empty for paper defaults.
    pub sources: Vec<String>,
}

/// Word length every datasheet anchors at (Table IV's measurement).
const ANCHOR_WORD_LEN: f64 = 64.0;

impl Calibration {
    /// Built-in fallback: the paper's Table IV constants, no scaling
    /// curves. Used when the datasheet files are absent.
    #[must_use]
    pub fn paper_defaults(design: DesignKind) -> Self {
        // Paper Table IV per-cell figures (1.5T1DG-Fe column; other
        // designs fall back to the same shape scaled by their single-
        // step energy ratio — good enough for a fallback that only
        // exists when no datasheet was generated).
        Self {
            design,
            latency_1step: 231e-12,
            latency_2step: 481e-12,
            energy_1step_per_cell: 0.13e-15,
            energy_2step_per_cell: 0.21e-15,
            write_energy_per_cell: 0.3816e-15,
            energy_curve: Vec::new(),
            latency_curve: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// Load the calibration chain from a results directory, falling
    /// back to [`Calibration::paper_defaults`] for any file that is
    /// missing or does not mention `design`. Never fails: a serving
    /// deployment must come up even on a fresh checkout.
    #[must_use]
    pub fn load(dir: &Path, design: DesignKind) -> Self {
        let mut cal = Self::paper_defaults(design);
        let table4 = dir.join("table4.json");
        if let Some(row) = std::fs::read_to_string(&table4)
            .ok()
            .and_then(|text| parse_table4(&text, design.name()))
        {
            cal.latency_1step = row.latency_1step_ps * 1e-12;
            cal.latency_2step = row.latency_ps * 1e-12;
            cal.energy_1step_per_cell = row.energy_1step_fj * 1e-15;
            cal.energy_2step_per_cell = row.energy_2step_fj.unwrap_or(row.energy_1step_fj) * 1e-15;
            if let Some(w) = row.write_energy_fj {
                cal.write_energy_per_cell = w * 1e-15;
            }
            cal.sources.push(table4.display().to_string());
        }
        for (file, slot) in [
            ("fig7_energy.csv", &mut cal.energy_curve),
            ("fig7_latency.csv", &mut cal.latency_curve),
        ] {
            let path = dir.join(file);
            if let Some(curve) = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| parse_fig7(&text, design.name()))
            {
                *slot = curve;
                cal.sources.push(path.display().to_string());
            }
        }
        cal
    }

    /// Price a word length: the anchor figures scaled along the Fig. 7
    /// curves (ratio to the 64-cell anchor, log-interpolated, clamped
    /// at the curve ends). Energies are per *row*.
    #[must_use]
    pub fn search_metrics(&self, width: usize) -> SearchMetrics {
        let wl = width.max(1) as f64;
        let scale = |curve: &Curve| -> f64 {
            match (interp(curve, wl), interp(curve, ANCHOR_WORD_LEN)) {
                (Some(at), Some(anchor)) if anchor > 0.0 => at / anchor,
                _ => 1.0,
            }
        };
        let e_scale = scale(&self.energy_curve);
        let l_scale = scale(&self.latency_curve);
        SearchMetrics {
            design: self.design,
            word_len: width,
            latency_1step: self.latency_1step * l_scale,
            latency_2step: Some(self.latency_2step * l_scale),
            energy_1step: self.energy_1step_per_cell * width as f64 * e_scale,
            energy_2step: Some(self.energy_2step_per_cell * width as f64 * e_scale),
        }
    }

    /// Price one online row write: every cell of the row sees the full
    /// 3-step program (erase / set / release), so energy is linear in
    /// the word length and latency is the fixed program schedule from
    /// [`crate::write_array::program_duration`].
    #[must_use]
    pub fn write_metrics(&self, width: usize) -> RowWriteMetrics {
        RowWriteMetrics {
            design: self.design,
            word_len: width,
            energy_per_cell: self.write_energy_per_cell,
            energy: self.write_energy_per_cell * width as f64,
            latency: crate::write_array::program_duration(),
        }
    }
}

/// Calibrated cost of programming one row online (the serving layer's
/// `Insert`/`Update`/`Delete` pricing), derived from Table IV's write
/// staircase plus the 3-step program schedule. Distinct from the
/// cell-level [`crate::fom::WriteMetrics`], which characterises single
/// device writes in SPICE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowWriteMetrics {
    /// Design the figures describe.
    pub design: DesignKind,
    /// Row width the energy was scaled to.
    pub word_len: usize,
    /// Per-cell program energy (J).
    pub energy_per_cell: f64,
    /// Whole-row program energy (J): `word_len × energy_per_cell`.
    pub energy: f64,
    /// Program latency (s): the complete 3-step waveform.
    pub latency: f64,
}

/// TAP-CAM-style tunable sensing: the ML discharge time encodes the
/// Hamming distance (m pull-down paths drain the ML capacitance m×
/// faster), so the *sense moment* selects the accepted distance
/// threshold. The closed-form law `t(m) = t₁ / m`, anchored at the
/// calibrated step-1 (single-mismatch) latency t₁.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseModel {
    /// Single-mismatch discharge time t₁ (s), > 0.
    t1: f64,
}

impl SenseModel {
    /// The law anchored at `latency_1step`; a non-positive anchor
    /// falls back to the paper's 231 ps.
    #[must_use]
    pub fn analytic(latency_1step: f64) -> Self {
        let t1 = if latency_1step > 0.0 {
            latency_1step
        } else {
            231e-12
        };
        Self { t1 }
    }

    /// Discharge time for `m` mismatches, `t₁ / m`; `+∞` for a full
    /// match (no pull-down path ever fires).
    #[must_use]
    pub fn discharge_time(&self, m: u32) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        self.t1 / f64::from(m)
    }

    /// The sense moment implementing distance threshold `t`: inside
    /// the window `(t_d(t+1), t_d(t))` — after every row with > t
    /// mismatches has discharged, before any row with ≤ t has. The
    /// geometric midpoint splits the (log-scale) window evenly; for
    /// `t = 0` the window is open-ended above, so the moment sits at
    /// 1.5× the single-mismatch discharge (the exact-match sense).
    #[must_use]
    pub fn sense_time(&self, t: u32) -> f64 {
        let below = self.discharge_time(t + 1);
        let above = self.discharge_time(t);
        if above.is_finite() {
            (below * above).sqrt()
        } else {
            1.5 * below
        }
    }
}

/// The Table-IV fields the calibration consumes.
struct Table4Row {
    latency_1step_ps: f64,
    latency_ps: f64,
    energy_1step_fj: f64,
    energy_2step_fj: Option<f64>,
    write_energy_fj: Option<f64>,
}

/// Pull one design's row out of `table4.json` without depending on the
/// eval crate's report types (core sits below it in the workspace).
fn parse_table4(text: &str, design_name: &str) -> Option<Table4Row> {
    let rows: Vec<serde_json::JsonValue> = serde_json::from_str(text).ok()?;
    let row = rows
        .iter()
        .find(|r| r.get("design").and_then(|d| d.as_str()) == Some(design_name))?;
    let num = |key: &str| row.get(key).and_then(serde_json::JsonValue::as_f64);
    Some(Table4Row {
        latency_1step_ps: num("latency_1step_ps")?,
        latency_ps: num("latency_ps")?,
        energy_1step_fj: num("energy_1step_fj")?,
        energy_2step_fj: num("energy_2step_fj"),
        write_energy_fj: num("write_energy_fj"),
    })
}

/// Parse a Fig. 7 CSV (`word_len,<design>,...`) into this design's
/// scaling curve.
fn parse_fig7(text: &str, design_name: &str) -> Option<Curve> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let col = header.split(',').position(|h| h.trim() == design_name)?;
    let mut curve = Curve::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        let wl: f64 = cells.first()?.trim().parse().ok()?;
        let v: f64 = cells.get(col)?.trim().parse().ok()?;
        curve.push((wl, v));
    }
    curve.sort_by(|a, b| a.0.total_cmp(&b.0));
    (!curve.is_empty()).then_some(curve)
}

/// Linear interpolation in `log2(word_len)`, clamped at the curve
/// ends. `None` for an empty curve.
fn interp(curve: &Curve, wl: f64) -> Option<f64> {
    let (first, last) = (curve.first()?, curve.last()?);
    if wl <= first.0 {
        return Some(first.1);
    }
    if wl >= last.0 {
        return Some(last.1);
    }
    let x = wl.log2();
    for pair in curve.windows(2) {
        let (x0, y0) = (pair[0].0.log2(), pair[0].1);
        let (x1, y1) = (pair[1].0.log2(), pair[1].1);
        if x <= x1 {
            let f = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
            return Some(y0 + f * (y1 - y0));
        }
    }
    Some(last.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG7: &str = "word_len,2SG-FeFET,1.5T1DG-Fe\n8,0.16,0.22\n16,0.13,0.20\n64,0.10,0.18\n";

    #[test]
    fn fig7_parse_and_interp() {
        let curve = parse_fig7(FIG7, "1.5T1DG-Fe").unwrap();
        assert_eq!(curve.len(), 3);
        assert_eq!(interp(&curve, 8.0), Some(0.22));
        assert_eq!(interp(&curve, 64.0), Some(0.18));
        assert_eq!(interp(&curve, 4.0), Some(0.22), "clamped below");
        assert_eq!(interp(&curve, 256.0), Some(0.18), "clamped above");
        let mid = interp(&curve, 32.0).unwrap();
        assert!(mid > 0.18 && mid < 0.20, "log-midpoint between 16 and 64");
        assert!(parse_fig7(FIG7, "nonexistent").is_none());
    }

    #[test]
    fn paper_defaults_are_ordered() {
        let cal = Calibration::paper_defaults(DesignKind::T15Dg);
        assert!(cal.latency_1step < cal.latency_2step);
        assert!(cal.energy_1step_per_cell < cal.energy_2step_per_cell);
        let m = cal.search_metrics(64);
        assert!((m.energy_1step - 0.13e-15 * 64.0).abs() < 1e-30);
        assert_eq!(m.word_len, 64);
    }

    #[test]
    fn write_metrics_price_the_3step_program() {
        let cal = Calibration::paper_defaults(DesignKind::T15Dg);
        let w = cal.write_metrics(64);
        assert!((w.energy - 64.0 * cal.write_energy_per_cell).abs() < 1e-28);
        assert!((w.energy_per_cell - 0.3816e-15).abs() < 1e-30);
        assert!((w.latency - crate::write_array::program_duration()).abs() < 1e-18);
        // Two 0.4 ns phase windows plus inter-phase gap and settle.
        assert!(w.latency > 1.0e-9 && w.latency < 1.5e-9);
    }

    #[test]
    fn search_metrics_scale_along_curves() {
        let mut cal = Calibration::paper_defaults(DesignKind::T15Dg);
        cal.energy_curve = parse_fig7(FIG7, "1.5T1DG-Fe").unwrap();
        let at64 = cal.search_metrics(64);
        let at8 = cal.search_metrics(8);
        // Per-cell energy rises at short words (peripheral overhead
        // amortises worse), exactly as the Fig. 7 curve says: ratio
        // 0.22 / 0.18.
        let per_cell_64 = at64.energy_1step / 64.0;
        let per_cell_8 = at8.energy_1step / 8.0;
        assert!((per_cell_8 / per_cell_64 - 0.22 / 0.18).abs() < 1e-12);
    }

    #[test]
    fn sense_model_orders_thresholds() {
        let t1 = 231e-12;
        let m = SenseModel::analytic(t1);
        // The law itself, bit for bit, across the served width.
        for k in 1..=65u32 {
            assert_eq!(m.discharge_time(k).to_bits(), (t1 / k as f64).to_bits());
        }
        // Discharge time strictly decreasing in mismatch count.
        for k in 1..65u32 {
            assert!(m.discharge_time(k) > m.discharge_time(k + 1), "m = {k}");
        }
        assert!(m.discharge_time(0).is_infinite());
        // Sense moments: larger thresholds sense earlier, and each
        // moment sits inside its (t_d(t+1), t_d(t)) window.
        for t in 0..64u32 {
            let s = m.sense_time(t);
            assert!(s > m.discharge_time(t + 1), "t = {t}");
            assert!(s < m.discharge_time(t), "t = {t}");
            if t > 0 {
                assert!(s < m.sense_time(t - 1), "t = {t}");
            }
        }
    }

    #[test]
    fn loads_real_datasheets_when_present() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert!(
            dir.join("table4.json").exists(),
            "results/table4.json is committed"
        );
        let cal = Calibration::load(&dir, DesignKind::T15Dg);
        assert_eq!(
            cal.sources,
            ["table4.json", "fig7_energy.csv", "fig7_latency.csv"]
                .map(|f| dir.join(f).display().to_string()),
            "every committed datasheet calibrates the model"
        );
        // The repo's own characterisation, not the paper constants.
        assert!(cal.latency_2step > cal.latency_1step);
        let m = cal.search_metrics(64);
        assert!(m.energy_1step > 0.0 && m.energy_2step.unwrap() > m.energy_1step);
        // Scaling at the anchor must be the identity.
        assert!((m.energy_1step - cal.energy_1step_per_cell * 64.0).abs() < 1e-9 * m.energy_1step);
    }
}
