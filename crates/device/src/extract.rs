//! Id–Vg sweeps of a programmed FeFET and the parameters extracted from
//! them (V_TH, subthreshold slope, ON/OFF ratio) — the measurements
//! behind Fig. 1(c)/(d).

use crate::fefet::{Fefet, FefetParams, VthState};
use crate::resistance::ReadPath;
use ferrotcam_spice::units::TEMP_NOMINAL;
use ferrotcam_spice::NodeId;

/// Drain bias of the Fig. 1 read sweeps (V).
const READ_VDS: f64 = 0.1;

/// One Id–Vg curve per programmed state, as `(vg, id)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct StateCurves {
    /// LVT ('1') curve.
    pub lvt: Vec<(f64, f64)>,
    /// MVT ('X') curve.
    pub mvt: Vec<(f64, f64)>,
    /// HVT ('0') curve.
    pub hvt: Vec<(f64, f64)>,
}

/// Program one device to LVT, MVT and HVT in turn and sweep `gate` over
/// `range` in `points` steps, at V_DS = 0.1 V and 300 K with the source
/// and the other gate grounded.
///
/// # Panics
/// Panics if `points < 2`.
#[must_use]
pub fn idvg_states(
    params: &FefetParams,
    gate: ReadPath,
    range: (f64, f64),
    points: usize,
) -> StateCurves {
    let g = NodeId::GROUND;
    let mut dev = Fefet::new("probe", g, g, g, g, params.clone());
    let mut sweep = |state: VthState| {
        dev.program(state);
        match gate {
            ReadPath::FrontGate => dev.sweep_fg(range, points, READ_VDS, TEMP_NOMINAL),
            ReadPath::BackGate => dev.sweep_bg(range, points, READ_VDS, TEMP_NOMINAL),
        }
    };
    StateCurves {
        lvt: sweep(VthState::Lvt),
        mvt: sweep(VthState::Mvt),
        hvt: sweep(VthState::Hvt),
    }
}

/// Threshold voltage by the constant-current method: the gate voltage at
/// which `|id|` first reaches `i_crit` (linear interpolation); `None` if
/// the sweep never reaches it.
#[must_use]
pub fn vth_constant_current(sweep: &[(f64, f64)], i_crit: f64) -> Option<f64> {
    for w in sweep.windows(2) {
        let (v0, i0) = w[0];
        let (v1, i1) = w[1];
        if i0.abs() < i_crit && i1.abs() >= i_crit {
            // Interpolate in log-current for accuracy in subthreshold.
            let l0 = i0.abs().max(1e-30).ln();
            let l1 = i1.abs().max(1e-30).ln();
            let lc = i_crit.ln();
            let frac = if (l1 - l0).abs() < 1e-30 {
                0.0
            } else {
                (lc - l0) / (l1 - l0)
            };
            return Some(v0 + frac * (v1 - v0));
        }
    }
    None
}

/// Subthreshold slope (V/decade) fitted between the gate voltages where
/// the current crosses `i_low` and `i_high`; `None` when the sweep does
/// not span both levels.
#[must_use]
pub fn subthreshold_slope(sweep: &[(f64, f64)], i_low: f64, i_high: f64) -> Option<f64> {
    let v_low = vth_constant_current(sweep, i_low)?;
    let v_high = vth_constant_current(sweep, i_high)?;
    let decades = (i_high / i_low).log10();
    (decades > 0.0).then(|| (v_high - v_low) / decades)
}

/// Ratio of the largest to the smallest current magnitude in the sweep.
#[must_use]
pub fn on_off_ratio(sweep: &[(f64, f64)]) -> f64 {
    let max = sweep.iter().map(|&(_, i)| i.abs()).fold(0.0, f64::max);
    let min = sweep
        .iter()
        .map(|&(_, i)| i.abs())
        .fold(f64::INFINITY, f64::min);
    max / min.max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic exponential-then-square device: SS = 0.1 V/dec below
    /// vth = 1.0 V.
    fn synthetic() -> Vec<(f64, f64)> {
        (0..=200)
            .map(|k| {
                let vg = k as f64 * 0.01;
                let i = if vg < 1.0 {
                    1e-7 * 10f64.powf((vg - 1.0) / 0.1)
                } else {
                    1e-7 + 1e-4 * (vg - 1.0).powi(2)
                };
                (vg, i)
            })
            .collect()
    }

    #[test]
    fn vth_extraction_hits_knee() {
        let s = synthetic();
        let vth = vth_constant_current(&s, 1e-7).unwrap();
        assert!((vth - 1.0).abs() < 0.02, "vth = {vth}");
    }

    #[test]
    fn ss_extraction_matches_construction() {
        let s = synthetic();
        let ss = subthreshold_slope(&s, 1e-10, 1e-8).unwrap();
        assert!((ss - 0.1).abs() < 0.01, "ss = {ss}");
    }

    #[test]
    fn missing_levels_return_none() {
        let s = synthetic();
        assert!(vth_constant_current(&s, 1.0).is_none());
        assert!(subthreshold_slope(&s, 1e-30, 1e-25).is_none());
    }

    #[test]
    fn on_off_ratio_sane() {
        let s = synthetic();
        assert!(on_off_ratio(&s) > 1e3);
    }

    /// Fig. 1's memory windows, extracted at 1e-7 A from the curves the
    /// `fig1_idvg` bin writes: 1.80 V for the SG FG read, 2.70 V for
    /// the DG BG read.
    #[test]
    fn fig1_memory_windows_from_state_curves() {
        use crate::calib;
        for (params, gate, range, mw_target) in [
            (
                calib::sg_fefet_14nm(),
                ReadPath::FrontGate,
                (-1.0, 3.0),
                1.80,
            ),
            (
                calib::dg_fefet_14nm(),
                ReadPath::BackGate,
                (-2.0, 4.0),
                2.70,
            ),
        ] {
            let c = idvg_states(&params, gate, range, 161);
            let [lvt, mvt, hvt] =
                [&c.lvt, &c.mvt, &c.hvt].map(|s| vth_constant_current(s, 1e-7).unwrap());
            assert!(lvt < mvt && mvt < hvt, "{gate:?}: {lvt} {mvt} {hvt}");
            let mw = hvt - lvt;
            assert!((mw - mw_target).abs() < 0.02, "{gate:?}: MW = {mw}");
            // At every gate voltage a lower threshold conducts more.
            for ((l, m), h) in c.lvt.iter().zip(&c.mvt).zip(&c.hvt) {
                assert!(l.1 >= m.1 && m.1 >= h.1, "{gate:?} at vg = {}", l.0);
            }
        }
    }
}
