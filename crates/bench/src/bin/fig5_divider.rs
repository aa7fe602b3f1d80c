//! **Fig. 5(b)/(c) analysis** — static transfer characteristics of the
//! 1.5T1Fe voltage divider: SL_bar versus the select voltage, per stored
//! state and search polarity. This is the DC view behind the paper's
//! equivalent circuits and Eqs. (2)/(3): the select window where
//! mismatches sit above the TML threshold and matches/'X' below defines
//! the legal V_SeL range.
//!
//! Emits `fig5_divider_<design>.csv` (columns: v_sel, then SL_bar for
//! each of the six state×query combinations).

use ferrotcam::cell::{DesignKind, DesignParams};
use ferrotcam::margins::build_divider_circuit;
use ferrotcam_bench::write_artifact;
use ferrotcam_device::fefet::VthState;
use ferrotcam_spice::{dc_sweep, linspace};
use std::fmt::Write as _;

const STATES: [(VthState, &str); 3] = [
    (VthState::Hvt, "0"),
    (VthState::Lvt, "1"),
    (VthState::Mvt, "X"),
];

fn main() {
    println!("== Fig. 5 divider characteristics: SL_bar vs V_SeL ==");
    for kind in [DesignKind::T15Dg, DesignKind::T15Sg] {
        let params = DesignParams::preset(kind);
        let v_max = params.v_search * 1.25;
        let vals = linspace(0.0, v_max, 26);
        // Sweep the select source: "BG" for DG, "FG" for SG.
        let sel_source = if kind == DesignKind::T15Dg {
            "BG"
        } else {
            "FG"
        };

        let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
        for (state, label) in STATES {
            for query in [false, true] {
                let (ckt, slbar) = build_divider_circuit(&params, params.fefet(), state, query)
                    .expect("build divider");
                let sweep = dc_sweep(&ckt, sel_source, &vals).expect("dc sweep");
                let curve: Vec<f64> = sweep
                    .voltage_curve(slbar)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect();
                columns.push((format!("s{label}_q{}", u8::from(query)), curve));
            }
        }

        let mut csv = String::from("v_sel");
        for (name, _) in &columns {
            let _ = write!(csv, ",{name}");
        }
        csv.push('\n');
        for (i, v) in vals.iter().enumerate() {
            let _ = write!(csv, "{v:.3}");
            for (_, col) in &columns {
                let _ = write!(csv, ",{:.4}", col[i]);
            }
            csv.push('\n');
        }
        write_artifact(&format!("fig5_divider_{}.csv", kind.name()), &csv);

        // Report the operating point at the nominal select voltage.
        let at_nominal = |name: &str| {
            let idx = vals
                .iter()
                .position(|&v| (v - params.v_search).abs() < v_max / 50.0)
                .unwrap_or(vals.len() - 1);
            columns
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c[idx])
                .unwrap_or(f64::NAN)
        };
        println!(
            "{kind} @ V_SeL = {:.1} V: mismatch levels {:.2}/{:.2} V, \
             X levels {:.2}/{:.2} V, TML threshold {:.2} V",
            params.v_search,
            at_nominal("s1_q0"),
            at_nominal("s0_q1"),
            at_nominal("sX_q0"),
            at_nominal("sX_q1"),
            params.tml.vth0
        );
    }
}
