//! **Fig. 1(c)/(d)** — Id–Vg characteristics of the SG-FeFET (FG read
//! after ±4 V writes, MW ≈ 1.8 V) and the DG-FeFET (BG read after ±2 V
//! writes, MW ≈ 2.7 V with degraded subthreshold slope).
//!
//! Emits `fig1c_sg_idvg.csv` / `fig1d_dg_idvg.csv` (columns: vg, id_lvt,
//! id_mvt, id_hvt) and prints extracted MW / SS / ON-OFF against the
//! paper targets.

use ferrotcam_bench::{paper, write_artifact};
use ferrotcam_device::calib;
use ferrotcam_device::extract::{
    idvg_states, on_off_ratio, subthreshold_slope, vth_constant_current, StateCurves,
};
use ferrotcam_device::ReadPath;
use std::fmt::Write as _;

const POINTS: usize = 161;

fn csv(c: &StateCurves) -> String {
    let mut out = String::from("vg,id_lvt,id_mvt,id_hvt\n");
    for ((&(vg, l), &(_, m)), &(_, h)) in c.lvt.iter().zip(&c.mvt).zip(&c.hvt) {
        let _ = writeln!(out, "{vg:.4},{l:.6e},{m:.6e},{h:.6e}");
    }
    out
}

fn report(label: &str, c: &StateCurves, target_mw: f64) {
    let i_crit = 1e-7; // constant-current threshold criterion
    let v_lvt = vth_constant_current(&c.lvt, i_crit);
    let v_hvt = vth_constant_current(&c.hvt, i_crit);
    let mw = match (v_lvt, v_hvt) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    let ss = subthreshold_slope(&c.lvt, 1e-9, 1e-7).unwrap_or(f64::NAN);
    let onoff = on_off_ratio(&c.lvt);
    println!(
        "{label}: MW = {mw:.2} V (target {target_mw}), SS = {:.0} mV/dec, LVT on/off = {onoff:.1e}",
        ss * 1e3
    );
}

fn main() {
    println!("== Fig. 1: FeFET Id-Vg characteristics ==");
    let sg = idvg_states(
        &calib::sg_fefet_14nm(),
        ReadPath::FrontGate,
        (-1.0, 3.0),
        POINTS,
    );
    let dg = idvg_states(
        &calib::dg_fefet_14nm(),
        ReadPath::BackGate,
        (-2.0, 4.0),
        POINTS,
    );
    report(paper::FIG1[0].0, &sg, paper::FIG1[0].2);
    report(paper::FIG1[1].0, &dg, paper::FIG1[1].2);
    write_artifact("fig1c_sg_idvg.csv", &csv(&sg));
    write_artifact("fig1d_dg_idvg.csv", &csv(&dg));
}
