//! A deliberately mis-biased FeFET cell must fail DC with an enriched
//! `NonConvergence` that names the worst-residual node and the FeFET
//! instance — the forensic payload the paper-debugging workflow leans on
//! when a TCAM array netlist refuses to bias up.

use ferrotcam_device::calib;
use ferrotcam_device::fefet::Fefet;
use ferrotcam_spice::prelude::*;

#[test]
fn misbiased_fefet_cell_names_drain_node() {
    // 5 kV on the matchline: damped Newton (0.4 V per iteration) can
    // never walk the drain there within the iteration budget, and the
    // source/gmin ladders fail the same way rung after rung.
    let mut ckt = Circuit::new();
    let ml = ckt.node("ml");
    let wl = ckt.node("wl");
    ckt.vsource("VML", ml, Circuit::gnd(), Waveform::dc(5000.0));
    ckt.vsource("VWL", wl, Circuit::gnd(), Waveform::dc(2.0));
    ckt.device(Box::new(Fefet::new(
        "XF0",
        ml,
        wl,
        Circuit::gnd(),
        Circuit::gnd(),
        calib::dg_fefet_14nm(),
    )));

    let err = operating_point(&ckt, &DcOpts::default()).unwrap_err();
    let Error::NonConvergence {
        iterations,
        forensics: Some(f),
        ..
    } = &err
    else {
        panic!("expected enriched NonConvergence, got {err}");
    };
    assert!(*iterations > 0);
    // The matchline carries the mis-predicted drain current; the wordline
    // row only sees gmin-sized gate leakage.
    assert_eq!(f.node, "ml");
    assert_eq!(f.device, "XF0");
    assert!(
        f.f_norm > 0.0 && f.f_norm.is_finite(),
        "f_norm = {}",
        f.f_norm
    );
    assert!(f.dx_norm > 0.0, "dx_norm = {}", f.dx_norm);
    let msg = err.to_string();
    assert!(msg.contains("ml") && msg.contains("XF0"), "message: {msg}");
}
