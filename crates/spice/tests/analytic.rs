//! Analytic-answer integration tests for the simulator: circuits with
//! closed-form solutions that pin down the engine's physics.

use ferrotcam_spice::prelude::*;

/// Charge sharing: C1 precharged to V0, switched onto C2 through R.
/// Final voltage V0·C1/(C1+C2); energy (½C1V0² − ½(C1+C2)Vf²) burns in R.
#[test]
fn capacitive_charge_sharing() {
    let c1 = 2e-15;
    let c2 = 1e-15;
    let v0 = 1.2;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.capacitor("C1", a, Circuit::gnd(), c1).unwrap();
    ckt.capacitor("C2", b, Circuit::gnd(), c2).unwrap();
    ckt.resistor("R1", a, b, 10e3).unwrap();
    ckt.initial_condition(a, v0);
    let mut opts = TranOpts::to_time(2e-9); // ≫ τ = R·C1C2/(C1+C2) ≈ 6.7 ps
    opts.uic = true;
    opts.dt_max = 2e-12;
    let tr = transient(&mut ckt, &opts).unwrap();
    let vf = v0 * c1 / (c1 + c2);
    let va = tr.final_value("v(a)").unwrap();
    let vb = tr.final_value("v(b)").unwrap();
    assert!((va - vf).abs() < 0.01 * vf, "va = {va}, want {vf}");
    assert!((vb - vf).abs() < 0.01 * vf, "vb = {vb}");
}

/// Two-pole RC ladder step response: v2(t) has no overshoot and settles
/// to the source value.
#[test]
fn two_pole_ladder_settles_monotonically() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let m = ckt.node("m");
    let o = ckt.node("o");
    ckt.vsource(
        "V1",
        a,
        Circuit::gnd(),
        Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0),
    );
    ckt.resistor("R1", a, m, 1e3).unwrap();
    ckt.capacitor("C1", m, Circuit::gnd(), 1e-12).unwrap();
    ckt.resistor("R2", m, o, 1e3).unwrap();
    ckt.capacitor("C2", o, Circuit::gnd(), 1e-12).unwrap();
    let mut opts = TranOpts::to_time(20e-9);
    opts.dt_max = 20e-12;
    let tr = transient(&mut ckt, &opts).unwrap();
    let y = tr.signal("v(o)").unwrap();
    assert!(
        y.windows(2).all(|w| w[1] >= w[0] - 1e-6),
        "overshoot/ringing"
    );
    assert!((tr.final_value("v(o)").unwrap() - 1.0).abs() < 1e-3);
}

/// Steady sinusoidal drive of an RC divider: transient amplitude matches
/// the AC analysis at the same frequency.
#[test]
fn transient_agrees_with_ac_at_one_frequency() {
    let r = 1e3;
    let c = 1e-9;
    let f = 1.0 / (2.0 * std::f64::consts::PI * r * c); // the pole
    let build = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(
            "V1",
            a,
            Circuit::gnd(),
            Waveform::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq: f,
                delay: 0.0,
            },
        );
        ckt.resistor("R1", a, b, r).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), c).unwrap();
        (ckt, b)
    };
    // AC: |H| = 1/√2 at the pole.
    let (ckt_ac, b_ac) = build();
    let ac = ac_analysis(&ckt_ac, "V1", &[f]).unwrap();
    let mag_ac = ac.voltage(0, b_ac).mag();
    assert!((mag_ac - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);

    // Transient: measure the steady-state amplitude over the last cycle.
    let (mut ckt_tr, _) = build();
    let period = 1.0 / f;
    let mut opts = TranOpts::to_time(8.0 * period);
    opts.dt_max = period / 200.0;
    let tr = transient(&mut ckt_tr, &opts).unwrap();
    let y = tr.signal("v(b)").unwrap();
    let t = tr.time();
    let last_cycle: Vec<f64> = t
        .iter()
        .zip(y)
        .filter(|(&ti, _)| ti > 7.0 * period)
        .map(|(_, &v)| v)
        .collect();
    let amp = last_cycle.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!(
        (amp - mag_ac).abs() < 0.03 * mag_ac,
        "transient amp {amp:.4} vs AC {mag_ac:.4}"
    );
}

/// KCL sanity on a loaded nonlinear circuit: the sum of all source
/// branch currents into ground equals zero at DC.
#[test]
fn dc_source_currents_balance() {
    use ferrotcam_spice::netlist::Circuit as C;
    let mut ckt = C::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let b1 = ckt.vsource("V1", a, C::gnd(), Waveform::dc(1.0));
    let b2 = ckt.vsource("V2", b, C::gnd(), Waveform::dc(0.4));
    ckt.resistor("R1", a, b, 1e3).unwrap();
    ckt.resistor("R2", b, C::gnd(), 2e3).unwrap();
    let sol = operating_point(&ckt, &DcOpts::default()).unwrap();
    // i(V1) = −(1−0.4)/1k; i(V2) = +0.6mA − 0.2mA = the rest.
    let i1 = sol.branch_current(b1);
    let i2 = sol.branch_current(b2);
    assert!((i1 + 0.6e-3).abs() < 1e-7, "i1 = {i1}");
    // Node b: 0.6 mA in from R1, 0.2 mA out via R2 → 0.4 mA into V2.
    assert!((i2 - 0.4e-3).abs() < 1e-7, "i2 = {i2}");
}
