//! Error-path coverage: the simulator must fail loudly and precisely,
//! never hang or return garbage.

use ferrotcam_spice::prelude::*;

/// A floating voltage-source loop (two ideal sources in parallel with
/// different values) is structurally contradictory.
#[test]
fn contradictory_sources_do_not_produce_garbage() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
    ckt.vsource("V2", a, Circuit::gnd(), Waveform::dc(2.0));
    // The MNA system is singular (two branch rows forcing one node);
    // either a singular-matrix error or — if gmin regularises it — a
    // solution splitting the difference is acceptable, but a silent
    // nonsensical voltage is not.
    match operating_point(&ckt, &DcOpts::default()) {
        Err(Error::SingularMatrix { .. }) | Err(Error::NonConvergence { .. }) => {}
        Ok(sol) => {
            let v = sol.voltage(a);
            assert!((1.0..=2.0).contains(&v), "nonsense voltage {v}");
        }
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

#[test]
fn unknown_sweep_source_is_reported() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor("R", a, Circuit::gnd(), 1e3).unwrap();
    let err = dc_sweep(&ckt, "VMISSING", &[0.0, 1.0]).unwrap_err();
    assert!(matches!(err, Error::UnknownSignal { ref name } if name == "VMISSING"));
}

#[test]
fn trace_reports_unknown_signals_by_name() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
    ckt.resistor("R", a, Circuit::gnd(), 1e3).unwrap();
    let tr = transient(&mut ckt, &TranOpts::to_time(1e-9)).unwrap();
    let err = tr.signal("v(nope)").unwrap_err();
    assert_eq!(err.to_string(), "unknown signal \"v(nope)\"");
}

#[test]
fn invalid_elements_rejected_at_construction() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            matches!(
                ckt.resistor("R", a, Circuit::gnd(), bad),
                Err(Error::InvalidParameter { .. })
            ),
            "resistance {bad} accepted"
        );
    }
    assert!(ckt.capacitor("C", a, Circuit::gnd(), -1e-15).is_err());
    // The circuit stays usable after rejected inserts.
    ckt.resistor("R", a, Circuit::gnd(), 1e3).unwrap();
    assert!(operating_point(&ckt, &DcOpts::default()).is_ok());
}

#[test]
fn empty_circuit_is_a_typed_error() {
    let ckt = Circuit::new();
    // Ground only: zero unknowns. This used to reach the solver and
    // rely on every downstream loop tolerating n = 0; it is now rejected
    // up front by the ERC validation pass.
    let err = operating_point(&ckt, &DcOpts::default()).unwrap_err();
    assert_eq!(err, Error::EmptyCircuit);
}

#[test]
fn duplicate_instance_names_are_a_typed_error() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
    ckt.resistor("V1", a, Circuit::gnd(), 1e3).unwrap();
    let err = operating_point(&ckt, &DcOpts::default()).unwrap_err();
    assert!(matches!(err, Error::DuplicateName { ref name } if name == "V1"));
}

#[test]
fn ac_rejects_unknown_source() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor("R", a, Circuit::gnd(), 1e3).unwrap();
    assert!(matches!(
        ac_analysis(&ckt, "nothere", &[1e6]),
        Err(Error::UnknownSignal { .. })
    ));
}
