//! ERC guarantees, from both directions.
//!
//! *Soundness on shipped netlists*: every netlist the toolkit generates
//! — any design, any stored word, any query — must pass the static
//! analyzer with zero error-severity diagnostics (property-tested over
//! random words).
//!
//! *Sensitivity to injected faults*: a mutation corpus plants one known
//! defect per fault class into an otherwise-clean netlist and asserts
//! the analyzer reports the *expected* rule id — not merely "something
//! failed". Every `Rule` variant has a fixture: `plant` matches on the
//! rule with no `_` arm, so a new rule does not compile until it has
//! one, and each rule's `detects_*` test runs its fixture.

use ferrotcam::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use ferrotcam::{build_array_write, build_search_row, Ternary, TernaryWord};
use ferrotcam_device::mosfet::{Mosfet, MosfetParams};
use ferrotcam_spice::waveform::Waveform;
use ferrotcam_spice::{erc, Circuit, Element, Rule, Severity};
use proptest::prelude::*;

fn ternary_digit() -> impl Strategy<Value = Ternary> {
    prop_oneof![
        2 => Just(Ternary::Zero),
        2 => Just(Ternary::One),
        1 => Just(Ternary::X),
    ]
}

fn word(width: usize) -> impl Strategy<Value = TernaryWord> {
    proptest::collection::vec(ternary_digit(), width).prop_map(TernaryWord::new)
}

fn design() -> impl Strategy<Value = DesignKind> {
    prop_oneof![
        Just(DesignKind::Sg2),
        Just(DesignKind::Dg2),
        Just(DesignKind::T15Sg),
        Just(DesignKind::T15Dg),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any search row the builders emit lints clean: no errors, no
    /// warnings, for every design, stored word and query pattern.
    #[test]
    fn every_generated_search_row_is_erc_clean(
        kind in design(),
        stored in word(4),
        query in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let params = DesignParams::preset(kind);
        let sim = build_search_row(
            &params,
            &stored,
            &query,
            SearchTiming::default(),
            RowParasitics::default(),
            kind.is_two_step(),
        ).expect("builder");
        let report = erc::check(&sim.circuit).expect("erc runs");
        prop_assert!(
            report.is_clean(),
            "{kind:?} stored={stored} dirty:\n{}",
            report.render_human()
        );
    }

    /// Any 3-step write-array netlist lints clean too.
    #[test]
    fn every_generated_write_array_is_erc_clean(
        initial in proptest::collection::vec(word(3), 1..4),
        target in word(3),
    ) {
        let params = DesignParams::preset(DesignKind::T15Dg);
        let ckt = build_array_write(&params, &initial, 0, &target).expect("builder");
        let report = erc::check(&ckt).expect("erc runs");
        prop_assert!(report.is_clean(), "dirty:\n{}", report.render_human());
    }
}

/// A clean base netlist for fault injection: one 1.5T1Fe (2DG) search
/// row, so FeFET write presets are in scope for the voltage-range rule.
fn base() -> Circuit {
    let params = DesignParams::preset(DesignKind::T15Dg);
    let sim = build_search_row(
        &params,
        &"01X0".parse().expect("word"),
        &[false, true, true, false],
        SearchTiming::default(),
        RowParasitics::default(),
        true,
    )
    .expect("builder");
    sim.circuit
}

/// Plant the one fault that must trigger `rule`. The match has no `_`
/// arm: a new `Rule` variant fails to compile here until it has a
/// fixture.
fn plant(rule: Rule, ckt: &mut Circuit) {
    match rule {
        Rule::FloatingNode => {
            // A capacitor-only island: AC-coupled to nothing, no ground.
            let a = ckt.node("island_a");
            let b = ckt.node("island_b");
            ckt.capacitor("Cisl", a, b, 1e-15).expect("cap");
        }
        Rule::NoDcPath => {
            // AC-coupled into the circuit (so not floating) but no DC
            // path to ground anywhere in the resistor-bridged pair.
            let a = ckt.node("acisl_a");
            let b = ckt.node("acisl_b");
            ckt.resistor("Risl", a, b, 1e3).expect("res");
            ckt.capacitor("Ccpl", a, Circuit::gnd(), 1e-15)
                .expect("cap");
        }
        Rule::VoltageSourceLoop => {
            // Two identical sources in parallel: KVL-redundant, singular
            // MNA.
            let v = ckt.node("vdup");
            ckt.vsource("Vdup1", v, Circuit::gnd(), Waveform::dc(1.0));
            ckt.vsource("Vdup2", v, Circuit::gnd(), Waveform::dc(1.0));
        }
        Rule::DriverConflict => {
            // Two *different* sources fighting over the same node pair.
            let v = ckt.node("vfight");
            ckt.vsource("Vfight1", v, Circuit::gnd(), Waveform::dc(1.0));
            ckt.vsource("Vfight2", v, Circuit::gnd(), Waveform::dc(2.0));
        }
        Rule::NonFiniteParameter => {
            // Constructors reject NaN, so corrupt a live element in
            // place — the analyzer must still catch it.
            let t = ckt.node("nan_t");
            ckt.resistor("Rnan", t, Circuit::gnd(), 1e3).expect("res");
            let el = ckt
                .elements_mut()
                .iter_mut()
                .find_map(|e| match e {
                    Element::Resistor { name, ohms, .. } if name == "Rnan" => Some(ohms),
                    _ => None,
                })
                .expect("just added");
            *el = f64::NAN;
        }
        Rule::NonPositiveGeometry => {
            let gnd = Circuit::gnd();
            let bad = Mosfet::new("Mbad", gnd, gnd, gnd, gnd, MosfetParams::nmos_14nm(-50.0));
            ckt.device(Box::new(bad));
        }
        Rule::StructurallySingular => {
            // Removing a voltage source strands its MNA branch row: no
            // entry can pivot it, which the maximum-matching pass proves.
            let t = ckt.node("vtmp");
            ckt.vsource("Vtmp", t, Circuit::gnd(), Waveform::dc(1.0));
            ckt.resistor("Rtmp", t, Circuit::gnd(), 1e3).expect("res");
            ckt.remove_element("Vtmp").expect("just added");
        }
        Rule::WriteVoltageRange => {
            // A source far beyond the FeFET write preset (±margin) would
            // overdrive the gate stack in any transient that uses it.
            let w = ckt.node("vhot");
            ckt.vsource("Vhot", w, Circuit::gnd(), Waveform::dc(100.0));
            ckt.resistor("Rhot", w, Circuit::gnd(), 1e3).expect("res");
        }
        Rule::DanglingTerminal => {
            // Warning-severity class: a one-ended stub reachable from
            // ground.
            let s = ckt.node("stub");
            ckt.resistor("Rstub", s, Circuit::gnd(), 1e3).expect("res");
        }
    }
}

/// Plant `expected`'s fault into a clean row and assert the analyzer
/// flags that rule, with error severity when the rule has it.
fn assert_detects(expected: Rule) {
    let mut ckt = base();
    plant(expected, &mut ckt);
    let report = erc::check(&ckt).expect("erc runs");
    assert!(
        report.has_rule(expected),
        "fault class {} not flagged; report:\n{}",
        expected.id(),
        report.render_human()
    );
    if expected.severity() == Severity::Error {
        assert!(report.has_errors(), "{} should be an error", expected.id());
    }
}

#[test]
fn detects_floating_node() {
    assert_detects(Rule::FloatingNode);
}

#[test]
fn detects_no_dc_path() {
    assert_detects(Rule::NoDcPath);
}

#[test]
fn detects_voltage_source_loop() {
    assert_detects(Rule::VoltageSourceLoop);
}

#[test]
fn detects_driver_conflict() {
    assert_detects(Rule::DriverConflict);
}

#[test]
fn detects_non_finite_parameter() {
    assert_detects(Rule::NonFiniteParameter);
}

#[test]
fn detects_non_positive_geometry() {
    assert_detects(Rule::NonPositiveGeometry);
}

#[test]
fn detects_structural_singularity() {
    assert_detects(Rule::StructurallySingular);
}

#[test]
fn detects_write_voltage_over_range() {
    assert_detects(Rule::WriteVoltageRange);
}

#[test]
fn detects_dangling_terminal() {
    assert_detects(Rule::DanglingTerminal);
}
