//! Electrical rule checking (ERC): a static analyzer over [`Circuit`]
//! netlists that runs *before* simulation.
//!
//! A malformed netlist — floating gate, voltage-source loop, no DC path
//! to ground — otherwise only surfaces as a Newton non-convergence or a
//! singular pivot deep inside the sparse solver, with no indication of
//! which circuit construct is at fault. The ERC passes diagnose these
//! structurally:
//!
//! * **connectivity** (`graph`): nodes unreachable from ground,
//!   dangling terminals, capacitor- or gate-only islands with no DC
//!   path to ground;
//! * **KVL/KCL structure** (`graph`, `matching`): loops of
//!   zero-impedance branches (voltage sources), driver conflicts
//!   (parallel low-impedance drivers with differing waveforms on one
//!   node), and structurally-singular MNA prediction
//!   via maximum matching on the gmin-free DC pattern
//!   (Dulmage–Mendelsohn coarse test);
//! * **parameter domain** (`params`): NaN/non-finite element and
//!   device parameters, non-positive geometry (W, L, film area), and
//!   source amplitudes beyond the FeFET write-voltage presets.
//!
//! Every engine entry point (`dc`, `transient`, `sweep`, `ac`) runs a
//! [`preflight`] that prints the findings to stderr, once per distinct
//! report, and then simulates: ERC never blocks a run. `ferrotcam lint
//! --deny` is the gate that fails on error-severity findings.
//!
//! Degenerate netlists (no unknowns, out-of-range node ids, duplicate
//! instance names) are rejected with typed errors by [`validate`] —
//! these would previously panic inside the solver.

mod graph;
mod matching;
mod params;

use crate::error::{Error, Result};
use crate::netlist::{Circuit, Element};
use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but simulable; never blocks a run.
    Warning,
    /// The circuit is structurally or numerically defective; fails
    /// `ferrotcam lint --deny`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The rule catalogue. Each rule has a stable kebab-case id used in
/// JSON output and tests. Exhaustive on purpose: the ERC mutation
/// corpus matches on it with no `_` arm, so a new rule cannot land
/// without a fault fixture that triggers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A node (island) with no connection of any kind to ground.
    FloatingNode,
    /// A node touched by exactly one element terminal.
    DanglingTerminal,
    /// A node island connected only through capacitors (or device
    /// gates): no DC conduction path to ground.
    NoDcPath,
    /// Zero-impedance branches (voltage sources) form a loop.
    VoltageSourceLoop,
    /// Maximum matching on the gmin-free DC pattern is deficient: the
    /// MNA matrix is structurally singular.
    StructurallySingular,
    /// A parameter is NaN or infinite.
    NonFiniteParameter,
    /// A geometric parameter (W, L, film area) is zero or negative.
    NonPositiveGeometry,
    /// A source amplitude exceeds the device write-voltage presets.
    WriteVoltageRange,
    /// Two low-impedance drivers with differing waveforms share a node.
    DriverConflict,
}

impl Rule {
    /// Stable kebab-case identifier.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatingNode => "floating-node",
            Rule::DanglingTerminal => "dangling-terminal",
            Rule::NoDcPath => "no-dc-path",
            Rule::VoltageSourceLoop => "voltage-source-loop",
            Rule::StructurallySingular => "structurally-singular",
            Rule::NonFiniteParameter => "non-finite-parameter",
            Rule::NonPositiveGeometry => "non-positive-geometry",
            Rule::WriteVoltageRange => "write-voltage-range",
            Rule::DriverConflict => "driver-conflict",
        }
    }

    /// Severity class of the rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::DanglingTerminal => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding: the violated rule plus the circuit objects involved.
#[derive(Debug, Clone, PartialEq)]
pub struct ErcDiagnostic {
    /// Violated rule.
    pub rule: Rule,
    /// Severity (derived from the rule).
    pub severity: Severity,
    /// Names of the nodes involved.
    pub nodes: Vec<String>,
    /// Names of the elements/devices involved.
    pub devices: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl ErcDiagnostic {
    pub(crate) fn new(rule: Rule, message: impl Into<String>) -> Self {
        Self {
            rule,
            severity: rule.severity(),
            nodes: Vec::new(),
            devices: Vec::new(),
            message: message.into(),
        }
    }

    pub(crate) fn with_nodes(mut self, nodes: Vec<String>) -> Self {
        self.nodes = nodes;
        self
    }

    pub(crate) fn with_devices(mut self, devices: Vec<String>) -> Self {
        self.devices = devices;
        self
    }
}

impl fmt::Display for ErcDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if !self.nodes.is_empty() {
            write!(f, " | nodes: {}", self.nodes.join(", "))?;
        }
        if !self.devices.is_empty() {
            write!(f, " | devices: {}", self.devices.join(", "))?;
        }
        Ok(())
    }
}

/// Result of running every ERC pass on a circuit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErcReport {
    diagnostics: Vec<ErcDiagnostic>,
}

impl ErcReport {
    /// All diagnostics, errors first.
    #[must_use]
    pub fn diagnostics(&self) -> &[ErcDiagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn num_warnings(&self) -> usize {
        self.diagnostics.len() - self.num_errors()
    }

    /// Whether any error-severity diagnostic is present.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.num_errors() > 0
    }

    /// Whether the report is entirely empty (no errors, no warnings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any diagnostic matches `rule`.
    #[must_use]
    pub fn has_rule(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Multi-line human-readable rendering with a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(s, "{d}");
        }
        let _ = writeln!(
            s,
            "erc: {} error(s), {} warning(s)",
            self.num_errors(),
            self.num_warnings()
        );
        s
    }

    /// JSON rendering (object with `diagnostics`, `errors`, `warnings`).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rule\":{},\"severity\":{},\"nodes\":[{}],\"devices\":[{}],\"message\":{}}}",
                json_str(d.rule.id()),
                json_str(&d.severity.to_string()),
                d.nodes
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(","),
                d.devices
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(","),
                json_str(&d.message),
            );
        }
        let _ = write!(
            s,
            "],\"errors\":{},\"warnings\":{}}}",
            self.num_errors(),
            self.num_warnings()
        );
        s
    }

    fn sort(&mut self) {
        // Errors first, then by rule id, then by first node, keeping
        // output deterministic for tests and diffing.
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.id().cmp(b.rule.id()))
                .then_with(|| a.nodes.cmp(&b.nodes))
        });
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Kind of a device parameter reported through
/// [`crate::nonlinear::NonlinearDevice::erc_params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Physical geometry: must be finite and strictly positive.
    Geometry,
    /// Any model value: must be finite.
    Value,
    /// Programming voltage preset: finite and positive; also bounds the
    /// allowed source amplitudes ([`Rule::WriteVoltageRange`]).
    WriteVoltage,
}

/// A named device parameter exposed for ERC domain checking.
#[derive(Debug, Clone, PartialEq)]
pub struct ErcParam {
    /// Parameter name (e.g. `"w"`, `"v_write"`).
    pub name: &'static str,
    /// Current value.
    pub value: f64,
    /// Domain class.
    pub kind: ParamKind,
}

impl ErcParam {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &'static str, value: f64, kind: ParamKind) -> Self {
        Self { name, value, kind }
    }
}

/// Reject netlists the solver cannot even index: no unknowns, node ids
/// out of range (e.g. imported from another circuit), duplicate
/// instance names. These used to panic inside assembly/probing.
///
/// # Errors
/// [`Error::EmptyCircuit`], [`Error::UnknownNode`] or
/// [`Error::DuplicateName`].
pub fn validate(ckt: &Circuit) -> Result<()> {
    let nvars = (ckt.num_nodes() - 1) + ckt.num_branches();
    if nvars == 0 {
        return Err(Error::EmptyCircuit);
    }
    let n = ckt.num_nodes();
    let check = |idx: usize| -> Result<()> {
        if idx >= n {
            return Err(Error::UnknownNode { index: idx });
        }
        Ok(())
    };
    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, .. }
            | Element::Capacitor { p, n, .. }
            | Element::VSource { p, n, .. } => {
                check(p.index())?;
                check(n.index())?;
            }
        }
    }
    for d in ckt.devices() {
        for t in d.terminals() {
            check(t.index())?;
        }
    }
    for &(node, _) in ckt.initial_conditions() {
        check(node.index())?;
    }
    // Duplicate names break signal probing (`i(name)`, `<dev>.<state>`).
    let mut seen = HashSet::new();
    for name in ckt
        .elements()
        .iter()
        .map(Element::name)
        .chain(ckt.devices().iter().map(|d| d.name()))
    {
        if !seen.insert(name) {
            return Err(Error::DuplicateName {
                name: name.to_string(),
            });
        }
    }
    Ok(())
}

/// Run every ERC pass on `ckt` and return the full report.
///
/// # Errors
/// Degenerate netlists are rejected with the typed errors of
/// [`validate`] before any rule pass runs.
pub fn check(ckt: &Circuit) -> Result<ErcReport> {
    validate(ckt)?;
    let mut report = ErcReport::default();
    graph::run(ckt, &mut report.diagnostics);
    params::run(ckt, &mut report.diagnostics);
    // The matching pass predicts structural singularity; connectivity /
    // loop errors already imply it, so only run it on otherwise-sound
    // structure (keeps one seeded fault mapping to one rule id).
    if !report.has_errors() {
        matching::run(ckt, &mut report.diagnostics);
    }
    report.sort();
    Ok(report)
}

/// Engine pre-flight: run [`check`] and print any findings to stderr
/// (once per distinct report).
///
/// # Errors
/// The typed errors of [`validate`] for degenerate netlists; rule
/// findings never fail.
pub fn preflight(ckt: &Circuit) -> Result<()> {
    let report = check(ckt)?;
    if !report.is_clean() {
        warn_once(&report);
    }
    Ok(())
}

/// Print a report to stderr at most once per distinct rendering, so
/// sweeps and Monte-Carlo loops don't repeat the same warning thousands
/// of times.
fn warn_once(report: &ErcReport) {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    static SEEN: Mutex<Option<HashSet<u64>>> = Mutex::new(None);
    let rendered = report.render_human();
    let mut h = DefaultHasher::new();
    rendered.hash(&mut h);
    let key = h.finish();
    let mut guard = SEEN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let seen = guard.get_or_insert_with(HashSet::new);
    if seen.insert(key) {
        eprint!("{rendered}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use crate::waveform::Waveform;

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.resistor("R2", b, Circuit::gnd(), 1e3).unwrap();
        ckt
    }

    #[test]
    fn clean_divider_has_no_diagnostics() {
        let report = check(&divider()).unwrap();
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn empty_circuit_is_a_typed_error() {
        let ckt = Circuit::new();
        assert_eq!(check(&ckt).unwrap_err(), Error::EmptyCircuit);
    }

    #[test]
    fn foreign_node_id_is_a_typed_error() {
        let mut big = Circuit::new();
        for i in 0..10 {
            big.node(&format!("n{i}"));
        }
        let foreign = big.node("n9");
        let mut small = Circuit::new();
        let a = small.node("a");
        small.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
        small.vsource("V2", foreign, Circuit::gnd(), Waveform::dc(1e-6));
        assert!(matches!(
            check(&small),
            Err(Error::UnknownNode { index: 10 })
        ));
    }

    #[test]
    fn duplicate_names_are_a_typed_error() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        ckt.resistor("R1", b, Circuit::gnd(), 2e3).unwrap();
        assert_eq!(
            check(&ckt).unwrap_err(),
            Error::DuplicateName { name: "R1".into() }
        );
    }

    #[test]
    fn floating_island_is_flagged() {
        let mut ckt = divider();
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.resistor("RX", x, y, 1e3).unwrap();
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::FloatingNode),
            "{}",
            report.render_human()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn cap_only_island_has_no_dc_path() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        let x = ckt.node("x");
        ckt.capacitor("CX", x, b, 1e-15).unwrap();
        let report = check(&ckt).unwrap();
        assert!(report.has_rule(Rule::NoDcPath), "{}", report.render_human());
    }

    #[test]
    fn parallel_identical_sources_form_a_loop() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        ckt.vsource("V2", a, Circuit::gnd(), Waveform::dc(1.0));
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::VoltageSourceLoop),
            "{}",
            report.render_human()
        );
        assert!(!report.has_rule(Rule::DriverConflict));
    }

    #[test]
    fn parallel_conflicting_sources_are_a_driver_conflict() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        ckt.vsource("V2", a, Circuit::gnd(), Waveform::dc(0.5));
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::DriverConflict),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn nan_parameter_is_flagged() {
        let mut ckt = divider();
        for e in ckt.elements_mut() {
            if let Element::Resistor { name, ohms, .. } = e {
                if name == "R2" {
                    *ohms = f64::NAN;
                }
            }
        }
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::NonFiniteParameter),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn dangling_terminal_is_a_warning_only() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        let x = ckt.node("x");
        ckt.resistor("RX", b, x, 1e3).unwrap();
        let report = check(&ckt).unwrap();
        assert!(report.has_rule(Rule::DanglingTerminal));
        assert!(!report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn removed_source_leaves_structurally_singular_branch() {
        let mut ckt = divider();
        // Keep every node grounded through resistors, then remove the
        // source: its branch row/column is empty -> deficient matching.
        let a = ckt.find_node("a").unwrap();
        ckt.resistor("RG", a, Circuit::gnd(), 1e4).unwrap();
        ckt.remove_element("V1").unwrap();
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::StructurallySingular),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut ckt = divider();
        let x = ckt.node("x\"esc");
        let y = ckt.node("y");
        ckt.resistor("RX", x, y, 1e3).unwrap();
        let report = check(&ckt).unwrap();
        let js = report.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"rule\":\"floating-node\""));
        assert!(js.contains("x\\\"esc"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }

    #[test]
    fn preflight_warns_on_findings_and_rejects_degenerate_netlists() {
        let mut ckt = divider();
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.resistor("RX", x, y, 1e3).unwrap();
        assert!(check(&ckt).unwrap().has_errors());
        assert!(preflight(&ckt).is_ok());
        // Degenerate netlists still fail, through `validate`.
        ckt.resistor("RX", x, Circuit::gnd(), 1e3).unwrap();
        assert!(matches!(
            preflight(&ckt),
            Err(Error::DuplicateName { name }) if name == "RX"
        ));
        assert_eq!(preflight(&Circuit::new()), Err(Error::EmptyCircuit));
    }

    #[test]
    fn ground_vsource_degenerate_but_legal() {
        // Both terminals grounded: assemble keeps the branch row scaled;
        // ERC must not flag a loop (the edge is gnd-gnd, a self-loop on
        // the reference node is tolerated by the engine).
        let mut ckt = divider();
        ckt.vsource("VZ", Circuit::gnd(), Circuit::gnd(), Waveform::dc(0.0));
        let report = check(&ckt).unwrap();
        // Self-loop on ground is still a loop of zero-impedance branches.
        assert!(report.has_rule(Rule::VoltageSourceLoop));
    }

    #[test]
    fn write_voltage_range_uses_device_presets() {
        use crate::nonlinear::{DeviceStamps, EvalCtx, NonlinearDevice};

        #[derive(Debug)]
        struct FakeFe {
            nodes: [NodeId; 2],
        }
        impl NonlinearDevice for FakeFe {
            fn name(&self) -> &str {
                "FE1"
            }
            fn terminals(&self) -> &[NodeId] {
                &self.nodes
            }
            fn eval(&self, _v: &[f64], _out: &mut DeviceStamps, _ctx: &EvalCtx) {}
            fn erc_params(&self) -> Vec<ErcParam> {
                vec![ErcParam::new("v_write", 3.0, ParamKind::WriteVoltage)]
            }
        }

        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        let b = ckt.find_node("b").unwrap();
        ckt.device(Box::new(FakeFe { nodes: [a, b] }));
        assert!(check(&ckt).unwrap().is_clean());

        let hv = ckt.node("hv");
        ckt.vsource("VHV", hv, Circuit::gnd(), Waveform::dc(10.0));
        ckt.resistor("RHV", hv, Circuit::gnd(), 1e3).unwrap();
        let report = check(&ckt).unwrap();
        assert!(
            report.has_rule(Rule::WriteVoltageRange),
            "{}",
            report.render_human()
        );
    }
}
