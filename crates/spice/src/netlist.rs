//! Circuit construction: nodes, linear elements, and device registration.

use crate::error::{Error, Result};
use crate::nonlinear::NonlinearDevice;
use crate::waveform::Waveform;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a circuit node. `NodeId::GROUND` is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The reference (ground) node, always present.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the reference node.
    #[must_use]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A linear element instance.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor between `p` and `n`.
    Resistor {
        /// Instance name.
        name: String,
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Resistance in ohms (> 0).
        ohms: f64,
    },
    /// Linear capacitor between `p` and `n`.
    Capacitor {
        /// Instance name.
        name: String,
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Capacitance in farads (≥ 0).
        farads: f64,
    },
    /// Independent voltage source; branch current is an MNA unknown.
    VSource {
        /// Instance name.
        name: String,
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Source waveform.
        wave: Waveform,
        /// Branch index assigned at construction.
        branch: usize,
    },
}

impl Element {
    /// Instance name of the element.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VSource { name, .. } => name,
        }
    }
}

/// A circuit under construction or simulation.
///
/// ```
/// use ferrotcam_spice::netlist::Circuit;
/// use ferrotcam_spice::waveform::Waveform;
///
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V1", vin, Circuit::gnd(), Waveform::dc(1.0));
/// ckt.resistor("R1", vin, out, 1e3);
/// ckt.resistor("R2", out, Circuit::gnd(), 1e3);
/// assert_eq!(ckt.num_nodes(), 3); // ground + 2
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
    devices: Vec<Box<dyn NonlinearDevice>>,
    num_branches: usize,
    initial_conditions: Vec<(NodeId, f64)>,
}

impl Circuit {
    /// Create an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut c = Self {
            node_names: Vec::new(),
            node_index: HashMap::new(),
            elements: Vec::new(),
            devices: Vec::new(),
            num_branches: 0,
            initial_conditions: Vec::new(),
        };
        c.node_names.push("0".to_string());
        c.node_index.insert("0".to_string(), NodeId::GROUND);
        c
    }

    /// The reference node.
    #[must_use]
    pub fn gnd() -> NodeId {
        NodeId::GROUND
    }

    /// Get or create the node named `name`.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        id
    }

    /// Look up an existing node by name.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this circuit.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Total node count including ground.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of branch-current unknowns (one per voltage source).
    #[must_use]
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// Linear elements in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to the linear elements (e.g. to rewrite source
    /// waveforms for burst/periodic experiments).
    pub fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Nonlinear devices in insertion order.
    #[must_use]
    pub fn devices(&self) -> &[Box<dyn NonlinearDevice>] {
        &self.devices
    }

    /// Mutable access to the nonlinear devices (used by the transient
    /// engine to commit state).
    pub fn devices_mut(&mut self) -> &mut [Box<dyn NonlinearDevice>] {
        &mut self.devices
    }

    /// Node-level initial conditions declared with
    /// [`Circuit::initial_condition`].
    #[must_use]
    pub fn initial_conditions(&self) -> &[(NodeId, f64)] {
        &self.initial_conditions
    }

    /// Add a resistor.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite resistance.
    pub fn resistor(&mut self, name: &str, p: NodeId, n: NodeId, ohms: f64) -> Result<()> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(Error::InvalidParameter {
                what: format!("resistor {name} ohms"),
                value: ohms,
            });
        }
        self.check_nodes(&[p, n])?;
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            p,
            n,
            ohms,
        });
        Ok(())
    }

    /// Add a capacitor.
    ///
    /// # Errors
    /// Rejects negative or non-finite capacitance.
    pub fn capacitor(&mut self, name: &str, p: NodeId, n: NodeId, farads: f64) -> Result<()> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(Error::InvalidParameter {
                what: format!("capacitor {name} farads"),
                value: farads,
            });
        }
        self.check_nodes(&[p, n])?;
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            p,
            n,
            farads,
        });
        Ok(())
    }

    /// Add an independent voltage source. Its branch current becomes an
    /// MNA unknown retrievable from traces as `i(<name>)`.
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, wave: Waveform) -> usize {
        let branch = self.num_branches;
        self.num_branches += 1;
        self.elements.push(Element::VSource {
            name: name.to_string(),
            p,
            n,
            wave,
            branch,
        });
        branch
    }

    /// Register a nonlinear device.
    pub fn device(&mut self, dev: Box<dyn NonlinearDevice>) {
        self.devices.push(dev);
    }

    /// Remove the first linear element named `name`, returning it.
    ///
    /// Branch indices of remaining sources are *not* renumbered: a
    /// removed voltage source leaves its branch unknown behind with no
    /// stamps, which the ERC matching pass reports as structurally
    /// singular. Intended for fault-injection and mutation testing, not
    /// incremental netlist editing.
    pub fn remove_element(&mut self, name: &str) -> Option<Element> {
        let idx = self.elements.iter().position(|e| e.name() == name)?;
        Some(self.elements.remove(idx))
    }

    /// Declare a node initial condition used by `uic` transient runs.
    pub fn initial_condition(&mut self, node: NodeId, volts: f64) {
        self.initial_conditions.push((node, volts));
    }

    /// Names of all nodes except ground, in id order (the trace layout).
    #[must_use]
    pub fn signal_nodes(&self) -> Vec<&str> {
        self.node_names.iter().skip(1).map(String::as_str).collect()
    }

    /// Render the circuit as a SPICE-compatible netlist (for debugging
    /// and interop with external simulators). Linear elements map to
    /// native SPICE cards; nonlinear devices are emitted as `X`
    /// subcircuit calls with their terminal nodes, to be bound to model
    /// cards externally.
    #[must_use]
    pub fn to_spice(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut s = format!("* {title}\n");
        let node = |n: NodeId| {
            if n.is_ground() {
                "0".to_string()
            } else {
                self.node_name(n).to_string()
            }
        };
        for e in &self.elements {
            match e {
                Element::Resistor { name, p, n, ohms } => {
                    let _ = writeln!(s, "R{name} {} {} {ohms:.6e}", node(*p), node(*n));
                }
                Element::Capacitor { name, p, n, farads } => {
                    let _ = writeln!(s, "C{name} {} {} {farads:.6e}", node(*p), node(*n));
                }
                Element::VSource {
                    name, p, n, wave, ..
                } => {
                    let _ = writeln!(s, "V{name} {} {} {}", node(*p), node(*n), spice_wave(wave));
                }
            }
        }
        for d in &self.devices {
            let terms: Vec<String> = d.terminals().iter().map(|&t| node(t)).collect();
            let _ = writeln!(s, "X{} {} {}_model", d.name(), terms.join(" "), d.name());
        }
        s.push_str(".end\n");
        s
    }

    fn check_nodes(&self, nodes: &[NodeId]) -> Result<()> {
        for &nd in nodes {
            if nd.index() >= self.node_names.len() {
                return Err(Error::UnknownNode { index: nd.index() });
            }
        }
        Ok(())
    }
}

/// Render a waveform as a SPICE source description.
fn spice_wave(w: &Waveform) -> String {
    match w {
        Waveform::Dc(v) => format!("DC {v:.6e}"),
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
        } => format!("PULSE({v1:.4e} {v2:.4e} {delay:.4e} {rise:.4e} {fall:.4e} {width:.4e})"),
        Waveform::Pwl(points) => {
            let body: Vec<String> = points
                .iter()
                .map(|&(t, v)| format!("{t:.4e} {v:.4e}"))
                .collect();
            format!("PWL({})", body.join(" "))
        }
        Waveform::Sine {
            offset,
            ampl,
            freq,
            delay,
        } => {
            format!("SIN({offset:.4e} {ampl:.4e} {freq:.4e} {delay:.4e})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.node_name(a), "a");
        assert!(Circuit::gnd().is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn invalid_resistor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.resistor("R1", a, Circuit::gnd(), 0.0).is_err());
        assert!(c.resistor("R2", a, Circuit::gnd(), -5.0).is_err());
        assert!(c.resistor("R3", a, Circuit::gnd(), f64::NAN).is_err());
        assert!(c.resistor("R4", a, Circuit::gnd(), 1e3).is_ok());
    }

    #[test]
    fn negative_capacitor_rejected_zero_allowed() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.capacitor("C1", a, Circuit::gnd(), -1e-15).is_err());
        assert!(c.capacitor("C2", a, Circuit::gnd(), 0.0).is_ok());
    }

    #[test]
    fn branches_count_voltage_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let b0 = c.vsource("V1", a, Circuit::gnd(), Waveform::dc(1.0));
        let b1 = c.vsource("V2", b, Circuit::gnd(), Waveform::dc(2.0));
        assert_eq!((b0, b1), (0, 1));
        assert_eq!(c.num_branches(), 2);
    }

    #[test]
    fn spice_export_contains_all_cards() {
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.vsource(
            "V1",
            a,
            Circuit::gnd(),
            Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1e-8),
        );
        let bias = c.node("bias");
        c.vsource("V2", bias, Circuit::gnd(), Waveform::dc(1.0));
        c.resistor("R1", a, b, 1e3).unwrap();
        c.capacitor("C1", b, Circuit::gnd(), 1e-12).unwrap();
        let s = c.to_spice("test circuit");
        assert!(s.starts_with("* test circuit\n"));
        assert!(s.contains("RR1 in out 1.000000e3"));
        assert!(
            s.contains("VV1 in 0 PULSE(0.0000e0 1.0000e0 0.0000e0 1.0000e-9 1.0000e-9 1.0000e-8)")
        );
        assert!(s.contains("VV2 bias 0 DC 1.000000e0"));
        assert!(s.contains("CC1 out 0 1.000000e-12"));
        assert!(s.trim_end().ends_with(".end"));
    }

    #[test]
    fn find_node_only_returns_existing() {
        let mut c = Circuit::new();
        c.node("x");
        assert!(c.find_node("x").is_some());
        assert!(c.find_node("y").is_none());
    }
}
