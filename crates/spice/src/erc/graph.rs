//! Connectivity and KVL-structure passes: floating islands, dangling
//! terminals, DC-path analysis, zero-impedance loops, driver conflicts.

use super::{ErcDiagnostic, Rule};
use crate::netlist::{Circuit, Element, NodeId};
use crate::waveform::Waveform;
use std::collections::BTreeMap;

/// Union-find with path halving (no ranks: circuits are small and the
/// sequential unions keep trees shallow in practice).
pub(super) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(super) fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    pub(super) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Join the sets of `a` and `b`; returns `false` when they were
    /// already in the same set (the new edge closes a cycle).
    pub(super) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }

    pub(super) fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

fn node_name(ckt: &Circuit, idx: usize) -> String {
    ckt.node_name(NodeId(idx as u32)).to_string()
}

pub(super) fn run(ckt: &Circuit, diags: &mut Vec<ErcDiagnostic>) {
    let n = ckt.num_nodes();

    // Incidence degree per node (every element and device terminal).
    let mut degree = vec![0usize; n];
    // Any-coupling connectivity: does a node connect to ground at all?
    let mut full = UnionFind::new(n);
    // DC conduction only: resistors, voltage-source branches, and the
    // channel paths devices declare via `dc_paths`.
    let mut dc = UnionFind::new(n);
    // Zero-impedance subgraph for voltage-source loop detection.
    let mut zero = UnionFind::new(n);
    // Zero-impedance edges seen so far: (lo, hi, name, waveform).
    let mut zero_edges: Vec<(usize, usize, &str, &Waveform)> = Vec::new();

    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, .. } => {
                degree[p.index()] += 1;
                degree[n.index()] += 1;
                full.union(p.index(), n.index());
                dc.union(p.index(), n.index());
            }
            Element::Capacitor { p, n, .. } => {
                degree[p.index()] += 1;
                degree[n.index()] += 1;
                full.union(p.index(), n.index());
            }
            Element::VSource {
                name, p, n, wave, ..
            } => {
                degree[p.index()] += 1;
                degree[n.index()] += 1;
                full.union(p.index(), n.index());
                dc.union(p.index(), n.index());
                // A source that closes a cycle of zero-impedance edges: a
                // direct parallel partner with a different waveform is a
                // driver conflict, anything else a loop.
                let (p, q) = (p.index(), n.index());
                let key = (p.min(q), p.max(q));
                let closes_cycle = p == q || !zero.union(p, q);
                if closes_cycle {
                    let parallel = zero_edges.iter().find(|&&(lo, hi, _, _)| (lo, hi) == key);
                    let diag = match parallel {
                        Some(&(_, _, other, other_wave)) if wave != other_wave => {
                            ErcDiagnostic::new(
                                Rule::DriverConflict,
                                format!(
                                    "low-impedance drivers {other} and {name} share a node \
                                     with different waveforms"
                                ),
                            )
                            .with_devices(vec![other.to_string(), name.to_string()])
                        }
                        Some(&(_, _, other, _)) => ErcDiagnostic::new(
                            Rule::VoltageSourceLoop,
                            format!("{name} is connected in parallel with {other}"),
                        )
                        .with_devices(vec![other.to_string(), name.to_string()]),
                        None => ErcDiagnostic::new(
                            Rule::VoltageSourceLoop,
                            format!("{name} closes a loop of zero-impedance branches"),
                        )
                        .with_devices(vec![name.to_string()]),
                    };
                    diags.push(diag.with_nodes(vec![node_name(ckt, p), node_name(ckt, q)]));
                }
                zero_edges.push((key.0, key.1, name, wave));
            }
        }
    }

    for d in ckt.devices() {
        let terms = d.terminals();
        for t in terms {
            degree[t.index()] += 1;
        }
        // Any two terminals of one device are coupled (at least
        // capacitively) for reachability purposes.
        for w in terms.windows(2) {
            full.union(w[0].index(), w[1].index());
        }
        for (a, b) in d.dc_paths() {
            if a < terms.len() && b < terms.len() {
                dc.union(terms[a].index(), terms[b].index());
            }
        }
    }

    // --- Floating islands: unreachable from ground by any coupling. ---
    let mut floating: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for v in 1..n {
        if !full.connected(v, 0) {
            floating.entry(full.find(v)).or_default().push(v);
        }
    }
    let mut floating_nodes = vec![false; n];
    for members in floating.values() {
        for &v in members {
            floating_nodes[v] = true;
        }
        diags.push(
            ErcDiagnostic::new(
                Rule::FloatingNode,
                format!(
                    "island of {} node(s) has no connection to ground",
                    members.len()
                ),
            )
            .with_nodes(members.iter().map(|&v| node_name(ckt, v)).collect()),
        );
    }

    // --- DC islands: reachable, but only through caps/gates. ----------
    let mut dc_islands: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for v in 1..n {
        if full.connected(v, 0) && !dc.connected(v, 0) {
            dc_islands.entry(dc.find(v)).or_default().push(v);
        }
    }
    for members in dc_islands.values() {
        diags.push(
            ErcDiagnostic::new(
                Rule::NoDcPath,
                "no DC conduction path to ground (capacitor/gate-only island)",
            )
            .with_nodes(members.iter().map(|&v| node_name(ckt, v)).collect()),
        );
    }

    // --- Dangling terminals (warning). --------------------------------
    for v in 1..n {
        if degree[v] == 1 && !floating_nodes[v] {
            diags.push(
                ErcDiagnostic::new(
                    Rule::DanglingTerminal,
                    "node is touched by exactly one terminal",
                )
                .with_nodes(vec![node_name(ckt, v)]),
            );
        }
    }
}
