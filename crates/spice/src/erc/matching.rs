//! Structural-singularity prediction: maximum bipartite matching on the
//! gmin-free DC MNA pattern.
//!
//! A square sparse matrix can only be nonsingular if there is a perfect
//! matching between rows and columns over its nonzero pattern (the
//! coarse Dulmage–Mendelsohn criterion — a zero-free transversal). The
//! engine always adds a gmin shunt on node diagonals, which hides the
//! deficiency numerically: Newton then "converges" to gmin-scaled
//! garbage, or the pivot threshold trips mid-factorisation. Predicting
//! the deficiency on the raw pattern names the offending unknowns
//! instead.
//!
//! The pattern is assembled *conservatively*: capacitors are open (DC),
//! devices contribute all terminal-pair entries (a superset of any real
//! linearisation, so a deficiency found here is real while extra
//! entries can only hide one — no false positives).

use super::{ErcDiagnostic, Rule};
use crate::netlist::{Circuit, Element, NodeId};

pub(super) fn run(ckt: &Circuit, diags: &mut Vec<ErcDiagnostic>) {
    let nnodes = ckt.num_nodes() - 1;
    let nvars = nnodes + ckt.num_branches();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nvars];

    let var = |nd: NodeId| -> Option<usize> {
        let i = nd.index();
        (i != 0).then(|| i - 1)
    };

    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, .. } => {
                let (a, b) = (var(*p), var(*n));
                if let Some(a) = a {
                    rows[a].push(a);
                }
                if let Some(b) = b {
                    rows[b].push(b);
                }
                if let (Some(a), Some(b)) = (a, b) {
                    rows[a].push(b);
                    rows[b].push(a);
                }
            }
            Element::Capacitor { .. } => {}
            Element::VSource { p, n, branch, .. } => {
                let bv = nnodes + branch;
                for t in [p, n] {
                    if let Some(v) = var(*t) {
                        rows[v].push(bv);
                        rows[bv].push(v);
                    }
                }
                if var(*p).is_none() && var(*n).is_none() {
                    rows[bv].push(bv);
                }
            }
        }
    }

    for d in ckt.devices() {
        let terms = d.terminals();
        for ta in terms {
            let Some(r) = var(*ta) else { continue };
            for tb in terms {
                if let Some(c) = var(*tb) {
                    rows[r].push(c);
                }
            }
        }
    }

    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }

    // Kuhn's augmenting-path maximum matching, rows -> columns.
    let mut col_match: Vec<Option<usize>> = vec![None; nvars];
    let mut unmatched_rows = Vec::new();
    let mut visited = vec![usize::MAX; nvars];
    for r in 0..nvars {
        if !augment(r, r, &rows, &mut col_match, &mut visited) {
            unmatched_rows.push(r);
        }
    }

    if unmatched_rows.is_empty() {
        return;
    }

    let mut nodes = Vec::new();
    let mut devices = Vec::new();
    for &r in &unmatched_rows {
        if r < nnodes {
            nodes.push(ckt.node_name(NodeId((r + 1) as u32)).to_string());
        } else {
            let b = r - nnodes;
            let name = ckt
                .elements()
                .iter()
                .find_map(|e| match e {
                    Element::VSource { name, branch, .. } if *branch == b => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("branch#{b}"));
            devices.push(name);
        }
    }
    diags.push(
        ErcDiagnostic::new(
            Rule::StructurallySingular,
            format!(
                "MNA matrix is structurally singular without gmin: \
                 {} of {} unknowns have no pivot assignment",
                unmatched_rows.len(),
                nvars
            ),
        )
        .with_nodes(nodes)
        .with_devices(devices),
    );
}

/// Try to match row `r` (depth-first over alternating paths). `stamp`
/// marks columns visited during this row's search.
fn augment(
    r: usize,
    stamp: usize,
    rows: &[Vec<usize>],
    col_match: &mut [Option<usize>],
    visited: &mut [usize],
) -> bool {
    for &c in &rows[r] {
        if visited[c] == stamp {
            continue;
        }
        visited[c] = stamp;
        let free = match col_match[c] {
            None => true,
            Some(prev) => augment(prev, stamp, rows, col_match, visited),
        };
        if free {
            col_match[c] = Some(r);
            return true;
        }
    }
    false
}
