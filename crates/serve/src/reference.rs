//! The reference oracle: one scalar per-row walk over a captured
//! snapshot, shared by the service's audit lane and the tests.
//!
//! The serving kernel ([`crate::backend::BehaviouralBackend`]) answers
//! from bit-sliced planes (exact and range) and block-masked popcount
//! scans. The oracle answers the same request row by row from
//! the row-major packed words of the very same [`SnapView`], with none
//! of the kernel's pruning:
//!
//! * exact — [`ferrotcam::PackedRows::search`], the row-major two-step
//!   classifier; the kernel reads only the planes, so the two share no
//!   data;
//! * threshold and top-k — [`row_distance`] on every row;
//! * range — [`row_in_windows`] on every row.
//!
//! Threshold has two modes. Digital mode accepts a row by `d <= t`.
//! Sense mode, used by the audit lane when the service has a
//! [`SenseModel`], accepts a row when its modelled match-line discharge
//! time falls after the threshold's sense point — the decision the
//! analog sense amplifier makes. The sense point sits strictly between
//! the `t` and `t + 1` discharge curves, so both modes agree and any
//! disagreement with the kernel is a kernel bug.

use crate::request::RequestKind;
use crate::shard::SnapView;
use ferrotcam::{row_distance, row_in_windows, ApproxHit, PackedQuery, SearchOutcome, SenseModel};

/// The reference answer for one request over `target` (or a fan-out
/// over every shard) in digital mode: matches are global slot ids,
/// ascending; ranked hits (threshold and top-k) are best-first with
/// ties toward the lowest global row.
///
/// # Panics
/// Panics on an out-of-range shard, a query-width mismatch, a range
/// request on an odd width, or a write kind.
#[must_use]
pub fn reference_search(
    view: &SnapView,
    kind: RequestKind,
    query: &PackedQuery,
    target: Option<usize>,
) -> (SearchOutcome, Vec<ApproxHit>) {
    reference_walk(view, kind, query, target, None)
}

/// [`reference_search`] with the threshold decision taken by `sense`
/// when one is given (see the module docs); other kinds ignore it.
///
/// # Panics
/// As [`reference_search`].
#[must_use]
pub fn reference_walk(
    view: &SnapView,
    kind: RequestKind,
    query: &PackedQuery,
    target: Option<usize>,
    sense: Option<&SenseModel>,
) -> (SearchOutcome, Vec<ApproxHit>) {
    let accepts = |d: u32, t: u32| match sense {
        Some(m) => m.discharge_time(d) > m.sense_time(t),
        None => d <= t,
    };
    let shards = match target {
        Some(s) => s..s + 1,
        None => 0..view.shard_count(),
    };
    let mut outcome = SearchOutcome::empty();
    let mut hits = Vec::new();
    for s in shards {
        for (base, blk) in view.shard(s).blocks() {
            let p = blk.packed();
            if kind == RequestKind::Exact {
                let mut o = p.search(query);
                for m in &mut o.matches {
                    *m = view.global_row(s, base + *m);
                }
                outcome.absorb(o);
                continue;
            }
            for l in 0..p.rows() {
                let row = view.global_row(s, base + l);
                let matched = match kind {
                    RequestKind::Threshold { t } => {
                        let distance = row_distance(p, l, query);
                        let hit = accepts(distance, t);
                        if hit {
                            hits.push(ApproxHit { row, distance });
                        }
                        hit
                    }
                    RequestKind::TopK { .. } => {
                        let distance = row_distance(p, l, query);
                        hits.push(ApproxHit { row, distance });
                        false
                    }
                    RequestKind::Range => row_in_windows(p, l, query),
                    _ => unreachable!("write kinds have no reference search"),
                };
                if matched {
                    outcome.matches.push(row);
                } else {
                    outcome.step1_misses += 1;
                }
            }
        }
    }
    hits.sort_unstable();
    if let RequestKind::TopK { k } = kind {
        // Every row was counted as a step-1 miss; the k winners move
        // over to the match column.
        hits.truncate(k);
        outcome.matches = hits.iter().map(|h| h.row).collect();
        outcome.step1_misses -= hits.len();
    }
    outcome.matches.sort_unstable();
    (outcome, hits)
}

/// The audit lane's verdict on one replayed query.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// The match sets (or miss counters) disagreed — a correctness bug.
    pub match_divergence: bool,
    /// Energies agreed on the match set but differed beyond tolerance.
    pub energy_divergence: bool,
    /// Relative energy error `|fast − ref| / max(|ref|, ε)`.
    pub energy_rel: f64,
    /// Human-readable account of the first disagreement, if any.
    pub detail: Option<String>,
}

impl AuditVerdict {
    /// Whether the replay agreed on everything.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.match_divergence && !self.energy_divergence
    }
}

/// Replay comparison: the kernel's outcome/energy against the
/// oracle's, with `tolerance` as the relative energy bound. Match sets,
/// ranked hit lists, and both miss counters must be *bit-identical* —
/// both compute the same search, so any drift is a bug, not noise.
#[must_use]
pub fn audit_compare(
    fast: &SearchOutcome,
    fast_hits: &[ApproxHit],
    fast_energy: Option<f64>,
    reference: &SearchOutcome,
    ref_hits: &[ApproxHit],
    ref_energy: Option<f64>,
    tolerance: f64,
) -> AuditVerdict {
    let diverged = |detail: String| AuditVerdict {
        match_divergence: true,
        energy_divergence: false,
        energy_rel: 0.0,
        detail: Some(detail),
    };
    if fast.matches != reference.matches
        || fast.step1_misses != reference.step1_misses
        || fast.step2_misses != reference.step2_misses
    {
        return diverged(format!(
            "match sets diverged: fast {}m/{}s1/{}s2 vs ref {}m/{}s1/{}s2",
            fast.matches.len(),
            fast.step1_misses,
            fast.step2_misses,
            reference.matches.len(),
            reference.step1_misses,
            reference.step2_misses,
        ));
    }
    if fast_hits != ref_hits {
        return diverged(format!(
            "ranked hits diverged: fast {} hits vs ref {} hits",
            fast_hits.len(),
            ref_hits.len(),
        ));
    }
    let energy_rel = match (fast_energy, ref_energy) {
        (Some(a), Some(b)) => (a - b).abs() / b.abs().max(1e-300),
        _ => 0.0,
    };
    let energy_divergence = energy_rel > tolerance;
    AuditVerdict {
        match_divergence: false,
        energy_divergence,
        energy_rel,
        detail: energy_divergence.then(|| {
            format!(
                "energy diverged: fast {:.6e} J vs ref {:.6e} J (rel {energy_rel:.3e} > tol {tolerance:.1e})",
                fast_energy.unwrap_or(0.0),
                ref_energy.unwrap_or(0.0),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_compare_flags_divergences() {
        let base = SearchOutcome {
            matches: vec![1, 5],
            step1_misses: 10,
            step2_misses: 2,
        };
        let ok = audit_compare(
            &base,
            &[],
            Some(1e-12),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(ok.clean());
        assert_eq!(ok.energy_rel, 0.0);

        let mut wrong = base.clone();
        wrong.matches = vec![1];
        let v = audit_compare(&wrong, &[], Some(1e-12), &base, &[], Some(1e-12), 1e-9);
        assert!(v.match_divergence && !v.energy_divergence);
        assert!(v.detail.as_deref().unwrap().contains("match sets diverged"));

        // Hit lists are compared too: same counters, different ranking.
        let h1 = [
            ApproxHit {
                row: 1,
                distance: 0,
            },
            ApproxHit {
                row: 5,
                distance: 2,
            },
        ];
        let h2 = [
            ApproxHit {
                row: 1,
                distance: 0,
            },
            ApproxHit {
                row: 5,
                distance: 3,
            },
        ];
        let v = audit_compare(
            &base,
            &h1,
            Some(1e-12),
            &base.clone(),
            &h2,
            Some(1e-12),
            1e-9,
        );
        assert!(v.match_divergence);
        assert!(v
            .detail
            .as_deref()
            .unwrap()
            .contains("ranked hits diverged"));

        let v = audit_compare(
            &base,
            &[],
            Some(1.1e-12),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(!v.match_divergence && v.energy_divergence);
        assert!((v.energy_rel - 0.1).abs() < 1e-12);

        // Within tolerance: clean, but the rel error is still reported.
        let v = audit_compare(
            &base,
            &[],
            Some(1e-12 + 1e-25),
            &base.clone(),
            &[],
            Some(1e-12),
            1e-9,
        );
        assert!(v.clean());
        assert!(v.energy_rel > 0.0);
    }
}
