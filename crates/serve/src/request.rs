//! Request kinds: the exact ternary match plus the approximate-match
//! workloads (Hamming threshold, exact top-k, FeCAM range match), the
//! online write kinds (insert / delete / update), and the admission
//! class that separates their rate budgets.
//!
//! Every submission carries a [`RequestKind`]. Exact match is the
//! classic two-step TCAM search; the approximate kinds drive the
//! `core::approx` kernels and are attributed full-parallel energy (no
//! early termination — every row's match line participates in the
//! analog distance race) and a sense-time-derived slice of bank time
//! by the dispatcher's cost model. The write kinds mutate the table
//! through the per-shard epoch/snapshot cells and are priced by the
//! calibrated 3-step program (`core::calib::RowWriteMetrics`); their
//! row payload travels on the job, so the kind itself stays `Copy`.

use serde::{Deserialize, Serialize};

/// What a submitted query asks of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RequestKind {
    /// Exact ternary match (two-step search with early termination).
    #[default]
    Exact,
    /// All rows within masked Hamming distance `t` of the query.
    Threshold {
        /// Largest accepted mismatch count.
        t: u32,
    },
    /// The `k` nearest rows by masked Hamming distance, ties broken
    /// toward the lowest global row id.
    TopK {
        /// How many best rows to return.
        k: usize,
    },
    /// FeCAM range match: every 4-level cell's stored `[lo, hi]`
    /// window must admit the query level.
    Range,
    /// Program the submitted word into a fresh row of the least-loaded
    /// shard; the response's match list carries the assigned global id.
    Insert,
    /// Retire global row `row` (slot-reuse delete: the shard's last
    /// local row moves into the freed slot).
    Delete {
        /// Global row id to remove.
        row: usize,
    },
    /// Re-program global row `row` with the submitted word.
    Update {
        /// Global row id to overwrite.
        row: usize,
    },
}

/// How many distinct kinds exist (the per-kind counter arity).
pub const KIND_COUNT: usize = 7;

impl RequestKind {
    /// Short stable tag used in metric/curve ids.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Threshold { .. } => "threshold",
            Self::TopK { .. } => "topk",
            Self::Range => "range",
            Self::Insert => "insert",
            Self::Delete { .. } => "delete",
            Self::Update { .. } => "update",
        }
    }

    /// Dense counter index (stable across parameter values).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Exact => 0,
            Self::Threshold { .. } => 1,
            Self::TopK { .. } => 2,
            Self::Range => 3,
            Self::Insert => 4,
            Self::Delete { .. } => 5,
            Self::Update { .. } => 6,
        }
    }

    /// The admission class this kind is rate-limited under.
    #[must_use]
    pub fn class(self) -> AdmissionClass {
        match self {
            Self::Exact => AdmissionClass::Exact,
            Self::Insert | Self::Delete { .. } | Self::Update { .. } => AdmissionClass::Write,
            _ => AdmissionClass::Approx,
        }
    }

    /// Whether this kind mutates the table (never deadline-shed, never
    /// routed through the search kernel).
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Self::Insert | Self::Delete { .. } | Self::Update { .. }
        )
    }
}

impl std::fmt::Display for RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Admission classes: approximate queries and online writes budget
/// separately from exact matches, so a flood of expensive distance
/// scans — or a bulk-load of writes — cannot starve the exact-match
/// hot path (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionClass {
    /// Exact ternary match traffic.
    Exact,
    /// Threshold / top-k / range traffic.
    Approx,
    /// Insert / delete / update traffic.
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_classes_and_indices_are_stable() {
        let kinds = [
            RequestKind::Exact,
            RequestKind::Threshold { t: 3 },
            RequestKind::TopK { k: 5 },
            RequestKind::Range,
            RequestKind::Insert,
            RequestKind::Delete { row: 9 },
            RequestKind::Update { row: 2 },
        ];
        let tags: Vec<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(
            tags,
            [
                "exact",
                "threshold",
                "topk",
                "range",
                "insert",
                "delete",
                "update"
            ]
        );
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(k.index() < KIND_COUNT);
        }
        assert_eq!(RequestKind::Exact.class(), AdmissionClass::Exact);
        assert_eq!(
            RequestKind::Threshold { t: 0 }.class(),
            AdmissionClass::Approx
        );
        assert_eq!(RequestKind::TopK { k: 1 }.class(), AdmissionClass::Approx);
        assert_eq!(RequestKind::Range.class(), AdmissionClass::Approx);
        for w in [
            RequestKind::Insert,
            RequestKind::Delete { row: 0 },
            RequestKind::Update { row: 0 },
        ] {
            assert_eq!(w.class(), AdmissionClass::Write);
            assert!(w.is_write());
        }
        assert!(!RequestKind::Range.is_write());
        assert_eq!(RequestKind::default(), RequestKind::Exact);
    }
}
