//! Requests: the kinds a client can ask for, the one [`Request`] value
//! carrying a kind with its typed payload and [`Route`], and why the
//! service may refuse one ([`Rejected`]).
//!
//! Exact match is the classic two-step TCAM search; the approximate
//! kinds (Hamming threshold, exact top-k, FeCAM range match) drive the
//! `core::approx` kernels and are attributed full-parallel energy (no
//! early termination — every row's match line joins the analog
//! distance race) and a sense-time-derived slice of bank time. The
//! write kinds (insert / delete / update) mutate the per-shard
//! epoch/snapshot cells and are priced by the calibrated 3-step
//! program (`core::calib::RowWriteMetrics`).
//!
//! A write without its word cannot be built. What the types cannot
//! rule out is refused as [`Rejected::Invalid`] before admission, so
//! nothing a client sends can panic the caller or a dispatcher.

use crate::admission::Overloaded;
use crate::shard::{route_of, WriteOp};
use ferrotcam::{PackedQuery, TernaryWord};
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

/// Where a request queues and, for a search, which shards it scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The home shard: a search's key-hash shard (the table's
    /// `route_packed`; it scans only that shard), an update's or
    /// delete's row shard. An insert has none and queues anywhere.
    Home,
    /// Pin a search to shard `s`: it scans only that shard's rows.
    Shard(usize),
    /// Scan every shard and merge; queue on any dispatcher.
    FanOut,
}

/// A search's payload: what it asks of which query.
#[derive(Debug, Clone)]
pub(crate) struct Search {
    pub(crate) kind: RequestKind,
    pub(crate) query: PackedQuery,
}

/// A request's typed payload: a search carries its query, a write its
/// table mutation.
#[derive(Debug, Clone)]
pub(crate) enum Body {
    Search(Search),
    Write(WriteOp),
}

/// One request to the service: a kind, its payload and a [`Route`].
/// Writes take [`Route::Home`].
#[derive(Debug, Clone)]
pub struct Request {
    body: Body,
    route: Route,
}

impl Request {
    /// A search of `kind` over `query`. A [`RequestKind::Range`] query
    /// carries one 2-digit level per cell (`ferrotcam::levels_to_query`);
    /// a write kind is refused as [`Invalid::NotASearch`].
    #[must_use]
    pub fn search(kind: RequestKind, query: PackedQuery, route: Route) -> Self {
        Self {
            body: Body::Search(Search { kind, query }),
            route,
        }
    }

    /// A [`RequestKind::Insert`] of `word`.
    #[must_use]
    pub fn insert(word: TernaryWord) -> Self {
        Self::write(WriteOp::Insert(word))
    }

    /// A [`RequestKind::Update`] of global row `row` to `word`.
    #[must_use]
    pub fn update(row: usize, word: TernaryWord) -> Self {
        Self::write(WriteOp::Update { row, word })
    }

    /// A [`RequestKind::Delete`] of global row `row`.
    #[must_use]
    pub fn delete(row: usize) -> Self {
        Self::write(WriteOp::Delete { row })
    }

    fn write(op: WriteOp) -> Self {
        Self {
            body: Body::Write(op),
            route: Route::Home,
        }
    }

    /// What this request asks.
    #[must_use]
    pub fn kind(&self) -> RequestKind {
        match &self.body {
            Body::Search(s) => s.kind,
            Body::Write(op) => op.kind(),
        }
    }

    /// Check the request against a `width`-digit table of `shards`
    /// shards and resolve its route. Returns the payload and its shard
    /// pin: the queue it lands on and, for a search, the one shard it
    /// scans (`None`: any queue, and a search fans out).
    pub(crate) fn resolve(
        self,
        width: usize,
        shards: usize,
    ) -> Result<(Body, Option<usize>), Invalid> {
        let got = match &self.body {
            Body::Search(s) if s.kind.is_write() => return Err(Invalid::NotASearch(s.kind)),
            Body::Search(s) => Some(s.query.width()),
            Body::Write(WriteOp::Insert(word) | WriteOp::Update { word, .. }) => Some(word.len()),
            Body::Write(WriteOp::Delete { .. }) => None,
        };
        if let Some(got) = got.filter(|&got| got != width) {
            return Err(Invalid::Width {
                expected: width,
                got,
            });
        }
        if self.kind() == RequestKind::Range && !width.is_multiple_of(2) {
            return Err(Invalid::OddRangeWidth { width });
        }
        let shard = match self.route {
            Route::Shard(shard) if shard >= shards => return Err(Invalid::Shard { shard, shards }),
            Route::Shard(shard) => Some(shard),
            Route::FanOut => None,
            Route::Home => match &self.body {
                Body::Search(s) => Some(route_of(&s.query, shards)),
                Body::Write(WriteOp::Update { row, .. } | WriteOp::Delete { row }) => {
                    Some(row % shards)
                }
                Body::Write(WriteOp::Insert(_)) => None,
            },
        };
        Ok((self.body, shard))
    }
}

/// Why a request is malformed for the served table. It is refused
/// before admission and touches no bucket, queue, drain count or
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalid {
    /// The query or word width does not match the table's.
    Width {
        /// The table's width.
        expected: usize,
        /// The request's width.
        got: usize,
    },
    /// [`Route::Shard`] names a shard the table does not have.
    Shard {
        /// The requested shard.
        shard: usize,
        /// The table's shard count.
        shards: usize,
    },
    /// A range query on an odd-width table (range cells pair digits).
    OddRangeWidth {
        /// The table's width.
        width: usize,
    },
    /// [`Request::search`] was given a write kind.
    NotASearch(RequestKind),
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Width { expected, got } => write!(f, "width {got}, table is {expected}"),
            Self::Shard { shard, shards } => write!(f, "shard {shard} out of {shards}"),
            Self::OddRangeWidth { width } => write!(f, "range query on odd width {width}"),
            Self::NotASearch(kind) => write!(f, "{kind} is not a search kind"),
        }
    }
}

impl std::error::Error for Invalid {}

/// Why `ServiceClient::submit` or `ServiceClient::send` refused a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Shed under load or during shutdown; counted in the metrics.
    Overloaded(Overloaded),
    /// Malformed for the served table; never admitted or counted.
    Invalid(Invalid),
}

impl From<Overloaded> for Rejected {
    fn from(e: Overloaded) -> Self {
        Self::Overloaded(e)
    }
}

impl From<Invalid> for Rejected {
    fn from(e: Invalid) -> Self {
        Self::Invalid(e)
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded(e) => write!(f, "overloaded: {e}"),
            Self::Invalid(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for Rejected {}

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
