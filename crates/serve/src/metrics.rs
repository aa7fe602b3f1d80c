//! Service observability: latency/batch histograms and the exported
//! [`ServiceMetrics`] snapshot.
//!
//! The submission-side counters (`submitted`, the shed counters, the
//! queue high-water mark) are plain atomics — they sit on the client
//! hot path and must not serialise submitters against the dispatcher.
//! Everything recorded by the dispatcher (histograms, batch stats,
//! energy totals) lives behind one uncontended mutex, locked **once
//! per batch** ([`MetricsCollector::on_responses`]), not once per
//! response. Snapshots are cheap and can be taken from any thread at
//! any time, including while the service is loaded.

use crate::reference::AuditVerdict;
use crate::request::{RequestKind, KIND_COUNT};
use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use ferrotcam_arch::sched::ScheduleOutcome;
use serde::{Deserialize, Serialize};

// The histogram now lives in the simulator's trace layer so service
// spans and engine spans share one implementation (and one unit
// discipline); re-exported here for source compatibility.
pub use ferrotcam_spice::trace::Histogram;

/// Percentile summary of a histogram, in the histogram's native unit.
///
/// Percentiles are `None` (serialised as JSON `null`) when the window
/// recorded no samples: an empty window has no p50/p95/p99, and the old
/// `0.0` placeholder read as an impossibly good latency to
/// `compare_runs --bench`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket upper edge); `None` for an empty window.
    pub p50: Option<f64>,
    /// 95th percentile (bucket upper edge); `None` for an empty window.
    pub p95: Option<f64>,
    /// 99th percentile (bucket upper edge); `None` for an empty window.
    pub p99: Option<f64>,
    /// Largest sample seen.
    pub max: f64,
}

impl LatencySummary {
    /// Condensed percentile summary of `h`.
    #[must_use]
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max() as f64,
        }
    }
}

/// Per-request-kind counter set: exact vs the approximate workloads.
/// Serialises as named fields so dashboards keep stable keys; absent
/// in pre-approx snapshots, where the whole breakdown defaults to
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct KindBreakdown {
    /// Exact ternary matches.
    pub exact: u64,
    /// Hamming-threshold searches.
    pub threshold: u64,
    /// Top-k nearest searches.
    pub top_k: u64,
    /// FeCAM range matches.
    pub range: u64,
    /// Online row inserts (absent in read-only-era snapshots).
    #[serde(default)]
    pub insert: u64,
    /// Online row deletes (absent in read-only-era snapshots).
    #[serde(default)]
    pub delete: u64,
    /// Online row updates (absent in read-only-era snapshots).
    #[serde(default)]
    pub update: u64,
}

impl KindBreakdown {
    /// Bump the counter for `kind`.
    pub fn bump(&mut self, kind: RequestKind) {
        *self.slot_mut(kind) += 1;
    }

    /// The counter for `kind`.
    #[must_use]
    pub fn get(&self, kind: RequestKind) -> u64 {
        match kind {
            RequestKind::Exact => self.exact,
            RequestKind::Threshold { .. } => self.threshold,
            RequestKind::TopK { .. } => self.top_k,
            RequestKind::Range => self.range,
            RequestKind::Insert => self.insert,
            RequestKind::Delete { .. } => self.delete,
            RequestKind::Update { .. } => self.update,
        }
    }

    /// Sum over every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.exact
            + self.threshold
            + self.top_k
            + self.range
            + self.insert
            + self.delete
            + self.update
    }

    fn slot_mut(&mut self, kind: RequestKind) -> &mut u64 {
        match kind {
            RequestKind::Exact => &mut self.exact,
            RequestKind::Threshold { .. } => &mut self.threshold,
            RequestKind::TopK { .. } => &mut self.top_k,
            RequestKind::Range => &mut self.range,
            RequestKind::Insert => &mut self.insert,
            RequestKind::Delete { .. } => &mut self.delete,
            RequestKind::Update { .. } => &mut self.update,
        }
    }
}

/// Batch-size distribution of the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct BatchStats {
    /// Batches executed.
    pub batches: u64,
    /// Mean queries per batch.
    pub mean_size: f64,
    /// Largest batch executed.
    pub max_size: u64,
    /// Median batch size (octave resolution); `None` before the first
    /// batch.
    pub p50_size: Option<f64>,
}

/// A point-in-time snapshot of everything the service measures,
/// exported as JSON for dashboards and the bench harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServiceMetrics {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Sheds: bounded queue was full.
    pub shed_queue_full: u64,
    /// Sheds: tenant token bucket dry.
    pub shed_rate_limited: u64,
    /// Sheds: service draining.
    pub shed_shutting_down: u64,
    /// Sheds: SLO deadline already expired when the dispatcher popped
    /// the query (`ServiceConfig::deadline`). Write kinds are never
    /// deadline-shed. Absent in pre-deadline snapshots.
    #[serde(default)]
    pub shed_deadline: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Deepest queue ever observed by the dispatcher (bounded by the
    /// ring capacity — the no-unbounded-growth witness).
    pub max_queue_depth: usize,
    /// Wall-clock submit→response latency (nanoseconds).
    pub wall_latency_ns: LatencySummary,
    /// Modelled silicon latency: bank wait + search (picoseconds).
    pub model_latency_ps: LatencySummary,
    /// Dispatcher batch-size distribution.
    pub batch: BatchStats,
    /// Rows scanned across all responses.
    pub rows_searched: u64,
    /// Rows that early-terminated after step 1.
    pub step1_misses: u64,
    /// Rows that survived step 1 and missed in step 2.
    pub step2_misses: u64,
    /// Total match count across responses.
    pub matches: u64,
    /// Aggregate step-1 early-termination rate over all rows searched.
    pub step1_early_termination_rate: f64,
    /// Total silicon energy attributed to responses (J).
    pub energy_total_j: f64,
    /// Mean modelled utilization per bank over all scheduled batches.
    pub bank_utilization: Vec<f64>,
    /// Longest modelled bank wait of any query (s).
    pub max_sched_wait_s: f64,
    /// Answered queries replayed through the reference oracle.
    #[serde(default)]
    pub audit_sampled: u64,
    /// Audit replays whose match sets disagreed (correctness bug).
    #[serde(default)]
    pub audit_match_divergences: u64,
    /// Audit replays whose energies disagreed beyond tolerance.
    #[serde(default)]
    pub audit_energy_divergences: u64,
    /// Worst relative energy error any audit replay observed.
    #[serde(default)]
    pub audit_worst_energy_rel: f64,
    /// Responses completed, split by request kind.
    #[serde(default)]
    pub completed_by_kind: KindBreakdown,
    /// Sheds (all causes), split by the shed request's kind.
    #[serde(default)]
    pub shed_by_kind: KindBreakdown,
    /// Audit replays, split by the replayed request's kind.
    #[serde(default)]
    pub audit_sampled_by_kind: KindBreakdown,
    /// Audit divergences (match or energy), split by request kind.
    #[serde(default)]
    pub audit_divergences_by_kind: KindBreakdown,
}

impl ServiceMetrics {
    /// Pretty JSON rendering of the snapshot.
    ///
    /// # Panics
    /// Never: the struct contains only serialisable scalars.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialise")
    }
}

/// The accounting facts of one completed response, recorded with
/// [`MetricsCollector::on_response`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ResponseSample {
    /// What the request asked for (exact / threshold / top-k / range).
    pub kind: RequestKind,
    /// Wall-clock submit→response latency (ns).
    pub wall_ns: u64,
    /// Modelled silicon latency (s), if scheduled.
    pub model_latency_s: Option<f64>,
    /// Rows scanned for this query.
    pub rows: usize,
    /// Rows early-terminated after step 1.
    pub step1_misses: usize,
    /// Rows that survived step 1 and missed in step 2.
    pub step2_misses: usize,
    /// Matching rows.
    pub matches: usize,
    /// Energy attributed (J), if metrics are attached.
    pub energy_j: Option<f64>,
}

/// Internal accumulator behind the collector's mutex (dispatcher-side
/// facts only; the submission counters are atomics on the collector).
#[derive(Debug, Default)]
struct Inner {
    completed: u64,
    wall: Histogram,
    model: Histogram,
    batches: u64,
    batch_size_sum: u64,
    batch_size_max: u64,
    batch_hist: Histogram,
    rows_searched: u64,
    step1_misses: u64,
    step2_misses: u64,
    matches: u64,
    energy_total_j: f64,
    bank_busy_total: Vec<f64>,
    sched_time_total: f64,
    max_sched_wait_s: f64,
    audit_sampled: u64,
    audit_match_divergences: u64,
    audit_energy_divergences: u64,
    audit_worst_energy_rel: f64,
    completed_by_kind: KindBreakdown,
    audit_sampled_by_kind: KindBreakdown,
    audit_divergences_by_kind: KindBreakdown,
}

/// Thread-safe metrics collector shared by clients and the dispatcher.
#[derive(Debug)]
pub struct MetricsCollector {
    submitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_rate_limited: AtomicU64,
    shed_shutting_down: AtomicU64,
    /// Deadline sheds happen on the dispatcher pop path, which is just
    /// as hot as submission.
    shed_deadline: AtomicU64,
    /// Sheds by request kind, indexed by [`RequestKind::index`] —
    /// atomics because shedding happens on the submit hot path.
    shed_by_kind: [AtomicU64; KIND_COUNT],
    max_queue_depth: AtomicUsize,
    inner: Mutex<Inner>,
}

impl Default for MetricsCollector {
    // Hand-written (not derived) because the façade mutex takes its
    // lock-order-graph name at construction.
    fn default() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_rate_limited: AtomicU64::new(0),
            shed_shutting_down: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            max_queue_depth: AtomicUsize::new(0),
            inner: Mutex::new("serve.metrics.inner", Inner::default()),
        }
    }
}

impl MetricsCollector {
    /// Fresh collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A request was accepted into the queue, which then held `depth`
    /// items. Lock-free: this runs on every submitter's hot path.
    pub fn on_submit(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed); // ordering: stat-relaxed
    }

    /// A `kind` request was shed with `err`. Lock-free.
    pub fn on_shed(&self, err: crate::admission::Overloaded, kind: RequestKind) {
        let counter = match err {
            crate::admission::Overloaded::QueueFull => &self.shed_queue_full,
            crate::admission::Overloaded::RateLimited { .. } => &self.shed_rate_limited,
            crate::admission::Overloaded::ShuttingDown => &self.shed_shutting_down,
        };
        counter.fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
        self.shed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
    }

    /// A `kind` query was dropped at dispatch because its SLO deadline
    /// had already expired. Lock-free: runs on the dispatcher pop path.
    pub fn on_deadline_shed(&self, kind: RequestKind) {
        self.shed_deadline.fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
        self.shed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed); // ordering: stat-relaxed
    }

    /// The dispatcher pulled and scheduled a batch of `size` queries.
    pub fn on_batch(&self, size: usize, sched: &ScheduleOutcome) {
        let mut m = self.inner.lock();
        m.batches += 1;
        m.batch_size_sum += size as u64;
        m.batch_size_max = m.batch_size_max.max(size as u64);
        m.batch_hist.record(size as u64);
        if m.bank_busy_total.len() < sched.bank_busy.len() {
            m.bank_busy_total.resize(sched.bank_busy.len(), 0.0);
        }
        for (total, &busy) in m.bank_busy_total.iter_mut().zip(&sched.bank_busy) {
            *total += busy;
        }
        m.sched_time_total += sched.makespan;
        m.max_sched_wait_s = m.max_sched_wait_s.max(sched.max_wait);
    }

    /// One response went out.
    pub fn on_response(&self, sample: &ResponseSample) {
        self.on_responses(std::slice::from_ref(sample));
    }

    /// A whole batch of responses went out: one lock for all of them.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    pub fn on_responses(&self, samples: &[ResponseSample]) {
        if samples.is_empty() {
            return;
        }
        let mut m = self.inner.lock();
        for sample in samples {
            m.completed += 1;
            m.completed_by_kind.bump(sample.kind);
            m.wall.record(sample.wall_ns);
            if let Some(lat) = sample.model_latency_s {
                m.model.record((lat * 1e12).max(0.0) as u64);
            }
            m.rows_searched += sample.rows as u64;
            m.step1_misses += sample.step1_misses as u64;
            m.step2_misses += sample.step2_misses as u64;
            m.matches += sample.matches as u64;
            if let Some(e) = sample.energy_j {
                m.energy_total_j += e;
            }
        }
    }

    /// The audit lane replayed one sampled `kind` query and reached
    /// `verdict`.
    pub fn on_audit(&self, verdict: &AuditVerdict, kind: RequestKind) {
        let mut m = self.inner.lock();
        m.audit_sampled += 1;
        m.audit_sampled_by_kind.bump(kind);
        m.audit_match_divergences += u64::from(verdict.match_divergence);
        m.audit_energy_divergences += u64::from(verdict.energy_divergence);
        if !verdict.clean() {
            m.audit_divergences_by_kind.bump(kind);
        }
        m.audit_worst_energy_rel = m.audit_worst_energy_rel.max(verdict.energy_rel);
    }

    /// Snapshot everything; `queue_depth` is sampled by the caller.
    #[must_use]
    pub fn snapshot(&self, queue_depth: usize) -> ServiceMetrics {
        let m = self.inner.lock();
        let utilization = if m.sched_time_total > 0.0 {
            m.bank_busy_total
                .iter()
                .map(|&b| b / m.sched_time_total)
                .collect()
        } else {
            vec![0.0; m.bank_busy_total.len()]
        };
        ServiceMetrics {
            submitted: self.submitted.load(Ordering::Relaxed), // ordering: stat-relaxed
            completed: m.completed,
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed), // ordering: stat-relaxed
            shed_rate_limited: self.shed_rate_limited.load(Ordering::Relaxed), // ordering: stat-relaxed
            shed_shutting_down: self.shed_shutting_down.load(Ordering::Relaxed), // ordering: stat-relaxed
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed), // ordering: stat-relaxed
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed), // ordering: stat-relaxed
            wall_latency_ns: LatencySummary::of(&m.wall),
            model_latency_ps: LatencySummary::of(&m.model),
            batch: BatchStats {
                batches: m.batches,
                mean_size: if m.batches == 0 {
                    0.0
                } else {
                    m.batch_size_sum as f64 / m.batches as f64
                },
                max_size: m.batch_size_max,
                p50_size: m.batch_hist.quantile(0.5),
            },
            rows_searched: m.rows_searched,
            step1_misses: m.step1_misses,
            step2_misses: m.step2_misses,
            matches: m.matches,
            step1_early_termination_rate: if m.rows_searched == 0 {
                0.0
            } else {
                m.step1_misses as f64 / m.rows_searched as f64
            },
            energy_total_j: m.energy_total_j,
            bank_utilization: utilization,
            max_sched_wait_s: m.max_sched_wait_s,
            audit_sampled: m.audit_sampled,
            audit_match_divergences: m.audit_match_divergences,
            audit_energy_divergences: m.audit_energy_divergences,
            audit_worst_energy_rel: m.audit_worst_energy_rel,
            completed_by_kind: m.completed_by_kind,
            shed_by_kind: KindBreakdown {
                // ordering: stat-relaxed
                exact: self.shed_by_kind[RequestKind::Exact.index()].load(Ordering::Relaxed),
                threshold: self.shed_by_kind[RequestKind::Threshold { t: 0 }.index()]
                    .load(Ordering::Relaxed), // ordering: stat-relaxed
                top_k: self.shed_by_kind[RequestKind::TopK { k: 0 }.index()]
                    .load(Ordering::Relaxed), // ordering: stat-relaxed
                // ordering: stat-relaxed
                range: self.shed_by_kind[RequestKind::Range.index()].load(Ordering::Relaxed),
                // ordering: stat-relaxed
                insert: self.shed_by_kind[RequestKind::Insert.index()].load(Ordering::Relaxed),
                delete: self.shed_by_kind[RequestKind::Delete { row: 0 }.index()]
                    .load(Ordering::Relaxed), // ordering: stat-relaxed
                update: self.shed_by_kind[RequestKind::Update { row: 0 }.index()]
                    .load(Ordering::Relaxed), // ordering: stat-relaxed
            },
            audit_sampled_by_kind: m.audit_sampled_by_kind,
            audit_divergences_by_kind: m.audit_divergences_by_kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.record(i);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // p50 of 1..=1000 lands in the [496, 512) sub-bucket.
        assert_eq!(h.quantile(0.5), Some(512.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        assert_eq!(LatencySummary::of(&h).max, 1000.0);
    }

    #[test]
    fn empty_window_reports_null_percentiles() {
        // Regression: empty windows must not report p50/p95/p99 = 0.0
        // (compare_runs read that as a latency improvement). They are
        // `None`, serialised as JSON null, and round-trip as such.
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean(), 0.0);
        let s = LatencySummary::of(&h);
        assert_eq!(s.p50, None);
        assert_eq!(s.p95, None);
        assert_eq!(s.p99, None);
        let snap = MetricsCollector::new().snapshot(0);
        let json = snap.to_json();
        assert!(json.contains("\"p99\": null"), "null percentile: {json}");
        let back: ServiceMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.wall_latency_ns.p99, None);
        // Old snapshots carried 0.0 there; they still deserialise.
        let legacy = json.replace("null", "0.0");
        let back: ServiceMetrics = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.wall_latency_ns.p99, Some(0.0));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let c = MetricsCollector::new();
        c.on_submit(1);
        c.on_response(&ResponseSample {
            kind: RequestKind::Exact,
            wall_ns: 1500,
            model_latency_s: Some(1.2e-9),
            rows: 64,
            step1_misses: 60,
            step2_misses: 2,
            matches: 2,
            energy_j: Some(3.2e-14),
        });
        let snap = c.snapshot(0);
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.max_queue_depth, 1);
        assert_eq!(snap.completed, 1);
        assert!((snap.step1_early_termination_rate - 60.0 / 64.0).abs() < 1e-12);
        let json = snap.to_json();
        let back: ServiceMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_accepts_pre_audit_json() {
        // Snapshots written before the audit lane / per-kind breakdown
        // existed must still deserialise; the new fields default to
        // zero.
        let snap = MetricsCollector::new().snapshot(0);
        let json = snap.to_json();
        let mut depth = 0usize;
        let stripped: String = json
            .lines()
            .filter(|l| {
                // Drop audit scalars and the whole *_by_kind objects
                // (brace-balanced), exactly as an old snapshot lacks
                // them.
                if depth > 0 {
                    depth += l.matches('{').count();
                    depth -= l.matches('}').count();
                    return false;
                }
                if l.contains("_by_kind") {
                    depth += l.matches('{').count();
                    depth -= l.matches('}').count();
                    return false;
                }
                !l.contains("audit_")
            })
            .collect::<Vec<_>>()
            .join("\n")
            // The last surviving field keeps its trailing comma.
            .replace(",\n}", "\n}");
        assert!(!stripped.contains("audit_"), "fields really removed");
        assert!(!stripped.contains("_by_kind"), "breakdowns really removed");
        let back: ServiceMetrics = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn kind_breakdowns_accumulate() {
        use crate::admission::Overloaded;
        let c = MetricsCollector::new();
        c.on_response(&ResponseSample {
            kind: RequestKind::Threshold { t: 2 },
            ..ResponseSample::default()
        });
        c.on_response(&ResponseSample {
            kind: RequestKind::TopK { k: 4 },
            ..ResponseSample::default()
        });
        c.on_response(&ResponseSample::default());
        c.on_shed(Overloaded::QueueFull, RequestKind::Range);
        c.on_shed(
            Overloaded::RateLimited { tenant: 1 },
            RequestKind::Threshold { t: 1 },
        );
        c.on_audit(
            &AuditVerdict {
                match_divergence: true,
                energy_divergence: false,
                energy_rel: 0.0,
                detail: Some("boom".into()),
            },
            RequestKind::TopK { k: 4 },
        );
        let snap = c.snapshot(0);
        assert_eq!(snap.completed_by_kind.exact, 1);
        assert_eq!(snap.completed_by_kind.threshold, 1);
        assert_eq!(snap.completed_by_kind.top_k, 1);
        assert_eq!(snap.completed_by_kind.total(), 3);
        assert_eq!(snap.shed_by_kind.range, 1);
        assert_eq!(snap.shed_by_kind.threshold, 1);
        assert_eq!(snap.audit_sampled_by_kind.top_k, 1);
        assert_eq!(snap.audit_divergences_by_kind.top_k, 1);
        assert_eq!(
            snap.audit_divergences_by_kind
                .get(RequestKind::TopK { k: 99 }),
            1,
            "breakdown keys on kind, not its parameters"
        );
    }

    #[test]
    fn deadline_sheds_and_write_kinds_are_counted() {
        let c = MetricsCollector::new();
        c.on_deadline_shed(RequestKind::Exact);
        c.on_deadline_shed(RequestKind::TopK { k: 3 });
        c.on_response(&ResponseSample {
            kind: RequestKind::Insert,
            ..ResponseSample::default()
        });
        c.on_response(&ResponseSample {
            kind: RequestKind::Update { row: 7 },
            ..ResponseSample::default()
        });
        c.on_response(&ResponseSample {
            kind: RequestKind::Delete { row: 1 },
            ..ResponseSample::default()
        });
        let snap = c.snapshot(0);
        assert_eq!(snap.shed_deadline, 2);
        assert_eq!(snap.shed_by_kind.exact, 1);
        assert_eq!(snap.shed_by_kind.top_k, 1);
        assert_eq!(snap.completed_by_kind.insert, 1);
        assert_eq!(snap.completed_by_kind.update, 1);
        assert_eq!(snap.completed_by_kind.delete, 1);
        assert_eq!(snap.completed_by_kind.total(), 3);
        // Snapshot JSON round-trips with the new fields in place.
        let back: ServiceMetrics = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn batched_responses_equal_singles_and_audit_accumulates() {
        let a = MetricsCollector::new();
        let b = MetricsCollector::new();
        let samples: Vec<ResponseSample> = (0..10)
            .map(|i| ResponseSample {
                kind: RequestKind::Exact,
                wall_ns: 100 + i,
                model_latency_s: Some(1e-9),
                rows: 8,
                step1_misses: 6,
                step2_misses: 1,
                matches: 1,
                energy_j: Some(1e-15),
            })
            .collect();
        a.on_responses(&samples);
        for s in &samples {
            b.on_response(s);
        }
        assert_eq!(a.snapshot(0), b.snapshot(0));

        a.on_audit(
            &AuditVerdict {
                match_divergence: false,
                energy_divergence: false,
                energy_rel: 1e-12,
                detail: None,
            },
            RequestKind::Exact,
        );
        a.on_audit(
            &AuditVerdict {
                match_divergence: true,
                energy_divergence: false,
                energy_rel: 0.0,
                detail: Some("boom".into()),
            },
            RequestKind::Exact,
        );
        let snap = a.snapshot(0);
        assert_eq!(snap.audit_sampled, 2);
        assert_eq!(snap.audit_match_divergences, 1);
        assert_eq!(snap.audit_energy_divergences, 0);
        assert!((snap.audit_worst_energy_rel - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn shed_counters_split_by_kind() {
        use crate::admission::Overloaded;
        let c = MetricsCollector::new();
        c.on_shed(Overloaded::QueueFull, RequestKind::Exact);
        c.on_shed(Overloaded::QueueFull, RequestKind::Exact);
        c.on_shed(Overloaded::RateLimited { tenant: 1 }, RequestKind::Exact);
        c.on_shed(Overloaded::ShuttingDown, RequestKind::Exact);
        let snap = c.snapshot(3);
        assert_eq!(snap.shed_queue_full, 2);
        assert_eq!(snap.shed_rate_limited, 1);
        assert_eq!(snap.shed_shutting_down, 1);
        assert_eq!(snap.queue_depth, 3);
    }
}
