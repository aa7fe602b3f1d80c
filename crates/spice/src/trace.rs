//! Dependency-free span/event tracing and convergence forensics.
//!
//! Every analysis entry point (`dc`, `transient`, `sweep`, `ac`) opens a
//! [`span`]; the transient stepper additionally emits one event per
//! accepted/rejected timestep carrying `dt`, the iteration count and the
//! rejection reason; Newton failures emit a forensic event naming the
//! worst-residual MNA variable and the device instance driving it. The
//! serving layer records its queue/batch/dispatch spans through the same
//! collector, so one trace shows a request from admission down to the
//! linear solver.
//!
//! Tracing is off unless enabled, and costs one relaxed atomic load per
//! call site when off. The level comes from the `FERROTCAM_TRACE`
//! environment variable (`off` | `summary` | `full`, default `off`) or
//! [`set_level`]:
//!
//! * `summary` — span durations (octave [`Histogram`]s per span name),
//!   step/failure counters, and low-volume events (spans, notes,
//!   failures).
//! * `full` — everything above plus one event per transient timestep.
//!
//! Events are drained with [`take_events`] and rendered either as a
//! human summary ([`summary`]) or as newline-delimited JSON
//! ([`render_ndjson`]) for tools such as `jq` and CI artifacts.

use crate::error::Error;
use crate::netlist::{Circuit, Element};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

/// How much the collector records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing (the default).
    #[default]
    Off,
    /// Spans, counters and failure events only.
    Summary,
    /// Everything, including one event per transient timestep.
    Full,
}

impl TraceLevel {
    /// Parse `off` / `summary` / `full` (anything else: `None`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "summary" | "1" => Some(TraceLevel::Summary),
            "full" | "2" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// 255 = not yet resolved from the environment.
static LEVEL: AtomicU8 = AtomicU8::new(255);

fn level_code(l: TraceLevel) -> u8 {
    match l {
        TraceLevel::Off => 0,
        TraceLevel::Summary => 1,
        TraceLevel::Full => 2,
    }
}

/// The active trace level (resolving `FERROTCAM_TRACE` on first use).
#[must_use]
pub fn level() -> TraceLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TraceLevel::Off,
        1 => TraceLevel::Summary,
        2 => TraceLevel::Full,
        _ => {
            let l = std::env::var("FERROTCAM_TRACE")
                .ok()
                .and_then(|s| TraceLevel::parse(&s))
                .unwrap_or_default();
            LEVEL.store(level_code(l), Ordering::Relaxed);
            l
        }
    }
}

/// Override the trace level (wins over the environment variable).
pub fn set_level(l: TraceLevel) {
    LEVEL.store(level_code(l), Ordering::Relaxed);
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// An analysis (or service stage) began.
    SpanStart {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Span name (`"transient"`, `"serve.batch"`, ...).
        name: &'static str,
    },
    /// The matching span ended after `dur_ns` nanoseconds.
    SpanEnd {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Span name.
        name: &'static str,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
    },
    /// A transient timestep was accepted.
    StepAccept {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Analysis that stepped.
        analysis: &'static str,
        /// Time reached by the accepted step (s).
        t: f64,
        /// Size of the accepted step (s).
        dt: f64,
        /// Newton iterations the step took.
        iters: usize,
        /// Device evaluations performed during this step's Newton solve
        /// (the rest were exact reuses).
        evals: u64,
    },
    /// A transient timestep was rejected and will be retried smaller.
    StepReject {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Analysis that stepped.
        analysis: &'static str,
        /// Time the failed step started from (s).
        t: f64,
        /// Size of the rejected step (s).
        dt: f64,
        /// Why the step failed (`non-convergence`, `singular-pivot`, ...).
        reason: String,
    },
    /// Newton exhausted its iteration budget; worst-residual attribution.
    NewtonFail {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Analysis that failed.
        analysis: &'static str,
        /// Simulation time of the failed solve (s).
        time: f64,
        /// Iterations spent.
        iterations: usize,
        /// MNA variable with the worst residual (node or `i(<vsrc>)`).
        node: String,
        /// Device/element instance contributing most to that residual.
        device: String,
        /// Final residual max-norm `|f|`.
        f_norm: f64,
        /// Final update max-norm `|dx|`.
        dx_norm: f64,
    },
    /// A factorisation hit a zero pivot; mapped back to a variable name.
    SingularPivot {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Analysis that failed.
        analysis: &'static str,
        /// Simulation time of the failed solve (s).
        time: f64,
        /// Failing pivot index.
        index: usize,
        /// MNA variable name of that index.
        node: String,
    },
    /// The serving layer's sampled SPICE audit lane caught the fast
    /// behavioural backend disagreeing with the simulator-calibrated
    /// reference path.
    AuditDivergence {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// What diverged: `"match_set"` or `"energy"`.
        lane: &'static str,
        /// SplitMix64 hash of the query that diverged (reproducible
        /// with the run's seed).
        query_hash: u64,
        /// Relative deviation (0 for set divergences, which are
        /// all-or-nothing).
        rel: f64,
        /// Human-readable detail.
        detail: String,
    },
    /// Free-form low-volume annotation (fallback ladders etc.).
    Note {
        /// Monotone sequence number within the collector.
        seq: u64,
        /// Note topic.
        name: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl Event {
    /// The event's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            Event::SpanStart { seq, .. }
            | Event::SpanEnd { seq, .. }
            | Event::StepAccept { seq, .. }
            | Event::StepReject { seq, .. }
            | Event::NewtonFail { seq, .. }
            | Event::SingularPivot { seq, .. }
            | Event::AuditDivergence { seq, .. }
            | Event::Note { seq, .. } => *seq,
        }
    }

    /// Render the event as one JSON object (one NDJSON line, no `\n`).
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Event::SpanStart { seq, name } => {
                format!(r#"{{"seq":{seq},"kind":"span_start","name":{}}}"#, js(name))
            }
            Event::SpanEnd { seq, name, dur_ns } => format!(
                r#"{{"seq":{seq},"kind":"span_end","name":{},"dur_ns":{dur_ns}}}"#,
                js(name)
            ),
            Event::StepAccept {
                seq,
                analysis,
                t,
                dt,
                iters,
                evals,
            } => format!(
                r#"{{"seq":{seq},"kind":"step_accept","analysis":{},"t":{},"dt":{},"iters":{iters},"evals":{evals}}}"#,
                js(analysis),
                jf(*t),
                jf(*dt)
            ),
            Event::StepReject {
                seq,
                analysis,
                t,
                dt,
                reason,
            } => format!(
                r#"{{"seq":{seq},"kind":"step_reject","analysis":{},"t":{},"dt":{},"reason":{}}}"#,
                js(analysis),
                jf(*t),
                jf(*dt),
                js(reason)
            ),
            Event::NewtonFail {
                seq,
                analysis,
                time,
                iterations,
                node,
                device,
                f_norm,
                dx_norm,
            } => format!(
                r#"{{"seq":{seq},"kind":"newton_fail","analysis":{},"time":{},"iterations":{iterations},"node":{},"device":{},"f_norm":{},"dx_norm":{}}}"#,
                js(analysis),
                jf(*time),
                js(node),
                js(device),
                jf(*f_norm),
                jf(*dx_norm)
            ),
            Event::SingularPivot {
                seq,
                analysis,
                time,
                index,
                node,
            } => format!(
                r#"{{"seq":{seq},"kind":"singular_pivot","analysis":{},"time":{},"index":{index},"node":{}}}"#,
                js(analysis),
                jf(*time),
                js(node)
            ),
            Event::AuditDivergence {
                seq,
                lane,
                query_hash,
                rel,
                detail,
            } => format!(
                r#"{{"seq":{seq},"kind":"audit_divergence","lane":{},"query_hash":{query_hash},"rel":{},"detail":{}}}"#,
                js(lane),
                jf(*rel),
                js(detail)
            ),
            Event::Note { seq, name, detail } => format!(
                r#"{{"seq":{seq},"kind":"note","name":{},"detail":{}}}"#,
                js(name),
                js(detail)
            ),
        }
    }
}

/// JSON-escape a string (quotes included).
fn js(s: &str) -> String {
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

/// Render a float as a JSON number (NaN/inf are not JSON: stringify).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        js(&v.to_string())
    }
}

/// Render events as newline-delimited JSON, one event per line.
#[must_use]
pub fn render_ndjson(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Sub-octave bits of the log-linear histogram: each power-of-two
/// octave splits into `2^SUB_BITS` equal-width buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
///// Total bucket count: `SUBS` exact buckets below `SUBS`, then one
/// group of `SUBS` buckets per remaining octave position of the MSB.
const NBUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Log-linear bucketed histogram over `u64` samples (nanoseconds for
/// wall durations, picoseconds for modelled silicon latencies).
///
/// Values below 16 are exact; above, each power-of-two octave splits
/// into 16 equal sub-buckets, bounding the quantile quantisation error
/// to under ~6.3% — fine enough to resolve sub-µs latencies instead of
/// snapping every percentile to an octave boundary (1048576 ns etc.),
/// while keeping `record` a few shifts.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: f64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; NBUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0.0,
            max: 0,
        }
    }
}

/// Log-linear bucket index of a sample.
fn bucket_index(sample: u64) -> usize {
    if sample < SUBS as u64 {
        return sample as usize;
    }
    let msb = 63 - sample.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((sample >> (msb - SUB_BITS)) as usize) & (SUBS - 1);
    group * SUBS + sub
}

/// Exclusive upper edge of a bucket (the value a quantile reports,
/// before clamping to the observed max).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let (group, sub) = (idx / SUBS, idx % SUBS);
    // The very top sub-bucket's edge is 2^64; clamp instead of wrapping.
    let raw = ((SUBS + sub + 1) as u128) << (group - 1);
    raw.min(u64::MAX as u128) as u64
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        self.buckets[bucket_index(sample)] += 1;
        self.count += 1;
        self.sum += sample as f64;
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate `p`-quantile (`0 < p <= 1`): the upper edge of the
    /// bucket holding the p-th sample, clamped to the observed max.
    /// `None` when no samples were recorded — an empty window has no
    /// percentile, and reporting `0.0` instead reads as an impossibly
    /// good latency to downstream comparisons.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((bucket_upper(idx).min(self.max)) as f64);
            }
        }
        Some(self.max as f64)
    }
}

/// Condensed view of one named span/sample histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span or sample name.
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample (ns for spans).
    pub mean: f64,
    /// 95th percentile (octave upper edge).
    pub p95: f64,
    /// Largest sample.
    pub max: u64,
}

/// Counter snapshot of everything the collector has seen since the last
/// [`reset`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Accepted transient timesteps.
    pub accepted_steps: u64,
    /// Rejected transient timesteps.
    pub rejected_steps: u64,
    /// Newton failures (iteration budget exhausted or non-finite).
    pub newton_failures: u64,
    /// Singular-pivot events.
    pub singular_pivots: u64,
    /// Serve-layer audit-lane divergences (behavioural vs calibrated
    /// reference path).
    pub audit_divergences: u64,
    /// Per-name span duration histograms (ns), alphabetical.
    pub spans: Vec<SpanSummary>,
    /// Per-name free samples, alphabetical.
    pub samples: Vec<SpanSummary>,
}

impl TraceSummary {
    /// Render the summary as a human-readable block.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "steps: {} accepted, {} rejected; {} newton failure(s), {} singular pivot(s)",
            self.accepted_steps, self.rejected_steps, self.newton_failures, self.singular_pivots
        );
        if self.audit_divergences > 0 {
            let _ = writeln!(out, "AUDIT: {} divergence(s)", self.audit_divergences);
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12} {:>12} {:>12}",
                "span", "count", "mean ns", "p95 ns", "max ns"
            );
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>12.0} {:>12.0} {:>12}",
                    s.name, s.count, s.mean, s.p95, s.max
                );
            }
        }
        if !self.samples.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12} {:>12} {:>12}",
                "sample", "count", "mean", "p95", "max"
            );
            for s in &self.samples {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>12.1} {:>12.0} {:>12}",
                    s.name, s.count, s.mean, s.p95, s.max
                );
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Collector {
    seq: u64,
    events: Vec<Event>,
    accepted_steps: u64,
    rejected_steps: u64,
    newton_failures: u64,
    singular_pivots: u64,
    audit_divergences: u64,
    spans: BTreeMap<&'static str, Histogram>,
    samples: BTreeMap<&'static str, Histogram>,
}

static COLLECTOR: LazyLock<Mutex<Collector>> = LazyLock::new(|| Mutex::new(Collector::default()));

fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> R {
    let mut c = COLLECTOR.lock().expect("trace collector lock");
    f(&mut c)
}

impl Collector {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, e: Event) {
        self.events.push(e);
    }
}

/// Clear all recorded events, counters and histograms.
pub fn reset() {
    with_collector(|c| *c = Collector::default());
}

/// Drain and return every event recorded so far (oldest first).
#[must_use]
pub fn take_events() -> Vec<Event> {
    with_collector(|c| std::mem::take(&mut c.events))
}

/// Snapshot the counters and span histograms.
#[must_use]
pub fn summary() -> TraceSummary {
    with_collector(|c| {
        let condense = |m: &BTreeMap<&'static str, Histogram>| {
            m.iter()
                .map(|(&name, h)| SpanSummary {
                    name,
                    count: h.count(),
                    mean: h.mean(),
                    // Span histograms exist only once recorded into, so
                    // the quantile is always present; 0.0 is unreachable.
                    p95: h.quantile(0.95).unwrap_or(0.0),
                    max: h.max(),
                })
                .collect()
        };
        TraceSummary {
            accepted_steps: c.accepted_steps,
            rejected_steps: c.rejected_steps,
            newton_failures: c.newton_failures,
            singular_pivots: c.singular_pivots,
            audit_divergences: c.audit_divergences,
            spans: condense(&c.spans),
            samples: condense(&c.samples),
        }
    })
}

/// RAII span guard: records its wall duration (and, above `Off`, start
/// and end events) when dropped. Obtain with [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        with_collector(|c| {
            c.spans.entry(self.name).or_default().record(dur_ns);
            let seq = c.next_seq();
            c.push(Event::SpanEnd {
                seq,
                name: self.name,
                dur_ns,
            });
        });
    }
}

/// Open a span; its duration lands in the `name` histogram when the
/// returned guard drops. Inert (no lock, no clock) when tracing is off.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if level() == TraceLevel::Off {
        return SpanGuard { name, start: None };
    }
    with_collector(|c| {
        let seq = c.next_seq();
        c.push(Event::SpanStart { seq, name });
    });
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

/// Record a free value sample into the `name` histogram (e.g. queue
/// waits, batch sizes). No event is emitted; summary-only data.
pub fn sample(name: &'static str, value: u64) {
    if level() == TraceLevel::Off {
        return;
    }
    with_collector(|c| c.samples.entry(name).or_default().record(value));
}

/// Record a low-volume annotation (fallback ladder engaged, etc.).
pub fn note(name: &'static str, detail: impl Into<String>) {
    if level() == TraceLevel::Off {
        return;
    }
    let detail = detail.into();
    with_collector(|c| {
        let seq = c.next_seq();
        c.push(Event::Note { seq, name, detail });
    });
}

/// Record a serve-layer audit-lane divergence: a sampled query whose
/// behavioural (bit-parallel) result disagreed with the reference
/// SPICE-calibrated path. `lane` tags the comparison ("match" or
/// "energy"), `query_hash` identifies the query, `rel` is the relative
/// error observed. Counted at every trace level; the typed event is
/// kept whenever tracing is on (divergences are rare and load-bearing).
pub fn audit_divergence(lane: &'static str, query_hash: u64, rel: f64, detail: impl Into<String>) {
    if level() == TraceLevel::Off {
        return;
    }
    let detail = detail.into();
    with_collector(|c| {
        c.audit_divergences += 1;
        let seq = c.next_seq();
        c.push(Event::AuditDivergence {
            seq,
            lane,
            query_hash,
            rel,
            detail,
        });
    });
}

/// Record an accepted transient step (event only at `Full`).
/// `evals` counts the device evaluations performed while solving this
/// step.
pub fn step_accepted(analysis: &'static str, t: f64, dt: f64, iters: usize, evals: u64) {
    let l = level();
    if l == TraceLevel::Off {
        return;
    }
    with_collector(|c| {
        c.accepted_steps += 1;
        if l == TraceLevel::Full {
            let seq = c.next_seq();
            c.push(Event::StepAccept {
                seq,
                analysis,
                t,
                dt,
                iters,
                evals,
            });
        }
    });
}

/// Record a rejected transient step (event only at `Full`).
pub fn step_rejected(analysis: &'static str, t: f64, dt: f64, err: &Error) {
    let l = level();
    if l == TraceLevel::Off {
        return;
    }
    let reason = reject_reason(err);
    with_collector(|c| {
        c.rejected_steps += 1;
        if l == TraceLevel::Full {
            let seq = c.next_seq();
            c.push(Event::StepReject {
                seq,
                analysis,
                t,
                dt,
                reason,
            });
        }
    });
}

/// Compress a step-rejecting error into a stable reason tag.
fn reject_reason(err: &Error) -> String {
    match err {
        Error::SingularMatrix { index } => format!("singular-pivot@{index}"),
        Error::NonConvergence {
            iterations,
            forensics,
            ..
        } => match forensics {
            Some(w) => format!(
                "non-convergence after {iterations} iters (worst node {}, device {})",
                w.node, w.device
            ),
            None => format!("non-convergence after {iterations} iters"),
        },
        other => other.to_string(),
    }
}

/// Record a Newton failure with its worst-residual attribution.
pub fn newton_failure(
    analysis: &'static str,
    time: f64,
    iterations: usize,
    forensics: &crate::error::ConvergenceForensics,
) {
    if level() == TraceLevel::Off {
        return;
    }
    with_collector(|c| {
        c.newton_failures += 1;
        let seq = c.next_seq();
        c.push(Event::NewtonFail {
            seq,
            analysis,
            time,
            iterations,
            node: forensics.node.clone(),
            device: forensics.device.clone(),
            f_norm: forensics.f_norm,
            dx_norm: forensics.dx_norm,
        });
    });
}

/// Record a singular pivot mapped back to its MNA variable name.
pub fn singular_pivot(analysis: &'static str, time: f64, index: usize, node: String) {
    if level() == TraceLevel::Off {
        return;
    }
    with_collector(|c| {
        c.singular_pivots += 1;
        let seq = c.next_seq();
        c.push(Event::SingularPivot {
            seq,
            analysis,
            time,
            index,
            node,
        });
    });
}

/// Forensics helper: the human name of MNA variable `var` in `ckt` —
/// the node name for node variables, `i(<source>)` for branch currents,
/// `var<k>` when out of range.
#[must_use]
pub fn mna_var_name(ckt: &Circuit, var: usize) -> String {
    let nnode_vars = ckt.num_nodes() - 1;
    if var < nnode_vars {
        return ckt
            .node_name(crate::netlist::NodeId((var + 1) as u32))
            .to_string();
    }
    let branch = var - nnode_vars;
    for e in ckt.elements() {
        match e {
            Element::VSource {
                name, branch: b, ..
            } if *b == branch => {
                return format!("i({name})");
            }
            _ => {}
        }
    }
    format!("var{var}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("Summary"), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("FULL"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(js("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(jf(1.5e-9), "1.5e-9");
        assert_eq!(jf(f64::NAN), "\"NaN\"");
        let e = Event::StepReject {
            seq: 7,
            analysis: "transient",
            t: 1e-9,
            dt: 2e-12,
            reason: "non-convergence after 100 iters".into(),
        };
        let line = e.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains(r#""kind":"step_reject""#));
        assert!(line.contains(r#""dt":2e-12"#));
    }

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
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn histogram_resolves_sub_octave() {
        // Nine samples at 1500 ns, one at 3000 ns. An octave histogram
        // would report p50 = 2048; log-linear bucketing must keep the
        // median inside 1500's own sub-bucket [1472, 1536).
        let mut h = Histogram::default();
        for _ in 0..9 {
            h.record(1500);
        }
        h.record(3000);
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((1500.0..=1536.0).contains(&p50), "p50 = {p50}");
        // Worst-case relative quantisation error is one sub-bucket of
        // the lowest split octave: 1/16 of the sample's value.
        assert!((p50 - 1500.0) / 1500.0 < 1.0 / 16.0 + 1e-12);
        assert_eq!(h.quantile(1.0), Some(3000.0));
    }

    #[test]
    fn histogram_buckets_are_exhaustive_and_monotone() {
        let mut samples: Vec<u64> = (0..4096).collect();
        samples.extend([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 12345]);
        let mut prev_idx = 0usize;
        let mut prev_sample = 0u64;
        for &s in &samples {
            let idx = bucket_index(s);
            assert!(idx < NBUCKETS, "sample {s} -> out-of-range bucket {idx}");
            if s < SUBS as u64 {
                assert_eq!(bucket_upper(idx), s);
            } else {
                assert!(bucket_upper(idx) > s || idx == NBUCKETS - 1);
                assert!(bucket_upper(idx - 1) <= s);
            }
            if s >= prev_sample {
                assert!(idx >= prev_idx, "bucket_index not monotone at {s}");
            }
            prev_idx = idx;
            prev_sample = s;
        }
    }

    #[test]
    fn histogram_empty_has_no_quantile() {
        // Regression: an empty window must report `None`, not 0.0 — a
        // zero percentile reads as a latency improvement downstream.
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn var_name_maps_nodes_and_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node("ml");
        ckt.vsource("VDD", a, Circuit::gnd(), crate::waveform::Waveform::dc(1.0));
        assert_eq!(mna_var_name(&ckt, 0), "ml");
        assert_eq!(mna_var_name(&ckt, 1), "i(VDD)");
        assert_eq!(mna_var_name(&ckt, 9), "var9");
    }
}
