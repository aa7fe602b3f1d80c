//! In-memory span recorder for traced runs: the benchmark wraps its own
//! calls into each layer's public functions in spans and derives the
//! per-layer timings from them when the run ends.

use std::time::Instant;

/// One recorded span. Times are ns since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span served (the submission sequence number), if any.
    pub request: Option<u64>,
}

/// Span store. A disabled recorder keeps nothing and costs a branch.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Self::end`]. `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, None);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// One line per span name, in first-seen order: calls, distinct
    /// requests, total time, and self time (total minus the time of the
    /// spans it encloses).
    pub fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut calls, mut total, mut own) = (0u64, 0u64, 0u64);
                let mut requests = std::collections::BTreeSet::new();
                for (i, s) in self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == name)
                {
                    calls += 1;
                    total += s.end_ns - s.start_ns;
                    own += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                    requests.extend(s.request);
                }
                format!(
                    "span {name}: {calls} calls, {} requests, total {:.3} ms, self {:.3} ms",
                    requests.len(),
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}
