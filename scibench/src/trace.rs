//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions (the program itself carries no spans).
//! They stay in memory until the run ends and are then written out as
//! JSON lines. A layer's self time is its spans' durations minus the part
//! of each interval that its child spans cover.

use sciduction::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `smt.check`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request (or task) this span belongs to.
    pub request: u64,
}

impl Span {
    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A thread-safe span sink. Disabled tracers record nothing, so the
/// untraced phases run the same code with no span bookkeeping.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// The span's name; may be refined before [`Tracer::end`] (a cache
    /// lookup is only known to be a hit once it returns).
    pub name: &'static str,
    start: u64,
    parent: Option<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer recording when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (the index [`Tracer::end`] returned
    /// for the parent span, which must be closed after its children —
    /// see [`Tracer::reserve`]).
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<usize>) -> Open {
        Open {
            name,
            start: self.now(),
            parent,
            request,
        }
    }

    /// Reserves the slot of a parent span before its children run, so
    /// they can name it; [`Tracer::finish`] fills it in.
    pub fn reserve(&self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.now();
        let mut spans = self.spans.lock().unwrap();
        spans.push(Span {
            name,
            start,
            end: start,
            parent: None,
            request,
        });
        spans.len() - 1
    }

    /// Closes a reserved parent span.
    pub fn finish(&self, slot: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans.lock().unwrap()[slot].end = end;
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = self.now();
        if self.enabled {
            self.spans.lock().unwrap().push(Span {
                name: open.name,
                start: open.start,
                end,
                parent: open.parent,
                request: open.request,
            });
        }
        (end - open.start) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its value and duration (s).
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, request, parent);
        let out = f();
        (out, self.end(open))
    }

    /// A snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().unwrap().iter() {
            let v = json::obj(vec![
                ("name", Value::Str(s.name.into())),
                ("start_ns", Value::Int(s.start as i64)),
                ("end_ns", Value::Int(s.end as i64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("request", Value::Int(s.request as i64)),
            ]);
            writeln!(out, "{v}")?;
        }
        out.flush()
    }
}

/// Total self time per layer, in seconds: each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                children[p].push((s.start, s.end));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = s.end.saturating_sub(s.start).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("apps.task", 0, 100, None),
            span("gametime.analyze", 10, 50, Some(0)),
            // Overlaps the first child: counted once.
            span("journal.gametime.serialize", 40, 60, Some(0)),
            span("cfg.basis", 20, 30, Some(1)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["apps"], 50e-9); // 100 - (10..60)
        assert_eq!(t["gametime"], 30e-9); // 40 - 10
        assert_eq!(t["journal"], 20e-9);
        assert_eq!(t["cfg"], 10e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let ((), secs) = t.span("smt.check", 1, None, || {});
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let slot = on.reserve("bench.replay", 4);
        on.span("server.parse", 4, Some(slot), || {});
        on.finish(slot);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
