//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, its parent span and the campaign it
//! belongs to. Spans are recorded only from the benchmark's own code, around
//! its calls into the program's public API (or, for served rows, around the
//! frames the tap observed), and written out once when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub campaign: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    campaign: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            campaign: 0,
        }
    }

    /// Starts a new campaign id; spans opened from now on carry it.
    pub fn next_campaign(&mut self) -> u64 {
        self.campaign += 1;
        self.campaign
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval under `parent` (or the innermost open
    /// span) and returns its id.
    pub fn record(&mut self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let span = Span {
            id,
            parent: parent.or(self.open.last().copied()),
            campaign: self.campaign,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.push(span);
        id
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) -> u64 {
        let now = Instant::now();
        let id = self.record(name, None, now, now);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span's duration in milliseconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        (out, start.elapsed().as_secs_f64() * 1e3)
    }

    /// [`Tracer::timed`] without the duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, f).0
    }

    /// Self time of every span in milliseconds: its duration minus the part
    /// of it that the union of its children covers.
    pub fn self_times(&self) -> Vec<(&str, f64)> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut cursor = s.start_ns;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(cursor), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            cursor = b;
                        }
                    }
                }
                (
                    s.name.as_str(),
                    (s.duration_ns() - covered.min(s.duration_ns())) as f64 / 1e6,
                )
            })
            .collect()
    }

    /// All spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"campaign\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
                s.id,
                parent,
                s.campaign,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out.push('\n');
        out
    }
}
