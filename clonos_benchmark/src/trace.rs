//! In-memory span recorder for the traced run (`--trace 1`): spans carry a
//! name, start and end in microseconds since the tracer was made, and the
//! span that caused them. Nothing is written until the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        let start_us = self.now_us();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us,
            end_us: start_us,
        });
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (end_us - self.spans[id].start_us) / 1e6
    }

    /// Durations in seconds of every closed span of that name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .collect()
    }

    /// The spans as a JSON array, one object per span, `id` = array index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name, s.start_us, s.end_us
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
