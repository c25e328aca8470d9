//! Spans: name, start, end, the span that caused it, and an identifier
//! shared by the spans of one operation (a repetition, or a job id).

use std::time::Instant;

use emc_types::JsonValue;

pub struct Span {
    pub name: &'static str,
    pub id: String,
    pub parent: Option<usize>,
    /// Seconds since the recorder was made.
    pub start_s: f64,
    pub end_s: f64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a span given in seconds since [`epoch`](Self::epoch);
    /// returns its index, for children to name as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        id: &str,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            start_s,
            end_s,
        });
        self.spans.len() - 1
    }

    /// A span's duration minus the part its children cover. Children of
    /// one span do not overlap here: each is a sequential call.
    pub fn self_time_s(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_s - c.start_s)
            .sum();
        (span.end_s - span.start_s - covered).max(0.0)
    }

    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                JsonValue::obj(vec![
                    ("span", i.into()),
                    ("name", s.name.into()),
                    ("id", s.id.as_str().into()),
                    ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                    ("start_us", (s.start_s * 1e6).into()),
                    ("end_us", (s.end_s * 1e6).into()),
                    ("self_us", (self.self_time_s(i) * 1e6).into()),
                ])
            })
            .collect();
        JsonValue::Arr(rows)
    }
}
