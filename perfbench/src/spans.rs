//! In-memory span log for traced runs.
//!
//! A span is `(id, name, parent, start, end)` plus an optional key (the
//! request id of a client request). Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends, so writing
//! never perturbs the timed work.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub start: Instant,
    pub end: Instant,
    pub key: Option<u64>,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Allocates an id, so a parent can be named before it closes.
    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records a closed span under a fresh id and returns the id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.push(Span {
            id,
            name,
            parent,
            start,
            end,
            key: None,
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line, times in seconds since the
    /// log's epoch.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let key = s.key.map_or("null".to_owned(), |k| k.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"key\":{key},\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.id,
                s.name,
                s.start.duration_since(self.epoch).as_secs_f64(),
                s.end.duration_since(self.epoch).as_secs_f64(),
            )?;
        }
        out.flush()
    }
}
