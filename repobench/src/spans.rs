//! The traced run's spans: kept in memory, written out when the run ends.
//!
//! A span records its name, start and end (ns since the run's epoch), its
//! parent span, and the `(client, seq)` of the op it belongs to — every
//! span of one op shares that identifier. Structural spans (setup, window,
//! replay phases) carry `(0, 0)`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Span name, `layer.step`.
    pub name: &'static str,
    /// The op's client id (0 for structural spans).
    pub client: u64,
    /// The op's sequence number (0 for structural spans).
    pub seq: u64,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        (client, seq): (u64, u64),
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            client,
            seq,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a structural span between two instants.
    pub fn push_between(&mut self, name: &'static str, parent: u64, a: Instant, b: Instant) -> u64 {
        let (s, e) = (self.ns(a), self.ns(b));
        self.push(name, parent, (0, 0), s, e)
    }

    /// Moves the end of span `id` (for a parent whose children were
    /// recorded after it).
    pub fn set_end(&mut self, id: u64, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end_ns;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"client\": {}, \"seq\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.client, s.seq, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        std::fs::write(path, out)
    }
}
