//! In-memory span recording for the traced run, written out at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a named interval on the host clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (`iter`, `gen`, `op`, `check`, `snapshot`, `replay`, ...).
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// One counter delta attached to the span (its meaning is named by
    /// `counter`), e.g. cache lines the op touched.
    pub counter: Option<(&'static str, u64)>,
}

/// A bounded span buffer: spans beyond the capacity are counted, not kept.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    /// ns from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span; returns its index (for children) if it was kept.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
            counter: None,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Attaches a counter to a kept span.
    pub fn annotate(&mut self, index: Option<usize>, name: &'static str, value: u64) {
        if let Some(i) = index {
            self.spans[i].counter = Some((name, value));
        }
    }

    /// Spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// No spans kept?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as one JSON object to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(
            s,
            "{{{header},\"clock\":\"host_ns\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start\":{},\"end\":{}",
                sp.name,
                sp.op,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start_ns,
                sp.end_ns
            );
            if let Some((k, v)) = sp.counter {
                let _ = write!(s, ",\"{k}\":{v}");
            }
            s.push('}');
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}
