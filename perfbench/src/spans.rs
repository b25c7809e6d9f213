//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into the system: no live telemetry is attached to the engines.

use crate::json::json_str;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The interned name (see [`Spans::intern`]).
    pub name: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The image or candidate the span worked on.
    pub id: u64,
    /// On-CPU nanoseconds of the calling thread over the span, where it
    /// was read.
    pub cpu_ns: Option<u64>,
}

/// A span recorder.
pub struct Spans {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The interned id of a span name.
    pub fn intern(&mut self, name: &str) -> u32 {
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        u32::try_from(idx).expect("fewer than 2^32 span names")
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: u32, id: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            cpu_ns: None,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Close an open span now, with the thread CPU time it used if known.
    pub fn close(&mut self, span: u32, cpu_ns: Option<u64>) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span as usize];
        s.end_ns = end_ns;
        s.cpu_ns = cpu_ns;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines: one object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"id\":{}",
                json_str(&self.names[s.name as usize]),
                s.start_ns,
                s.end_ns,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(c) = s.cpu_ns {
                let _ = write!(out, ",\"cpu_ns\":{c}");
            }
            out.push_str("}\n");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_write_as_json_lines() {
        let mut spans = Spans::new();
        let img = spans.intern("model.image");
        let stage = spans.intern("conv1");
        assert_eq!(spans.intern("model.image"), img);
        let parent = spans.open(img, 7, None);
        let child = spans.open(stage, 7, Some(parent));
        std::thread::sleep(std::time::Duration::from_millis(1));
        spans.close(child, Some(5));
        spans.close(parent, None);
        let p = &spans.spans()[parent as usize];
        let c = &spans.spans()[child as usize];
        assert!(p.start_ns <= c.start_ns && c.end_ns <= p.end_ns);
        assert!(c.end_ns - c.start_ns >= 1_000_000);

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}.jsonl", std::process::id()));
        spans.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"model.image\","));
        assert!(lines[1].contains("\"parent\":0") && lines[1].ends_with("\"cpu_ns\":5}"));
    }
}
