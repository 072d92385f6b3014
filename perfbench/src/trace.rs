//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer: name, start, end, the request they belong to and the span that
//! caused them. They stay in memory while the workload runs and are
//! written out as JSONL when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub parent: Option<usize>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span log; span ids are indices into it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { parent, req, name, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Appends spans recorded elsewhere (another thread's tracer),
    /// re-basing their ids and clock onto this log.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Per-name `(count, total self time in ns)`. A span's self time is
    /// its duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Mean self time (ms) of spans named `name`, 0 when none.
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        match self.self_times().get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("root", 1, None);
        t.time("child", 1, Some(root), || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(root);
        let st = t.self_times();
        let (_, root_self) = st["root"];
        let (_, child_self) = st["child"];
        let root_total = t.spans[root].end_ns - t.spans[root].start_ns;
        assert!(child_self >= 2_000_000);
        assert_eq!(root_self + child_self, root_total);
    }
}
