//! In-memory spans around calls into the library's public functions.
//!
//! A span records its name, start, end, parent span and op id. Spans
//! stay in a preallocated vector while the run goes and are written out
//! once it ends. A layer's self time is its span's duration minus the
//! durations of its child spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// The span recorder of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Count and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time per call, in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Tracer {
    /// An empty recorder with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without enter") as usize;
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    /// Per-name call counts and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.self_ns += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// Durations of every span named `name`, in microseconds, with the
    /// op id it served.
    pub fn durations_us(&self, name: &str) -> Vec<(u32, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    }

    /// Writes every span as a tab-separated row: index, name, start and
    /// end in ns from the recorder's epoch, parent index (-1 for roots)
    /// and op id.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
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
        let mut t = Tracer::new(8);
        t.enter("root", 0);
        t.span("leaf", 0, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.exit();
        let layers = t.layers();
        let (root, leaf) = (layers["root"], layers["leaf"]);
        assert_eq!((root.calls, leaf.calls), (1, 1));
        assert!(leaf.self_ns >= 5_000_000);
        assert!(root.self_ns < leaf.self_ns, "{root:?} vs {leaf:?}");
    }
}
