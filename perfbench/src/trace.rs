//! The benchmark's own span recorder.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! program's public functions; the program itself is not instrumented
//! further. Every span keeps its name, start, end and parent. Spans stay
//! in memory and are written once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count toward the
/// per-layer times but are not written out.
const KEPT_SPANS: usize = 100_000;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Total and self time of every span name, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    open: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    times: BTreeMap<&'static str, Times>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            times: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.alloc();
        let start_ns = self.now_ns();
        self.open.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("span stack balanced");
        self.close(open.id, name, start_ns, end_ns, open.child_ns);
        out
    }

    /// Runs `f`, turning a panic into an error and closing every span
    /// the panic left open.
    pub fn caught<R>(&mut self, what: &str, f: impl FnOnce(&mut Tracer) -> R) -> Result<R, String> {
        let depth = self.open.len();
        let out = crate::catch(what, || f(self));
        while self.open.len() > depth {
            let open = self.open.pop().expect("checked non-empty");
            let end_ns = self.now_ns();
            self.close(open.id, open.name, open.start_ns, end_ns, open.child_ns);
        }
        out
    }

    /// Records an already finished span under the open span, for a stage
    /// whose duration the program reports after the fact.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.alloc();
        self.close(id, name, start_ns, end_ns.max(start_ns), 0);
    }

    /// Per-name times accumulated since the last call, then reset.
    pub fn take_times(&mut self) -> BTreeMap<&'static str, Times> {
        std::mem::take(&mut self.times)
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans\":{},\"dropped\":{}}}",
            self.kept.len(),
            self.dropped
        )?;
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn alloc(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn close(&mut self, id: u32, name: &'static str, start_ns: u64, end_ns: u64, child_ns: u64) {
        let dur = end_ns - start_ns;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let t = self.times.entry(name).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            let now = t.now_ns();
            t.record("child", now, now + 1_000);
        });
        let times = t.take_times();
        let outer = times["outer"];
        assert_eq!(times["child"].total_ns, 1_000);
        assert_eq!(outer.self_ns, outer.total_ns.saturating_sub(1_000));
        assert_eq!(t.kept[0].parent, t.kept.get(1).map(|s| s.id));
        assert!(t.take_times().is_empty());
    }
}
