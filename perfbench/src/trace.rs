//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls the benchmark makes into each layer's
//! public functions — the program itself carries no instrumentation.
//! Each span has a name, start and end (ns since the recorder was made),
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory until [`Tracer::write_jsonl`] runs at exit.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Layer metric the span times (e.g. `"core.write_durable"`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Request (or sample) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that ran from `start_ns` to `end_ns`; returns its id
    /// so children can name it as their parent.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        request: u64,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// Opens a span now; close it with [`Tracer::end`]. Returns its id so
    /// children recorded before it closes can name it as their parent.
    pub fn begin(&self, name: &'static str, parent: u64, request: u64) -> u64 {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: u64) {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        if let Some(s) = spans.get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_filter() {
        let t = Tracer::new();
        let root = t.record("restart", 0, 100, 0, 7);
        let child = t.record("server.start", 0, 40, root, 7);
        assert_eq!((root, child), (1, 2));
        let v = t.time("server.hello_wait", root, 7, || 5);
        assert_eq!(v, 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.durations("server.start"), vec![40]);
        let open = t.begin("probe", 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(open);
        assert!(t.durations("probe")[0] >= 2_000_000);
        assert_eq!(t.durations("missing"), Vec::<u64>::new());
    }
}
