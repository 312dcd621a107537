//! The benchmark's own in-memory spans, recorded around its calls into
//! each layer during the traced run and written out when the run ends.
//!
//! A span has a name, start, end, parent span and request id; spans of one
//! request share the id. A layer's self time is its span minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    parent: Option<u32>,
    request: u64,
}

/// One thread's span recorder; disabled tracers record nothing and cost
/// one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end without begin");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let r = f();
        self.end();
        r
    }

    /// Adds a closed child of the innermost open span whose duration was
    /// measured by the program itself (for example a `QueryTrace` stage),
    /// placed at `offset` after its parent's start.
    pub fn child(&mut self, name: &'static str, request: u64, offset: Duration, len: Duration) {
        if !self.on {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let start_ns = self.spans[parent as usize].start_ns + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + len.as_nanos() as u64,
            parent: Some(parent),
            request,
        });
    }
}

/// Spans of every thread of a run.
#[derive(Default)]
pub struct SpanLog {
    threads: Vec<Vec<Span>>,
}

/// Per span name: how many spans, and the median of their total and self
/// time in microseconds.
pub struct SpanSummary {
    pub count: usize,
    pub total_us_p50: f64,
    pub self_us_p50: f64,
}

impl SpanLog {
    pub fn add(&mut self, tracer: Tracer) {
        if tracer.on && !tracer.spans.is_empty() {
            self.threads.push(tracer.spans);
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children of one parent never overlap here,
    /// since each thread records its own calls sequentially).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut total: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut selft: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
                }
            }
            for (i, s) in spans.iter().enumerate() {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                total.entry(s.name).or_default().push(dur as f64 / 1e3);
                selft
                    .entry(s.name)
                    .or_default()
                    .push(dur.saturating_sub(child_ns[i]) as f64 / 1e3);
            }
        }
        total
            .into_iter()
            .map(|(name, t)| {
                let s = &selft[name];
                (
                    name,
                    SpanSummary {
                        count: t.len(),
                        total_us_p50: crate::util::median(&t),
                        self_us_p50: crate::util::median(s),
                    },
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line:
    /// `{"thread":0,"id":3,"parent":1,"request":17,"name":"http.request","start_ns":..,"end_ns":..}`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (t, spans) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"thread\":{t},\"id\":{i},\"parent\":{parent},\"request\":{},\
                     \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("outer", 1);
        t.child("inner", 1, Duration::ZERO, Duration::from_micros(0));
        std::thread::sleep(Duration::from_millis(2));
        t.end();
        // A child of known length inside a parent of known length.
        t.spans[0].end_ns = t.spans[0].start_ns + 10_000;
        t.spans[1].end_ns = t.spans[1].start_ns + 4_000;
        let mut log = SpanLog::default();
        log.add(t);
        let s = log.summary();
        assert_eq!(s["outer"].total_us_p50, 10.0);
        assert_eq!(s["outer"].self_us_p50, 6.0);
        assert_eq!(s["inner"].self_us_p50, 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.time("x", 0, || ());
        assert!(t.spans.is_empty());
    }
}
