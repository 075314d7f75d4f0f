//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The program under test is not instrumented: a span opens just before
//! the benchmark calls a layer's public function and closes when it
//! returns. Each job records into its own [`JobTrace`] (no locks, no
//! thread-locals); the run merges them, aggregates self time per span
//! name, and writes the lot as a Chrome `trace_event` file at the end.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use showdown::swp_obs::JsonWriter;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Loop or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span within the same [`JobTrace`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration reported by the layer itself (`alloc_ns`) rather than
    /// timed around a call; placed at the end of its parent.
    pub reported: bool,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one job, in open order.
#[derive(Debug)]
pub struct JobTrace {
    epoch: Instant,
    id: u64,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl JobTrace {
    pub fn new(epoch: Instant, id: u64) -> JobTrace {
        JobTrace {
            epoch,
            id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` under a span named `name`, nested in the open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut JobTrace) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(SpanRec {
            name,
            id: self.id,
            parent: self.stack.last().copied(),
            start_ns: start,
            end_ns: start,
            reported: false,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Record a child of the most recently closed span `name` whose
    /// duration the layer reported itself (clamped to the parent).
    pub fn reported_child(&mut self, parent_name: &'static str, name: &'static str, ns: u64) {
        let Some(pidx) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let parent = &self.spans[pidx];
        let end = parent.end_ns;
        let start = end.saturating_sub(ns).max(parent.start_ns);
        self.spans.push(SpanRec {
            name,
            id: self.id,
            parent: Some(pidx),
            start_ns: start,
            end_ns: end,
            reported: true,
        });
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// All spans of a run, per job.
#[derive(Debug, Default)]
pub struct Trace {
    jobs: Vec<Vec<SpanRec>>,
}

impl Trace {
    pub fn add(&mut self, job: JobTrace) {
        self.jobs.push(job.into_spans());
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for spans in &self.jobs {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] = child_ns[p].saturating_add(s.dur_ns());
                }
            }
            for (i, s) in spans.iter().enumerate() {
                *out.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Self time of `name` in milliseconds (0 when it never ran).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns().get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn span_count(&self) -> usize {
        self.jobs.iter().map(Vec::len).sum()
    }

    /// Write every span as a Chrome `trace_event` document (one track per
    /// job; `args` carry the loop/request id and the parent index).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents").begin_array();
        for (tid, spans) in self.jobs.iter().enumerate() {
            for s in spans {
                w.begin_object();
                w.key("name").string(s.name);
                w.key("ph").string("X");
                w.key("pid").uint(1);
                w.key("tid").uint(tid as u64);
                w.key("ts").float(s.start_ns as f64 / 1e3);
                w.key("dur").float(s.dur_ns() as f64 / 1e3);
                w.key("args").begin_object();
                w.key("id").uint(s.id);
                match s.parent {
                    Some(p) => w.key("parent").uint(p as u64),
                    None => w.key("parent").int(-1),
                };
                w.key("reported").bool(s.reported);
                w.end_object();
                w.end_object();
            }
        }
        w.end_array();
        w.end_object();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let epoch = Instant::now();
        let mut job = JobTrace::new(epoch, 7);
        job.time("outer", |j| {
            j.time("inner", |j| {
                j.time("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let mut trace = Trace::default();
        trace.add(job);
        let selfs = trace.self_ns();
        let spans = &trace.jobs[0];
        let (outer, inner, leaf) = (&spans[0], &spans[1], &spans[2]);
        assert_eq!(inner.parent, Some(0));
        assert_eq!(leaf.parent, Some(1));
        assert_eq!(selfs["outer"], outer.dur_ns() - inner.dur_ns());
        assert_eq!(selfs["inner"], inner.dur_ns() - leaf.dur_ns());
        assert_eq!(selfs["leaf"], leaf.dur_ns());
        assert!(leaf.dur_ns() >= 2_000_000);
    }

    #[test]
    fn reported_child_is_clamped_into_its_parent() {
        let mut job = JobTrace::new(Instant::now(), 1);
        job.time("sched", |_| {});
        job.reported_child("sched", "regalloc", u64::MAX);
        let spans = job.into_spans();
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert_eq!(spans[1].end_ns, spans[0].end_ns);
        assert!(spans[1].reported);
    }
}
