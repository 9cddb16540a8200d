//! The benchmark's own spans: name, start, end, parent and job id around
//! each call into a layer, kept in memory and written as a Chrome trace
//! when the run ends.
//!
//! Timing is always taken (the untraced run needs its job and launch
//! walls too); the records are kept only when the recorder is enabled.

use std::collections::BTreeMap;
use std::time::Instant;

use acc_obs::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    /// Recording thread (one recorder per thread).
    pub tid: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (see [`Spans::open`]).
#[must_use]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Spans {
    enabled: bool,
    tid: u64,
    origin: Instant,
    records: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(enabled: bool, tid: u64, origin: Instant) -> Spans {
        Spans {
            enabled,
            tid,
            origin,
            records: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn records(&self) -> &[Span] {
        &self.records
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Start a span; spans opened before [`Spans::close`] become its
    /// children.
    pub fn open(&mut self, name: &'static str, job: u64) -> Open {
        // Grow the record list before a top-level span starts, never
        // inside one: a reallocation copies every record so far, and
        // inside a job it would count as time no layer spent.
        if self.enabled
            && self.stack.is_empty()
            && self.records.capacity() - self.records.len() < 64
        {
            self.records.reserve(self.records.len().max(64));
        }
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let span = Span {
                name,
                job,
                tid: self.tid,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            };
            self.records.push(span);
            self.stack.push(self.records.len() - 1);
            self.records.len() - 1
        });
        Open { idx, start }
    }

    /// End a span; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
            self.records[idx].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name, job);
        let out = f();
        let dur = self.close(open);
        (out, dur)
    }

    /// Move another recorder's spans (from another thread) into this one.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.records.len();
        self.records.extend(other.records.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: its duration minus the part of that interval
    /// its children cover (children of one span run one after another on
    /// the recording thread, so their durations add up).
    pub fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.records.iter().map(Span::dur_s).collect();
        for s in &self.records {
            if let Some(p) = s.parent {
                self_s[p] -= s.dur_s();
            }
        }
        self_s
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, self_s) in self.records.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += self_s;
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn chrome_trace(&self) -> String {
        let events = self
            .records
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("cat", Value::str("perfbench")),
                    ("ph", Value::str("X")),
                    ("ts", Value::num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::num(1.0)),
                    ("tid", Value::num(s.tid as f64)),
                    ("args", Value::obj([("job", Value::num(s.job as f64))])),
                ])
            })
            .collect();
        Value::obj([("traceEvents", Value::Arr(events))]).to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(true, 0, origin);
        let root = a.open("job", 1);
        let ((), _) = a.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let wall = a.close(root);
        let selfs = a.self_times();
        assert_eq!(a.records()[1].parent, Some(0));
        assert!(selfs[0] >= 0.0 && selfs[0] < wall);
        assert!((selfs[0] + selfs[1] - a.records()[0].dur_s()).abs() < 1e-12);

        let mut b = Spans::new(true, 1, origin);
        let r = b.open("job", 2);
        let _ = b.time("child", 2, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.records()[3].parent, Some(2));
        assert_eq!(a.self_time_by_name().len(), 2);
        let parsed = acc_obs::json::parse(&a.chrome_trace()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(|e| e.len()),
            Some(4)
        );
    }

    #[test]
    fn records_grow_only_between_top_level_spans() {
        let mut s = Spans::new(true, 0, Instant::now());
        for job in 0..1_000 {
            let root = s.open("job", job);
            let cap = s.records.capacity();
            for _ in 0..8 {
                s.time("child", job, || ());
            }
            assert_eq!(s.records.capacity(), cap, "grew inside job {job}");
            s.close(root);
        }
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false, 0, Instant::now());
        let (v, dur) = s.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(dur >= 0.0);
        assert!(s.records().is_empty());
    }
}
