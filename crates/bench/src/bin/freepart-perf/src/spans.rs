//! Bench-side spans: one span around every public runtime entry point a
//! workload calls, nested under its session and set-up spans. Spans
//! stay in memory and are written as JSON when the run ends; self time
//! (a span's duration minus the part its children cover) is summed per
//! span name as the spans close.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the JSON dump; later spans still count towards self
/// time but are dropped from the file, so a long run stays bounded.
const MAX_KEPT: usize = 50_000;

/// The request a span served: which session, which tenant (0 for the
/// single-client workloads) and which hooked call of the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Req {
    pub session: u32,
    pub tenant: u32,
    pub call: u32,
}

struct Open {
    id: u32,
    name: &'static str,
    req: Req,
    start: u64,
    child_ns: u64,
}

struct Record {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    req: Req,
    start: u64,
    end: u64,
}

/// The in-memory span recorder. While off, every method but
/// [`Spans::now`] returns at once.
pub struct Spans {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    kept: Vec<Record>,
    dropped: u64,
    next_id: u32,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            next_id: 0,
            self_ns: BTreeMap::new(),
        }
    }

    /// Turns recording on or off; only between sessions, with no span
    /// open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "span left open across sessions");
        self.on = on;
    }

    /// Wall nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until [`Spans::close`].
    pub fn open(&mut self, name: &'static str, req: Req) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.stack.push(Open {
            id,
            name,
            req,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let open = self.stack.pop().expect("close matches an open span");
        self.finish(open.id, open.name, open.req, open.start, end, open.child_ns);
    }

    /// Records a span the caller timed itself (`start`/`end` from
    /// [`Spans::now`]) as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, req: Req, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.finish(id, name, req, start, end, 0);
    }

    fn finish(&mut self, id: u32, name: &'static str, req: Req, start: u64, end: u64, child: u64) {
        let dur = end.saturating_sub(start);
        *self.self_ns.entry(name).or_default() += dur.saturating_sub(child);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Record {
                id,
                parent,
                name,
                req,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Self time per span name, in wall nanoseconds.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    /// Writes the kept spans as one JSON object.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, r) in self.kept.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"session\":{},\"tenant\":{},\"call\":{}}}",
                if i == 0 { "" } else { "," },
                r.id,
                r.name,
                r.start,
                r.end,
                r.req.session,
                r.req.tenant,
                r.req.call
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.set_on(true);
        s.open("session", Req::default());
        let t0 = s.now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t1 = s.now();
        s.leaf("call", Req::default(), t0, t1);
        s.close();
        let session = s.self_ns()["session"];
        let call = s.self_ns()["call"];
        assert_eq!(call, t1 - t0);
        assert_eq!(s.kept.len(), 2);
        assert_eq!(s.kept[0].parent, Some(s.kept[1].id));
        assert_eq!(session + call, s.kept[1].end - s.kept[1].start);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new();
        s.open("session", Req::default());
        s.leaf("call", Req::default(), 0, 5);
        s.close();
        assert!(s.self_ns().is_empty() && s.kept.is_empty());
    }
}
