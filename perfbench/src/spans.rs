//! Host-time spans for the traced run: one span (name, start, end,
//! parent) around each call the benchmark makes into a layer. Spans are
//! kept in memory and written out when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    rep: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    rep: usize,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            rep: 0,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Starts attributing spans to repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                rep: self.rep,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Per span name, over the current repetition: (calls, total seconds,
    /// self seconds). Self time is a span's duration minus the part its
    /// child spans cover.
    pub fn current(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let rep = self.rep;
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Every span as a JSON array of
    /// `{"id","name","rep","start_ns","end_ns","parent"}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut s = String::from("[\n");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                sp.name, sp.rep, sp.start_ns, sp.end_ns
            );
            s.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        s.push(']');
        s
    }
}

/// Runs `f` inside a span when tracing, and bare otherwise.
pub fn traced<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let s = Spans::new();
        s.span("outer", || {
            s.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let sum = s.current();
        let (calls, total, own) = sum["outer"];
        assert_eq!(calls, 1);
        assert!(own < total);
        assert!((total - own - sum["inner"].1).abs() < 1e-9);
        assert!(s.to_json().contains("\"parent\":0"));
    }
}
