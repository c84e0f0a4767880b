//! Optional execution tracing: records every process step as a
//! *duration* (begin/end) event plus explicitly-opened spans, and exports
//! the timeline in the Chrome trace-event JSON format (`chrome://tracing`
//! / [Perfetto](https://ui.perfetto.dev)), which makes kernel schedules,
//! proxy activity, and link contention visually inspectable.
//!
//! Labels are interned once (at process spawn or first span use) and
//! events store a small index, so recording does not allocate per step.

use crate::json::{self, Event};
use crate::time::Time;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A process step began executing (Chrome `B`).
    StepBegin,
    /// The step's busy window ended (Chrome `E`). For `Step::Yield(d)` the
    /// end is `d` after the begin; for waits and completion it is
    /// instantaneous.
    StepEnd,
    /// An explicitly-opened span began (Chrome async `b`).
    SpanBegin,
    /// An explicitly-opened span ended (Chrome async `e`).
    SpanEnd,
    /// A point-in-time marker (Chrome `i`).
    Instant,
    /// A named counter sample (Chrome `C`): renders as a step-function
    /// counter track in Perfetto (FIFO depths, queue occupancies, ...).
    Counter(u64),
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual instant of the event.
    pub at: Time,
    /// Stable index of the process.
    pub proc_index: usize,
    /// Interned label index; resolve with [`Trace::label`].
    pub label: u32,
    /// Event kind.
    pub kind: TraceEventKind,
}

/// A recorded execution timeline.
///
/// Obtained from [`crate::Engine::take_trace`]; the label table is
/// attached at take time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    pub(crate) labels: Vec<String>,
}

impl Trace {
    pub(crate) fn push(&mut self, at: Time, proc_index: usize, label: u32, kind: TraceEventKind) {
        self.events.push(TraceEvent {
            at,
            proc_index,
            label,
            kind,
        });
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Resolves an interned label index.
    pub fn label(&self, id: u32) -> &str {
        &self.labels[id as usize]
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-process count of `StepBegin`/`SpanBegin` events missing a
    /// matching end, *plus* ends missing a begin — zero for a trace of a
    /// run that reached quiescence or was torn down by
    /// [`crate::Engine::abort`]. Stray ends count too (they used to be
    /// silently clamped away), so a teardown that double-closes a span,
    /// or a trace segment that starts mid-span, is visible.
    pub fn unmatched_begins(&self) -> usize {
        let mut open: std::collections::BTreeMap<(usize, bool), i64> = Default::default();
        for e in &self.events {
            let key = (
                e.proc_index,
                matches!(e.kind, TraceEventKind::SpanBegin | TraceEventKind::SpanEnd),
            );
            match e.kind {
                TraceEventKind::StepBegin | TraceEventKind::SpanBegin => {
                    *open.entry(key).or_insert(0) += 1;
                }
                TraceEventKind::StepEnd | TraceEventKind::SpanEnd => {
                    *open.entry(key).or_insert(0) -= 1;
                }
                TraceEventKind::Instant | TraceEventKind::Counter(_) => {}
            }
        }
        open.values().map(|&v| v.unsigned_abs() as usize).sum()
    }

    /// Serializes the timeline as Chrome trace-event JSON: one track per
    /// process, duration (`B`/`E`) events for steps, async (`b`/`e`)
    /// events for explicit spans. Process/thread name metadata events
    /// label every track with its process label (rank/proxy names, not
    /// bare ids). Load the output in <https://ui.perfetto.dev> or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with_counters(&[])
    }

    /// Serializes the timeline like [`Trace::to_chrome_json`], but also
    /// renders [`TraceEventKind::Counter`] samples as Perfetto counter
    /// tracks and overlays `highlight` as a dedicated *critical-path*
    /// track (`pid` 1): one duration slice per segment, chained across
    /// the contributing process tracks with flow (`s`/`t`/`f`) arrows so
    /// the path is visually traceable through the timeline.
    pub fn to_chrome_json_with_counters(&self, highlight: &[HighlightSegment]) -> String {
        json::render(|w| {
            w.begin_arr();
            // Name the tracks: pid 0 is "engine", and each process's track
            // carries the label it registered at spawn (first step wins).
            let mut names: std::collections::BTreeMap<usize, u32> = Default::default();
            for e in &self.events {
                if matches!(e.kind, TraceEventKind::StepBegin | TraceEventKind::StepEnd) {
                    names.entry(e.proc_index).or_insert(e.label);
                }
            }
            if !self.events.is_empty() {
                w.chrome_track_name(0, None, "engine");
            }
            for (tid, label) in names {
                w.chrome_track_name(0, Some(tid as u64), self.label(label));
            }
            for e in &self.events {
                let tid = e.proc_index as u64;
                let (ph, span) = match e.kind {
                    TraceEventKind::StepBegin => ("B", false),
                    TraceEventKind::StepEnd => ("E", false),
                    TraceEventKind::SpanBegin => ("b", true),
                    TraceEventKind::SpanEnd => ("e", true),
                    TraceEventKind::Instant => ("i", false),
                    TraceEventKind::Counter(_) => ("C", false),
                };
                w.chrome_event(&Event {
                    name: self.label(e.label),
                    cat: span.then_some("span"),
                    id: span.then_some(tid),
                    ph,
                    ts_us: e.at.as_us(),
                    tid: (ph != "C").then_some(tid),
                    ..Event::default()
                });
                match e.kind {
                    TraceEventKind::Instant => w.field("s", "t"),
                    TraceEventKind::Counter(v) => {
                        w.key("args").begin_obj().field("value", v).end_obj()
                    }
                    _ => w,
                }
                .end_obj();
            }
            if !highlight.is_empty() {
                w.chrome_track_name(1, None, "critical-path");
            }
            for (i, seg) in highlight.iter().enumerate() {
                for (ph, at) in [("B", seg.from), ("E", seg.to)] {
                    w.chrome_event(&Event {
                        name: &seg.name,
                        cat: Some("critical-path"),
                        ph,
                        ts_us: at.as_us(),
                        pid: 1,
                        tid: Some(0),
                        ..Event::default()
                    })
                    .end_obj();
                }
                // Flow arrows stitch the path across the process tracks it
                // runs through.
                let ph = match i {
                    0 => "s",
                    _ if i + 1 == highlight.len() => "f",
                    _ => "t",
                };
                w.chrome_event(&Event {
                    name: "critical-path",
                    cat: Some("flow"),
                    id: Some(1),
                    ph,
                    bp: (ph == "f").then_some("e"),
                    ts_us: seg.from.as_us(),
                    tid: Some(seg.proc_index as u64),
                    ..Event::default()
                })
                .end_obj();
            }
            w.end_arr();
        })
    }
}

/// One segment of a critical path, for
/// [`Trace::to_chrome_json_with_counters`]'s highlight track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HighlightSegment {
    /// Slice name (e.g. the blame bucket and the resource or process it
    /// charges).
    pub name: String,
    /// Segment start.
    pub from: Time,
    /// Segment end.
    pub to: Time,
    /// The process whose activity this segment ran through (flow arrows
    /// bind to its track).
    pub proc_index: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Duration, Engine, Process, Step};

    struct Ticker(u32);
    impl Process<()> for Ticker {
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
            if self.0 == 0 {
                return Step::Done;
            }
            self.0 -= 1;
            Step::Yield(Duration::from_us(1.0))
        }
        fn label(&self) -> String {
            "ticker".into()
        }
    }

    #[test]
    fn trace_records_paired_step_spans() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(3));
        e.run().unwrap();
        let trace = e.take_trace().expect("tracing enabled");
        // 3 yields + the final Done step, each a Begin/End pair.
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.unmatched_begins(), 0);
        assert!(trace
            .events()
            .iter()
            .all(|ev| trace.label(ev.label) == "ticker"));
        // Yield steps have a 1us busy window; the Done step is instant.
        let evs = trace.events();
        assert_eq!(evs[0].kind, TraceEventKind::StepBegin);
        assert_eq!(evs[1].kind, TraceEventKind::StepEnd);
        assert_eq!((evs[1].at - evs[0].at).as_us(), 1.0);
        assert_eq!(evs[7].at, evs[6].at);
    }

    #[test]
    fn interning_shares_one_label_across_steps() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(5));
        e.spawn(Ticker(2));
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        let first = trace.events()[0].label;
        assert!(trace.events().iter().all(|ev| ev.label == first));
        assert_eq!(trace.labels.iter().filter(|l| *l == "ticker").count(), 1);
    }

    #[test]
    fn chrome_json_has_duration_events() {
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(1));
        e.run().unwrap();
        let json = e.take_trace().unwrap().to_chrome_json();
        json::parse(&json).unwrap();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"ticker\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn chrome_json_names_tracks_after_process_labels() {
        const ODD: &str = "rank \"0\" C:\\tmp\nnext";
        struct Odd;
        impl Process<()> for Odd {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin(ODD);
                ctx.span_end();
                Step::Done
            }
            fn label(&self) -> String {
                ODD.into()
            }
        }
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Ticker(1));
        e.spawn(Ticker(1));
        e.spawn(Odd);
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        let seg = HighlightSegment {
            name: ODD.into(),
            from: Time::ZERO,
            to: Time::from_ps(1),
            proc_index: 2,
        };
        for json in [
            trace.to_chrome_json(),
            trace.to_chrome_json_with_counters(&[]),
            trace.to_chrome_json_with_counters(std::slice::from_ref(&seg)),
        ] {
            // Labels with a quote, a backslash and a newline survive
            // exactly, as the track name and as the span name.
            let doc = json::parse(&json).unwrap();
            let events = doc.as_array().unwrap();
            let names = |ph: &str| {
                events
                    .iter()
                    .filter(|ev| ev.get("ph").and_then(json::Value::as_str) == Some(ph))
                    .map(|ev| {
                        let args = ev.get("args").unwrap_or(ev);
                        args.get("name").and_then(json::Value::as_str).unwrap()
                    })
                    .collect::<Vec<_>>()
            };
            assert!(names("M").contains(&ODD), "{json}");
            assert!(names("b").contains(&ODD), "{json}");
            assert!(
                json.contains("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0"),
                "{json}"
            );
            assert!(
                json.contains(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"ticker\"}"
                ),
                "{json}"
            );
            assert!(
                json.contains("\"tid\":1,\"args\":{\"name\":\"ticker\"}"),
                "{json}"
            );
        }
        // And as the critical-path slice name.
        let path = json::parse(&trace.to_chrome_json_with_counters(&[seg])).unwrap();
        let slice = path
            .as_array()
            .unwrap()
            .iter()
            .find(|ev| ev.get("cat").and_then(json::Value::as_str) == Some("critical-path"));
        assert_eq!(slice.unwrap().get("name").unwrap().as_str(), Some(ODD));
        // An empty trace emits no orphan metadata (still valid JSON).
        assert_eq!(Trace::default().to_chrome_json(), "[]");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mut e = Engine::new(());
        e.spawn(Ticker(1));
        e.run().unwrap();
        assert!(e.take_trace().is_none());
    }

    #[test]
    fn explicit_spans_round_trip_through_json() {
        struct Spanner;
        impl Process<()> for Spanner {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin("phase.copy");
                ctx.span_end();
                Step::Done
            }
            fn label(&self) -> String {
                "spanner".into()
            }
        }
        let mut e = Engine::new(());
        e.enable_tracing();
        e.spawn(Spanner);
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        assert_eq!(trace.unmatched_begins(), 0);
        let json = trace.to_chrome_json();
        json::parse(&json).unwrap();
        assert!(json.contains("\"name\":\"phase.copy\",\"cat\":\"span\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
    }
}
