//! Request-scoped causal timelines and exact SLO-miss attribution
//! (DESIGN.md §17).
//!
//! Aggregate counters say *that* goodput fell; this module says *why
//! request 417 missed its deadline*. The scheduler threads every
//! request id through admission → queue → chunked prefill → decode →
//! KV spill/restore → recovery, recording typed [`PhaseEvent`]s into a
//! [`RequestTimeline`], each linked (via [`StepLink`]) to the engine
//! step — and thereby the engine spans and collective launches — that
//! served it.
//!
//! # The exact-tiling discipline
//!
//! Attribution reuses `profile::critical_path`'s rule: blame must
//! *tile* the interval, no gaps, no double counting. All charging is
//! done in **integer picoseconds** of serving-clock time: the tracer
//! keeps, per request, the last instant up to which its lifetime has
//! been attributed, and every charge advances that watermark while
//! adding the same delta to one blame bucket. Sums therefore telescope:
//! at the terminal state the buckets add up to the request's
//! end-to-end latency *exactly* — asserted in picoseconds, not within a
//! float tolerance. Un-attributed residue (time between the last
//! explicit charge and the next) defaults to [`Phase::Queue`]: any
//! instant a request is not provably computing, communicating, moving
//! KV, or riding out a recovery, it is waiting.
//!
//! The serving clock is `f64` microseconds; the picosecond view is
//! `round(us × 1e6)`, which is monotone, so charges never run
//! backwards.

use sim::json::{self, Event, Fixed, Value, Writer};

/// Blame buckets a request's lifetime is tiled into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Arrival → admission decision: time spent at the door while the
    /// loop was busy (grows with shed pressure; the whole lifetime of a
    /// shed/rejected request).
    Admission,
    /// Waiting: in the queue, blocked on KV headroom, or stalled behind
    /// another request's step — the default bucket for any
    /// un-attributed instant.
    Queue,
    /// Running a prefill chunk's compute kernels.
    PrefillCompute,
    /// Running a decode step's compute kernels.
    DecodeCompute,
    /// Inside the collective (AllReduce) portion of a step this request
    /// participated in.
    CollectiveComm,
    /// KV spill to host or restore from host on the PCIe link.
    KvSpill,
    /// Riding out a rank-death recovery (detect → shrink → ready).
    Recovery,
}

/// Number of blame buckets (the length of [`Blame::ps`]).
pub const PHASES: usize = 7;

impl Phase {
    /// All buckets, in [`Phase::index`] order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Admission,
        Phase::Queue,
        Phase::PrefillCompute,
        Phase::DecodeCompute,
        Phase::CollectiveComm,
        Phase::KvSpill,
        Phase::Recovery,
    ];

    /// Dense index into [`Blame::ps`].
    pub fn index(self) -> usize {
        match self {
            Phase::Admission => 0,
            Phase::Queue => 1,
            Phase::PrefillCompute => 2,
            Phase::DecodeCompute => 3,
            Phase::CollectiveComm => 4,
            Phase::KvSpill => 5,
            Phase::Recovery => 6,
        }
    }

    /// Stable snake_case name (JSON keys, Perfetto slice names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Queue => "queue",
            Phase::PrefillCompute => "prefill_compute",
            Phase::DecodeCompute => "decode_compute",
            Phase::CollectiveComm => "collective_comm",
            Phase::KvSpill => "kv_spill",
            Phase::Recovery => "recovery",
        }
    }
}

/// Exact latency tiling of one request, in picoseconds per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Blame {
    /// Picoseconds charged per bucket, indexed by [`Phase::index`].
    pub ps: [u64; PHASES],
}

impl Blame {
    /// Picoseconds charged to one bucket.
    pub fn get(&self, p: Phase) -> u64 {
        self.ps[p.index()]
    }

    /// Sum over all buckets — equals the request's end-to-end latency
    /// exactly (see the module docs).
    pub fn total_ps(&self) -> u64 {
        self.ps.iter().sum()
    }

    /// One bucket, in microseconds.
    pub fn us(&self, p: Phase) -> f64 {
        self.get(p) as f64 / 1e6
    }

    /// The bucket with the largest charge (ties break toward the
    /// earlier pipeline stage).
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Admission;
        for p in Phase::ALL {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }
}

/// Linkage from a phase window to the engine step that produced it:
/// which serving step, and the engine virtual-time window its spans and
/// collective launches occupy — the join key into the engine trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLink {
    /// Serving-step ordinal (prefill chunks and decode steps share one
    /// counter).
    pub step: u64,
    /// Engine virtual time when the step was launched, in picoseconds.
    pub engine_from_ps: u64,
    /// Engine virtual time when the step completed, in picoseconds.
    pub engine_to_ps: u64,
}

/// One typed window of a request's lifetime, in serving-clock
/// picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// What the request was doing.
    pub phase: Phase,
    /// Window start (serving clock, ps).
    pub from_ps: u64,
    /// Window end (serving clock, ps).
    pub to_ps: u64,
    /// The engine step serving this window, when there is one
    /// (compute/comm windows); `None` for queue/admission/recovery
    /// waits.
    pub link: Option<StepLink>,
}

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Generated every token.
    Completed,
    /// Dropped by admission or the hopeless-deadline pass.
    Shed,
    /// Hard-rejected at the door.
    Rejected,
    /// Hit the per-request timeout wall.
    TimedOut,
    /// KV pool could never hold it (typically post-shrink).
    Evicted,
}

impl Terminal {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Terminal::Completed => "completed",
            Terminal::Shed => "shed",
            Terminal::Rejected => "rejected",
            Terminal::TimedOut => "timed_out",
            Terminal::Evicted => "evicted",
        }
    }
}

/// The full causal timeline of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Request id (its index in the serving trace).
    pub id: u64,
    /// Arrival instant (serving clock, ps).
    pub arrival_ps: u64,
    /// First generated token instant, when one was produced.
    pub first_token_ps: Option<u64>,
    /// Terminal instant (serving clock, ps).
    pub end_ps: u64,
    /// How the request left the system.
    pub terminal: Terminal,
    /// Typed phase windows, in time order, contiguous from arrival to
    /// end.
    pub events: Vec<PhaseEvent>,
    /// Exact blame tiling; `blame.total_ps() == end_ps - arrival_ps`.
    pub blame: Blame,
}

impl RequestTimeline {
    /// End-to-end latency in picoseconds.
    pub fn e2e_ps(&self) -> u64 {
        self.end_ps - self.arrival_ps
    }

    /// End-to-end latency in microseconds.
    pub fn e2e_us(&self) -> f64 {
        self.e2e_ps() as f64 / 1e6
    }

    /// Whether the tiling invariant holds (it always must; tests and
    /// the tracer's debug assertions check it).
    pub fn tiles_exactly(&self) -> bool {
        let contiguous = self
            .events
            .iter()
            .try_fold(self.arrival_ps, |at, e| {
                (e.from_ps == at && e.to_ps >= e.from_ps).then_some(e.to_ps)
            })
            .is_some_and(|last| last == self.end_ps);
        contiguous && self.blame.total_ps() == self.e2e_ps()
    }

    /// Serializes the timeline as one JSON object (ps values are exact
    /// integers; see `results/README.md` for the schema).
    pub fn to_json(&self) -> String {
        json::render(|w| self.write_json(w))
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_obj().field("id", self.id);
        w.field("arrival_ps", self.arrival_ps);
        w.field("end_ps", self.end_ps);
        w.field("first_token_ps", self.first_token_ps);
        w.field("terminal", self.terminal.name());
        w.key("blame_ps").begin_obj();
        for p in Phase::ALL {
            w.field(p.name(), self.blame.get(p));
        }
        w.end_obj().key("events").begin_arr();
        for e in &self.events {
            w.begin_obj().field("phase", e.phase.name());
            w.field("from_ps", e.from_ps).field("to_ps", e.to_ps);
            if let Some(l) = e.link {
                w.field("step", l.step);
                w.field("engine_from_ps", l.engine_from_ps);
                w.field("engine_to_ps", l.engine_to_ps);
            }
            w.end_obj();
        }
        w.end_arr().end_obj();
    }
}

/// One worst-offender exemplar of a deadline violation, with its full
/// blame breakdown — what [`crate::ServeReport::worst_misses`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMiss {
    /// Request id.
    pub id: u64,
    /// Arrival time, serving-clock µs.
    pub arrival_us: f64,
    /// End-to-end latency, µs.
    pub e2e_us: f64,
    /// Time to first token, µs (`None` if no token was produced).
    pub ttft_us: Option<f64>,
    /// Mean inter-token gap, µs (`None` unless completed with >1
    /// token).
    pub tpot_us: Option<f64>,
    /// TTFT budget blown.
    pub missed_ttft: bool,
    /// TPOT budget blown.
    pub missed_tpot: bool,
    /// How the request ended.
    pub terminal: Terminal,
    /// Exact latency tiling (ps per bucket; sums to `e2e_us × 1e6`).
    pub blame: Blame,
}

impl SloMiss {
    /// Serializes the exemplar as one JSON object. `blame_ps` is an
    /// array in [`Phase::ALL`] order.
    pub fn to_json(&self) -> String {
        json::render(|w| self.write_json(w))
    }

    /// Writes [`SloMiss::to_json`]'s object into `w`.
    pub fn write_json(&self, w: &mut Writer) {
        let us = |v: f64| Fixed(v, 3);
        w.begin_obj().field("id", self.id);
        w.field("arrival_us", us(self.arrival_us));
        w.field("e2e_us", us(self.e2e_us));
        w.field("ttft_us", self.ttft_us.map(us));
        w.field("tpot_us", self.tpot_us.map(us));
        w.field("missed_ttft", self.missed_ttft);
        w.field("missed_tpot", self.missed_tpot);
        w.field("terminal", self.terminal.name());
        w.key("blame_ps").begin_arr();
        for v in &self.blame.ps {
            w.value(v);
        }
        w.end_arr().end_obj();
    }

    /// Parses one object produced by [`SloMiss::to_json`] (exact
    /// round-trip for the integer fields; µs fields round-trip at the
    /// serialized 1e-3 precision).
    pub fn parse(json: &str) -> Option<SloMiss> {
        let v = json::parse(json).ok()?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        let flag = |key: &str| v.get(key).and_then(Value::as_bool);
        let blame = v.get("blame_ps")?.as_array()?.iter().map(Value::as_u64);
        let ps: Vec<u64> = blame.collect::<Option<_>>()?;
        let terminal = match v.get("terminal")?.as_str()? {
            "completed" => Terminal::Completed,
            "shed" => Terminal::Shed,
            "rejected" => Terminal::Rejected,
            "timed_out" => Terminal::TimedOut,
            "evicted" => Terminal::Evicted,
            _ => return None,
        };
        Some(SloMiss {
            id: v.get("id")?.as_u64()?,
            arrival_us: num("arrival_us")?,
            e2e_us: num("e2e_us")?,
            ttft_us: num("ttft_us"),
            tpot_us: num("tpot_us"),
            missed_ttft: flag("missed_ttft")?,
            missed_tpot: flag("missed_tpot")?,
            terminal,
            blame: Blame {
                ps: ps.try_into().ok()?,
            },
        })
    }
}

/// Per-request timeline state under construction.
#[derive(Debug, Clone)]
struct Slot {
    started: bool,
    last_ps: u64,
    tl: RequestTimeline,
}

/// Records request timelines for one serving run. Every method is a
/// no-op when constructed disabled, so the scheduler instruments
/// unconditionally and pays nothing when observation is off.
#[derive(Debug, Clone)]
pub struct RequestTracer {
    on: bool,
    slots: Vec<Slot>,
}

impl RequestTracer {
    /// A tracer for `n` requests (ids `0..n`); `on = false` makes every
    /// method a no-op and [`RequestTracer::into_timelines`] empty.
    pub fn new(n: usize, on: bool) -> RequestTracer {
        let slots = if on {
            (0..n as u64)
                .map(|id| Slot {
                    started: false,
                    last_ps: 0,
                    tl: RequestTimeline {
                        id,
                        arrival_ps: 0,
                        first_token_ps: None,
                        end_ps: 0,
                        terminal: Terminal::Rejected,
                        events: Vec::new(),
                        blame: Blame::default(),
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        RequestTracer { on, slots }
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens the timeline of an admitted request: the door wait
    /// `[arrival, decision]` is charged to [`Phase::Admission`].
    pub fn admit(&mut self, id: u64, arrival_ps: u64, decision_ps: u64) {
        if !self.on {
            return;
        }
        let s = &mut self.slots[id as usize];
        debug_assert!(!s.started, "request {id} admitted twice");
        s.started = true;
        s.tl.arrival_ps = arrival_ps;
        s.last_ps = arrival_ps;
        self.charge(id, Phase::Admission, decision_ps, None);
    }

    /// Records a request turned away at the door: its whole (terminal)
    /// timeline is one [`Phase::Admission`] window.
    pub fn turn_away(&mut self, id: u64, arrival_ps: u64, decision_ps: u64, how: Terminal) {
        if !self.on {
            return;
        }
        self.admit(id, arrival_ps, decision_ps);
        self.finish(id, how, decision_ps);
    }

    /// Charges `[last, upto]` to `phase` and advances the watermark.
    /// Contiguous same-phase/same-link windows merge into one event.
    pub fn charge(&mut self, id: u64, phase: Phase, upto_ps: u64, link: Option<StepLink>) {
        if !self.on {
            return;
        }
        let s = &mut self.slots[id as usize];
        debug_assert!(s.started, "request {id} charged before admission");
        debug_assert!(
            upto_ps >= s.last_ps,
            "request {id}: charge to {} behind watermark {}",
            upto_ps,
            s.last_ps
        );
        let delta = upto_ps - s.last_ps;
        if delta == 0 {
            return;
        }
        s.tl.blame.ps[phase.index()] += delta;
        match s.tl.events.last_mut() {
            Some(e) if e.phase == phase && e.link == link && e.to_ps == s.last_ps => {
                e.to_ps = upto_ps;
            }
            _ => s.tl.events.push(PhaseEvent {
                phase,
                from_ps: s.last_ps,
                to_ps: upto_ps,
                link,
            }),
        }
        s.last_ps = upto_ps;
    }

    /// Records the first-token instant.
    pub fn first_token(&mut self, id: u64, at_ps: u64) {
        if !self.on {
            return;
        }
        let tl = &mut self.slots[id as usize].tl;
        if tl.first_token_ps.is_none() {
            tl.first_token_ps = Some(at_ps);
        }
    }

    /// Closes a timeline: residue up to `now_ps` defaults to
    /// [`Phase::Queue`], then the tiling invariant is asserted.
    pub fn finish(&mut self, id: u64, how: Terminal, now_ps: u64) {
        if !self.on {
            return;
        }
        self.charge(id, Phase::Queue, now_ps, None);
        let s = &mut self.slots[id as usize];
        s.tl.end_ps = now_ps;
        s.tl.terminal = how;
        debug_assert!(
            s.tl.tiles_exactly(),
            "request {id}: blame {:?} does not tile e2e {} ps",
            s.tl.blame,
            s.tl.e2e_ps()
        );
    }

    /// The blame tiling accumulated so far for one request.
    pub fn blame(&self, id: u64) -> Blame {
        if !self.on {
            return Blame::default();
        }
        self.slots[id as usize].tl.blame
    }

    /// Consumes the tracer, returning every started timeline in id
    /// order (empty when disabled).
    pub fn into_timelines(self) -> Vec<RequestTimeline> {
        self.slots
            .into_iter()
            .filter(|s| s.started)
            .map(|s| s.tl)
            .collect()
    }
}

/// Serializes a slice of timelines as a JSON array (one
/// [`RequestTimeline::to_json`] object per request).
pub fn timelines_to_json(tls: &[RequestTimeline]) -> String {
    json::render(|w| {
        w.begin_arr();
        for tl in tls {
            tl.write_json(w);
        }
        w.end_arr();
    })
}

/// Serializes timelines as Chrome trace-event JSON: one named track per
/// request (`pid` 2, `tid` = request id) with a duration slice per
/// phase window, loadable beside the engine trace in
/// <https://ui.perfetto.dev>.
pub fn timelines_to_chrome_json(tls: &[RequestTimeline]) -> String {
    json::render(|w| {
        w.begin_arr().chrome_track_name(2, None, "requests");
        for tl in tls {
            let track = format!("req {} ({})", tl.id, tl.terminal.name());
            w.chrome_track_name(2, Some(tl.id), &track);
            for e in &tl.events {
                let slice = |ph, ps: u64| Event {
                    name: e.phase.name(),
                    cat: Some("request"),
                    ph,
                    ts_us: ps as f64 / 1e6,
                    pid: 2,
                    tid: Some(tl.id),
                    ..Event::default()
                };
                w.chrome_event(&slice("B", e.from_ps))
                    .key("args")
                    .begin_obj();
                if let Some(l) = e.link {
                    let us = |ps: u64| Fixed(ps as f64 / 1e6, 3);
                    w.field("step", l.step);
                    w.field("engine_from_us", us(l.engine_from_ps));
                    w.field("engine_to_us", us(l.engine_to_ps));
                }
                w.end_obj().end_obj();
                w.chrome_event(&slice("E", e.to_ps)).end_obj();
            }
        }
        w.end_arr();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_tile_exactly_and_merge_contiguous_windows() {
        let mut rt = RequestTracer::new(2, true);
        rt.admit(0, 1_000, 5_000);
        rt.charge(0, Phase::Queue, 9_000, None);
        let link = StepLink {
            step: 3,
            engine_from_ps: 100,
            engine_to_ps: 200,
        };
        rt.charge(0, Phase::PrefillCompute, 12_000, Some(link));
        rt.charge(0, Phase::CollectiveComm, 13_500, Some(link));
        // Contiguous queue windows with no link merge into one event.
        rt.charge(0, Phase::Queue, 14_000, None);
        rt.finish(0, Terminal::Completed, 20_000);
        let tls = rt.into_timelines();
        assert_eq!(tls.len(), 1, "unstarted request 1 has no timeline");
        let tl = &tls[0];
        assert!(tl.tiles_exactly());
        assert_eq!(tl.e2e_ps(), 19_000);
        assert_eq!(tl.blame.get(Phase::Admission), 4_000);
        assert_eq!(tl.blame.get(Phase::Queue), 4_000 + 500 + 6_000);
        assert_eq!(tl.blame.get(Phase::PrefillCompute), 3_000);
        assert_eq!(tl.blame.get(Phase::CollectiveComm), 1_500);
        assert_eq!(tl.blame.total_ps(), tl.e2e_ps());
        // queue[5k..9k], prefill, comm, queue[13.5k..14k merged ..20k]
        assert_eq!(tl.events.len(), 5);
        assert_eq!(tl.events[4].from_ps, 13_500);
        assert_eq!(tl.events[4].to_ps, 20_000);
        assert_eq!(tl.events[1].link, None);
        assert_eq!(tl.events[2].link, Some(link));
        assert_eq!(tl.blame.dominant(), Phase::Queue);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut rt = RequestTracer::new(4, false);
        rt.admit(0, 0, 10);
        rt.charge(0, Phase::Queue, 100, None);
        rt.finish(0, Terminal::Completed, 100);
        assert!(!rt.enabled());
        assert_eq!(rt.blame(0), Blame::default());
        assert!(rt.into_timelines().is_empty());
    }

    #[test]
    fn turned_away_requests_blame_admission_entirely() {
        let mut rt = RequestTracer::new(1, true);
        rt.turn_away(0, 2_000, 7_000, Terminal::Shed);
        let tl = &rt.into_timelines()[0];
        assert_eq!(tl.terminal, Terminal::Shed);
        assert_eq!(tl.blame.get(Phase::Admission), 5_000);
        assert_eq!(tl.blame.total_ps(), tl.e2e_ps());
        assert_eq!(tl.events.len(), 1);
    }

    #[test]
    fn slo_miss_round_trips_through_json() {
        let miss = SloMiss {
            id: 417,
            arrival_us: 1234.5,
            e2e_us: 250_000.25,
            ttft_us: Some(180_000.125),
            tpot_us: None,
            missed_ttft: true,
            missed_tpot: false,
            terminal: Terminal::Completed,
            blame: Blame {
                ps: [1, 2, 3, 4, 5, 6, 7],
            },
        };
        let json = miss.to_json();
        let back = SloMiss::parse(&json).expect("parses");
        assert_eq!(back.id, miss.id);
        assert_eq!(back.blame, miss.blame);
        assert_eq!(back.terminal, miss.terminal);
        assert_eq!(back.missed_ttft, miss.missed_ttft);
        assert_eq!(back.missed_tpot, miss.missed_tpot);
        assert_eq!(back.ttft_us, Some(180_000.125));
        assert_eq!(back.tpot_us, None);
        assert!((back.e2e_us - miss.e2e_us).abs() < 1e-2);
        // A second round trip is a fixed point.
        assert_eq!(SloMiss::parse(&back.to_json()), Some(back));
        assert_eq!(SloMiss::parse("{}"), None);
    }

    #[test]
    fn json_and_chrome_exports_cover_every_event() {
        let mut rt = RequestTracer::new(1, true);
        rt.admit(0, 0, 1_000_000);
        rt.charge(
            0,
            Phase::DecodeCompute,
            3_000_000,
            Some(StepLink {
                step: 0,
                engine_from_ps: 0,
                engine_to_ps: 2_000_000,
            }),
        );
        rt.first_token(0, 3_000_000);
        rt.finish(0, Terminal::Completed, 3_000_000);
        let tls = rt.into_timelines();
        let json = timelines_to_json(&tls);
        assert!(json.contains("\"terminal\":\"completed\""), "{json}");
        assert!(json.contains("\"first_token_ps\":3000000"), "{json}");
        assert!(json.contains("\"engine_to_ps\":2000000"), "{json}");
        assert!(json.contains("\"decode_compute\""), "{json}");
        let doc = json::parse(&json).unwrap();
        let blame = doc.as_array().unwrap()[0].get("blame_ps").unwrap();
        assert_eq!(
            blame.get("decode_compute").unwrap().as_u64(),
            Some(2_000_000)
        );
        let chrome = timelines_to_chrome_json(&tls);
        json::parse(&chrome).unwrap();
        assert!(
            chrome.contains("\"name\":\"req 0 (completed)\""),
            "{chrome}"
        );
        assert!(chrome.contains("\"ph\":\"B\""), "{chrome}");
        assert!(chrome.contains("\"step\":0"), "{chrome}");
    }
}
