//! Serving rate→goodput sweep: drives the SLO-aware serving loop
//! (DESIGN.md §16) across arrival rates spanning idle to ~4× the knee,
//! with admission enabled and as an admit-everything control, and
//! records where goodput peaks and what each policy does past the
//! knee. Writes `results/serving_sweep.json`.
//!
//! The shape this exists to show: with admission, goodput climbs to the
//! knee and then *stays there* — excess arrivals are shed or rejected
//! at the door, and the requests that are admitted still meet their
//! TTFT/TPOT budgets. Without admission, every request is admitted,
//! the queue grows open-loop, p99 TTFT grows with offered load, and
//! goodput collapses once queue delay eats the TTFT budget.
//!
//! A second artifact, `results/serve_telemetry.json`, comes from one
//! fully-observed run at the 2×-knee admission point: the virtual-time
//! telemetry series (counter deltas, gauges, per-resource utilization)
//! plus the worst-offender SLO-miss exemplars with their exact blame
//! breakdowns (DESIGN.md §17).

use bench::report::{begin_artifact, write_results_json};
use hw::EnvKind;
use inference::{
    serve_trace_observed, serve_trace_with, synthetic_trace, ModelConfig, MscclppBackend,
    ServeConfig, ServeReport, ServingEngine, SloSpec, TelemetryConfig,
};
use sim::json::{self, Fixed, Writer};

const REQUESTS: usize = 48;
const PROMPT: usize = 96;
const GENERATE: usize = 12;
const SEED: u64 = 9;

/// Mean interarrival times (µs) sweeping the offered rate across the
/// knee (~14 ms at batch 8 on this engine; see DESIGN.md §16).
const INTERARRIVAL_US: [f64; 7] = [
    28_000.0, 21_000.0, 14_000.0, 10_000.0, 7_000.0, 5_000.0, 3_500.0,
];

struct Point {
    interarrival_us: f64,
    admission: bool,
    report: ServeReport,
}

fn run_point(interarrival_us: f64, admission: bool) -> Point {
    let mut engine = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
    let backend = MscclppBackend::new();
    let trace = synthetic_trace(REQUESTS, PROMPT, GENERATE, interarrival_us, SEED);
    let cfg = if admission {
        let mut cfg = ServeConfig::slo_aware(8, SloSpec::new(100_000.0, 12_000.0));
        cfg.admission.max_queue_depth = 5;
        cfg.seed = SEED;
        cfg
    } else {
        // The open-loop control: same SLO accounting, no admission —
        // every arrival joins the queue no matter how deep it is.
        let mut cfg = ServeConfig::permissive(8);
        cfg.slo = SloSpec::new(100_000.0, 12_000.0);
        cfg.seed = SEED;
        cfg
    };
    let report = serve_trace_with(&mut engine, &backend, &trace, &cfg).expect("serving sweep run");
    assert_eq!(
        report.completed + report.shed + report.rejected + report.timed_out + report.evicted,
        REQUESTS,
        "sweep point lost a request: {report:?}"
    );
    assert!(report.kv.balances(), "KV accounting out of balance");
    Point {
        interarrival_us,
        admission,
        report,
    }
}

/// Opens an artifact and writes the workload fields both artifacts
/// share.
fn write_header<'w>(w: &'w mut Writer, title: &str) -> &'w mut Writer {
    begin_artifact(w, title).field("model", "llama2-13b");
    w.field("env", "A100_80G").field("requests", REQUESTS);
    w.field("prompt", PROMPT).field("generate", GENERATE)
}

fn main() {
    println!(
        "==== serving sweep (llama2-13b TP8 A100-80G, {REQUESTS} reqs, \
         prompt {PROMPT}, generate {GENERATE}) ===="
    );
    println!(
        "{:>10} {:>9} {:>9} {:>5} {:>5} {:>5} {:>9} {:>9}",
        "offered/s", "admission", "goodput/s", "done", "shed", "rej", "p99ttft", "p99tpot"
    );
    let mut points = Vec::new();
    for interarrival_us in INTERARRIVAL_US {
        for admission in [true, false] {
            let p = run_point(interarrival_us, admission);
            let r = &p.report;
            println!(
                "{:>10.1} {:>9} {:>9.1} {:>5} {:>5} {:>5} {:>8.1}m {:>8.1}m",
                1e6 / interarrival_us,
                if admission { "slo" } else { "open" },
                r.goodput,
                r.completed,
                r.shed,
                r.rejected,
                r.ttft.p99_us / 1e3,
                r.tpot.p99_us / 1e3,
            );
            points.push(p);
        }
    }

    // The knee: best goodput over the admission-enabled points. The
    // gate's pinned 2×-knee case asserts goodput stays near this.
    let knee = points
        .iter()
        .filter(|p| p.admission)
        .max_by(|a, b| a.report.goodput.total_cmp(&b.report.goodput))
        .expect("sweep produced points");
    println!(
        "\nknee: {:.1} req/s offered -> {:.1}/s goodput ({} SLO-met)",
        1e6 / knee.interarrival_us,
        knee.report.goodput,
        knee.report.slo_met
    );

    let json = json::render(|w| {
        write_header(w, "serving_sweep").field("seed", SEED);
        w.key("points").begin_arr();
        for p in &points {
            let r = &p.report;
            w.begin_obj();
            w.field("offered_per_s", Fixed(1e6 / p.interarrival_us, 3));
            w.field("interarrival_us", Fixed(p.interarrival_us, 1));
            w.field("admission", p.admission);
            w.field("goodput_per_s", Fixed(r.goodput, 3));
            w.field("slo_met", r.slo_met);
            w.field("completed", r.completed);
            w.field("shed", r.shed).field("rejected", r.rejected);
            w.field("timed_out", r.timed_out);
            w.field("evicted", r.evicted);
            w.field("ttft_p50_us", Fixed(r.ttft.p50_us, 3));
            w.field("ttft_p99_us", Fixed(r.ttft.p99_us, 3));
            w.field("tpot_p50_us", Fixed(r.tpot.p50_us, 3));
            w.field("tpot_p99_us", Fixed(r.tpot.p99_us, 3));
            w.field("slo_missed", r.slo_missed);
            w.field("kv_evictions", r.kv.evictions);
            w.field("kv_spilled_blocks", r.kv.spilled);
            w.field("kv_peak_used", r.kv.peak_used);
            w.field("prefix_hits", r.kv.prefix_hits).end_obj();
        }
        w.end_arr().end_obj();
    }) + "\n";
    match write_results_json("serving_sweep.json", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            std::process::exit(1);
        }
    }

    // One fully-observed run of the *open-loop* control at 2× the knee:
    // with admission off every request is admitted, queueing eats the
    // TTFT budget, and the worst-offender exemplars show exactly where
    // each miss's latency went (blame is dominated by `queue`). The
    // admission-enabled point at the same rate has zero misses — that
    // contrast is the point of the artifact.
    const KNEE2X_US: f64 = 7_000.0;
    let mut engine = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
    let backend = MscclppBackend::new();
    let trace = synthetic_trace(REQUESTS, PROMPT, GENERATE, KNEE2X_US, SEED);
    let mut cfg = ServeConfig::permissive(8);
    cfg.slo = SloSpec::new(100_000.0, 12_000.0);
    cfg.seed = SEED;
    cfg.observe.telemetry = Some(TelemetryConfig::new(500.0, 4096));
    let (report, obs) =
        serve_trace_observed(&mut engine, &backend, &trace, &cfg).expect("observed 2x-knee run");
    if let Some(worst) = report.worst_misses.first() {
        println!(
            "worst SLO miss: request {} ({:.1} ms e2e, dominant blame: {})",
            worst.id,
            worst.e2e_us / 1e3,
            worst.blame.dominant().name()
        );
    }
    let tj = json::render(|w| {
        write_header(w, "serve_telemetry");
        w.field("interarrival_us", Fixed(KNEE2X_US, 1));
        w.field("admission", false).field("seed", SEED);
        w.field("slo_missed", report.slo_missed);
        w.key("worst_misses").begin_arr();
        for m in &report.worst_misses {
            m.write_json(w);
        }
        w.end_arr().key("telemetry");
        let telemetry = obs.telemetry.as_ref().expect("sampler configured");
        telemetry.write_json(w);
        w.end_obj();
    }) + "\n";
    match write_results_json("serve_telemetry.json", &tj) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            std::process::exit(1);
        }
    }
}
