//! Perf-regression gate: runs the pinned suite (see `bench::gate`),
//! writes `BENCH_<date>.json` into the results directory, and compares
//! medians against the committed baseline. A case whose engine clamped
//! a past-time event fails by name, after the artifact is written.
//!
//! Usage:
//!   perf_gate                  run suite, compare vs baseline, exit 1 on
//!                              regression
//!   perf_gate --write-baseline run suite and (re)write BENCH_baseline.json
//!
//! Environment:
//!   RESULTS_DIR         output directory (default `results`)
//!   PERF_GATE_TOL       fractional tolerance band on p50 (default 0.10)
//!   PERF_GATE_WALL_TOL  tolerance for wall-clock `engine/` cases
//!                       (default 0.60 — CI runners are noisy)
//!   PERF_GATE_ITERS     iterations per collective case (default 3)
//!   PERF_GATE_THREADS   worker threads for simulated-latency cases
//!                       (default 1; wall-clock cases always run serial,
//!                       alone on the machine, after the others)
//!   BENCH_DATE          override the date stamp (e.g. `2026-08-06`)

use bench::gate::{self, Verdict};
use bench::report::results_dir;
use bench::sweep;

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let tol: f64 = std::env::var("PERF_GATE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let wall_tol: f64 = std::env::var("PERF_GATE_WALL_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(gate::DEFAULT_WALL_TOL);
    let iters: usize = std::env::var("PERF_GATE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let threads = sweep::threads_from_env("PERF_GATE_THREADS");

    let suite = gate::pinned_suite();
    println!(
        "perf_gate: {} cases, {iters} iters each, tol {:.0}% (wall {:.0}%), {threads} thread(s)",
        suite.len(),
        tol * 100.0,
        wall_tol * 100.0
    );
    // Simulated-latency cases are deterministic, so they can fan out
    // across threads; wall-clock (engine-throughput) cases run serially
    // afterwards so nothing competes with them for the machine. Results
    // are re-emitted in pinned-suite order either way.
    let (sim_cases, wall_cases): (Vec<&gate::Case>, Vec<&gate::Case>) =
        suite.iter().partition(|c| !c.is_wall_clock());
    let mut results: Vec<gate::CaseResult> =
        sweep::parallel_map(&sim_cases, threads, |case| gate::run_case(case, iters));
    for case in &wall_cases {
        results.push(gate::run_case(case, iters));
    }
    for r in &results {
        if r.name.starts_with("serving-observability/") {
            println!(
                "  {:<48} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  {:>8.2}% overhead",
                r.name, r.p50_us, r.p95_us, r.p99_us, r.eps
            );
        } else if r.eps > 0.0 {
            println!(
                "  {:<48} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  {:>10.0} ev/s",
                r.name, r.p50_us, r.p95_us, r.p99_us, r.eps
            );
        } else {
            println!(
                "  {:<48} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  max {:>10.1}us",
                r.name, r.p50_us, r.p95_us, r.p99_us, r.max_us
            );
        }
    }

    let date = std::env::var("BENCH_DATE").unwrap_or_else(|_| today_utc());
    let json = gate::results_to_json(&date, iters, &results);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let artifact = dir.join(format!("BENCH_{date}.json"));
    std::fs::write(&artifact, &json).expect("write artifact");
    println!("wrote {}", artifact.display());

    // An engine that clamped a past-time event reordered its schedule
    // behind the clock: that case fails whatever its timing says.
    let mut clamped = 0usize;
    for r in results.iter().filter(|r| r.clamped_past_events > 0) {
        clamped += 1;
        println!(
            "  CLAMPED     {}: {} event(s) scheduled in the past",
            r.name, r.clamped_past_events
        );
    }

    let baseline_path = dir.join("BENCH_baseline.json");
    if write_baseline {
        if clamped > 0 {
            println!(
                "perf_gate: FAIL ({clamped} case(s) clamped past events; baseline not written)"
            );
            std::process::exit(1);
        }
        std::fs::write(&baseline_path, &json).expect("write baseline");
        println!("wrote {}", baseline_path.display());
        return;
    }

    // A missing baseline is not an error; one that exists but cannot be
    // read or parsed fails the gate instead of turning every case it lost
    // into `NEW`.
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!(
                "no baseline at {}; run with --write-baseline to create one",
                baseline_path.display()
            );
            if clamped > 0 {
                println!("perf_gate: FAIL ({clamped} case(s) clamped past events)");
                std::process::exit(1);
            }
            return;
        }
        read => read.map_err(|e| e.to_string()),
    };
    let baseline = baseline.and_then(|s| gate::parse_results(&s));
    let baseline = baseline.unwrap_or_else(|e| {
        println!(
            "perf_gate: FAIL (baseline {}: {e})",
            baseline_path.display()
        );
        std::process::exit(1)
    });

    let mut regressions = 0usize;
    for (name, verdict) in gate::compare_with(&results, &baseline, tol, wall_tol) {
        match verdict {
            Verdict::Ok => {}
            Verdict::New => println!("  NEW         {name} (no baseline entry)"),
            Verdict::Improvement {
                base_p50_us,
                new_p50_us,
            } => println!(
                "  IMPROVEMENT {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us; consider refreshing the baseline"
            ),
            Verdict::Regression {
                base_p50_us,
                new_p50_us,
            } => {
                regressions += 1;
                println!("  REGRESSION  {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us");
            }
        }
    }
    if regressions > 0 || clamped > 0 {
        println!(
            "perf_gate: FAIL ({regressions} regression(s) beyond {:.0}% tolerance, {clamped} case(s) clamped past events)",
            tol * 100.0
        );
        std::process::exit(1);
    }
    println!("perf_gate: PASS ({} cases within tolerance)", results.len());
}

/// Civil UTC date from the system clock (no date/time dependency in the
/// workspace; algorithm is the standard days-to-civil conversion).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}
