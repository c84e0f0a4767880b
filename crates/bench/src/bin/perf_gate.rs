//! Perf-regression gate: runs the pinned suite (see `bench::gate`) in
//! order, writes `BENCH_<date>.json` into the results directory, and
//! compares every case against the committed baseline: virtual-time
//! cases exactly (schedule digest and every number as written), host
//! wall-clock cases by digest and a median within `gate::WALL_TOL`. A
//! case that fails on its own (an engine clamped a past-time event, or
//! observability went over its overhead budget) fails by name, after
//! the artifact is written.
//!
//! Usage:
//!   perf_gate                  run suite, compare vs baseline, exit 1 on
//!                              any change or failure
//!   perf_gate --write-baseline run suite and (re)write BENCH_baseline.json
//!
//! Environment:
//!   RESULTS_DIR         output directory (default `results`)
//!   BENCH_DATE          override the date stamp (e.g. `2026-08-06`)

use bench::gate::{self, Verdict};
use bench::report::results_dir;

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let suite = gate::pinned_suite();
    println!(
        "perf_gate: {} cases, {} iters each, virtual cases exact, wall {:.0}% band",
        suite.len(),
        gate::ITERS,
        gate::WALL_TOL * 100.0
    );
    let results: Vec<gate::CaseResult> = suite.iter().map(gate::run_case).collect();
    for r in &results {
        let aux = if r.name.starts_with("serving-observability/") {
            format!("{:>8.2}% overhead", r.eps)
        } else if r.eps > 0.0 {
            format!("{:>10.0} ev/s", r.eps)
        } else {
            format!("max {:>10.1}us", r.max_us)
        };
        println!(
            "  {:<48} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  {aux}  0x{:016x}",
            r.name, r.p50_us, r.p95_us, r.p99_us, r.digest
        );
    }

    let date = std::env::var("BENCH_DATE").unwrap_or_else(|_| today_utc());
    let json = gate::results_to_json(&date, &results);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let artifact = dir.join(format!("BENCH_{date}.json"));
    std::fs::write(&artifact, &json).expect("write artifact");
    println!("wrote {}", artifact.display());

    let mut failed = 0usize;
    for r in &results {
        for why in &r.failures {
            failed += 1;
            println!("  FAIL        {}: {why}", r.name);
        }
    }

    let baseline_path = dir.join("BENCH_baseline.json");
    if write_baseline {
        if failed > 0 {
            println!("perf_gate: FAIL ({failed} case failure(s); baseline not written)");
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
            if failed > 0 {
                println!("perf_gate: FAIL ({failed} case failure(s))");
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

    for (name, verdict) in gate::compare(&results, &baseline) {
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
                failed += 1;
                println!("  REGRESSION  {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us");
            }
            Verdict::Changed { field, base, new } => {
                failed += 1;
                println!("  CHANGED     {name}: {field} {base} -> {new}");
            }
        }
    }
    if failed > 0 {
        println!("perf_gate: FAIL ({failed} change(s), regression(s) or case failure(s))");
        std::process::exit(1);
    }
    println!(
        "perf_gate: PASS ({} cases match the baseline)",
        results.len()
    );
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
