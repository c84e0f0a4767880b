//! Exports a Chrome-trace timeline of a collective — every thread-block
//! step and CPU-proxy step of a 2 MB AllReduce, with the critical path
//! overlaid as its own track and FIFO-depth counter tracks — loadable in
//! `chrome://tracing` or https://ui.perfetto.dev.
//!
//! Run with: `cargo run --release --example trace_timeline`
//! Output:   `results/allreduce_trace.json` (or `$RESULTS_DIR/...`)
//!
//! Alongside the timeline it prints the critical-path report: which
//! resources the makespan is spent on, and how the blame decomposes into
//! link-busy / link-queue / sync-wait / proxy-overhead / compute-copy.

use collective::{AllReduceAlgo, CollComm};
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut engine);
    engine.enable_tracing();
    engine.enable_profiling();

    let count = 512 << 10; // 2 MB of f32
    let bufs: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &buf) in bufs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| ((r + i) % 5) as f32);
    }
    // Pin the port-channel algorithm so the timeline shows the CPU-proxy
    // tracks and their `fifo.depth` counter tracks alongside the kernels
    // (the default selection here uses memory channels only).
    let comm = CollComm::new();
    let t = comm.all_reduce_with(
        &mut engine,
        &bufs,
        &bufs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        AllReduceAlgo::TwoPhasePort,
    )?;

    let trace = engine.take_trace().expect("tracing enabled");
    let graph = engine.take_dep_graph().expect("profiling enabled");
    let report = profile::critical_path(&graph).expect("non-empty run");
    println!("{}", report.render());

    let highlight = report.highlight(&graph);
    let json = trace.to_chrome_json_with_counters(&highlight);
    let dir = std::env::var("RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/allreduce_trace.json");
    std::fs::write(&path, &json)?;
    println!(
        "AllReduce of 2 MB finished in {}; wrote {} trace events ({} bytes) to {path}",
        t.elapsed(),
        trace.len(),
        json.len()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
