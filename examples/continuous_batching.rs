//! Continuous-batching serving over a synthetic production-style trace
//! (the workload §5.2 argues MSCCL++ helps most: decode-dominated, few
//! active tokens per batch).
//!
//! Run with: `cargo run --release --example continuous_batching`

use hw::EnvKind;
use inference::{
    serve_trace, synthetic_trace, CommBackend, ModelConfig, MscclppBackend, NcclBackend,
    ServingEngine,
};

fn main() {
    let trace = synthetic_trace(24, 512, 48, 40_000.0, 42);
    println!(
        "serving {} requests (mean prompt 512, mean generation 48 tokens) on Llama2-70b TP=8\n",
        trace.len()
    );
    let mut results = Vec::new();
    for name in ["NCCL", "MSCCL++"] {
        let mut engine =
            ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_70b(), 64 * 2048);
        let backend: Box<dyn CommBackend> = match name {
            "NCCL" => Box::new(NcclBackend::new(engine.engine_mut())),
            _ => Box::new(MscclppBackend::new()),
        };
        let r = serve_trace(&mut engine, backend.as_ref(), &trace, 32).expect("serve");
        println!(
            "{name:>8}: makespan {:.1} ms | {:.0} tok/s decode | mean latency {:.1} ms | p95 {:.1} ms | p99 TTFT {:.1} ms | decode fraction {:.0}%",
            r.makespan_us / 1e3,
            r.decode_throughput,
            r.mean_latency_us / 1e3,
            r.request_latency.p95_us / 1e3,
            r.ttft.p99_us / 1e3,
            r.decode_time_fraction * 100.0
        );
        results.push(r);
    }
    println!(
        "\nMSCCL++ vs NCCL: {:+.1}% decode throughput, {:+.1}% mean latency",
        (results[1].decode_throughput / results[0].decode_throughput - 1.0) * 100.0,
        (results[1].mean_latency_us / results[0].mean_latency_us - 1.0) * 100.0,
    );
}
