//! One function per table/figure of the paper's evaluation (§5).
//!
//! Each function prints the regenerated table to stdout. Absolute
//! numbers come from the simulated cluster, so they are not expected to
//! match the authors' testbed; the *shape* — which stack wins, by
//! roughly what factor, and where the crossovers fall — is the
//! reproduction target (see EXPERIMENTS.md at the repository root).

use collective::{AllGatherAlgo, AllReduceAlgo, PeerOrder, ScratchReuse};
use hw::EnvKind;
use inference::{BatchConfig, ModelConfig, MscclppBackend, NcclBackend, ServingEngine};

use crate::{
    fmt_bytes, large_sizes, print_sweep, small_sizes, Algo, Coll, Measure, NcclPolicy, Point,
    Stack, Target,
};

/// `coll` of `bytes` per rank on each stack, in [`Stack::ALL`] order.
fn stack_points(coll: Coll, t: Target, bytes: usize) -> [Point; 3] {
    Stack::ALL.map(|s| Measure::new(s, coll, t, bytes).point())
}

/// MSCCL++ forced onto `algo` for `coll` on `t`.
fn mscclpp_forced(coll: Coll, t: Target, bytes: usize, algo: Algo) -> Point {
    Measure {
        algo: Some(algo),
        ..Measure::new(Stack::Mscclpp, coll, t, bytes)
    }
    .point()
}

/// MSCCL++ forced onto the AllReduce `algo` on `t`.
fn allreduce_forced(t: Target, bytes: usize, algo: AllReduceAlgo) -> Point {
    mscclpp_forced(Coll::AllReduce, t, bytes, Algo::AllReduce(algo))
}

/// The all-peers-at-once HB two-phase AllReduce, the MemoryChannel
/// reference of the §5.1 and §5.3 comparisons.
const STAGGERED_HB: AllReduceAlgo = AllReduceAlgo::TwoPhaseHb {
    order: PeerOrder::Staggered,
};

/// Table 1: the evaluation environments.
pub fn table1() {
    println!("\n== Table 1: evaluation environments ==");
    println!(
        "{:<10} {:<28} {:<22} {:<30}",
        "Env", "GPU", "Intra-node link", "Network"
    );
    for kind in EnvKind::ALL {
        let spec = kind.spec(1);
        let intra = match spec.intra.kind {
            hw::IntraKind::Switch {
                thread_gbps,
                dma_gbps,
                multimem,
            } => format!(
                "switch {thread_gbps:.0}/{dma_gbps:.0} GB/s{}",
                if multimem.is_some() { " +multimem" } else { "" }
            ),
            hw::IntraKind::Mesh {
                per_peer_thread_gbps,
                ..
            } => format!("P2P mesh {per_peer_thread_gbps:.0} GB/s/link"),
            hw::IntraKind::Pcie { gbps } => format!("PCIe {gbps:.0} GB/s"),
        };
        let net = spec
            .net
            .map(|n| format!("IB {:.0} Gb/s, 1 NIC/GPU", n.gbps * 8.0))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:<28} {:<22} {:<30}",
            spec.name,
            format!("8x (HBM {:.0} GB/s)", spec.gpu.hbm_gbps),
            intra,
            net
        );
    }
}

/// One sweep of `coll` over the three stacks (small: latency µs; large:
/// AlgoBW GB/s). Row sizes are the message size: the gathered total for
/// AllGather, of which each rank contributes `1 / world`.
fn sweep(coll: Coll, t: Target, max_large: usize, env_name: &str) {
    let per_rank = |b: usize| match coll {
        Coll::AllReduce => b,
        Coll::AllGather => b / t.world(),
    };
    let name = format!("{coll:?} {env_name} {}", t.label());
    let small: Vec<_> = small_sizes()
        .into_iter()
        .filter(|&b| per_rank(b) >= 16)
        .map(|b| {
            let [n, m, p] = stack_points(coll, t, per_rank(b));
            (b, n.latency_us, m.latency_us, p.latency_us)
        })
        .collect();
    print_sweep(&format!("{name} small (latency)"), "us", &small, |r| {
        (r.1 / r.3, r.2 / r.3)
    });
    let large: Vec<_> = large_sizes(max_large)
        .into_iter()
        .map(|b| {
            let [n, m, p] = stack_points(coll, t, per_rank(b));
            (b, n.algbw_gbps(), m.algbw_gbps(), p.algbw_gbps())
        })
        .collect();
    print_sweep(&format!("{name} large (AlgoBW)"), "GB/s", &large, |r| {
        (r.3 / r.1, r.3 / r.2)
    });
}

/// Figure 8: AllReduce on A100-40G across 1, 2, and 4 nodes.
///
/// `full` extends single-node messages to 256 MB (memory-capped stand-in
/// for the paper's 1 GB; see DESIGN.md).
pub fn fig8(full: bool) {
    println!("\n==== Figure 8: AllReduce, A100-40G ====");
    let caps = if full {
        [(1usize, 256 << 20), (2, 64 << 20), (4, 16 << 20)]
    } else {
        [(1usize, 16 << 20), (2, 4 << 20), (4, 1 << 20)]
    };
    for (nodes, cap) in caps {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes,
        };
        sweep(Coll::AllReduce, t, cap, "A100-40G");
    }
}

/// Figure 9: AllGather on A100-40G across 1, 2, and 4 nodes.
pub fn fig9(full: bool) {
    println!("\n==== Figure 9: AllGather, A100-40G ====");
    let caps = if full {
        [(1usize, 256 << 20), (2, 64 << 20), (4, 16 << 20)]
    } else {
        [(1usize, 16 << 20), (2, 4 << 20), (4, 1 << 20)]
    };
    for (nodes, cap) in caps {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes,
        };
        sweep(Coll::AllGather, t, cap, "A100-40G");
    }
}

/// Figure 10: Llama2-70b decode/prefill speedup, TP=8 on A100-80G.
pub fn fig10(full: bool) {
    println!("\n==== Figure 10: Llama2-70b inference, TP=8, A100-80G ====");
    let model = ModelConfig::llama2_70b();
    let bszs: &[usize] = if full {
        &[8, 16, 32, 64, 128]
    } else {
        &[8, 64]
    };
    let seqlens: &[usize] = if full {
        &[128, 512, 1024, 2048]
    } else {
        &[128, 512]
    };
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "bsz",
        "seqlen",
        "NCCL dec us",
        "M++ dec us",
        "speedup",
        "NCCL pre us",
        "M++ pre us",
        "speedup"
    );
    for &bsz in bszs {
        for &seqlen in seqlens {
            let batch = BatchConfig { bsz, seqlen };
            let max_tokens = bsz * seqlen;
            let (nccl_dec, nccl_pre) = {
                let mut e = ServingEngine::new(EnvKind::A100_80G, model.clone(), max_tokens);
                let backend = NcclBackend::new(e.engine_mut());
                (
                    e.decode_step(&backend, batch).expect("nccl decode"),
                    e.prefill(&backend, batch).expect("nccl prefill"),
                )
            };
            let (pp_dec, pp_pre) = {
                let mut e = ServingEngine::new(EnvKind::A100_80G, model.clone(), max_tokens);
                let backend = MscclppBackend::new();
                (
                    e.decode_step(&backend, batch).expect("mscclpp decode"),
                    e.prefill(&backend, batch).expect("mscclpp prefill"),
                )
            };
            println!(
                "{:>6} {:>8} | {:>12.0} {:>12.0} {:>8.1}% | {:>12.0} {:>12.0} {:>8.1}%",
                bsz,
                seqlen,
                nccl_dec.total_us(),
                pp_dec.total_us(),
                (nccl_dec.total_us() / pp_dec.total_us() - 1.0) * 100.0,
                nccl_pre.total_us(),
                pp_pre.total_us(),
                (nccl_pre.total_us() / pp_pre.total_us() - 1.0) * 100.0,
            );
        }
    }
}

/// Figure 11: AllReduce on H100 (single node), including the
/// SwitchChannel-vs-MemoryChannel comparison of §5.3.
pub fn fig11(full: bool) {
    println!("\n==== Figure 11: AllReduce, H100, single node ====");
    let t = Target {
        env: EnvKind::H100,
        nodes: 1,
    };
    let bytes = if full { 256 << 20 } else { 16 << 20 };
    sweep(Coll::AllReduce, t, bytes, "H100");

    let switch = allreduce_forced(t, bytes, AllReduceAlgo::TwoPhaseSwitch);
    let mem = allreduce_forced(t, bytes, STAGGERED_HB);
    println!(
        "\nSwitchChannel vs equivalent MemoryChannel at {}: {:.0} vs {:.0} GB/s (+{:.0}%)  [paper: +56%]",
        fmt_bytes(bytes),
        switch.algbw_gbps(),
        mem.algbw_gbps(),
        (switch.algbw_gbps() / mem.algbw_gbps() - 1.0) * 100.0
    );
}

/// Figure 12: AllReduce on MI300x (single node) vs RCCL/MSCCL.
pub fn fig12(full: bool) {
    println!("\n==== Figure 12: AllReduce, MI300x, single node (RCCL baseline) ====");
    let t = Target {
        env: EnvKind::MI300X,
        nodes: 1,
    };
    let max_large = if full { 256 << 20 } else { 16 << 20 };
    sweep(Coll::AllReduce, t, max_large, "MI300x");
}

/// The §5.1 gain-breakdown rows: 1 KB latency per stack and the
/// PortChannel-vs-MemoryChannel bandwidth edge at the largest size.
pub fn gain_breakdown(full: bool) {
    println!("\n==== §5.1 gain breakdown (A100-40G, single node) ====");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let [n, m, p] = stack_points(Coll::AllReduce, t, 1 << 10);
    println!(
        "1KB AllReduce latency: NCCL {:.1}us, MSCCL {:.1}us, MSCCL++ {:.1}us \
         (MSCCL->MSCCL++ cut {:.0}%)  [paper: 9.5us -> 5.0us, 47%]",
        n.latency_us,
        m.latency_us,
        p.latency_us,
        (1.0 - p.latency_us / m.latency_us) * 100.0
    );
    let bytes = if full { 256 << 20 } else { 16 << 20 };
    let port = allreduce_forced(t, bytes, AllReduceAlgo::TwoPhasePort);
    let mem = allreduce_forced(t, bytes, STAGGERED_HB);
    println!(
        "PortChannel vs MemoryChannel AllReduce at {}: {:.0} vs {:.0} GB/s (+{:.1}%)  \
         [paper: +6.2% at 1GB; 256MB is this reproduction's memory cap]",
        fmt_bytes(bytes),
        port.algbw_gbps(),
        mem.algbw_gbps(),
        (port.algbw_gbps() / mem.algbw_gbps() - 1.0) * 100.0
    );
}

/// §3.2.3: registers per thread of each stack's AllReduce kernels.
pub fn table_registers() {
    println!("\n==== Registers per thread (§3.2.3) ====");
    let nccl = ncclsim::NcclConfig::nccl();
    let msccl = msccl::MscclConfig::default();
    let mscclpp = mscclpp::Overheads::mscclpp();
    println!("NCCL ring AllReduce:    {}", nccl.regs_per_thread);
    println!("MSCCL ring AllReduce:   {}", msccl.regs_per_thread);
    println!("MSCCL++ AllReduce:      {}", mscclpp.regs_per_thread);
}

/// §2.2.2 ablation: thread-copy vs DMA-copy AllGather bus bandwidth.
pub fn ablation_copy_modes(full: bool) {
    println!("\n==== §2.2.2 ablation: AllGather copy modes (A100, 8 GPUs) ====");
    let per_rank_bytes = (if full { 128usize << 20 } else { 32 << 20 }) / 8;
    let t = Target {
        env: EnvKind::A100_80G,
        nodes: 1,
    };
    let run = |algo| mscclpp_forced(Coll::AllGather, t, per_rank_bytes, Algo::AllGather(algo));
    let thread_us = run(AllGatherAlgo::AllPairsHb).latency_us;
    let dma_us = run(AllGatherAlgo::AllPairsPort).latency_us;
    // Bus bandwidth = moved bytes per GPU / time = (N-1)/N * total / t.
    let total = (per_rank_bytes * 8) as f64;
    let bus = |us: f64| total * 7.0 / 8.0 / (us * 1e3);
    println!(
        "AllGather thread-copy (MemoryChannel): {:.0} GB/s bus bandwidth  [paper: 227 GB/s]",
        bus(thread_us)
    );
    println!(
        "AllGather DMA-copy   (PortChannel):    {:.0} GB/s bus bandwidth  [paper: 263 GB/s]",
        bus(dma_us)
    );
    println!(
        "DMA edge: +{:.1}%  [paper: +15.8%]",
        (thread_us / dma_us - 1.0) * 100.0
    );
}

/// §5.1 DSL-vs-Primitive ablation across sizes.
pub fn ablation_dsl(full: bool) {
    println!("\n==== §5.1 ablation: DSL executor vs Primitive kernels (2PA AllReduce, A100) ====");
    use hw::{DataType, Machine, Rank, ReduceOp};
    use mscclpp::Setup;
    use sim::Engine;
    let sizes: Vec<usize> = if full {
        vec![64 << 10, 256 << 10, 1 << 20, 4 << 20]
    } else {
        vec![64 << 10, 1 << 20]
    };
    let mut overheads = Vec::new();
    for bytes in sizes {
        let count = bytes / 4;
        let prog = mscclpp_dsl::algorithms::two_phase_all_reduce(8).unwrap();
        let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut engine);
        let ins = setup.alloc_all(bytes);
        let outs = setup.alloc_all(bytes);
        let exe = prog
            .compile(
                &mut setup,
                &ins,
                &outs,
                mscclpp_dsl::CompileOptions {
                    instances: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        for (r, &buf) in ins.iter().enumerate() {
            engine
                .world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| crate::input_val(r, i));
        }
        let dsl_us = exe.launch(&mut engine).unwrap().elapsed().as_us();

        let mut e2 = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e2);
        let bufs: Vec<_> = (0..8)
            .map(|r| e2.world_mut().pool_mut().alloc(Rank(r), bytes))
            .collect();
        let outs2: Vec<_> = (0..8)
            .map(|r| e2.world_mut().pool_mut().alloc(Rank(r), bytes))
            .collect();
        let comm = collective::CollComm::new();
        let prim_us = comm
            .all_reduce_with(
                &mut e2,
                &bufs,
                &outs2,
                count,
                DataType::F32,
                ReduceOp::Sum,
                collective::AllReduceAlgo::TwoPhaseLl {
                    reuse: collective::ScratchReuse::Rotate,
                    order: collective::PeerOrder::Staggered,
                },
            )
            .unwrap()
            .elapsed()
            .as_us();
        let oh = (dsl_us / prim_us - 1.0) * 100.0;
        overheads.push(oh);
        println!(
            "{:>8}: primitive {prim_us:>8.2}us, DSL {dsl_us:>8.2}us  (+{oh:.1}%)",
            fmt_bytes(bytes)
        );
    }
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("average DSL overhead: +{avg:.1}%  [paper: ~3% average, up to 18%]");
}

/// §4.4 ablation: rotating scratch buffers vs a per-launch barrier.
pub fn ablation_rotation() {
    println!("\n==== §4.4 ablation: rotating buffers vs barrier (2PA-LL, A100) ====");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    for bytes in [32 << 10, 256 << 10, 1 << 20] {
        let ll = |reuse| AllReduceAlgo::TwoPhaseLl {
            reuse,
            order: PeerOrder::Staggered,
        };
        let rot = allreduce_forced(t, bytes, ll(ScratchReuse::Rotate));
        let bar = allreduce_forced(t, bytes, ll(ScratchReuse::Barrier));
        println!(
            "{:>8}: rotate {:.2}us, barrier {:.2}us (rotation saves {:.1}%)",
            fmt_bytes(bytes),
            rot.latency_us,
            bar.latency_us,
            (bar.latency_us / rot.latency_us - 1.0) * 100.0
        );
    }
}

/// §5.3 ablation: peer loop order on the MI300x mesh.
pub fn ablation_loop_order(full: bool) {
    println!("\n==== §5.3 ablation: peer loop order on MI300x (2PA-HB AllReduce) ====");
    let t = Target {
        env: EnvKind::MI300X,
        nodes: 1,
    };
    for bytes in if full {
        vec![1 << 20, 16 << 20, 64 << 20]
    } else {
        vec![1 << 20, 16 << 20]
    } {
        let stag = allreduce_forced(t, bytes, STAGGERED_HB);
        let seq = allreduce_forced(
            t,
            bytes,
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Sequential,
            },
        );
        println!(
            "{:>8}: all-peers-at-once {:.0} GB/s, one-peer-at-a-time {:.0} GB/s ({:.2}x)",
            fmt_bytes(bytes),
            stag.algbw_gbps(),
            seq.algbw_gbps(),
            stag.algbw_gbps() / seq.algbw_gbps()
        );
    }
}

/// Link-utilization analysis: how fully each stack drives the NVLink
/// ports during a large AllReduce (the mechanism behind every bandwidth
/// figure). MSCCL++'s zero-copy all-pairs keeps ports busy nearly the
/// whole collective; NCCL's ring pays staging and synchronization gaps.
pub fn utilization_report(full: bool) {
    println!("\n==== Link utilization during a large AllReduce (A100-40G, 8 GPUs) ====");
    let bytes = if full { 64 << 20 } else { 16 << 20 };
    let target = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let mut runs = Vec::new();
    for (name, stack) in [("NCCL", Stack::Nccl), ("MSCCL++", Stack::Mscclpp)] {
        let run = Measure {
            nccl: NcclPolicy::Tuned,
            in_place: true,
            ..Measure::new(stack, Coll::AllReduce, target, bytes)
        }
        .run();
        let elapsed_us = run.point.latency_us;
        runs.push(crate::report::snapshot(
            stack.name(),
            bytes,
            elapsed_us,
            &run.engine,
        ));
        let util = hw::port_utilization(&run.engine);
        let avg_egress: f64 = util
            .iter()
            .map(|u| u.egress_busy.as_us() / elapsed_us)
            .sum::<f64>()
            / util.len() as f64;
        let avg_ingress: f64 = util
            .iter()
            .map(|u| u.ingress_busy.as_us() / elapsed_us)
            .sum::<f64>()
            / util.len() as f64;
        println!(
            "{name:>8}: {elapsed_us:>9.1} us | egress ports {:>5.1}% busy | ingress ports {:>5.1}% busy",
            avg_egress * 100.0,
            avg_ingress * 100.0
        );
    }

    let json = crate::report::runs_to_json("utilization", target, &runs);
    match crate::report::write_results_json("utilization.json", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results/utilization.json: {e}"),
    }
}
