//! Edge cases and failure injection: misuse is rejected loudly, bugs in
//! custom algorithms surface as diagnosable deadlocks (not hangs or
//! silent corruption), and boundary sizes work.

use collective::CollComm;
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{run_kernels, KernelBuilder, Protocol, Setup};
use sim::Engine;

fn engine(nodes: usize) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(nodes)));
    hw::wire(&mut e);
    e
}

#[test]
fn tiny_collectives_work() {
    // One element per rank: shards of zero or one element everywhere.
    for count in [8usize, 9, 15, 17] {
        let mut e = engine(1);
        let bufs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| (r + i) as f32);
        }
        let comm = CollComm::new();
        comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
            .unwrap();
        let got = e.world().pool().to_f32_vec(bufs[6], DataType::F32);
        let want: f32 = (0..8).map(|r| (r + count - 1) as f32).sum();
        assert_eq!(got[count - 1], want, "count {count}");
    }
}

#[test]
fn mismatched_waits_deadlock_with_named_culprit() {
    // Two waits, one signal: the error must name the stuck kernel.
    let mut e = engine(1);
    let mut setup = Setup::new(&mut e);
    let bufs = setup.alloc_all(64);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put_with_signal(&ch0, 0, 0, 64);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1).wait(&ch1); // bug: second wait never satisfied
    let err = run_kernels(&mut e, &[k0.build(), k1.build()], &ov).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("rank1"), "culprit kernel named: {msg}");
}

#[test]
#[should_panic(expected = "channel endpoint belongs to")]
fn using_peer_endpoint_in_wrong_kernel_panics_at_build_time() {
    let mut e = engine(1);
    let mut setup = Setup::new(&mut e);
    let bufs = setup.alloc_all(64);
    let (_ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    // ch1 belongs to rank 1; emitting it into rank 0's kernel is a bug
    // caught at kernel-build time, like a CUDA invalid-handle error.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch1, 0, 0, 64);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_put_panics_like_a_segfault() {
    let mut e = engine(1);
    let mut setup = Setup::new(&mut e);
    let bufs = setup.alloc_all(64);
    let (ch0, _ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 4096); // 4 KiB put into a 64 B buffer
    let _ = run_kernels(&mut e, &[k0.build()], &ov);
}

#[test]
fn wrong_owner_buffer_rejected_at_setup() {
    let mut e = engine(1);
    let mut setup = Setup::new(&mut e);
    let b0 = setup.alloc(Rank(0), 64);
    let b1 = setup.alloc(Rank(1), 64);
    // src_a claims to be rank 1's buffer.
    let err = setup
        .memory_channel_pair(Rank(0), b1, b1, Rank(1), b1, b0, Protocol::HB)
        .unwrap_err();
    assert!(matches!(err, mscclpp::Error::InvalidArgument(_)), "{err}");
}

#[test]
fn message_larger_than_prepared_capacity_is_rejected() {
    let mut e = engine(1);
    let bufs: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), 1024))
        .collect();
    let comm = CollComm::new();
    // First call prepares capacity for 256 elements...
    comm.all_reduce(&mut e, &bufs, &bufs, 256, DataType::F32, ReduceOp::Sum)
        .unwrap();
    // ...a larger follow-up on the same buffers transparently re-prepares.
    let bufs2: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), 4096))
        .collect();
    comm.all_reduce(&mut e, &bufs2, &bufs2, 256, DataType::F32, ReduceOp::Sum)
        .unwrap();
    comm.all_reduce(&mut e, &bufs2, &bufs2, 1024, DataType::F32, ReduceOp::Sum)
        .unwrap();
}

#[test]
fn hierarchical_algorithms_rejected_on_single_node() {
    let mut e = engine(1);
    let bufs: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), 1024))
        .collect();
    let comm = CollComm::new();
    let err = comm
        .all_reduce_with(
            &mut e,
            &bufs,
            &bufs,
            256,
            DataType::F32,
            ReduceOp::Sum,
            collective::AllReduceAlgo::HierHb,
        )
        .unwrap_err();
    assert!(matches!(err, mscclpp::Error::InvalidArgument(_)), "{err}");
}

/// Passing fewer buffers than ranks is a typed error from every
/// collective, in either position, not an index-out-of-bounds panic.
#[test]
fn short_buffer_slices_are_rejected_by_every_collective() {
    let mut e = engine(1);
    let count = 256usize;
    let bufs: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 8 * 4))
        .collect();
    let comm = CollComm::new();
    let (f32, sum) = (DataType::F32, ReduceOp::Sum);
    for (inputs, outputs) in [(&bufs[..4], &bufs[..]), (&bufs[..], &bufs[..4])] {
        let results = [
            (
                "all_reduce",
                comm.all_reduce(&mut e, inputs, outputs, count, f32, sum),
            ),
            (
                "all_gather",
                comm.all_gather(&mut e, inputs, outputs, count, f32),
            ),
            (
                "reduce_scatter",
                comm.reduce_scatter(&mut e, inputs, outputs, count, f32, sum),
            ),
            (
                "broadcast",
                comm.broadcast(&mut e, inputs, outputs, count, f32, Rank(0)),
            ),
            (
                "all_to_all",
                comm.all_to_all(&mut e, inputs, outputs, count, f32),
            ),
        ];
        for (name, result) in results {
            let err = result.expect_err(name);
            assert!(
                matches!(err, mscclpp::Error::InvalidArgument(_)),
                "{name}: {err}"
            );
        }
    }
}

#[test]
fn bf16_collectives_work() {
    let mut e = engine(1);
    let count = 512usize;
    let bufs: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 2))
        .collect();
    for (r, &buf) in bufs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(buf, DataType::BF16, move |i| ((r + i) % 4) as f32);
    }
    let comm = CollComm::new();
    comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::BF16, ReduceOp::Sum)
        .unwrap();
    let got = e.world().pool().to_f32_vec(bufs[1], DataType::BF16);
    let want: f32 = (0..8).map(|r| ((r + 3) % 4) as f32).sum();
    assert_eq!(got[3], want);
}

/// A custom PCIe-only environment (no preset): the same Primitive API and
/// collectives run unchanged — the paper's §4.5 portability claim.
#[test]
fn custom_pcie_environment_is_supported_by_the_same_api() {
    let spec = hw::EnvSpec {
        name: "PCIe-box".into(),
        topology: hw::Topology::new(1, 8),
        gpu: hw::GpuSpec {
            hbm_gbps: 900.0,
            kernel_launch: sim::Duration::from_us(3.0),
            sm_count: 60,
            max_comm_blocks: 16,
        },
        intra: hw::IntraSpec {
            kind: hw::IntraKind::Pcie { gbps: 24.0 },
            latency: sim::Duration::from_us(1.5),
        },
        net: None,
    };
    let mut e = Engine::new(Machine::new(spec));
    hw::wire(&mut e);
    let count = 4096usize;
    let bufs: Vec<_> = (0..8)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &buf) in bufs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| ((r * i) % 5) as f32);
    }
    let comm = CollComm::new();
    let t = comm
        .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
        .unwrap();
    let got = e.world().pool().to_f32_vec(bufs[0], DataType::F32);
    let want: f32 = (0..8).map(|r| ((r * 7) % 5) as f32).sum();
    assert_eq!(got[7], want);
    // PCIe is slow: a 16 KB collective should take visibly longer than on
    // NVLink (higher latency, lower bandwidth).
    assert!(t.elapsed().as_us() > 8.0, "{}", t.elapsed());
}
