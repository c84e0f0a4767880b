//! An AllReduce plan where one rank forgets to pull its peer's
//! contribution: the output holds only the local input, and the semantic
//! pass reports exactly which live rank's data is absent.

use commverify::{Checks, CollectiveSpec, SpecMember, VerifyError};
use hw::{DataType, Rank, ReduceOp};
use mscclpp::{KernelBuilder, Protocol, Setup};

use crate::common;

const B: usize = 256;

#[test]
fn missing_peer_contribution_is_reported() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let in0 = setup.alloc(Rank(0), B);
    let in1 = setup.alloc(Rank(1), B);
    let out0 = setup.alloc(Rank(0), B);
    let out1 = setup.alloc(Rank(1), B);
    let (_ch0, ch1) = setup
        .memory_channel_pair(Rank(0), out0, in1, Rank(1), out1, in0, Protocol::LL)
        .unwrap();

    // Rank 0 copies its own input and stops — rank 1's contribution
    // never arrives. Rank 1 runs the correct two-step plan.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).copy(in0, 0, out0, 0, B);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).copy(in1, 0, out1, 0, B).read_reduce(
        &ch1,
        0,
        out1,
        0,
        B,
        DataType::F32,
        ReduceOp::Sum,
    );

    let spec = CollectiveSpec::all_reduce(
        vec![
            SpecMember {
                rank: Rank(0),
                input: in0,
                output: out0,
            },
            SpecMember {
                rank: Rank(1),
                input: in1,
                output: out1,
            },
        ],
        B,
    );
    let kernels = vec![k0.build(), k1.build()];
    let report =
        commverify::analyze_collective(&kernels, engine.world().pool(), &Checks::all(), &spec);
    assert_eq!(
        report.findings,
        vec![VerifyError::MissingContribution {
            rank: Rank(0),
            buf: out0,
            range: (0, B),
            missing: Rank(1),
            writer: Some(common::site(0, 0, 0)),
            present: Some(common::site(0, 0, 0)),
        }],
        "{report}"
    );

    // The transport preset drops only orphan signals: the semantic pass
    // still runs against the spec and reports the same finding.
    let transport = commverify::analyze_collective(
        &kernels,
        engine.world().pool(),
        &Checks::transport(),
        &spec,
    );
    assert_eq!(transport.findings, report.findings, "{transport}");
}

#[test]
fn full_exchange_is_clean() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let in0 = setup.alloc(Rank(0), B);
    let in1 = setup.alloc(Rank(1), B);
    let out0 = setup.alloc(Rank(0), B);
    let out1 = setup.alloc(Rank(1), B);
    let (ch0, ch1) = setup
        .memory_channel_pair(Rank(0), out0, in1, Rank(1), out1, in0, Protocol::LL)
        .unwrap();

    // Same shape with the missing read-reduce restored on rank 0.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).copy(in0, 0, out0, 0, B).read_reduce(
        &ch0,
        0,
        out0,
        0,
        B,
        DataType::F32,
        ReduceOp::Sum,
    );
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).copy(in1, 0, out1, 0, B).read_reduce(
        &ch1,
        0,
        out1,
        0,
        B,
        DataType::F32,
        ReduceOp::Sum,
    );

    let spec = CollectiveSpec::all_reduce(
        vec![
            SpecMember {
                rank: Rank(0),
                input: in0,
                output: out0,
            },
            SpecMember {
                rank: Rank(1),
                input: in1,
                output: out1,
            },
        ],
        B,
    );
    let kernels = vec![k0.build(), k1.build()];
    let report =
        commverify::analyze_collective(&kernels, engine.world().pool(), &Checks::all(), &spec);
    assert!(report.is_clean(), "{report}");
}
