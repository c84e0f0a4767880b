//! The launch tail shared by the staging-FIFO stacks: this crate's
//! [`NcclComm`](crate::NcclComm) and `msccl`'s communicator, which builds
//! on the same [`Conn`](crate::Conn)/[`Prims`](crate::Prims) transport.

use std::cell::Cell;

use commverify::{CollectiveSpec, SpecMember};
use hw::{BufferId, Machine, Rank};
use mscclpp::{run_kernels, Kernel, KernelTiming, Overheads, Result};
use sim::Engine;

/// Launches one communicator's kernel batches: records each batch's
/// emitted instruction mix under the stack's counter prefix, proves the
/// first batch, and runs it.
///
/// Only the first batch is verified. Later launches reuse the staging
/// FIFOs with banked credits (each launch leaves `slots` spare credits per
/// connection), so fresh-cell happens-before analysis is only sound for
/// the first one.
#[derive(Debug)]
pub struct Launcher {
    stack: &'static str,
    world: usize,
    ov: Overheads,
    /// Whether the first launch has been put to the proof. Later
    /// launches carry banked FIFO credits, which the fresh-cell model
    /// cannot judge soundly, so there is no way to ask for their proof.
    proved: Cell<bool>,
}

impl Launcher {
    /// A launcher for a full-world communicator of `world` ranks whose
    /// counters are prefixed `stack` (`nccl`, `msccl`).
    pub fn new(stack: &'static str, world: usize, ov: Overheads) -> Launcher {
        Launcher {
            stack,
            world,
            ov,
            proved: Cell::new(false),
        }
    }

    /// Records, verifies (first launch only) and runs `kernels`. `spec`
    /// builds the declared collective from the full-world members: rank
    /// `r` contributes `input[r]` and receives into `output[r]`. The
    /// verifier runs the transport checks plus the semantic dataflow pass
    /// against that spec.
    ///
    /// # Errors
    ///
    /// A verifier finding on the first launch, or a kernel deadlock or
    /// timeout from [`run_kernels`].
    pub fn launch(
        &self,
        engine: &mut Engine<Machine>,
        kernels: &[Kernel],
        input: &[BufferId],
        output: &[BufferId],
        spec: impl FnOnce(Vec<SpecMember>) -> CollectiveSpec,
    ) -> Result<KernelTiming> {
        mscclpp::record_launch_mix(engine, self.stack, kernels);
        if !self.proved.replace(true) {
            let members = (0..self.world)
                .map(|r| SpecMember {
                    rank: Rank(r),
                    input: input[r],
                    output: output[r],
                })
                .collect();
            let checks = commverify::Checks::transport();
            commverify::verify_collective(kernels, engine.world().pool(), &checks, &spec(members))?;
        }
        run_kernels(engine, kernels, &self.ov)
    }
}
