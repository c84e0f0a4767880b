//! The launch tail shared by the staging-FIFO stacks: this crate's
//! [`NcclComm`](crate::NcclComm) and `msccl`'s communicator, which builds
//! on the same [`Conn`](crate::Conn)/[`Prims`](crate::Prims) transport.

use std::cell::Cell;

use commverify::{CollectiveSpec, SpecMember};
use hw::{BufferId, Machine, Rank};
use mscclpp::{run_kernels, Kernel, KernelTiming, Overheads, Result};
use sim::Engine;

/// Splits `total` into `parts` nearly-equal ranges; returns the
/// `(start, len)` of range `idx`.
pub fn split_range(total: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = total / parts;
    let rem = total % parts;
    (idx * base + idx.min(rem), base + usize::from(idx < rem))
}

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
    verify: Cell<bool>,
}

impl Launcher {
    /// A launcher for a full-world communicator of `world` ranks whose
    /// counters are prefixed `stack` (`nccl`, `msccl`). Verification is on.
    pub fn new(stack: &'static str, world: usize, ov: Overheads) -> Launcher {
        Launcher {
            stack,
            world,
            ov,
            verify: Cell::new(true),
        }
    }

    /// Enables or disables verification of the next launch.
    pub fn set_verify(&self, on: bool) {
        self.verify.set(on);
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
        if self.verify.replace(false) {
            let members = (0..self.world)
                .map(|r| SpecMember {
                    rank: Rank(r),
                    input: input[r],
                    output: output[r],
                })
                .collect();
            let checks = commverify::Checks {
                semantics: true,
                ..commverify::Checks::transport()
            };
            commverify::verify_collective(kernels, engine.world().pool(), &checks, &spec(members))?;
        }
        run_kernels(engine, kernels, &self.ov)
    }
}
