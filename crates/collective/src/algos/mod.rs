//! The collective algorithm implementations (§4.4).

pub(crate) mod all_to_all;
pub(crate) mod allgather;
pub(crate) mod allreduce;
pub(crate) mod broadcast;
pub(crate) mod reduce_scatter;

use hw::{DataType, ReduceOp};
use mscclpp::{Kernel, Result};

pub use allreduce::{PeerOrder, ScratchReuse};

/// A prepared channel set that compiles the kernel batch for one launch
/// shape. Every algorithm of every collective implements it; those whose
/// kernels do not depend on the element type or the reduction ignore
/// `dtype` / `op`. `bytes` never exceeds the capacity the plan was
/// prepared for: the communicator re-prepares a plan that is too small
/// before asking it for kernels.
pub(crate) trait Plan {
    fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Result<Vec<Kernel>>;
}
