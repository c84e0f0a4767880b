//! The chunk-level program representation.

use std::error::Error as StdError;
use std::fmt;

/// Which logical buffer a chunk belongs to.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Buf {
    /// The collective's input buffer.
    Input,
    /// The collective's output buffer.
    Output,
    /// Library-managed scratch (allocated by the compiler).
    Scratch,
}

/// A reference to one chunk: `(rank, buffer, chunk index)`.
///
/// Chunk counts per buffer are inferred from the program: a buffer has
/// `max index + 1` chunks, all of equal size (the buffer's bound byte
/// length divided evenly).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// Owning rank.
    pub rank: usize,
    /// Buffer kind.
    pub buf: Buf,
    /// Chunk index within the buffer.
    pub index: usize,
}

impl From<(usize, Buf, usize)> for ChunkRef {
    fn from((rank, buf, index): (usize, Buf, usize)) -> ChunkRef {
        ChunkRef { rank, buf, index }
    }
}

/// A DSL operation (one line of the algorithm description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// `dst = src` (across ranks: a one-sided put; across nodes: RDMA).
    Copy { src: ChunkRef, dst: ChunkRef },
    /// `dst = op(dst, src)`; `src` may be on a peer GPU (direct remote
    /// read) but not on another node.
    Reduce { src: ChunkRef, dst: ChunkRef },
    /// `dst = op(buf[index] across all node ranks)` through the switch.
    MultimemReduce {
        /// The buffer/index forming the multimem group.
        group: (Buf, usize),
        /// Local destination chunk (defines the executing rank).
        dst: ChunkRef,
    },
    /// Multimem store of `src` into `buf[index]` on every node rank.
    MultimemBroadcast {
        /// Local source chunk (defines the executing rank).
        src: ChunkRef,
        /// The buffer/index written on every member.
        group: (Buf, usize),
    },
}

/// Errors from program construction or compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// A chunk reference is malformed (rank out of range, etc.).
    BadChunk(String),
    /// The operation combination is not lowerable (e.g. a cross-node
    /// direct reduce; stage through scratch instead).
    BadOp(String),
    /// Compilation failed (buffer sizes not divisible, channel errors).
    Compile(String),
    /// The compiled instruction streams failed static verification
    /// (race, deadlock, out-of-bounds, orphan signal, unflushed put) —
    /// a compiler bug or an unsound program.
    Verify(String),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::BadChunk(m) => write!(f, "bad chunk reference: {m}"),
            DslError::BadOp(m) => write!(f, "bad operation: {m}"),
            DslError::Compile(m) => write!(f, "compilation failed: {m}"),
            DslError::Verify(m) => write!(f, "compiled program failed verification: {m}"),
        }
    }
}

impl StdError for DslError {}

impl From<mscclpp::Error> for DslError {
    fn from(e: mscclpp::Error) -> DslError {
        DslError::Compile(e.to_string())
    }
}

/// The collective a DSL program claims to compute. Declaring it (see
/// [`Program::declare_collective`]) lets the compiler run the semantic
/// dataflow verifier over the compiled instruction streams: the program
/// is proven to actually gather/reduce/scatter what it says, not merely
/// to be race- and deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclaredCollective {
    /// Every rank's output = element-wise reduction of all inputs.
    AllReduce,
    /// Every rank's output slot `s` = rank `s`'s input.
    AllGather,
    /// Rank `j`'s output = reduction of every input's shard `j`.
    ReduceScatter,
    /// Every rank's output = the root's input.
    Broadcast {
        /// The source rank.
        root: usize,
    },
    /// Rank `j`'s output slot `i` = rank `i`'s input chunk `j`.
    AllToAll,
}

/// A collective algorithm described at the chunk level.
///
/// Build with the operation methods, then [`Program::compile`] against
/// concrete buffers.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) world: usize,
    pub(crate) ops: Vec<Op>,
    /// Max chunk index seen per buffer kind (+1 = chunk count).
    pub(crate) chunks: [usize; 3],
    /// What the program claims to compute, if declared.
    pub(crate) collective: Option<DeclaredCollective>,
}

impl Program {
    /// Starts an empty program for `world` ranks.
    pub fn new(name: impl Into<String>, world: usize) -> Program {
        Program {
            name: name.into(),
            world,
            ops: Vec::new(),
            chunks: [0; 3],
            collective: None,
        }
    }

    /// Declares which collective this program computes. When set, the
    /// compiler checks the compiled instruction streams *semantically*
    /// against the declared collective (every output byte range holds
    /// exactly the declared contributions) and rejects divergence as
    /// [`DslError::Verify`].
    pub fn declare_collective(&mut self, collective: DeclaredCollective) -> &mut Self {
        self.collective = Some(collective);
        self
    }

    /// The declared collective, if any.
    pub fn collective(&self) -> Option<DeclaredCollective> {
        self.collective
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations recorded.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Chunk count inferred for a buffer kind.
    pub fn chunk_count(&self, buf: Buf) -> usize {
        self.chunks[buf_idx(buf)]
    }

    fn note(&mut self, c: ChunkRef) -> Result<(), DslError> {
        if c.rank >= self.world {
            return Err(DslError::BadChunk(format!(
                "rank {} out of range (world {})",
                c.rank, self.world
            )));
        }
        let slot = &mut self.chunks[buf_idx(c.buf)];
        *slot = (*slot).max(c.index + 1);
        Ok(())
    }

    /// Records `dst = src`.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::BadChunk`] for out-of-range ranks.
    pub fn copy(
        &mut self,
        src: impl Into<ChunkRef>,
        dst: impl Into<ChunkRef>,
    ) -> Result<&mut Self, DslError> {
        let (src, dst) = (src.into(), dst.into());
        self.note(src)?;
        self.note(dst)?;
        self.ops.push(Op::Copy { src, dst });
        Ok(self)
    }

    /// Records `dst = op(dst, src)` (element-wise reduction).
    ///
    /// # Errors
    ///
    /// Returns [`DslError::BadChunk`] for out-of-range ranks.
    pub fn reduce(
        &mut self,
        src: impl Into<ChunkRef>,
        dst: impl Into<ChunkRef>,
    ) -> Result<&mut Self, DslError> {
        let (src, dst) = (src.into(), dst.into());
        self.note(src)?;
        self.note(dst)?;
        self.ops.push(Op::Reduce { src, dst });
        Ok(self)
    }

    /// Records a switch multimem load-reduce of `(buf, index)` across all
    /// ranks of `dst.rank`'s node into `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::BadChunk`] for out-of-range ranks.
    pub fn multimem_reduce(
        &mut self,
        group: (Buf, usize),
        dst: impl Into<ChunkRef>,
    ) -> Result<&mut Self, DslError> {
        let dst = dst.into();
        self.note(dst)?;
        self.note(ChunkRef {
            rank: dst.rank,
            buf: group.0,
            index: group.1,
        })?;
        self.ops.push(Op::MultimemReduce { group, dst });
        Ok(self)
    }

    /// Records a switch multimem store-broadcast of `src` into
    /// `(buf, index)` on every rank of `src.rank`'s node.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::BadChunk`] for out-of-range ranks.
    pub fn multimem_broadcast(
        &mut self,
        src: impl Into<ChunkRef>,
        group: (Buf, usize),
    ) -> Result<&mut Self, DslError> {
        let src = src.into();
        self.note(src)?;
        self.note(ChunkRef {
            rank: src.rank,
            buf: group.0,
            index: group.1,
        })?;
        self.ops.push(Op::MultimemBroadcast { src, group });
        Ok(self)
    }
}

pub(crate) fn buf_idx(b: Buf) -> usize {
    match b {
        Buf::Input => 0,
        Buf::Output => 1,
        Buf::Scratch => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_counts_are_inferred() {
        let mut p = Program::new("t", 4);
        p.copy((0, Buf::Input, 2), (1, Buf::Output, 5)).unwrap();
        p.reduce((1, Buf::Scratch, 0), (1, Buf::Output, 1)).unwrap();
        assert_eq!(p.chunk_count(Buf::Input), 3);
        assert_eq!(p.chunk_count(Buf::Output), 6);
        assert_eq!(p.chunk_count(Buf::Scratch), 1);
        assert_eq!(p.op_count(), 2);
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let mut p = Program::new("t", 2);
        let err = p.copy((0, Buf::Input, 0), (5, Buf::Output, 0)).unwrap_err();
        assert!(matches!(err, DslError::BadChunk(_)));
    }
}
