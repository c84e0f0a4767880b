//! The kernel interpreter: executes [`Kernel`] instruction streams on the
//! simulated machine, one process per thread block.
//!
//! This component plays the role of the GPU itself in the reproduction:
//! it charges hardware transfer times from [`hw`], the thin MSCCL++
//! software overheads from [`crate::Overheads`], and performs the real
//! byte movement so collective outputs can be verified.

use std::cell::RefCell;
use std::rc::Rc;

use hw::{BufferId, CopyMode, LinkFault, Machine, Rank};
use sim::{CellId, Ctx, Duration, Engine, Process, SpanLabelId, Step, Time};

use crate::error::Result;
use crate::kernel::{Instr, Kernel};
use crate::overheads::Overheads;
use crate::sanitizer::{SanHook, SanReport, SanSite, SanState};

/// Size in bytes of the semaphore word written by a remote signal.
const SIGNAL_BYTES: u64 = 8;

/// Timing of one kernel launch batch across all ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTiming {
    /// Virtual time when the launch was issued.
    pub start: Time,
    /// Virtual time when the last thread block of the last rank finished.
    pub end: Time,
    /// Per-rank completion instants (index = rank).
    pub per_rank_end: Vec<Time>,
}

impl KernelTiming {
    /// End-to-end latency of the batch.
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
struct LaunchStats {
    per_rank_end: Vec<Time>,
    /// Executed-instruction mix summed over finished blocks (indexed by
    /// [`Instr::opcode`]); flushed into the engine metrics once per
    /// launch, so the per-instruction hot path never touches a map.
    mix: [u64; Instr::KIND_COUNT],
    syncs: u64,
    signals: u64,
    puts: u64,
}

/// Metrics counter names for each instruction kind, indexed like
/// [`Instr::MNEMONICS`].
const INSTR_COUNTERS: [&str; Instr::KIND_COUNT] = [
    "instr.mem_put",
    "instr.mem_signal",
    "instr.mem_wait",
    "instr.mem_wait_data",
    "instr.mem_read_reduce",
    "instr.port_put",
    "instr.port_signal",
    "instr.port_flush",
    "instr.port_wait",
    "instr.switch_reduce",
    "instr.switch_broadcast",
    "instr.copy",
    "instr.reduce",
    "instr.raw_put",
    "instr.raw_reduce_put",
    "instr.reduce_into",
    "instr.sem_wait",
    "instr.sem_signal",
    "instr.barrier",
    "instr.compute",
];

/// [`Instr::opcode`] of `PortPut`, which is metered on its success path
/// only (it re-executes while the proxy FIFO is full).
const OP_PORT_PUT: usize = 5;

/// Pre-resolved span labels for the interpreter's wait sites, resolved
/// once per launch so the per-wait hot path never hashes a string. The
/// fault-path spans (`wait.link_down`, `wait.rank_down`) stay on the
/// string API — they fire at most once per block.
#[derive(Debug, Clone, Copy)]
struct SpanIds {
    mem_sem: SpanLabelId,
    mem_data: SpanLabelId,
    port_fifo: SpanLabelId,
    port_flush: SpanLabelId,
    port_sem: SpanLabelId,
    sem: SpanLabelId,
    barrier: SpanLabelId,
}

impl SpanIds {
    fn resolve(engine: &mut Engine<Machine>) -> SpanIds {
        SpanIds {
            mem_sem: engine.span_label_id("wait.mem_sem"),
            mem_data: engine.span_label_id("wait.mem_data"),
            port_fifo: engine.span_label_id("wait.port_fifo"),
            port_flush: engine.span_label_id("wait.port_flush"),
            port_sem: engine.span_label_id("wait.port_sem"),
            sem: engine.span_label_id("wait.sem"),
            barrier: engine.span_label_id("wait.barrier"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Execute the instruction at `pc` next.
    None,
    /// A wait was satisfied: consume it (advance `pc`) and charge the
    /// wait-exit cost.
    Advance,
    /// Blocked on back-pressure (full proxy FIFO): re-execute the same
    /// instruction.
    Retry,
}

/// One simulated thread block interpreting its instruction stream.
struct TbProc {
    rank: Rank,
    /// Index of this block's kernel in the shared launch batch.
    ki: usize,
    tb: usize,
    /// The whole launch batch, shared by every block (spawning a launch
    /// clones `Rc`s, never instruction programs).
    kernels: Rc<Vec<Kernel>>,
    pc: usize,
    launched: bool,
    pending: Pending,
    launch: Duration,
    ov: Overheads,
    stats: Rc<RefCell<LaunchStats>>,
    /// Executed-instruction mix (indexed by [`Instr::opcode`]), folded
    /// into the shared [`LaunchStats`] when the block finishes.
    mix: [u64; Instr::KIND_COUNT],
    syncs: u64,
    signals: u64,
    puts: u64,
    /// Dynamic-sanitizer handle when running under
    /// [`run_kernels_sanitized`]; `None` on the normal path.
    san: Option<SanHook>,
    /// The cell whose published clock must be acquired when the pending
    /// wait resumes (sanitized runs only).
    acquired: Option<CellId>,
    /// Pre-resolved wait-span labels (see [`SpanIds`]).
    sids: SpanIds,
}

impl TbProc {
    /// Issue-side cost of one instruction (`extra` + decode), stretched by
    /// the fault plan's straggler factor for this rank while a straggler
    /// window is active — a degraded SM clock slows instruction issue, not
    /// the wires.
    fn issue_cost(&self, ctx: &mut Ctx<'_, Machine>, extra: Duration) -> Duration {
        let cost = extra + self.ov.instr_decode;
        let factor = match ctx.fault_plan() {
            Some(plan) => plan.straggler_factor(ctx.now(), self.rank.0),
            None => 1.0,
        };
        if factor != 1.0 {
            ctx.count("fault.straggler_slowdowns", 1);
            Duration::from_ps((cost.as_ps() as f64 * factor).round() as u64)
        } else {
            cost
        }
    }

    /// Yields until `until`, adding `extra` issue overhead.
    fn busy_until(
        &self,
        ctx: &mut Ctx<'_, Machine>,
        now: Time,
        until: Time,
        extra: Duration,
    ) -> Step {
        Step::Yield((until - now) + self.issue_cost(ctx, extra))
    }

    fn quick(&self, ctx: &mut Ctx<'_, Machine>, extra: Duration) -> Step {
        Step::Yield(self.issue_cost(ctx, extra))
    }

    /// Parks the block forever when its transfer path is permanently down.
    /// Thread blocks are not daemons, so the hang is never silent: the
    /// fault plan's watchdog converts it into [`sim::TimeoutError`] naming
    /// the `wait.link_down` span, and without a watchdog the deadlock
    /// detector reports it at quiescence.
    fn park_link_down(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
        ctx.count("fault.link_down_blocked", 1);
        ctx.span_begin("wait.link_down");
        let dead = ctx.alloc_cell();
        Step::WaitCell {
            cell: dead,
            at_least: 1,
        }
    }

    /// Whether the path between two ranks is permanently down (transient
    /// flaps are absorbed by the hardware timing helpers as delays).
    fn path_dead(&self, ctx: &mut Ctx<'_, Machine>, a: Rank, b: Rank) -> bool {
        a != b && matches!(hw::link_fault(ctx, a, b), LinkFault::Down)
    }

    /// This block's instruction program.
    fn prog(&self) -> &[Instr] {
        &self.kernels[self.ki].blocks[self.tb]
    }

    /// Records one executed instruction in the block-local accumulators.
    fn meter(&mut self, instr: &Instr) {
        self.mix[instr.opcode()] += 1;
        if instr.is_sync() {
            self.syncs += 1;
        }
        if instr.is_put() {
            self.puts += 1;
        }
        self.signals += instr.signals();
    }

    /// Records a sanitized byte-range access (no-op on the normal path).
    fn san_access(&self, site: SanSite, buf: BufferId, off: usize, bytes: usize, write: bool) {
        if let Some(san) = &self.san {
            san.access(site, buf, off, bytes, write);
        }
    }

    /// Publishes this block's clock into `cells` (release semantics).
    fn san_release(&self, cells: &[CellId]) {
        if let Some(san) = &self.san {
            san.release(cells);
        }
    }

    /// Arms the acquire for a wait on `cell`: when the wait resumes, the
    /// cell's published clock is joined into this block's.
    fn san_wait(&mut self, cell: CellId) {
        if self.san.is_some() {
            self.acquired = Some(cell);
        }
    }

    /// Folds the block-local accumulators into the shared launch stats
    /// (flushed to the engine metrics once per launch).
    fn flush_into_stats(&mut self, stats: &mut LaunchStats) {
        for (slot, c) in stats.mix.iter_mut().zip(std::mem::take(&mut self.mix)) {
            *slot += c;
        }
        stats.syncs += std::mem::take(&mut self.syncs);
        stats.signals += std::mem::take(&mut self.signals);
        stats.puts += std::mem::take(&mut self.puts);
    }
}

impl Process<Machine> for TbProc {
    fn step(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
        if !self.launched {
            self.launched = true;
            return Step::Yield(self.launch);
        }
        match self.pending {
            Pending::Advance => {
                self.pending = Pending::None;
                self.pc += 1;
                ctx.span_end();
                if let (Some(san), Some(cell)) = (&self.san, self.acquired.take()) {
                    san.acquire(cell);
                }
                return Step::Yield(self.ov.wait_exit);
            }
            Pending::Retry => {
                self.pending = Pending::None;
                ctx.span_end();
                if let (Some(san), Some(cell)) = (&self.san, self.acquired.take()) {
                    san.acquire(cell);
                }
            }
            Pending::None => {}
        }
        if self.pc >= self.prog().len() {
            {
                let stats = Rc::clone(&self.stats);
                let mut s = stats.borrow_mut();
                self.flush_into_stats(&mut s);
                let slot = &mut s.per_rank_end[self.rank.0];
                *slot = (*slot).max(ctx.now());
            }
            return Step::Done;
        }
        let now = ctx.now();
        // A dead GPU stops issuing entirely: its blocks park mid-stream
        // and whatever they owed their peers never arrives. Peers learn
        // of the death only through their own timeouts — no oracle.
        if ctx
            .fault_plan()
            .is_some_and(|p| p.rank_down_at(now, self.rank.0))
        {
            ctx.count("fault.rank_down_halted", 1);
            ctx.span_begin("wait.rank_down");
            let dead = ctx.alloc_cell();
            return Step::WaitCell {
                cell: dead,
                at_least: 1,
            };
        }
        // Borrow the instruction through a cloned batch handle rather than
        // deep-cloning it: the program is immutable for the launch's
        // lifetime, and the `Rc` keeps the borrow independent of
        // `&mut self` uses inside the match arms.
        let kernels = Rc::clone(&self.kernels);
        let instr = &kernels[self.ki].blocks[self.tb][self.pc];
        let site = SanSite {
            rank: self.rank,
            tb: self.tb,
            pc: self.pc,
        };
        // PortPut is metered on its success path only (it re-executes when
        // the proxy FIFO is full); everything else executes exactly once.
        if !matches!(instr, Instr::PortPut { .. }) {
            self.meter(instr);
        }
        match *instr {
            Instr::MemPut {
                ref ch,
                src_off,
                dst_off,
                bytes,
                with_signal,
            } => {
                if self.path_dead(ctx, ch.local_rank, ch.peer_rank) {
                    return self.park_link_down(ctx);
                }
                let wire = match ch.protocol {
                    crate::Protocol::LL => (bytes as f64 * self.ov.ll_wire_factor) as u64,
                    crate::Protocol::HB => bytes as u64,
                };
                let xfer = hw::p2p_time(ctx, ch.local_rank, ch.peer_rank, wire, CopyMode::Thread);
                ctx.world
                    .pool_mut()
                    .copy(ch.local_buf, src_off, ch.remote_buf, dst_off, bytes);
                self.san_access(site, ch.local_buf, src_off, bytes, false);
                self.san_access(site, ch.remote_buf, dst_off, bytes, true);
                if with_signal {
                    self.san_release(&[ch.peer_arrival, ch.peer_sem]);
                } else {
                    self.san_release(&[ch.peer_arrival]);
                }
                ctx.cell_add_at(ch.peer_arrival, 1, xfer.arrival);
                if with_signal {
                    ctx.cell_add_at(ch.peer_sem, 1, xfer.arrival + self.ov.signal_fence);
                }
                self.pc += 1;
                self.busy_until(ctx, now, xfer.sender_free, self.ov.mem_put_issue)
            }
            Instr::MemSignal { ref ch } => {
                if self.path_dead(ctx, ch.local_rank, ch.peer_rank) {
                    return self.park_link_down(ctx);
                }
                // The semaphore increment is a tiny transfer riding the same
                // link resources, which orders it after preceding puts.
                let xfer = hw::p2p_time(
                    ctx,
                    ch.local_rank,
                    ch.peer_rank,
                    SIGNAL_BYTES,
                    CopyMode::Thread,
                );
                self.san_release(&[ch.peer_sem]);
                ctx.cell_add_at(ch.peer_sem, 1, xfer.arrival + self.ov.signal_fence);
                self.pc += 1;
                self.quick(ctx, self.ov.signal_issue)
            }
            Instr::MemWait { ref ch } => {
                let expect = ch.sem_expect.get() + 1;
                ch.sem_expect.set(expect);
                self.pending = Pending::Advance;
                self.san_wait(ch.my_sem);
                ctx.span_begin_id(self.sids.mem_sem);
                Step::WaitCell {
                    cell: ch.my_sem,
                    at_least: expect,
                }
            }
            Instr::MemWaitData { ref ch } => {
                let expect = ch.arrival_expect.get() + 1;
                ch.arrival_expect.set(expect);
                self.pending = Pending::Advance;
                self.san_wait(ch.my_arrival);
                ctx.span_begin_id(self.sids.mem_data);
                Step::WaitCell {
                    cell: ch.my_arrival,
                    at_least: expect,
                }
            }
            Instr::MemReadReduce {
                ref ch,
                remote_off,
                local_buf,
                local_off,
                bytes,
                dtype,
                op,
            } => {
                if self.path_dead(ctx, ch.peer_rank, ch.local_rank) {
                    return self.park_link_down(ctx);
                }
                // Data flows peer -> local: the read occupies the peer's
                // egress and our ingress.
                let xfer = hw::p2p_time(
                    ctx,
                    ch.peer_rank,
                    ch.local_rank,
                    bytes as u64,
                    CopyMode::Thread,
                );
                let count = bytes / dtype.size();
                ctx.world.pool_mut().reduce(
                    ch.remote_buf,
                    remote_off,
                    local_buf,
                    local_off,
                    count,
                    dtype,
                    op,
                );
                self.san_access(site, ch.remote_buf, remote_off, bytes, false);
                self.san_access(site, local_buf, local_off, bytes, true);
                self.pc += 1;
                self.busy_until(ctx, now, xfer.arrival, self.ov.mem_put_issue)
            }
            Instr::PortPut {
                ref ch,
                src_off,
                dst_off,
                bytes,
                with_signal,
            } => {
                let (queue_len, pushed) = {
                    let f = ch.fifo.borrow();
                    (f.queue.len(), f.pushed)
                };
                if queue_len >= self.ov.fifo_capacity {
                    // FIFO full (Figure 7 ①: GPU waits until the CPU has
                    // processed at least one request).
                    self.pending = Pending::Retry;
                    self.san_wait(ch.completed_cell);
                    ctx.span_begin_id(self.sids.port_fifo);
                    return Step::WaitCell {
                        cell: ch.completed_cell,
                        at_least: pushed - self.ov.fifo_capacity as u64 + 1,
                    };
                }
                self.mix[OP_PORT_PUT] += 1;
                self.puts += 1;
                self.signals += u64::from(with_signal);
                let depth = {
                    let mut f = ch.fifo.borrow_mut();
                    f.queue.push_back(crate::channel::ProxyRequest::Put {
                        src: ch.local_buf,
                        src_off,
                        dst: ch.remote_buf,
                        dst_off,
                        bytes,
                        with_signal,
                    });
                    f.pushed += 1;
                    f.queue.len() as u64
                };
                if ctx.tracing() {
                    ctx.trace_counter(
                        &format!("fifo.depth {}->{}", ch.local_rank, ch.peer_rank),
                        depth,
                    );
                }
                // The proxy's copy is attributed to the pushing block at
                // push time: FIFO order plus completion-before-signal make
                // the pusher's clock a sound stand-in for the proxy's.
                self.san_access(site, ch.local_buf, src_off, bytes, false);
                self.san_access(site, ch.remote_buf, dst_off, bytes, true);
                if with_signal {
                    self.san_release(&[ch.completed_cell, ch.peer_arrival, ch.peer_sem]);
                } else {
                    self.san_release(&[ch.completed_cell, ch.peer_arrival]);
                }
                ctx.cell_add(ch.pushed_cell, 1);
                self.pc += 1;
                self.quick(ctx, self.ov.port_push)
            }
            Instr::PortSignal { ref ch } => {
                let depth = {
                    let mut f = ch.fifo.borrow_mut();
                    f.queue.push_back(crate::channel::ProxyRequest::Signal);
                    f.pushed += 1;
                    f.queue.len() as u64
                };
                if ctx.tracing() {
                    ctx.trace_counter(
                        &format!("fifo.depth {}->{}", ch.local_rank, ch.peer_rank),
                        depth,
                    );
                }
                self.san_release(&[ch.completed_cell, ch.peer_sem]);
                ctx.cell_add(ch.pushed_cell, 1);
                self.pc += 1;
                self.quick(ctx, self.ov.port_push)
            }
            Instr::PortFlush { ref ch, deadline } => {
                let pushed = ch.fifo.borrow().pushed;
                self.pending = Pending::Advance;
                self.san_wait(ch.completed_cell);
                ctx.span_begin_id(self.sids.port_flush);
                match deadline {
                    Some(timeout) => Step::WaitCellTimeout {
                        cell: ch.completed_cell,
                        at_least: pushed,
                        timeout,
                    },
                    None => Step::WaitCell {
                        cell: ch.completed_cell,
                        at_least: pushed,
                    },
                }
            }
            Instr::PortWait { ref ch } => {
                let expect = ch.sem_expect.get() + 1;
                ch.sem_expect.set(expect);
                self.pending = Pending::Advance;
                self.san_wait(ch.my_sem);
                ctx.span_begin_id(self.sids.port_sem);
                Step::WaitCell {
                    cell: ch.my_sem,
                    at_least: expect,
                }
            }
            Instr::SwitchReduce {
                ref ch,
                src_off,
                dst_buf,
                dst_off,
                bytes,
                dtype,
                op,
            } => {
                if matches!(hw::multimem_fault(ctx), LinkFault::Down) {
                    return self.park_link_down(ctx);
                }
                let done = hw::multimem_reduce_time(ctx, ch.rank, bytes as u64);
                let count = bytes / dtype.size();
                let srcs: Vec<_> = ch.members.iter().map(|&(_, b)| (b, src_off)).collect();
                ctx.world
                    .pool_mut()
                    .multimem_reduce(&srcs, dst_buf, dst_off, count, dtype, op);
                for &(b, off) in &srcs {
                    self.san_access(site, b, off, bytes, false);
                }
                self.san_access(site, dst_buf, dst_off, bytes, true);
                self.pc += 1;
                self.busy_until(ctx, now, done, self.ov.switch_issue)
            }
            Instr::SwitchBroadcast {
                ref ch,
                src_buf,
                src_off,
                dst_off,
                bytes,
            } => {
                if matches!(hw::multimem_fault(ctx), LinkFault::Down) {
                    return self.park_link_down(ctx);
                }
                let xfer = hw::multimem_broadcast_time(ctx, ch.rank, bytes as u64);
                let dsts: Vec<_> = ch.members.iter().map(|&(_, b)| (b, dst_off)).collect();
                ctx.world
                    .pool_mut()
                    .multimem_broadcast(src_buf, src_off, &dsts, bytes);
                self.san_access(site, src_buf, src_off, bytes, false);
                for &(b, off) in &dsts {
                    self.san_access(site, b, off, bytes, true);
                }
                self.pc += 1;
                self.busy_until(ctx, now, xfer.sender_free, self.ov.switch_issue)
            }
            Instr::Copy {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
            } => {
                let done = hw::local_copy_time(ctx, self.rank, bytes as u64);
                ctx.world.pool_mut().copy(src, src_off, dst, dst_off, bytes);
                self.san_access(site, src, src_off, bytes, false);
                self.san_access(site, dst, dst_off, bytes, true);
                self.pc += 1;
                self.busy_until(ctx, now, done, Duration::ZERO)
            }
            Instr::Reduce {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
                dtype,
                op,
            } => {
                let done = hw::local_reduce_time(ctx, self.rank, bytes as u64);
                let count = bytes / dtype.size();
                ctx.world
                    .pool_mut()
                    .reduce(src, src_off, dst, dst_off, count, dtype, op);
                self.san_access(site, src, src_off, bytes, false);
                self.san_access(site, dst, dst_off, bytes, true);
                self.pc += 1;
                self.busy_until(ctx, now, done, Duration::ZERO)
            }
            Instr::RawPut {
                src_rank,
                src,
                src_off,
                dst_rank,
                dst,
                dst_off,
                bytes,
                wire_factor,
                ref notify,
            } => {
                if self.path_dead(ctx, src_rank, dst_rank) {
                    return self.park_link_down(ctx);
                }
                let wire = (bytes as f64 * wire_factor) as u64;
                let topo = ctx.world.topology();
                let (sender_free, arrival) = if topo.same_node(src_rank, dst_rank) {
                    let xfer = hw::p2p_time(ctx, src_rank, dst_rank, wire, CopyMode::Thread);
                    (xfer.sender_free, xfer.arrival)
                } else {
                    // NCCL network path: the GPU only stages the data
                    // locally; a CPU proxy performs the RDMA. The GPU is
                    // free after the local write, the data arrives after
                    // proxy handling plus the wire time.
                    let staged = hw::local_copy_time(ctx, src_rank, wire);
                    let xfer = hw::net_time(ctx, src_rank, dst_rank, wire);
                    let proxy = self.ov.proxy_handle + self.ov.proxy_post;
                    (staged, xfer.arrival + proxy)
                };
                ctx.world.pool_mut().copy(src, src_off, dst, dst_off, bytes);
                self.san_access(site, src, src_off, bytes, false);
                self.san_access(site, dst, dst_off, bytes, true);
                if let Some(sem) = notify {
                    self.san_release(&[sem.cell]);
                    ctx.cell_add_at(sem.cell, 1, arrival);
                }
                self.pc += 1;
                self.busy_until(ctx, now, sender_free, self.ov.mem_put_issue)
            }
            Instr::RawReducePut {
                src_rank,
                a,
                a_off,
                b,
                b_off,
                dst_rank,
                dst,
                dst_off,
                bytes,
                wire_factor,
                dtype,
                op,
                ref notify,
            } => {
                if self.path_dead(ctx, src_rank, dst_rank) {
                    return self.park_link_down(ctx);
                }
                let wire = (bytes as f64 * wire_factor) as u64;
                let topo = ctx.world.topology();
                let (sender_free, arrival) = if topo.same_node(src_rank, dst_rank) {
                    let xfer = hw::p2p_time(ctx, src_rank, dst_rank, wire, CopyMode::Thread);
                    (xfer.sender_free, xfer.arrival)
                } else {
                    let staged = hw::local_copy_time(ctx, src_rank, wire);
                    let xfer = hw::net_time(ctx, src_rank, dst_rank, wire);
                    let proxy = self.ov.proxy_handle + self.ov.proxy_post;
                    (staged, xfer.arrival + proxy)
                };
                let count = bytes / dtype.size();
                ctx.world
                    .pool_mut()
                    .reduce_into(a, a_off, b, b_off, dst, dst_off, count, dtype, op);
                self.san_access(site, a, a_off, bytes, false);
                self.san_access(site, b, b_off, bytes, false);
                self.san_access(site, dst, dst_off, bytes, true);
                if let Some(sem) = notify {
                    self.san_release(&[sem.cell]);
                    ctx.cell_add_at(sem.cell, 1, arrival);
                }
                self.pc += 1;
                self.busy_until(ctx, now, sender_free, self.ov.mem_put_issue)
            }
            Instr::ReduceInto {
                a,
                a_off,
                b,
                b_off,
                dst,
                dst_off,
                bytes,
                dtype,
                op,
            } => {
                let done = hw::local_reduce_time(ctx, self.rank, bytes as u64);
                let count = bytes / dtype.size();
                ctx.world
                    .pool_mut()
                    .reduce_into(a, a_off, b, b_off, dst, dst_off, count, dtype, op);
                self.san_access(site, a, a_off, bytes, false);
                self.san_access(site, b, b_off, bytes, false);
                self.san_access(site, dst, dst_off, bytes, true);
                self.pc += 1;
                self.busy_until(ctx, now, done, Duration::ZERO)
            }
            Instr::SemWait { ref sem } => {
                let expect = sem.expect.get() + 1;
                sem.expect.set(expect);
                self.pending = Pending::Advance;
                self.san_wait(sem.cell);
                ctx.span_begin_id(self.sids.sem);
                Step::WaitCell {
                    cell: sem.cell,
                    at_least: expect,
                }
            }
            Instr::SemSignal { ref sem } => {
                if self.path_dead(ctx, self.rank, sem.owner) {
                    return self.park_link_down(ctx);
                }
                let topo = ctx.world.topology();
                let arrival = if sem.owner == self.rank {
                    now + self.ov.signal_issue
                } else if topo.same_node(self.rank, sem.owner) {
                    let xfer =
                        hw::p2p_time(ctx, self.rank, sem.owner, SIGNAL_BYTES, CopyMode::Thread);
                    xfer.arrival + self.ov.signal_fence
                } else {
                    let xfer = hw::net_time(ctx, self.rank, sem.owner, SIGNAL_BYTES);
                    xfer.arrival + self.ov.signal_fence
                };
                self.san_release(&[sem.cell]);
                ctx.cell_add_at(sem.cell, 1, arrival);
                self.pc += 1;
                self.quick(ctx, self.ov.signal_issue)
            }
            Instr::Barrier { ref barrier } => {
                let round = barrier.round.get() + 1;
                barrier.round.set(round);
                self.san_release(&[barrier.cell]);
                ctx.cell_add_at(barrier.cell, 1, now + self.ov.barrier_arrive + barrier.prop);
                self.pending = Pending::Advance;
                self.san_wait(barrier.cell);
                ctx.span_begin_id(self.sids.barrier);
                Step::WaitCell {
                    cell: barrier.cell,
                    at_least: round * barrier.parties as u64,
                }
            }
            Instr::Compute { dur } => {
                self.pc += 1;
                Step::Yield(dur)
            }
        }
    }

    fn label(&self) -> String {
        format!(
            "kernel {} tb{} pc={}/{}",
            self.rank,
            self.tb,
            self.pc,
            self.prog().len()
        )
    }
}

/// Records the *emitted* instruction mix of a kernel batch under
/// stack-prefixed counters (`{stack}.{mnemonic}`), so per-stack primitive
/// usage can be compared even though every stack executes through the same
/// interpreter. Call once per launch, before [`run_kernels`].
pub fn record_launch_mix(engine: &mut Engine<Machine>, stack: &str, kernels: &[Kernel]) {
    let mut mix = [0u64; Instr::KIND_COUNT];
    for k in kernels {
        for block in &k.blocks {
            for instr in block {
                mix[instr.opcode()] += 1;
            }
        }
    }
    for (kind, &count) in mix.iter().enumerate() {
        if count > 0 {
            engine.count(&format!("{stack}.{}", Instr::MNEMONICS[kind]), count);
        }
    }
}

/// Launches `kernels` (one per participating rank), runs the simulation to
/// quiescence, and returns the batch timing.
///
/// Kernel launch overhead (from the machine's [`hw::GpuSpec`]) is charged
/// once per thread block before its first instruction.
///
/// # Errors
///
/// Returns [`crate::Error::Deadlock`] if the kernels synchronize
/// incorrectly (a `wait` whose `signal` never happens), or
/// [`crate::Error::Timeout`] if a wait with a deadline (an explicit
/// `port_flush_deadline`, or any wait under an active fault plan's
/// watchdog) expires first. On either error the engine is aborted —
/// outstanding waits are torn down but the clock, buffers and metrics
/// survive, so the caller can re-plan and launch again.
pub fn run_kernels(
    engine: &mut Engine<Machine>,
    kernels: &[Kernel],
    ov: &Overheads,
) -> Result<KernelTiming> {
    run_kernels_inner(engine, &Rc::new(kernels.to_vec()), ov, None)
}

/// Like [`run_kernels`], for a launch batch already behind an `Rc` (the
/// cached-plan replay path): spawning thread blocks shares the batch
/// instead of deep-cloning every instruction program.
pub fn run_kernels_shared(
    engine: &mut Engine<Machine>,
    kernels: &Rc<Vec<Kernel>>,
    ov: &Overheads,
) -> Result<KernelTiming> {
    run_kernels_inner(engine, kernels, ov, None)
}

/// Like [`run_kernels`], but with the dynamic memory-access sanitizer
/// enabled: every thread block carries a vector clock advanced at sync
/// instructions, and every byte-range access is checked against a shadow
/// history for unordered conflicting overlaps.
///
/// Returns the batch timing together with a [`SanReport`] listing any
/// concrete races observed in this execution (with the two offending
/// instruction sites). A clean report does not prove race-freedom for
/// all schedules — that is the static verifier's job — but a non-clean
/// report is a definite bug in the plan's synchronization.
///
/// # Errors
///
/// Same failure modes as [`run_kernels`]; sanitizer findings are data,
/// not errors.
pub fn run_kernels_sanitized(
    engine: &mut Engine<Machine>,
    kernels: &[Kernel],
    ov: &Overheads,
) -> Result<(KernelTiming, SanReport)> {
    run_kernels_sanitized_shared(engine, &Rc::new(kernels.to_vec()), ov)
}

/// [`run_kernels_sanitized`] for an `Rc`-shared launch batch (see
/// [`run_kernels_shared`]).
pub fn run_kernels_sanitized_shared(
    engine: &mut Engine<Machine>,
    kernels: &Rc<Vec<Kernel>>,
    ov: &Overheads,
) -> Result<(KernelTiming, SanReport)> {
    let state = Rc::new(RefCell::new(SanState::default()));
    let timing = run_kernels_inner(engine, kernels, ov, Some(&state))?;
    let report = state.borrow().report();
    Ok((timing, report))
}

/// Flushes the launch-wide accumulators into the engine metrics. Runs on
/// both the success and the error path, so blocks that finished before a
/// deadlock or timeout keep their executed-instruction counts, exactly
/// as when every block flushed its own counters at exit.
fn flush_launch_metrics(engine: &mut Engine<Machine>, stats: &LaunchStats) {
    for (kind, &count) in stats.mix.iter().enumerate() {
        if count > 0 {
            engine.count(INSTR_COUNTERS[kind], count);
        }
    }
    if stats.syncs > 0 {
        engine.count("sync.waits", stats.syncs);
    }
    if stats.signals > 0 {
        engine.count("sync.signals", stats.signals);
    }
    if stats.puts > 0 {
        engine.count("ops.puts", stats.puts);
    }
}

fn run_kernels_inner(
    engine: &mut Engine<Machine>,
    kernels: &Rc<Vec<Kernel>>,
    ov: &Overheads,
    san: Option<&Rc<RefCell<SanState>>>,
) -> Result<KernelTiming> {
    let start = engine.now();
    let world = engine.world().topology().world_size();
    let launch = engine.world().spec().gpu.kernel_launch;
    let stats = Rc::new(RefCell::new(LaunchStats {
        per_rank_end: vec![start; world],
        mix: [0; Instr::KIND_COUNT],
        syncs: 0,
        signals: 0,
        puts: 0,
    }));
    let sids = SpanIds::resolve(engine);
    let mut tid = 0;
    for (ki, k) in kernels.iter().enumerate() {
        for tb in 0..k.blocks.len() {
            let hook = san.map(|s| SanHook::new(s.clone(), tid));
            tid += 1;
            engine.spawn(TbProc {
                rank: k.rank,
                ki,
                tb,
                kernels: Rc::clone(kernels),
                pc: 0,
                launched: false,
                pending: Pending::None,
                launch,
                ov: ov.clone(),
                stats: stats.clone(),
                mix: [0; Instr::KIND_COUNT],
                syncs: 0,
                signals: 0,
                puts: 0,
                san: hook,
                acquired: None,
                sids,
            });
        }
    }
    let run_result = engine.run();
    flush_launch_metrics(engine, &stats.borrow());
    if let Err(e) = run_result {
        // Tear down outstanding waiters and unfinished processes so the
        // engine (clock, buffers, metrics intact) stays usable — callers
        // may re-plan onto a degraded topology and retry.
        engine.abort();
        return Err(e.into());
    }
    let per_rank_end = stats.borrow().per_rank_end.clone();
    let end = per_rank_end.iter().copied().fold(start, Time::max);
    Ok(KernelTiming {
        start,
        end,
        per_rank_end,
    })
}
