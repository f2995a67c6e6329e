//! The decoded SIMT warp interpreter.
//!
//! This is the production execution engine: it runs a
//! [`DecodedImage`] produced by [`DecodedImage::decode`] instead of
//! walking the structured IR. The execution model is identical to the
//! tree-walking oracle in [`crate::reference`] (Volta-style independent
//! thread scheduling with convergence-barrier registers; see the module
//! docs there), and the two are kept bit-for-bit equivalent — same
//! metrics, memory, traces, profiles, RNG streams, and errors — which a
//! property test enforces. What changes is the hot loop:
//!
//! - a thread's PC is one flat `usize` and issuing indexes a dense
//!   `Vec<DecodedInst>` of `Copy` instructions with pre-resolved costs;
//! - thread groups are `(pc, u64 lane mask)` pairs end to end: grouping
//!   is one pass over packed `(pc << 6) | lane` keys with a fast path
//!   for converged warps, scheduling is [`select_group_mask`], and lane
//!   iteration is `trailing_zeros`/clear-lowest-bit ([`lanes`]);
//! - each warp carries incremental `runnable`/`waiting`/`at_sync`/
//!   `exited` masks maintained at the status transition points, so an
//!   issue slot never scans thread statuses;
//! - registers live in one arena per warp, laid out `[row * width +
//!   lane]` ([`RegArena`]): each lane's call frames stack register
//!   windows upward from row 0, and a lane keeps only frame metadata
//!   (`pc`, return registers, window base and length). A register read
//!   is one indexed load at the lane's cached top-frame offset; `call`
//!   and `ret` push and pop windows with no copying through staging;
//! - execute arms work per issue, not per lane: ALU arms pick their
//!   kernel once from the shared table in [`crate::alu`] and every other
//!   arm resolves its operands (and `Special`/`Rng` kinds) before its
//!   lane loop;
//! - a fallible kernel (integer `div`/`rem`, bitwise ops, `not`) stages
//!   its lanes' results and commits them only if no lane faulted, so a
//!   faulting issue mutates nothing. The straight-line batcher relies on
//!   this: a batched issue that faults just ends the batch, and the
//!   instruction faults again in its own round, in exact error order;
//! - every buffer the loop needs (group keys, coalescing addresses, the
//!   fallible-kernel stage) lives in a per-[`Machine`] [`Scratch`], and
//!   the register arena only grows to its high-water row count — after
//!   warm-up, [`Machine::step`] performs **zero heap allocations** in
//!   steady state (a counting-allocator test enforces this).

use crate::alu::{AluOp, LaneLoop};
use crate::config::{ReconvergenceModel, SchedulerPolicy, SimConfig};
use crate::decode::{DecodedImage, DecodedInst, PoolRange};
use crate::error::{BarrierState, ReconDump, SimError, SplitDump, StackEntryDump, ThreadLocation};
use crate::journal::{Journal, JournalEvent};
use crate::machine::{Launch, SimOutput};
use crate::metrics::Metrics;
use crate::profile::Profile;
use crate::recon::{IpdomTable, Split, StackEntry, NO_RPC};
use crate::rng::SplitMix64;
use crate::sched::{lanes, select_group_mask};
use crate::trace::{Trace, TraceEvent};
use simt_ir::{BarrierId, BarrierOp, BinOp, MemSpace, Operand, RngKind, SpecialValue, Value};

/// One call frame of a lane: where its register window sits in an
/// arena, and how to resume the caller. The decoded engine's arena is
/// the warp's [`RegArena`]; the sweep cohort lays the same windows over
/// its per-lane slot columns.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    /// Saved pc. Authoritative only while the frame is suspended (a call
    /// is in flight above it); the *top* frame's live pc is tracked in
    /// [`Warp::pcs`] so the scheduler scans a flat array instead of
    /// chasing `frames.last()` per lane.
    pub(crate) pc: usize,
    /// Caller registers (a [`DecodedImage::reg_pool`] span) that receive
    /// this frame's return values.
    pub(crate) ret_regs: PoolRange,
    /// First arena row of the frame's register window.
    pub(crate) base: usize,
    /// Number of registers (rows) in the window.
    pub(crate) len: usize,
}

impl Frame {
    /// First row above this frame's window: where a callee's window
    /// starts (the arena is a per-lane bump allocator).
    pub(crate) fn end(&self) -> usize {
        self.base + self.len
    }
}

/// A warp's register file: one arena shared by every lane, laid out
/// `[row * width + lane]`, so lanes are the column axis. Each lane's
/// frames own consecutive windows of rows starting at row 0; the arena
/// only grows, to the deepest lane's high-water row count.
#[derive(Clone, Debug)]
pub(crate) struct RegArena {
    pub(crate) vals: Vec<Value>,
    /// Per lane: arena index of register 0 of the lane's top frame
    /// (`base * width + lane`). Register `r` of that frame sits at
    /// `at[lane] + r * width`.
    pub(crate) at: Vec<usize>,
    pub(crate) width: usize,
}

/// An operand resolved once per issue: an immediate, or a register's
/// row offset (`r * width`) to add to a lane's [`RegArena::at`].
#[derive(Clone, Copy)]
enum Src {
    Imm(Value),
    Row(usize),
}

impl Src {
    #[inline]
    fn read(self, vals: &[Value], at: usize) -> Value {
        match self {
            Src::Imm(v) => v,
            Src::Row(o) => vals[at + o],
        }
    }
}

impl RegArena {
    /// An arena of `rows` zeroed rows with every lane's top frame at
    /// row 0.
    pub(crate) fn new(width: usize, rows: usize) -> Self {
        Self { vals: vec![Value::default(); rows * width], at: (0..width).collect(), width }
    }

    #[inline]
    fn src(&self, op: Operand) -> Src {
        match op {
            Operand::Imm(v) => Src::Imm(v),
            Operand::Reg(r) => Src::Row(r.index() * self.width),
        }
    }

    /// Opens a zeroed `len`-row window at row `base` as lane `l`'s top
    /// frame, growing the arena if the lane reaches a new high-water
    /// row. Returns the caller frame's offset.
    fn push_window(&mut self, l: usize, base: usize, len: usize) -> usize {
        let end = (base + len) * self.width;
        if self.vals.len() < end {
            self.vals.resize(end, Value::default());
        }
        let caller = self.at[l];
        self.at[l] = base * self.width + l;
        for i in (self.at[l]..end).step_by(self.width) {
            self.vals[i] = Value::default();
        }
        caller
    }

    /// Writes `f(lane)` to register `dst` of every lane in `mask` and
    /// advances those lanes: the shape of every infallible
    /// single-destination arm, instantiated once per value source.
    #[inline]
    pub(crate) fn write_lanes(
        &mut self,
        pcs: &mut [usize],
        mask: u64,
        dst: simt_ir::Reg,
        mut f: impl FnMut(usize) -> Value,
    ) {
        let d = dst.index() * self.width;
        for l in lanes(mask) {
            self.vals[self.at[l] + d] = f(l);
            pcs[l] += 1;
        }
    }
}

/// The decoded engine's [`LaneLoop`]: one ALU issue over a warp's
/// register arena.
struct WarpAlu<'a> {
    warp: &'a mut Warp,
    stage: &'a mut [Value; 64],
    mask: u64,
    dst: simt_ir::Reg,
    lhs: Operand,
    rhs: Operand,
}

impl LaneLoop for WarpAlu<'_> {
    /// The first lane, in lane order, whose operands the kernel refused
    /// (with those operands). The warp is then untouched.
    type Out = Result<(), (usize, Value, Value)>;

    #[inline]
    fn run<K: Fn(Value, Value) -> Option<Value>>(self, k: K, can_fault: bool) -> Self::Out {
        let WarpAlu { warp, stage, mask, dst, lhs, rhs } = self;
        let Warp { regs, pcs, .. } = warp;
        let (a, b) = (regs.src(lhs), regs.src(rhs));
        let d = dst.index() * regs.width;
        if can_fault {
            // Reserve every lane's result, then commit: an issue either
            // writes all its lanes or none.
            for l in lanes(mask) {
                let at = regs.at[l];
                let (x, y) = (a.read(&regs.vals, at), b.read(&regs.vals, at));
                stage[l] = k(x, y).ok_or((l, x, y))?;
            }
            for l in lanes(mask) {
                regs.vals[regs.at[l] + d] = stage[l];
                pcs[l] += 1;
            }
        } else {
            for l in lanes(mask) {
                let at = regs.at[l];
                let v = k(a.read(&regs.vals, at), b.read(&regs.vals, at));
                regs.vals[at + d] = v.expect("an infallible kernel refused its operands");
                pcs[l] += 1;
            }
        }
        Ok(())
    }
}

/// Cap on how many extra issues one scheduling slot may run ahead.
/// Bounds how far the clock can overshoot the per-round `max_cycles`
/// check (the error raised is identical either way).
pub(crate) const BATCH_LIMIT: usize = 64;

/// Ops the straight-line batcher may run ahead through. They must be
/// warp-local (no global-memory traffic another warp could observe),
/// keep the warp converged (every lane moves to the same next pc), and
/// leave every lane runnable — so the next scheduling round would
/// provably re-pick the same group.
///
/// Barrier bookkeeping qualifies for `join`/`rejoin`/`arrived`: they
/// mutate only this warp's participation masks and advance every lane,
/// and — unlike `cancel`/`copy`/`wait` — never run a release check, so
/// no blocked lane can become runnable mid-batch.
pub(crate) fn is_warp_local(inst: &DecodedInst) -> bool {
    matches!(
        inst,
        DecodedInst::Bin { .. }
            | DecodedInst::Un { .. }
            | DecodedInst::Mov { .. }
            | DecodedInst::Sel { .. }
            | DecodedInst::Special { .. }
            | DecodedInst::Rng { .. }
            | DecodedInst::SeedRng { .. }
            | DecodedInst::Skip
            | DecodedInst::Jump { .. }
            | DecodedInst::Vote { .. }
            | DecodedInst::Barrier(
                BarrierOp::Join(_) | BarrierOp::Rejoin(_) | BarrierOp::ArrivedCount { .. }
            )
    )
}

/// Whether an issued instruction leaves every lane of its group at one
/// common next pc with statuses untouched — the precondition for the
/// straight-line batcher to trust `pcs[lead]` for the whole group.
/// Branches (lanes may split), returns (per-lane call sites), and
/// anything that blocks or exits lanes disqualify the slot.
pub(crate) fn keeps_lockstep(inst: &DecodedInst) -> bool {
    is_warp_local(inst)
        || matches!(
            inst,
            DecodedInst::Load { .. }
                | DecodedInst::Store { .. }
                | DecodedInst::AtomicAdd { .. }
                | DecodedInst::Call { .. }
        )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Waiting(BarrierId),
    /// Blocked at `__syncthreads` until every live thread arrives.
    WaitingSync,
    Exited,
}

#[derive(Clone, Debug)]
pub(crate) struct Thread {
    /// Call stack, innermost last; never empty.
    pub(crate) frames: Vec<Frame>,
    pub(crate) status: Status,
    pub(crate) rng: SplitMix64,
    pub(crate) local: Vec<Value>,
}

#[derive(Clone, Debug)]
pub(crate) struct Warp {
    pub(crate) threads: Vec<Thread>,
    /// Every lane's registers, over the windows its `frames` describe.
    pub(crate) regs: RegArena,
    /// Live pc of each lane's top frame (see [`Frame::pc`]): the hot
    /// loop's grouping scan reads this contiguous array. Stale for
    /// exited lanes.
    pub(crate) pcs: Vec<usize>,
    /// Barrier participation masks, one bit per lane.
    pub(crate) masks: Vec<u64>,
    /// All lanes of this warp (`warp_width` low bits set).
    pub(crate) lane_mask: u64,
    /// Lanes whose status is [`Status::Runnable`]. The scheduler reads
    /// only this; every status transition updates it.
    pub(crate) runnable: u64,
    /// Lanes blocked on a convergence barrier ([`Status::Waiting`]).
    pub(crate) waiting: u64,
    /// Lanes blocked at `__syncthreads` ([`Status::WaitingSync`]).
    pub(crate) at_sync: u64,
    /// Lanes that exited ([`Status::Exited`]).
    pub(crate) exited: u64,
    pub(crate) busy_until: u64,
    pub(crate) rr_cursor: usize,
    /// Lanes of the group issued last (greedy scheduling state).
    pub(crate) last_lanes: u64,
    /// What the next [`Machine::pick_group`] call would provably return,
    /// recorded when a straight-line batch ends with its group intact
    /// (it broke on a non-batchable instruction, not on a split or a
    /// group merge). Nothing outside this warp's own issues can change
    /// its scheduling state, so the next slot issues directly and skips
    /// the grouping scan. Consumed (and re-proved) every slot.
    pub(crate) pick_hint: Option<(usize, u64)>,
    /// After a divergent pick: the pcs of the groups that were *not*
    /// chosen. The straight-line batcher stops before the running
    /// group's pc collides with one (the scheduler would merge them).
    /// Per-warp — only this warp's own issues can invalidate it, so it
    /// stays valid across a [`Warp::pick_hint`] chain.
    pub(crate) other_pcs: Vec<usize>,
    /// Direct-mapped L1 tag array (line index -> cached line tag), when
    /// the cache cost model is on.
    pub(crate) cache_tags: Vec<Option<i64>>,
    /// Per-level tag arrays of the memory-hierarchy cost model, when
    /// [`SimConfig::mem`] is on (empty otherwise).
    pub(crate) mem_tags: crate::mem::MemTags,
    /// IPDOM reconvergence stack, used only under
    /// [`ReconvergenceModel::IpdomStack`] (empty otherwise). While the
    /// top entry exists, only its `pending` lanes are schedulable.
    pub(crate) ipdom_stack: Vec<StackEntry>,
    /// Warp splits, used only under [`ReconvergenceModel::WarpSplit`]
    /// (empty otherwise). Splits partition the warp's unexited lanes.
    pub(crate) splits: Vec<Split>,
    pub(crate) done: bool,
}

impl Warp {
    /// Advances every lane in `mask` past its instruction.
    pub(crate) fn advance_lanes(&mut self, mask: u64) {
        for l in lanes(mask) {
            self.pcs[l] += 1;
        }
    }
}

/// Reusable hot-loop buffers owned by the [`Machine`].
///
/// Everything the steady-state loop needs to stage variable-length data
/// lives here and is cleared — never dropped — between uses, so `step()`
/// stops allocating once each buffer has grown to its high-water mark.
#[derive(Debug)]
pub(crate) struct Scratch {
    /// Grouped `(pc, lane mask)` scheduler candidates.
    groups: Vec<(usize, u64)>,
    /// Per-access cell addresses for the coalescing/cache cost model.
    addrs: Vec<i64>,
    /// Segment/line ids derived from `addrs`.
    lines: Vec<i64>,
    /// Per-lane results of a fallible kernel, committed only once every
    /// lane succeeded. Never cleared: each issue writes the lanes it
    /// reads back.
    stage: [Value; 64],
    /// Ready-split issue candidates `(pc, issue mask, split index)` of
    /// the warp-split scheduling round.
    split_cands: Vec<(usize, u64, usize)>,
    /// Memory-hierarchy walk staging (line sets per level, MSHR sort
    /// buffer).
    mem: crate::mem::MemScratch,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            groups: Vec::new(),
            addrs: Vec::new(),
            lines: Vec::new(),
            stage: [Value::default(); 64],
            split_cands: Vec::new(),
            mem: crate::mem::MemScratch::default(),
        }
    }
}

pub(crate) struct Machine<'m> {
    pub(crate) image: &'m DecodedImage,
    pub(crate) cfg: &'m SimConfig,
    /// Per-pc issue costs, `image.resolve_costs(&cfg.latency)`.
    pub(crate) costs: Vec<u32>,
    pub(crate) warps: Vec<Warp>,
    pub(crate) global: Vec<Value>,
    pub(crate) metrics: Metrics,
    pub(crate) trace: Option<Trace>,
    pub(crate) profile: Option<Profile>,
    pub(crate) journal: Option<Journal>,
    pub(crate) scratch: Scratch,
    /// Machine-wide MSHR files of the memory-hierarchy cost model
    /// (empty when [`SimConfig::mem`] is off).
    pub(crate) mshrs: crate::mem::MemMshrs,
    /// Outcome of the global access the current issue performed, parked
    /// by [`Machine::access`] for [`Machine::issue`] to attribute
    /// (journal event, per-block profile) after the hot borrows end.
    pub(crate) pending_mem: Option<crate::mem::AccessOutcome>,
    /// Branch-pc → reconvergence-pc table, built at launch only under
    /// [`ReconvergenceModel::IpdomStack`].
    pub(crate) ipdom: Option<IpdomTable>,
    /// Divergent branch the current issue executed, parked by the
    /// `Branch` arm (mirroring [`Machine::pending_mem`]) for the
    /// post-issue IPDOM hook to turn into stack pushes after the hot
    /// borrows end: `(branch pc, taken mask, not-taken mask)`.
    pub(crate) pending_split: Option<(usize, u64, u64)>,
    pub(crate) cycle: u64,
}

/// A cloneable cooperative-cancellation flag for in-flight simulations.
///
/// Hand one to [`run_image_with`] and flip it from another thread
/// (deadline reaper, shutdown path, disconnected client) to stop the run
/// at the next scheduling round with [`SimError::Cancelled`]. The check
/// is a single relaxed atomic load per round, so the hot loop pays
/// nothing measurable; runs that complete never observe the token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Runs a kernel launch of a decoded image to completion.
///
/// Behaves exactly like [`run`](crate::machine::run) — which is
/// implemented as decode followed by this function — but lets callers
/// decode once and launch many times (the batch evaluation engine caches
/// images this way).
///
/// # Errors
///
/// Returns a [`SimError`] on deadlock, memory/arithmetic faults, cycle
/// budget exhaustion, or an invalid/unlinked module.
pub fn run_image(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
) -> Result<SimOutput, SimError> {
    run_image_with(image, cfg, launch, None)
}

/// [`run_image`] with an optional cooperative [`CancelToken`].
///
/// The token is polled between scheduling rounds; a cancelled run stops
/// with [`SimError::Cancelled`] carrying the cycle it was observed at.
/// Cancellation never corrupts shared state — the machine is local to
/// this call — so a caller (the evaluation service, for one) can keep
/// reusing its compiled-image cache after a cancelled run.
///
/// # Errors
///
/// Everything [`run_image`] returns, plus [`SimError::Cancelled`].
pub fn run_image_with(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
    cancel: Option<&CancelToken>,
) -> Result<SimOutput, SimError> {
    let mut machine = Machine::new(image, cfg, launch)?;
    match cancel {
        None => while !machine.step()? {},
        Some(token) => {
            while !machine.step()? {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled { cycle: machine.cycle });
                }
            }
        }
    }
    Ok(machine.into_output())
}

impl<'m> Machine<'m> {
    /// Validates the launch and builds the initial machine state.
    pub(crate) fn new(
        image: &'m DecodedImage,
        cfg: &'m SimConfig,
        launch: &Launch,
    ) -> Result<Machine<'m>, SimError> {
        let kernel = image
            .func_by_name(&launch.kernel)
            .ok_or_else(|| SimError::NoSuchKernel(launch.kernel.clone()))?;
        let kfunc = image.funcs[kernel.index()];
        if launch.args.len() > kfunc.num_params as usize {
            return Err(SimError::InvalidModule(format!(
                "kernel @{} takes {} params, launch provides {}",
                image.func_names[kernel.index()],
                kfunc.num_params,
                launch.args.len()
            )));
        }

        let width = cfg.warp_width;
        assert!(width <= 64, "warp width above 64 lanes is not supported");
        let lane_mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let num_regs = kfunc.num_regs as usize;
        let mut warps = Vec::with_capacity(launch.num_warps);
        for w in 0..launch.num_warps {
            let mut threads = Vec::with_capacity(width);
            for lane in 0..width {
                let tid = (w * width + lane) as u64;
                threads.push(Thread {
                    frames: vec![Frame {
                        pc: kfunc.entry_pc as usize,
                        ret_regs: PoolRange::EMPTY,
                        base: 0,
                        len: num_regs,
                    }],
                    status: Status::Runnable,
                    rng: SplitMix64::for_thread(launch.seed, tid),
                    local: vec![Value::default(); launch.local_mem_size],
                });
            }
            let mut regs = RegArena::new(width, num_regs);
            for (i, a) in launch.args.iter().enumerate() {
                regs.vals[i * width..(i + 1) * width].fill(*a);
            }
            warps.push(Warp {
                threads,
                regs,
                pcs: vec![kfunc.entry_pc as usize; width],
                masks: vec![0; image.num_barriers],
                lane_mask,
                runnable: lane_mask,
                waiting: 0,
                at_sync: 0,
                exited: 0,
                busy_until: 0,
                rr_cursor: 0,
                last_lanes: 0,
                pick_hint: None,
                other_pcs: Vec::new(),
                cache_tags: cfg.cache.as_ref().map(|c| vec![None; c.lines]).unwrap_or_default(),
                mem_tags: crate::mem::MemTags::new(cfg.mem.as_ref()),
                ipdom_stack: Vec::new(),
                splits: if matches!(cfg.recon, ReconvergenceModel::WarpSplit { .. }) {
                    vec![Split { mask: lane_mask, busy_until: 0 }]
                } else {
                    Vec::new()
                },
                done: false,
            });
        }

        Ok(Machine {
            image,
            cfg,
            costs: image.resolve_costs(&cfg.latency),
            warps,
            global: launch.global_mem.clone(),
            metrics: Metrics::new(launch.num_warps, width),
            trace: if cfg.trace { Some(Trace::new(width)) } else { None },
            profile: if cfg.profile { Some(Profile::new()) } else { None },
            journal: cfg.journal.as_ref().map(Journal::new),
            scratch: Scratch::default(),
            mshrs: crate::mem::MemMshrs::new(cfg.mem.as_ref()),
            pending_mem: None,
            ipdom: matches!(cfg.recon, ReconvergenceModel::IpdomStack)
                .then(|| IpdomTable::build(image)),
            pending_split: None,
            cycle: 0,
        })
    }

    /// Advances the machine by one scheduling round: gives every ready
    /// warp one issue slot, then moves the clock to the next event.
    /// Returns `Ok(true)` once every warp has finished.
    ///
    /// After warm-up this performs zero heap allocations (enforced by
    /// the counting-allocator test below); the only allocating paths are
    /// cold — scratch-buffer growth to a new high-water mark and
    /// terminal-error construction.
    pub(crate) fn step(&mut self) -> Result<bool, SimError> {
        let mut next_ready = u64::MAX;
        let mut all_done = true;
        for w in 0..self.warps.len() {
            if self.warps[w].done {
                continue;
            }
            all_done = false;
            if self.warps[w].busy_until > self.cycle {
                next_ready = next_ready.min(self.warps[w].busy_until);
                continue;
            }
            // The warp-split model schedules per split, not per warp:
            // its own round logic replaces pick/issue/batch below.
            if let ReconvergenceModel::WarpSplit { window, compact } = self.cfg.recon {
                self.step_warp_split(w, window, compact, &mut next_ready)?;
                continue;
            }
            // A hint left by the previous slot's batch replaces the
            // grouping scan: it is only ever recorded when the next
            // pick's result is provable (converged group, statuses
            // untouched since), so consuming it is equivalent — down to
            // the RoundRobin cursor slot the skipped pick would have
            // taken.
            let picked = if let Some(hint) = self.warps[w].pick_hint.take() {
                if self.cfg.scheduler == SchedulerPolicy::RoundRobin {
                    let warp = &mut self.warps[w];
                    warp.rr_cursor = warp.rr_cursor.wrapping_add(1);
                }
                Some(hint)
            } else {
                self.pick_group(w)
            };
            match picked {
                Some((pc, mask)) => {
                    // Reconvergence by pc collision: the pick strictly
                    // grew the group issued last — stragglers reached
                    // the same pc and merged back in.
                    if self.journal.is_some() {
                        let last = self.warps[w].last_lanes;
                        if last != 0 && mask != last && mask & last == last {
                            let o = self.image.origin[pc];
                            self.journal_push(JournalEvent::GroupMerge {
                                cycle: self.cycle,
                                warp: w,
                                func: o.func,
                                block: o.block,
                                inst: o.inst as usize,
                                mask,
                                absorbed: mask & !last,
                            });
                        }
                    }
                    self.warps[w].last_lanes = mask;
                    let cost = self.issue(w, pc, mask)?;
                    if matches!(self.cfg.recon, ReconvergenceModel::IpdomStack) {
                        self.ipdom_post_issue(w);
                    }
                    let mut busy = self.cycle + u64::from(cost.max(1));
                    // Straight-line batching: a fully-converged warp
                    // executing warp-local ops (no memory traffic, no
                    // control divergence, no status changes) would be
                    // re-picked unchanged at every following round, so
                    // run ahead within this slot. Warps only interact
                    // through global memory, so cross-warp interleaving
                    // is unobservable for these ops; each issue is still
                    // recorded individually (same metrics, profile, and
                    // cost accounting; `last_lanes` re-sticks to the
                    // same mask; RoundRobin consumes a cursor slot per
                    // issue exactly as the converged pick would).
                    // Tracing and journaling disable it — their events
                    // carry the issue cycle, which batching would
                    // misstamp.
                    //
                    // A *divergent* group batches too, but only under
                    // Greedy: its full overlap with `last_lanes` beats
                    // every disjoint group's zero overlap, so Greedy
                    // provably re-picks it — until its pc lands on
                    // another group's pc, where the unbatched scheduler
                    // would merge the two ([`Scratch::other_pcs`] guards
                    // that; the other groups' lanes are frozen for the
                    // whole batch, so the pc set is stable). Other
                    // policies re-rank groups as pcs move, so a
                    // divergent group only batches when converged.
                    // The hardware models also disable batching: their
                    // scheduling state (stack top, split frontiers) can
                    // change on any issue, so a re-pick is never provable.
                    if self.trace.is_none()
                        && self.journal.is_none()
                        && matches!(self.cfg.recon, ReconvergenceModel::BarrierFile)
                        && keeps_lockstep(&self.image.insts[pc])
                        && (mask == self.warps[w].runnable
                            || self.cfg.scheduler == SchedulerPolicy::Greedy)
                    {
                        let lead = mask.trailing_zeros() as usize;
                        let round_robin = self.cfg.scheduler == SchedulerPolicy::RoundRobin;
                        // Whether the group is still (pcs[lead], mask)
                        // when the loop exits — false only after a
                        // branch split or a pending merge, the two
                        // stops where the next pick must re-group.
                        let mut intact = true;
                        for _ in 0..BATCH_LIMIT {
                            let npc = self.warps[w].pcs[lead];
                            let inst = &self.image.insts[npc];
                            // Branches batch too — they are warp-local
                            // and infallible — but the group survives
                            // the issue only if every lane took the
                            // same direction (checked below).
                            let branch = matches!(inst, DecodedInst::Branch { .. });
                            if self.warps[w].other_pcs.contains(&npc) {
                                intact = false;
                                break;
                            }
                            if !(branch || is_warp_local(inst)) {
                                break;
                            }
                            let c = match self.issue(w, npc, mask) {
                                Ok(c) => c,
                                // A batched issue must not raise: errors
                                // surface in scheduling order, and one
                                // raised from look-ahead could preempt
                                // another warp's earlier fault. A
                                // faulting ALU issue mutated nothing
                                // (its kernel commits all lanes or
                                // none), so it simply runs again — and
                                // faults — in its own round.
                                Err(SimError::Arithmetic { .. }) => break,
                                Err(e) => return Err(e),
                            };
                            if round_robin {
                                let rr = &mut self.warps[w].rr_cursor;
                                *rr = rr.wrapping_add(1);
                            }
                            busy += u64::from(c.max(1));
                            if branch {
                                let warp = &self.warps[w];
                                let tpc = warp.pcs[lead];
                                if lanes(mask).any(|l| warp.pcs[l] != tpc) {
                                    // The group split; the next real
                                    // round re-groups and re-picks
                                    // exactly as unbatched execution
                                    // would at this point.
                                    intact = false;
                                    break;
                                }
                            }
                        }
                        // Batched ops never touch statuses, so an
                        // intact group is exactly what the next pick
                        // would return (converged: it is the only
                        // group; divergent Greedy: full overlap with
                        // `last_lanes` wins, and the merge guard above
                        // vetoed the hint otherwise): leave it as a
                        // hint and skip that scan.
                        if intact {
                            let warp = &mut self.warps[w];
                            let npc = warp.pcs[lead];
                            // Re-checked here because the loop can also
                            // exit at `BATCH_LIMIT`, where the next pc
                            // never went through the merge guard.
                            if !warp.other_pcs.contains(&npc) {
                                warp.pick_hint = Some((npc, mask));
                            }
                        }
                    }
                    self.warps[w].busy_until = busy;
                    next_ready = next_ready.min(busy);
                }
                None => {
                    // No runnable group. Either everyone exited, or
                    // every live thread is blocked — since barriers
                    // are warp-local and release checks already ran,
                    // that is a deadlock.
                    let live = self.warps[w].lane_mask & !self.warps[w].exited;
                    if live == 0 {
                        self.warps[w].done = true;
                    } else {
                        let waiting = lanes(live)
                            .map(|l| {
                                let t = &self.warps[w].threads[l];
                                let b = match t.status {
                                    Status::Waiting(b) => b,
                                    // WaitingSync reported as barrier 0
                                    // (the diagnostic text carries the
                                    // real story).
                                    _ => BarrierId(0),
                                };
                                (self.location(w, l), b)
                            })
                            .collect();
                        self.journal_push(JournalEvent::DeadlockOnset {
                            cycle: self.cycle,
                            warp: w,
                        });
                        let barriers = self.barrier_dump(w);
                        let recon = self.recon_dump(w);
                        return Err(SimError::Deadlock {
                            cycle: self.cycle,
                            waiting,
                            barriers,
                            recon,
                        });
                    }
                }
            }
        }
        if all_done {
            return Ok(true);
        }
        if self.cycle >= self.cfg.max_cycles {
            return Err(SimError::MaxCyclesExceeded { limit: self.cfg.max_cycles });
        }
        if next_ready != u64::MAX {
            self.cycle = next_ready.max(self.cycle + 1);
        }
        // next_ready == MAX: every remaining warp became done this
        // round; the next step observes all_done without advancing time.
        Ok(false)
    }

    /// Finalizes the run into its output (consumes the machine).
    pub(crate) fn into_output(self) -> SimOutput {
        let Machine { global, mut metrics, trace, profile, journal, cycle, .. } = self;
        metrics.cycles = cycle;
        SimOutput { metrics, global_mem: global, trace, profile, journal }
    }

    /// Records one journal event, if journaling is on.
    #[inline]
    pub(crate) fn journal_push(&mut self, e: JournalEvent) {
        if let Some(j) = self.journal.as_mut() {
            j.push(e);
        }
    }

    /// Snapshot of every barrier register of warp `w` that still has
    /// live participants or waiters (the deadlock diagnostic dump).
    fn barrier_dump(&self, w: usize) -> Vec<BarrierState> {
        let warp = &self.warps[w];
        let live = warp.lane_mask & !warp.exited;
        let mut out = Vec::new();
        for (i, &m) in warp.masks.iter().enumerate() {
            let b = BarrierId::new(i);
            let mut waiters = 0u64;
            for l in lanes(warp.waiting) {
                if warp.threads[l].status == Status::Waiting(b) {
                    waiters |= 1 << l;
                }
            }
            let participants = m & live;
            if participants != 0 || waiters != 0 {
                out.push(BarrierState { barrier: b, participants, waiters });
            }
        }
        out
    }

    fn location(&self, warp: usize, lane: usize) -> ThreadLocation {
        let o = self.image.origin[self.warps[warp].pcs[lane]];
        ThreadLocation { warp, lane, func: o.func, block: o.block, inst: o.inst as usize }
    }

    /// Debug-only invariant: the incremental status masks must agree
    /// with the per-thread statuses they cache. Runs under every test
    /// (including the decoded-vs-reference differential proptest), so
    /// any missed transition point fails loudly.
    #[cfg(debug_assertions)]
    fn check_masks(&self, w: usize) {
        let warp = &self.warps[w];
        let mut expect = (0u64, 0u64, 0u64, 0u64);
        for (l, t) in warp.threads.iter().enumerate() {
            let bit = 1u64 << l;
            match t.status {
                Status::Runnable => expect.0 |= bit,
                Status::Waiting(_) => expect.1 |= bit,
                Status::WaitingSync => expect.2 |= bit,
                Status::Exited => expect.3 |= bit,
            }
        }
        assert_eq!(
            (warp.runnable, warp.waiting, warp.at_sync, warp.exited),
            expect,
            "status masks out of sync with thread statuses in warp {w}"
        );
    }

    /// Groups runnable lanes by flat PC and applies the scheduler policy.
    ///
    /// A converged warp (all runnable lanes at one pc — the common
    /// case) is detected in the first pass and short-circuits to a
    /// single group. Divergent warps accumulate `(pc, mask)` groups by
    /// scanning the group list per lane — divergence produces a handful
    /// of groups, so the scan beats sorting the lanes — then sort the
    /// short group list by pc, as [`select_group_mask`] requires.
    /// Flat-pc order equals the tree-walker's `(func, block, inst)`
    /// order by construction of the image layout, so every policy picks
    /// the same group it would have picked there.
    fn pick_group(&mut self, w: usize) -> Option<(usize, u64)> {
        #[cfg(debug_assertions)]
        self.check_masks(w);
        // Under the IPDOM stack model only the top entry's pending lanes
        // are schedulable (taken-first serialization); parked lanes stay
        // runnable but invisible until the entry pops. `u64::MAX`
        // elsewhere keeps this a no-op for the barrier-file model.
        let eligible = match self.cfg.recon {
            ReconvergenceModel::IpdomStack => {
                self.warps[w].ipdom_stack.last().map_or(u64::MAX, |e| e.pending)
            }
            _ => u64::MAX,
        };
        let runnable = self.warps[w].runnable & eligible;
        if runnable == 0 {
            return None;
        }
        let pcs = &self.warps[w].pcs;
        let mut it = lanes(runnable);
        let first = it.next().expect("runnable mask is non-empty");
        let pc0 = pcs[first];
        let mut rest = runnable & (runnable - 1); // lanes after `first`
        let mut converged = true;
        for l in lanes(rest) {
            if pcs[l] != pc0 {
                converged = false;
                rest &= !((1u64 << l) - 1); // diverging suffix starts here
                break;
            }
        }
        if converged {
            // One group. Every policy picks it; RoundRobin still
            // consumes an issue slot from its cursor.
            self.warps[w].other_pcs.clear();
            if self.cfg.scheduler == SchedulerPolicy::RoundRobin {
                let warp = &mut self.warps[w];
                warp.rr_cursor = warp.rr_cursor.wrapping_add(1);
            }
            return Some((pc0, runnable));
        }
        let groups = &mut self.scratch.groups;
        groups.clear();
        // Lanes before the first divergence all sit at pc0. The group
        // list is kept pc-sorted by insertion — divergence yields a
        // handful of groups, so the scan-and-insert beats a sort call.
        groups.push((pc0, runnable & !rest));
        for l in lanes(rest) {
            let pc = pcs[l];
            match groups.iter().position(|&(p, _)| p >= pc) {
                Some(i) if groups[i].0 == pc => groups[i].1 |= 1 << l,
                Some(i) => groups.insert(i, (pc, 1 << l)),
                None => groups.push((pc, 1 << l)),
            }
        }
        let warp = &mut self.warps[w];
        let last = warp.last_lanes;
        let picked = select_group_mask(self.cfg.scheduler, groups, last, &mut warp.rr_cursor);
        let other_pcs = &mut warp.other_pcs;
        other_pcs.clear();
        if let Some((pc, _)) = picked {
            other_pcs.extend(groups.iter().map(|&(p, _)| p).filter(|&p| p != pc));
        }
        picked
    }

    /// Model-aware reconvergence state of warp `w` for deadlock reports.
    fn recon_dump(&self, w: usize) -> ReconDump {
        let warp = &self.warps[w];
        match self.cfg.recon {
            ReconvergenceModel::BarrierFile => ReconDump::BarrierFile,
            ReconvergenceModel::IpdomStack => ReconDump::IpdomStack {
                stack: warp
                    .ipdom_stack
                    .iter()
                    .rev()
                    .map(|e| StackEntryDump {
                        rpc: (e.rpc != NO_RPC).then_some(e.rpc as usize),
                        pending: e.pending,
                        arrived: e.arrived,
                    })
                    .collect(),
            },
            ReconvergenceModel::WarpSplit { .. } => ReconDump::WarpSplit {
                splits: warp
                    .splits
                    .iter()
                    .map(|s| {
                        let run = s.mask & warp.runnable;
                        SplitDump {
                            pc: (run != 0).then(|| warp.pcs[run.trailing_zeros() as usize]),
                            mask: s.mask,
                            busy_until: s.busy_until,
                        }
                    })
                    .collect(),
            },
        }
    }

    /// IPDOM bookkeeping after one issue of warp `w`: turns a parked
    /// divergent branch into a pair of stack pushes (not-taken below
    /// taken, so the taken arm executes first), drops exited lanes from
    /// every entry, parks lanes that reached the top entry's
    /// reconvergence pc, and pops entries whose pending set drained
    /// (cascading, because the freshly exposed entry may already be
    /// satisfied).
    fn ipdom_post_issue(&mut self, w: usize) {
        if let Some((bpc, taken, not_taken)) = self.pending_split.take() {
            let rpc = self.ipdom.as_ref().expect("ipdom table built at launch").rpc_of(bpc);
            // When the arms only meet at function exit there is nothing
            // to push: both groups stay schedulable under the current
            // entry and the policy arbitrates between them.
            if rpc != NO_RPC {
                let warp = &mut self.warps[w];
                let lead = taken.trailing_zeros() as usize;
                let depth = warp.threads[lead].frames.len() as u32;
                warp.ipdom_stack.push(StackEntry { rpc, depth, pending: not_taken, arrived: 0 });
                warp.ipdom_stack.push(StackEntry { rpc, depth, pending: taken, arrived: 0 });
                self.metrics.recon.stack_pushes += 2;
                let d = warp.ipdom_stack.len() as u64;
                self.metrics.recon.stack_max_depth = self.metrics.recon.stack_max_depth.max(d);
            }
        }
        let warp = &mut self.warps[w];
        let ex = warp.exited;
        if ex != 0 {
            for e in warp.ipdom_stack.iter_mut() {
                e.pending &= !ex;
                e.arrived &= !ex;
            }
        }
        loop {
            let pcs = &warp.pcs;
            let threads = &warp.threads;
            let Some(top) = warp.ipdom_stack.last_mut() else { break };
            // A lane arrives when it reaches the reconvergence pc at the
            // push-time call depth while still runnable (a blocked lane
            // has not arrived — its pc has not passed the blocking op).
            let mut arrived = 0u64;
            for l in lanes(top.pending & warp.runnable) {
                if pcs[l] == top.rpc as usize && threads[l].frames.len() == top.depth as usize {
                    arrived |= 1 << l;
                }
            }
            top.pending &= !arrived;
            top.arrived |= arrived;
            if top.pending != 0 {
                break;
            }
            warp.ipdom_stack.pop();
            self.metrics.recon.stack_pops += 1;
        }
    }

    /// One scheduling round of warp `w` under the warp-split model:
    /// normalize splits (drop exited lanes, fork internally-divergent
    /// frontiers), re-fuse ready splits whose frontiers re-aligned, then
    /// issue — one ready split chosen by the scheduler policy, or every
    /// ready split when subwarp compaction is on. A ready split defers
    /// its slot when a busy split with the same frontier pc finishes
    /// within the re-fusion window.
    fn step_warp_split(
        &mut self,
        w: usize,
        window: u32,
        compact: bool,
        next_ready: &mut u64,
    ) -> Result<(), SimError> {
        #[cfg(debug_assertions)]
        self.check_masks(w);
        self.normalize_splits(w);
        self.fuse_splits(w);

        // Collect ready candidates and the earliest wake-up among busy
        // splits that still have runnable lanes.
        let cycle = self.cycle;
        let mut min_busy = u64::MAX;
        {
            let warp = &self.warps[w];
            let cands = &mut self.scratch.split_cands;
            cands.clear();
            for (i, s) in warp.splits.iter().enumerate() {
                let run = s.mask & warp.runnable;
                if run == 0 {
                    continue; // fully blocked; a barrier release revives it
                }
                if s.busy_until > cycle {
                    min_busy = min_busy.min(s.busy_until);
                    continue;
                }
                // Normalization left every runnable lane of a split at
                // one pc: the frontier.
                let pc = warp.pcs[run.trailing_zeros() as usize];
                cands.push((pc, run, i));
            }
            // Re-fusion window: give up this slot when a busy split with
            // the same frontier pc becomes ready within `window` cycles —
            // the fusion pass will merge the two then.
            if window > 0 && !cands.is_empty() {
                let mut kept = 0;
                for ci in 0..cands.len() {
                    let (pc, _, _) = cands[ci];
                    let wait_for = warp.splits.iter().filter(|s| s.busy_until > cycle).any(|s| {
                        s.busy_until - cycle <= u64::from(window) && {
                            let run = s.mask & warp.runnable;
                            run != 0 && warp.pcs[run.trailing_zeros() as usize] == pc
                        }
                    });
                    if wait_for {
                        self.metrics.recon.deferrals += 1;
                    } else {
                        cands[kept] = cands[ci];
                        kept += 1;
                    }
                }
                cands.truncate(kept);
            }
            cands.sort_unstable_by_key(|&(pc, _, _)| pc);
        }

        if self.scratch.split_cands.is_empty() {
            if min_busy != u64::MAX {
                // Everything runnable is busy (or deferring): sleep
                // until the earliest split wakes.
                self.warps[w].busy_until = min_busy;
                *next_ready = (*next_ready).min(min_busy);
                return Ok(());
            }
            let live = self.warps[w].lane_mask & !self.warps[w].exited;
            if live == 0 {
                self.warps[w].done = true;
                return Ok(());
            }
            // Every live lane is blocked and no split can ever issue:
            // deadlock, same report as the warp-level path.
            let waiting = lanes(live)
                .map(|l| {
                    let t = &self.warps[w].threads[l];
                    let b = match t.status {
                        Status::Waiting(b) => b,
                        _ => BarrierId(0),
                    };
                    (self.location(w, l), b)
                })
                .collect();
            self.journal_push(JournalEvent::DeadlockOnset { cycle: self.cycle, warp: w });
            let barriers = self.barrier_dump(w);
            let recon = self.recon_dump(w);
            return Err(SimError::Deadlock { cycle: self.cycle, waiting, barriers, recon });
        }

        // Issue. Without compaction one split wins the warp's issue port
        // (arbitrated by the configured policy over the ready frontiers);
        // with compaction every ready split issues this round.
        let policy = self.cfg.scheduler;
        let n = self.scratch.split_cands.len();
        for c in 0..n {
            let (pc, run, idx) = if compact {
                self.scratch.split_cands[c]
            } else {
                let warp = &mut self.warps[w];
                // `split_cands` pcs are unique (fusion merged ready
                // duplicates), matching select_group_mask's contract.
                let Scratch { groups, split_cands, .. } = &mut self.scratch;
                groups.clear();
                groups.extend(split_cands.iter().map(|&(pc, run, _)| (pc, run)));
                let picked =
                    select_group_mask(policy, groups, warp.last_lanes, &mut warp.rr_cursor)
                        .expect("non-empty candidate list always yields a pick");
                let i = split_cands
                    .iter()
                    .position(|&(pc, _, _)| pc == picked.0)
                    .expect("picked pc comes from the candidate list");
                let (pc, _, idx) = split_cands[i];
                (pc, picked.1, idx)
            };
            self.warps[w].last_lanes = run;
            let cost = self.issue(w, pc, run)?;
            self.warps[w].splits[idx].busy_until = cycle + u64::from(cost.max(1));
            if !compact {
                break;
            }
        }

        // The warp wakes when its earliest-busy runnable split does.
        let warp = &mut self.warps[w];
        let mut wake = u64::MAX;
        for s in warp.splits.iter() {
            if s.mask & warp.runnable != 0 {
                wake = wake.min(s.busy_until.max(cycle + 1));
            }
        }
        if wake == u64::MAX {
            // No runnable lanes remain; re-examine next round, where the
            // warp either finishes, deadlocks, or a release revived it.
            wake = cycle + 1;
        }
        warp.busy_until = wake;
        *next_ready = (*next_ready).min(wake);
        Ok(())
    }

    /// Re-establishes the warp-split invariants for warp `w`: exited
    /// lanes leave their splits, empty splits disappear, and a split
    /// whose runnable lanes sit at more than one pc forks into per-pc
    /// splits (blocked lanes stay with the first frontier group).
    fn normalize_splits(&mut self, w: usize) {
        let warp = &mut self.warps[w];
        let live = warp.lane_mask & !warp.exited;
        let mut i = 0;
        while i < warp.splits.len() {
            warp.splits[i].mask &= live;
            if warp.splits[i].mask == 0 {
                warp.splits.remove(i);
                continue;
            }
            let run = warp.splits[i].mask & warp.runnable;
            if run != 0 {
                let lead_pc = warp.pcs[run.trailing_zeros() as usize];
                let mut same = 0u64;
                for l in lanes(run) {
                    if warp.pcs[l] == lead_pc {
                        same |= 1 << l;
                    }
                }
                let mut rest = run & !same;
                if rest != 0 {
                    // Fork: the divergent lanes leave, grouped by pc.
                    let busy = warp.splits[i].busy_until;
                    warp.splits[i].mask &= !rest;
                    while rest != 0 {
                        let pc = warp.pcs[rest.trailing_zeros() as usize];
                        let mut m = 0u64;
                        for l in lanes(rest) {
                            if warp.pcs[l] == pc {
                                m |= 1 << l;
                            }
                        }
                        rest &= !m;
                        warp.splits.push(Split { mask: m, busy_until: busy });
                        self.metrics.recon.splits += 1;
                    }
                }
            }
            i += 1;
        }
        #[cfg(debug_assertions)]
        {
            let warp = &self.warps[w];
            let mut union = 0u64;
            for s in warp.splits.iter() {
                assert_eq!(union & s.mask, 0, "splits overlap in warp {w}");
                union |= s.mask;
            }
            assert_eq!(union, live, "splits do not partition live lanes of warp {w}");
        }
    }

    /// Merges ready splits of warp `w` whose runnable frontiers sit at
    /// the same pc — the re-fusion half of the warp-split model.
    fn fuse_splits(&mut self, w: usize) {
        let cycle = self.cycle;
        let warp = &mut self.warps[w];
        if warp.splits.len() < 2 {
            return;
        }
        let mut i = 0;
        while i < warp.splits.len() {
            let run_i = warp.splits[i].mask & warp.runnable;
            if run_i == 0 || warp.splits[i].busy_until > cycle {
                i += 1;
                continue;
            }
            let pc_i = warp.pcs[run_i.trailing_zeros() as usize];
            let mut j = i + 1;
            while j < warp.splits.len() {
                let run_j = warp.splits[j].mask & warp.runnable;
                if run_j != 0
                    && warp.splits[j].busy_until <= cycle
                    && warp.pcs[run_j.trailing_zeros() as usize] == pc_i
                {
                    let absorbed = warp.splits.remove(j);
                    warp.splits[i].mask |= absorbed.mask;
                    self.metrics.recon.fusions += 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// Issues one decoded instruction for the given group; returns its
    /// cycle cost.
    fn issue(&mut self, w: usize, pc: usize, mask: u64) -> Result<u32, SimError> {
        // Stall pressure is sampled before execution, matching the
        // reference engine: lanes parked on a convergence barrier at
        // the moment this group issues.
        let waiting_lanes = self.warps[w].waiting.count_ones();
        if self.journal.is_some() {
            // Split the same sample by barrier for the journal's
            // attribution (which barrier keeps lanes parked).
            let Machine { warps, journal, .. } = &mut *self;
            let warp = &warps[w];
            let j = journal.as_mut().expect("journal is on");
            for l in lanes(warp.waiting) {
                if let Status::Waiting(b) = warp.threads[l].status {
                    j.note_stall(b, 1);
                }
            }
        }

        let cost = self.exec(w, pc, mask)?;

        // Attribute the memory-hierarchy outcome the access parked (if
        // any): an MSHR penalty becomes a journal event and a per-block
        // profile entry, after the access loop's borrows ended.
        if let Some(out) = self.pending_mem.take() {
            let stall = out.total_stall();
            if stall > 0 {
                if self.journal.is_some() {
                    let level = out.levels.iter().position(|l| l.mshr_stall == stall).unwrap_or(0);
                    self.journal_push(JournalEvent::MemStall {
                        cycle: self.cycle,
                        warp: w,
                        level,
                        stall,
                    });
                }
                if let Some(profile) = &mut self.profile {
                    let o = self.image.origin[pc];
                    profile.record_mem_stall(o.func, o.block, stall);
                }
            }
        }

        let roi = self.image.roi[pc];
        self.metrics.record_issue(w, mask, cost.max(1), roi, waiting_lanes);

        if self.profile.is_some() || self.trace.is_some() {
            let o = self.image.origin[pc];
            if let Some(profile) = &mut self.profile {
                profile.record(
                    o.func,
                    o.block,
                    o.inst as usize,
                    u64::from(mask.count_ones()),
                    cost,
                );
            }
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEvent {
                    cycle: self.cycle,
                    warp: w,
                    func: o.func,
                    block: o.block,
                    inst: o.inst as usize,
                    mask,
                    cost,
                    roi,
                });
            }
        }
        Ok(cost)
    }

    /// Executes one ALU issue through the shared kernel table. A
    /// refused lane leaves the warp untouched and names the error's
    /// location.
    fn exec_alu(
        &mut self,
        w: usize,
        mask: u64,
        op: AluOp,
        dst: simt_ir::Reg,
        lhs: Operand,
        rhs: Operand,
    ) -> Result<(), SimError> {
        let Machine { warps, scratch, .. } = self;
        let lp = WarpAlu { warp: &mut warps[w], stage: &mut scratch.stage, mask, dst, lhs, rhs };
        op.dispatch(lp).map_err(|(l, a, b)| SimError::Arithmetic {
            at: self.location(w, l),
            message: op.fault(a, b),
        })
    }

    fn exec(&mut self, w: usize, pc: usize, mask: u64) -> Result<u32, SimError> {
        // Reborrow through the image's own lifetime so instruction/pool
        // reads don't conflict with &mut self calls below; matching on the
        // place copies only the fields each arm binds, never the whole
        // instruction.
        let image = self.image;
        let inst = &image.insts[pc];
        let mut cost = self.costs[pc];
        match *inst {
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                self.exec_alu(w, mask, AluOp::Bin(op), dst, lhs, rhs)?;
            }
            DecodedInst::Un { op, dst, src } => {
                let pad = Operand::Imm(Value::default());
                self.exec_alu(w, mask, AluOp::Un(op), dst, src, pad)?;
            }
            DecodedInst::Mov { dst, src } => {
                let pad = Operand::Imm(Value::default());
                self.exec_alu(w, mask, AluOp::Mov, dst, src, pad)?;
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                let Warp { regs, pcs, .. } = &mut self.warps[w];
                let (c, t, f) = (regs.src(cond), regs.src(if_true), regs.src(if_false));
                let d = dst.index() * regs.width;
                for l in lanes(mask) {
                    let at = regs.at[l];
                    let pick = if c.read(&regs.vals, at).is_truthy() { t } else { f };
                    regs.vals[at + d] = pick.read(&regs.vals, at);
                    pcs[l] += 1;
                }
            }
            DecodedInst::Load { dst, space, addr } => {
                cost = self.access(w, mask, space, addr, None, Some(dst), cost)?;
            }
            DecodedInst::Store { space, addr, value } => {
                cost = self.access(w, mask, space, addr, Some(value), None, cost)?;
            }
            DecodedInst::AtomicAdd { dst, addr, value } => {
                // Lanes are serialized in lane order, like hardware atomics
                // to the same address. Atomics bypass the cache and
                // invalidate the lines they touch.
                let cfg = self.cfg;
                let Machine { warps, global, scratch, .. } = self;
                let Warp { regs, pcs, .. } = &mut warps[w];
                let (ao, vo) = (regs.src(addr), regs.src(value));
                let d = dst.index() * regs.width;
                let addrs = &mut scratch.addrs;
                addrs.clear();
                let mut failed: Option<AccessFault> = None;
                for l in lanes(mask) {
                    let at = regs.at[l];
                    let a = ao.read(&regs.vals, at).as_i64();
                    let v = vo.read(&regs.vals, at);
                    if a < 0 || a as usize >= global.len() {
                        failed = Some(AccessFault::Oob { lane: l, addr: a, size: global.len() });
                        break;
                    }
                    let old = global[a as usize];
                    match crate::alu::eval_bin(BinOp::Add, old, v) {
                        Ok(new) => global[a as usize] = new,
                        Err(m) => {
                            failed = Some(AccessFault::Arith { lane: l, message: m });
                            break;
                        }
                    }
                    regs.vals[at + d] = old;
                    addrs.push(a);
                    pcs[l] += 1;
                }
                Self::invalidate_lines(cfg, warps, &scratch.addrs);
                if let Some(fault) = failed {
                    return Err(self.fault_error(w, MemSpace::Global, fault));
                }
            }
            DecodedInst::Special { dst, kind } => {
                let width = self.cfg.warp_width;
                let n_threads = (self.warps.len() * width) as i64;
                let Warp { regs, pcs, .. } = &mut self.warps[w];
                match kind {
                    SpecialValue::Tid => {
                        regs.write_lanes(pcs, mask, dst, |l| Value::I64((w * width + l) as i64));
                    }
                    SpecialValue::LaneId => {
                        regs.write_lanes(pcs, mask, dst, |l| Value::I64(l as i64))
                    }
                    SpecialValue::WarpId => {
                        regs.write_lanes(pcs, mask, dst, |_| Value::I64(w as i64))
                    }
                    SpecialValue::NumThreads => {
                        regs.write_lanes(pcs, mask, dst, |_| Value::I64(n_threads));
                    }
                    SpecialValue::WarpWidth => {
                        regs.write_lanes(pcs, mask, dst, |_| Value::I64(width as i64));
                    }
                }
            }
            DecodedInst::Rng { dst, kind } => {
                let Warp { threads, regs, pcs, .. } = &mut self.warps[w];
                match kind {
                    RngKind::U63 => {
                        regs.write_lanes(pcs, mask, dst, |l| Value::I64(threads[l].rng.next_u63()));
                    }
                    RngKind::Unit => {
                        regs.write_lanes(pcs, mask, dst, |l| {
                            Value::F64(threads[l].rng.next_unit())
                        });
                    }
                }
            }
            DecodedInst::SyncThreads => {
                let warp = &mut self.warps[w];
                for l in lanes(mask) {
                    warp.threads[l].status = Status::WaitingSync;
                }
                warp.runnable &= !mask;
                warp.at_sync |= mask;
                self.journal_push(JournalEvent::SyncArrive { cycle: self.cycle, warp: w, mask });
                self.sync_release_check(w);
            }
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous: counts over the lanes issued together.
                let Warp { regs, pcs, .. } = &mut self.warps[w];
                let p = regs.src(pred);
                let count =
                    lanes(mask).filter(|&l| p.read(&regs.vals, regs.at[l]).is_truthy()).count();
                regs.write_lanes(pcs, mask, dst, |_| Value::I64(count as i64));
            }
            DecodedInst::SeedRng { src } => {
                let launch_mix = 0x5EED_u64; // stream domain separator
                let Warp { threads, regs, pcs, .. } = &mut self.warps[w];
                let sv = regs.src(src);
                for l in lanes(mask) {
                    let v = sv.read(&regs.vals, regs.at[l]).as_i64() as u64;
                    threads[l].rng = SplitMix64::for_thread(v ^ launch_mix, v);
                    pcs[l] += 1;
                }
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let arg_ops = image.operands(args);
                let len = num_regs as usize;
                let Warp { threads, regs, pcs, .. } = &mut self.warps[w];
                let width = regs.width;
                for l in lanes(mask) {
                    let frames = &mut threads[l].frames;
                    let caller = frames.last_mut().expect("thread has no frame");
                    // Suspend the caller: save its resume point; the
                    // live pc moves to the callee.
                    caller.pc = pcs[l] + 1;
                    let base = caller.end();
                    // Arguments evaluate in the caller's window, which
                    // sits below the callee's: they move row to row.
                    let from = regs.push_window(l, base, len);
                    let to = regs.at[l];
                    for (i, a) in arg_ops.iter().enumerate() {
                        regs.vals[to + i * width] = regs.src(*a).read(&regs.vals, from);
                    }
                    frames.push(Frame { pc: entry_pc as usize, ret_regs: rets, base, len });
                    pcs[l] = entry_pc as usize;
                }
            }
            DecodedInst::UnresolvedCall { name } => {
                return Err(SimError::UnresolvedCall {
                    at: self.location(w, mask.trailing_zeros() as usize),
                    callee: image.callee_names[name as usize].clone(),
                });
            }
            DecodedInst::Barrier(op) => {
                self.exec_barrier(w, mask, op);
                self.metrics.barrier_ops += u64::from(mask.count_ones());
            }
            DecodedInst::Skip => self.warps[w].advance_lanes(mask),
            DecodedInst::Jump { target } => {
                let warp = &mut self.warps[w];
                for l in lanes(mask) {
                    warp.pcs[l] = target as usize;
                }
            }
            DecodedInst::Branch { cond, then_pc, else_pc } => {
                let Warp { regs, pcs, .. } = &mut self.warps[w];
                let c = regs.src(cond);
                let mut taken = 0u64;
                for l in lanes(mask) {
                    pcs[l] = if c.read(&regs.vals, regs.at[l]).is_truthy() {
                        taken |= 1 << l;
                        then_pc as usize
                    } else {
                        else_pc as usize
                    };
                }
                let not_taken = mask & !taken;
                if taken != 0 && not_taken != 0 {
                    // Park the divergence for the IPDOM post-issue hook
                    // (the stack push happens after the hot borrows end).
                    if matches!(self.cfg.recon, ReconvergenceModel::IpdomStack) {
                        self.pending_split = Some((pc, taken, not_taken));
                    }
                    if self.journal.is_some() {
                        let o = image.origin[pc];
                        self.journal_push(JournalEvent::BranchDiverge {
                            cycle: self.cycle,
                            warp: w,
                            func: o.func,
                            block: o.block,
                            inst: o.inst as usize,
                            taken,
                            not_taken,
                        });
                    }
                }
            }
            DecodedInst::Return { values } => {
                let value_ops = image.operands(values);
                let Warp { threads, regs, pcs, .. } = &mut self.warps[w];
                let width = regs.width;
                let mut exited = 0u64;
                for l in lanes(mask) {
                    let t = &mut threads[l];
                    if t.frames.len() == 1 {
                        // Returning from the kernel frame behaves as exit
                        // (the verifier rejects this statically, but stay
                        // safe at runtime).
                        t.status = Status::Exited;
                        exited |= 1 << l;
                        continue;
                    }
                    let callee = t.frames.pop().expect("return without frame");
                    let caller = t.frames.last().expect("caller frame");
                    // The callee's window sits above the caller's, so
                    // values move row to row; the window is released by
                    // moving the lane's offset back down.
                    let from = regs.at[l];
                    let to = caller.base * width + l;
                    for (r, v) in image.regs(callee.ret_regs).iter().zip(value_ops) {
                        regs.vals[to + r.index() * width] = regs.src(*v).read(&regs.vals, from);
                    }
                    regs.at[l] = to;
                    pcs[l] = caller.pc;
                }
                if exited != 0 {
                    self.on_exit_mask(w, exited);
                }
            }
            DecodedInst::Exit => {
                let warp = &mut self.warps[w];
                for l in lanes(mask) {
                    warp.threads[l].status = Status::Exited;
                }
                self.on_exit_mask(w, mask);
            }
        }
        Ok(cost)
    }

    /// The shared load/store path: evaluates per-lane addresses through
    /// one frame borrow, performs the access, and (for global space)
    /// folds the coalescing/cache cost model over the touched addresses.
    /// `value` selects store semantics, `dst` load semantics.
    #[allow(clippy::too_many_arguments)]
    fn access(
        &mut self,
        w: usize,
        mask: u64,
        space: MemSpace,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
        base_cost: u32,
    ) -> Result<u32, SimError> {
        let cfg = self.cfg;
        let now = self.cycle;
        let Machine { warps, global, scratch, metrics, mshrs, pending_mem, .. } = self;
        let warp = &mut warps[w];
        let addrs = &mut scratch.addrs;
        addrs.clear();
        let mut failed: Option<AccessFault> = None;
        let ao = warp.regs.src(addr);
        let vo = value.map(|v| warp.regs.src(v));
        let d = dst.map(|r| r.index() * warp.regs.width);
        let Warp { threads, regs, pcs, .. } = &mut *warp;
        for l in lanes(mask) {
            let at = regs.at[l];
            let a = ao.read(&regs.vals, at).as_i64();
            addrs.push(a);
            let mem = match space {
                MemSpace::Global => &mut *global,
                MemSpace::Local => &mut threads[l].local,
            };
            if a < 0 || a as usize >= mem.len() {
                failed = Some(AccessFault::Oob { lane: l, addr: a, size: mem.len() });
                break;
            }
            match (vo, d) {
                (Some(v), _) => mem[a as usize] = v.read(&regs.vals, at),
                (None, Some(d)) => regs.vals[at + d] = mem[a as usize],
                (None, None) => {}
            }
            pcs[l] += 1;
        }
        let mut cost = base_cost;
        if space == MemSpace::Global {
            cost = if let Some(hier) = &cfg.mem {
                // Hierarchy walk at the issue cycle: tag fills and MSHR
                // allocation commit here; the outcome is parked so
                // `issue` can attribute the stall once borrows end.
                let out = crate::mem::commit(
                    hier,
                    &mut warp.mem_tags,
                    mshrs,
                    &mut scratch.mem,
                    &scratch.addrs,
                    now,
                );
                metrics.mem.record(&out);
                // The legacy counters mirror L1 so existing consumers
                // (and the differential proptests) see one source of
                // truth.
                metrics.cache_hits += u64::from(out.levels[0].hits);
                metrics.cache_misses += u64::from(out.levels[0].misses);
                *pending_mem = Some(out);
                out.cost
            } else {
                Self::global_access_cost(
                    cfg,
                    warp,
                    metrics,
                    &mut scratch.lines,
                    &scratch.addrs,
                    base_cost,
                )
            };
            if value.is_some() {
                // Stores write through: cost like a load, but the
                // touched lines are invalidated in every warp (they
                // now differ from any cached copy).
                Self::invalidate_lines(cfg, warps, &scratch.addrs);
            }
        }
        if let Some(fault) = failed {
            return Err(self.fault_error(w, space, fault));
        }
        Ok(cost)
    }

    /// Builds the terminal error for a failed memory access after the
    /// hot-loop borrows have been released.
    fn fault_error(&self, w: usize, space: MemSpace, fault: AccessFault) -> SimError {
        match fault {
            AccessFault::Oob { lane, addr, size } => {
                SimError::MemoryFault { at: self.location(w, lane), addr, size, space }
            }
            AccessFault::Arith { lane, message } => {
                SimError::Arithmetic { at: self.location(w, lane), message }
            }
        }
    }

    /// Cost of a global access over the given cell addresses: coalescing
    /// segments, filtered through the optional L1 cache cost model (the
    /// cache serves no data — values always come from memory).
    fn global_access_cost(
        cfg: &SimConfig,
        warp: &mut Warp,
        metrics: &mut Metrics,
        lines: &mut Vec<i64>,
        addrs: &[i64],
        base_cost: u32,
    ) -> u32 {
        let lat = &cfg.latency;
        let Some(cache) = &cfg.cache else {
            return base_cost + lat.mem_segment * lat.segments_in(addrs, lines).saturating_sub(1);
        };
        // Unique lines touched by the access.
        let cells = cache.cells_per_line.max(1) as i64;
        lines.clear();
        lines.extend(addrs.iter().map(|a| a.div_euclid(cells)));
        lines.sort_unstable();
        lines.dedup();
        let mut misses = 0u32;
        for &line in lines.iter() {
            let slot = (line.rem_euclid(cache.lines as i64)) as usize;
            if warp.cache_tags[slot] == Some(line) {
                metrics.cache_hits += 1;
            } else {
                warp.cache_tags[slot] = Some(line);
                metrics.cache_misses += 1;
                misses += 1;
            }
        }
        if misses == 0 {
            cache.hit_cost.max(1)
        } else {
            // Pay full latency once plus a segment penalty per extra
            // missing line.
            lat.mem_base + lat.mem_segment * (misses - 1)
        }
    }

    /// Drops the lines covering `addrs` from every warp's cache (stores
    /// and atomics write through).
    fn invalidate_lines(cfg: &SimConfig, warps: &mut [Warp], addrs: &[i64]) {
        if let Some(hier) = &cfg.mem {
            for warp in warps.iter_mut() {
                crate::mem::invalidate(hier, &mut warp.mem_tags, addrs);
            }
            return;
        }
        let Some(cache) = &cfg.cache else { return };
        let cells = cache.cells_per_line.max(1) as i64;
        for warp in warps.iter_mut() {
            for &a in addrs {
                let line = a.div_euclid(cells);
                let slot = (line.rem_euclid(cache.lines as i64)) as usize;
                if warp.cache_tags[slot] == Some(line) {
                    warp.cache_tags[slot] = None;
                }
            }
        }
    }
}

/// What went wrong inside a hot access loop, recorded so the error (and
/// its location lookup) is built after the loop's borrows end.
enum AccessFault {
    Oob { lane: usize, addr: i64, size: usize },
    Arith { lane: usize, message: String },
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alloc_count;
    use crate::machine::Launch;
    use simt_ir::parse_and_link;

    /// A deliberately busy kernel: divergent branches, a loop, global
    /// loads/stores, an atomic, device-function calls at two depths
    /// (`@f` straight from the kernel on one arm, through `@g` on the
    /// other), RNG, a vote, and convergence barriers — every hot-loop
    /// shape at once.
    const STEADY_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 4
  join b0
  brdiv %r2, bb1, bb2
bb1:
  %r3 = rng.unit
  %r4 = mul %r1, 3
  %r5 = load global[%r4]
  call @f(%r5, %r2) -> (%r5)
  store global[%r4], %r5
  jmp bb3
bb2:
  %r5 = atomic_add [0], 1
  %r6 = vote %r2
  call @g(%r6) -> (%r7)
  jmp bb3
bb3:
  wait b0
  %r0 = sub %r0, 1
  brdiv %r0, bb0, bb4
bb4:
  syncthreads
  exit
}
device @f(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, %r1
  %r3 = mul %r2, 2
  ret %r3
}
device @g(params=1, regs=3, barriers=0, entry=bb0) {
bb0:
  call @f(%r0, 5) -> (%r1)
  %r2 = add %r1, 1
  ret %r2
}
";

    /// Lanes of one warp reach the same device-function pcs at different
    /// call depths: odd lanes call `@helper` from the kernel, even lanes
    /// through `@wrap`, and every lane then recurses through `@fact` to
    /// an RNG-chosen depth. Inside `@helper`, an RNG branch splits the
    /// lanes again (per seed, in a sweep) and a convergence barrier
    /// joins them back before the return.
    pub(crate) const MIXED_DEPTH_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  %r2 = rng.u63
  %r3 = rem %r2, 5
  brdiv %r1, bb1, bb2
bb1:
  %r7 = mov 0
  call @helper(%r3, %r0) -> (%r4)
  jmp bb3
bb2:
  call @wrap(%r3, %r0) -> (%r4)
  jmp bb3
bb3:
  call @fact(%r3) -> (%r5)
  %r6 = add %r4, %r5
  store global[%r0], %r6
  exit
}
device @wrap(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, 1
  call @helper(%r2, %r1) -> (%r3)
  ret %r3
}
device @helper(params=2, regs=6, barriers=1, entry=bb0) {
bb0:
  %r2 = rng.u63
  %r3 = rem %r2, 2
  join b0
  brdiv %r3, bb1, bb2
bb1:
  %r4 = mul %r0, %r1
  jmp bb3
bb2:
  %r4 = add %r0, %r1
  jmp bb3
bb3:
  wait b0
  %r5 = add %r4, %r3
  ret %r5
}
device @fact(params=1, regs=4, barriers=0, entry=bb0) {
bb0:
  %r1 = le %r0, 1
  brdiv %r1, bb1, bb2
bb1:
  ret 1
bb2:
  %r2 = sub %r0, 1
  call @fact(%r2) -> (%r3)
  %r3 = mul %r3, %r0
  ret %r3
}
";

    /// The tree-walker and the decoded engine agree on a warp whose
    /// lanes share device-function pcs at different call depths — and
    /// the case is real: some issue of `@helper` runs lanes of both
    /// depths at once.
    #[test]
    fn mixed_call_depths_match_the_tree_walker() {
        let module = parse_and_link(MIXED_DEPTH_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let helper = image.func_by_name("helper").expect("helper exists");
        let mut mixed = false;
        for scheduler in [
            SchedulerPolicy::Greedy,
            SchedulerPolicy::MinPc,
            SchedulerPolicy::MaxPc,
            SchedulerPolicy::MostThreads,
            SchedulerPolicy::RoundRobin,
        ] {
            for seed in 0..4 {
                let cfg = SimConfig { scheduler, trace: true, ..SimConfig::default() };
                let launch = Launch {
                    kernel: "k".into(),
                    num_warps: 2,
                    args: vec![],
                    global_mem: vec![Value::I64(0); 64],
                    local_mem_size: 0,
                    seed,
                };
                let decoded = run_image(&image, &cfg, &launch).expect("decoded run");
                let reference =
                    crate::reference::run_reference(&module, &cfg, &launch).expect("reference run");
                assert_eq!(decoded.metrics, reference.metrics, "{scheduler:?} seed {seed}");
                assert_eq!(decoded.global_mem, reference.global_mem, "{scheduler:?} seed {seed}");
                let trace = decoded.trace.expect("trace on");
                mixed |= trace.events().iter().any(|e| {
                    e.func == helper && e.mask & 0x5555_5555 != 0 && e.mask & 0xAAAA_AAAA != 0
                });
            }
        }
        assert!(mixed, "no issue of @helper ran odd (depth 2) and even (depth 3) lanes together");
    }

    /// The tentpole acceptance criterion: after warm-up, `step()` does
    /// not touch the heap. Counts allocations via the test binary's
    /// counting global allocator across a window of steady-state steps.
    #[test]
    fn step_is_allocation_free_in_steady_state() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let cfg = SimConfig::default();
        let launch = Launch {
            kernel: "k".into(),
            num_warps: 2,
            args: vec![Value::I64(400)],
            global_mem: vec![Value::I64(7); 256],
            local_mem_size: 0,
            seed: 42,
        };
        let mut m = Machine::new(&image, &cfg, &launch).expect("machine builds");

        // Warm-up: grow every scratch buffer, frame stack, and register
        // arena to their high-water marks.
        for _ in 0..500 {
            if m.step().expect("warm-up step") {
                panic!("kernel finished during warm-up; enlarge the loop bound");
            }
        }

        let mut steps = 0u32;
        let allocs = alloc_count::allocations_during(|| {
            for _ in 0..2000 {
                if m.step().expect("steady-state step") {
                    break;
                }
                steps += 1;
            }
        });
        assert!(steps >= 1000, "kernel too short to observe steady state ({steps} steps)");
        assert_eq!(allocs, 0, "Machine::step allocated {allocs} times over {steps} steps");

        // And the run still completes correctly afterwards.
        while !m.step().expect("tail step") {}
        let out = m.into_output();
        assert!(out.metrics.cycles > 0);
    }

    /// A divergent branch whose arms reconverge at `bb3`, with a
    /// `__syncthreads` inside one arm — legal under Volta's independent
    /// thread scheduling, a classic deadlock under stack reconvergence.
    const DIVERGENT_SYNC_KERNEL: &str = "\
kernel @k(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  brdiv %r1, bb1, bb2
bb1:
  syncthreads
  jmp bb3
bb2:
  jmp bb3
bb3:
  store global[%r0], %r1
  exit
}
";

    fn steady_launch(iters: i64) -> Launch {
        Launch {
            kernel: "k".into(),
            num_warps: 2,
            args: vec![Value::I64(iters)],
            global_mem: vec![Value::I64(7); 256],
            local_mem_size: 0,
            seed: 9,
        }
    }

    /// All three reconvergence models execute the same lane work, so
    /// final memory agrees; only timing and the model's own counters
    /// differ. The barrier-file model must keep its counters all-zero
    /// (the bit-identity guarantee), the hardware models must show
    /// their machinery actually engaged on a divergent kernel.
    #[test]
    fn hardware_models_reach_the_same_memory() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let launch = steady_launch(12);
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        assert!(base.metrics.recon.is_zero(), "barrier-file recon counters must stay zero");

        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let stack = run_image(&image, &cfg, &launch).expect("ipdom run");
        assert_eq!(stack.global_mem, base.global_mem);
        assert!(stack.metrics.recon.stack_pushes > 0, "divergence must push");
        assert_eq!(stack.metrics.recon.stack_pushes, stack.metrics.recon.stack_pops);
        assert!(stack.metrics.recon.stack_max_depth >= 2);

        for (window, compact) in [(0, false), (4, true)] {
            let cfg = SimConfig {
                recon: ReconvergenceModel::WarpSplit { window, compact },
                ..SimConfig::default()
            };
            let split = run_image(&image, &cfg, &launch).expect("warp-split run");
            assert_eq!(split.global_mem, base.global_mem, "window={window} compact={compact}");
            assert!(split.metrics.recon.splits > 0, "divergence must fork a split");
            assert!(split.metrics.recon.fusions > 0, "reconvergence must re-fuse");
        }
    }

    /// The warp-split model preserves per-warp forward progress, so a
    /// sync inside a divergent arm still completes — like Volta, unlike
    /// the stack.
    #[test]
    fn warp_split_keeps_forward_progress_through_divergent_sync() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        let cfg = SimConfig {
            recon: ReconvergenceModel::WarpSplit { window: 2, compact: false },
            ..SimConfig::default()
        };
        let split = run_image(&image, &cfg, &launch).expect("warp-split run");
        assert_eq!(split.global_mem, base.global_mem);
    }

    /// The stack model serializes the taken arm first; its `syncthreads`
    /// can never be satisfied while the not-taken lanes are parked below
    /// the top-of-stack — and the deadlock report must carry the stack,
    /// not an empty barrier dump.
    #[test]
    fn ipdom_stack_deadlocks_where_volta_reconverges() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        run_image(&image, &SimConfig::default(), &launch).expect("volta completes this kernel");
        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let err = run_image(&image, &cfg, &launch).expect_err("the stack model deadlocks");
        match err {
            SimError::Deadlock { recon: ReconDump::IpdomStack { stack }, .. } => {
                assert!(!stack.is_empty(), "report must carry the reconvergence stack");
                assert!(stack.iter().any(|e| e.pending != 0));
            }
            other => panic!("expected an ipdom deadlock dump, got {other:?}"),
        }
    }
}
