//! Lockstep multi-seed execution: the seed dimension as a second SIMD
//! axis.
//!
//! Monte Carlo sweeps run one [`DecodedImage`] over many seeds that
//! differ only in RNG-dependent data. This module executes up to 64
//! seed-*instances* of one launch in lockstep: control state (PCs,
//! status masks, barrier registers, the scheduler's pick state, the
//! clock) is stored **once per sub-cohort** and shared by every
//! instance in it, while data state (register files, local memory, RNG
//! streams, global memory, hierarchy tags) is stored structure-of-arrays —
//! flat columns indexed `[cell * nslots + slot]` with no per-instance
//! pointers. One scheduling decision, one instruction decode, one cost
//! lookup, and one metrics update then serve every instance of a
//! sub-cohort; only the raw value compute is paid per `(lane, slot)`.
//!
//! # Fork, masked execution, merge
//!
//! Lockstep is exact while control flow is uniform across a
//! sub-cohort's instances. The three places instance data can steer
//! control are checked every issue:
//!
//! - **branches**: per-slot taken masks are computed first; each class
//!   of slots that disagrees with the largest group *forks* off as a
//!   child sub-cohort before the branch applies;
//! - **global accesses**: the global-memory cost model makes the issue
//!   cost (and hierarchy counters) data-dependent, so per-slot access
//!   outcomes are computed without mutation and each mismatching class
//!   forks with its pre-access state intact (under a memory hierarchy
//!   the hierarchy is walked once per *memory-state class* of slots
//!   with equal tags and MSHR files, see `Cohort::mem_classes`);
//! - **faults**: a slot whose lane faults (OOB access, division by
//!   zero) resolves to that seed's own `Err`, exactly as its scalar run
//!   would.
//!
//! A fork is speculative reconvergence applied one axis up: instead of
//! abandoning the vector unit for scalar replay, the diverging class
//! keeps executing under its slot mask. Only the *control plane* is
//! copied (pcs, status masks, frame metadata, scheduler state, the
//! clock) — the SoA value columns are already slot-indexed, so the
//! child reads and writes the same data plane through its own slot
//! mask and **no data moves on fork**. The child's control snapshot is
//! taken before the divergent issue applies, with the issuing warp's
//! scheduler fields rewound to their pre-pick values, so the child
//! re-picks and re-executes that issue itself on the exact unbatched
//! clock — the same replay argument the engine uses for mid-batch
//! divergence.
//!
//! Sub-cohorts are scheduled min-clock-first: the sub-cohort with the
//! smallest cycle runs its next round. At every round boundary,
//! sub-cohorts whose clocks and control planes re-agree are *merged*
//! (slot-mask union; the shared data plane needs no reconciliation),
//! restoring full-width lockstep after reconvergent divergence. The
//! control-plane comparison is sound because every sub-cohort
//! schedules through the same pick path (see [`crate::sched`]): equal
//! control planes pick identically forever after.
//!
//! The old detach-to-scalar path survives only as a last-resort escape
//! hatch: when a fork would exceed [`MAX_SUBCOHORTS`], the minority
//! class detaches into ordinary scalar [`Machine`]s that step
//! cycle-synchronously and may rejoin a sub-cohort whose control plane
//! matches (the same comparison as a merge).
//!
//! # Exactness
//!
//! Sweep outputs are **bit-identical** to N independent scalar runs —
//! metrics, final global memory, RNG streams, and errors — which the
//! conformance differential suite enforces across the generative kernel
//! genome and every scheduler policy. Per-instance observability
//! (trace, profile, journal) cannot be attributed exactly from shared
//! control, so sweeps of more than one instance reject those configs
//! with [`SimError::SweepUnsupported`] instead of emitting misstamped
//! events.

use crate::alu::{AluOp, LaneLoop};
use crate::config::{ReconvergenceModel, SchedulerPolicy, SimConfig};
use crate::decode::{DecodedImage, DecodedInst, PoolRange};
use crate::error::{BarrierState, ReconDump, SimError, ThreadLocation};
use crate::exec::{
    is_warp_local, keeps_lockstep, run_image_with, CancelToken, Frame, Machine, RegArena, Scratch,
    Status, Thread, Warp, BATCH_LIMIT,
};
use crate::machine::{Launch, SimOutput};
use crate::metrics::Metrics;
use crate::rng::SplitMix64;
use crate::sched::{lanes, mask_runs, select_group_mask};
use simt_ir::{BarrierId, BarrierOp, BinOp, MemSpace, Operand, RngKind, SpecialValue, Value};

/// Width of one lockstep cohort: slots are tracked in a `u64` mask,
/// mirroring the lane-mask machinery one level down.
pub const COHORT_SLOTS: usize = 64;

/// Cap on concurrently live sub-cohorts. Beyond it, a fork's minority
/// class detaches to scalar machines instead: with divergence this
/// pathological, the masked rounds' per-sub control overhead stops
/// amortizing, and bounding the count keeps the merge scan O(cap²) in
/// the worst round. The cap leaves headroom above the steady state for
/// the fork/merge oscillation within one scheduling round: with `k`
/// independently-diverging warps a sub-cohort can transiently split
/// into `2^k` classes per branch level before the frontier merge scan
/// folds the re-agreeing planes back together.
pub const MAX_SUBCOHORTS: usize = 32;

/// Number of buckets in [`SweepStats::occupancy_hist`]: widths 1, 2,
/// 3–4, 5–8, 9–16, 17–32, 33–64.
pub const OCCUPANCY_BUCKETS: usize = 7;

/// Human-readable labels for [`SweepStats::occupancy_hist`] buckets.
pub const OCCUPANCY_BUCKET_LABELS: [&str; OCCUPANCY_BUCKETS] =
    ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64"];

/// Histogram bucket of a per-issue sub-cohort width (`1..=64`).
#[inline]
fn occupancy_bucket(width: u32) -> usize {
    if width <= 1 {
        0
    } else {
        (32 - (width - 1).leading_zeros()) as usize
    }
}

/// A seed sweep: one launch template run over the half-open seed range
/// `[seed_lo, seed_hi)`. The template's own [`Launch::seed`] is ignored
/// — each instance `i` runs with seed `seed_lo + i`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepLaunch {
    /// The launch every instance shares (kernel, warps, args, memory).
    pub base: Launch,
    /// First seed of the sweep (inclusive).
    pub seed_lo: u64,
    /// End of the seed range (exclusive).
    pub seed_hi: u64,
}

impl SweepLaunch {
    /// A sweep of `base` over `[seed_lo, seed_hi)`.
    pub fn new(base: Launch, seed_lo: u64, seed_hi: u64) -> Self {
        Self { base, seed_lo, seed_hi }
    }

    /// Number of seed instances in the range.
    pub fn instances(&self) -> u64 {
        self.seed_hi.saturating_sub(self.seed_lo)
    }
}

/// Outcome of one seed instance of a sweep — exactly what a standalone
/// [`run_image`](crate::exec::run_image) of that seed would return.
#[derive(Clone, Debug)]
pub struct SeedRun {
    /// The seed this instance ran with.
    pub seed: u64,
    /// The instance's own result: output or its own fault/deadlock.
    pub result: Result<SimOutput, SimError>,
}

/// Execution counters of the sweep engine itself (not part of the
/// simulated outputs; those live in each [`SeedRun`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of seed instances the sweep ran.
    pub instances: usize,
    /// Instruction issues executed once for a whole sub-cohort.
    pub lockstep_issues: u64,
    /// Times a divergent slot class forked into a child sub-cohort.
    pub forks: u64,
    /// Times two sub-cohorts' control planes re-agreed and merged.
    pub merges: u64,
    /// Sum over lockstep issues of the issuing sub-cohort's width;
    /// `occupancy_sum / lockstep_issues` is the mean occupancy.
    pub occupancy_sum: u64,
    /// Lockstep issues by issuing sub-cohort width: buckets 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64 (see [`OCCUPANCY_BUCKET_LABELS`]).
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
    /// Most sub-cohorts ever live at once.
    pub peak_subcohorts: u32,
    /// Times an instance left for scalar stepping (escape hatch: fork
    /// past [`MAX_SUBCOHORTS`]).
    pub detaches: u64,
    /// Times a detached instance's control realigned and it rejoined.
    pub rejoins: u64,
    /// Scheduling rounds stepped by detached scalar machines.
    pub scalar_steps: u64,
}

impl SweepStats {
    /// Mean sub-cohort width per lockstep issue (0 when nothing
    /// issued).
    pub fn mean_occupancy(&self) -> f64 {
        if self.lockstep_issues == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.lockstep_issues as f64
        }
    }

    /// Folds another sweep's counters into this one. Sums every counter
    /// except `peak_subcohorts`, which is a high-water mark and takes
    /// the max — chunked sweeps (one cohort per worker) aggregate to the
    /// worst single cohort, not a fictitious combined peak.
    pub fn merge(&mut self, other: &SweepStats) {
        self.instances += other.instances;
        self.lockstep_issues += other.lockstep_issues;
        self.forks += other.forks;
        self.merges += other.merges;
        self.occupancy_sum += other.occupancy_sum;
        for (b, o) in self.occupancy_hist.iter_mut().zip(other.occupancy_hist) {
            *b += o;
        }
        self.peak_subcohorts = self.peak_subcohorts.max(other.peak_subcohorts);
        self.detaches += other.detaches;
        self.rejoins += other.rejoins;
        self.scalar_steps += other.scalar_steps;
    }
}

/// Result of a whole sweep: per-seed outcomes in seed order, plus
/// engine counters.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// One entry per seed, ordered `seed_lo..seed_hi`.
    pub runs: Vec<SeedRun>,
    /// Fork/merge/occupancy counters.
    pub stats: SweepStats,
}

/// Runs a seed sweep of a decoded image.
///
/// Instances execute in masked lockstep sub-cohorts that fork where
/// control flow diverges and merge where it re-agrees (see the module
/// docs); every [`SeedRun::result`] is bit-identical to a standalone
/// run of that seed.
///
/// # Errors
///
/// - [`SimError::SweepUnsupported`] when the range holds more than
///   [`COHORT_SLOTS`] seeds, or when `cfg` requests trace/profile/
///   journal collection for a sweep of more than one instance.
/// - Launch validation errors ([`SimError::NoSuchKernel`],
///   [`SimError::InvalidModule`]) — these would fail every instance
///   identically.
/// - [`SimError::Cancelled`] when the token fires; per-instance faults
///   and deadlocks are *not* whole-sweep errors — they are reported in
///   the failing instance's [`SeedRun`].
pub fn run_sweep_image(
    image: &DecodedImage,
    cfg: &SimConfig,
    sweep: &SweepLaunch,
    cancel: Option<&CancelToken>,
) -> Result<SweepOutput, SimError> {
    let n = sweep.instances();
    if n == 0 {
        return Ok(SweepOutput { runs: Vec::new(), stats: SweepStats::default() });
    }
    if n == 1 {
        // A single instance is an ordinary run: full observability is
        // allowed and exactness is trivial.
        let mut launch = sweep.base.clone();
        launch.seed = sweep.seed_lo;
        let result = match run_image_with(image, cfg, &launch, cancel) {
            Err(e @ SimError::Cancelled { .. }) => return Err(e),
            r => r,
        };
        let stats = SweepStats { instances: 1, ..SweepStats::default() };
        return Ok(SweepOutput { runs: vec![SeedRun { seed: sweep.seed_lo, result }], stats });
    }
    if n > COHORT_SLOTS as u64 {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "{n} seeds exceed the {COHORT_SLOTS}-slot cohort; chunk the seed range"
            ),
        });
    }
    if cfg.trace || cfg.profile || cfg.journal.is_some() {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "trace/profile/journal collection is per-instance; \
                 run the {n} seeds individually"
            ),
        });
    }
    if !matches!(cfg.recon, ReconvergenceModel::BarrierFile) {
        // Hardware reconvergence models (IPDOM stack, warp splitting)
        // schedule each machine's stack/splits independently, which
        // breaks the lockstep-slot invariant the cohort engine is
        // built on. Fall back to one scalar machine per seed — exact
        // by construction — accounting the rounds as scalar steps so
        // the sweep counters show the fallback path was taken.
        let mut runs = Vec::with_capacity(n as usize);
        let mut stats = SweepStats { instances: n as usize, ..SweepStats::default() };
        for seed in sweep.seed_lo..sweep.seed_hi {
            let mut launch = sweep.base.clone();
            launch.seed = seed;
            let result = match Machine::new(image, cfg, &launch) {
                Err(e) => Err(e),
                Ok(mut m) => loop {
                    if let Some(t) = cancel {
                        if t.is_cancelled() {
                            return Err(SimError::Cancelled { cycle: m.cycle });
                        }
                    }
                    stats.scalar_steps += 1;
                    match m.step() {
                        Ok(false) => {}
                        Ok(true) => break Ok(m.into_output()),
                        Err(e) => break Err(e),
                    }
                },
            };
            runs.push(SeedRun { seed, result });
        }
        return Ok(SweepOutput { runs, stats });
    }
    Cohort::new(image, cfg, sweep, n as usize)?.run(cancel)
}

/// [`run_sweep_image`] for callers that have not decoded the module
/// themselves.
///
/// # Errors
///
/// Everything [`run_sweep_image`] returns.
pub fn run_sweep(
    module: &simt_ir::Module,
    cfg: &SimConfig,
    sweep: &SweepLaunch,
) -> Result<SweepOutput, SimError> {
    let image = DecodedImage::decode(module);
    run_sweep_image(&image, cfg, sweep, None)
}

/// One lane's *control* state, owned per sub-cohort: the frame
/// structure and thread status every slot of the sub-cohort shares.
/// Frame structure (where each [`Frame`]'s register window sits in the
/// SoA arena) is control; the register *values* inside a window are
/// data.
#[derive(Clone, Debug)]
struct CtlLane {
    frames: Vec<Frame>,
    status: Status,
}

/// One lane's *data* columns, shared by every sub-cohort: sub-cohorts
/// address disjoint slot sets, so masked access needs no locking and a
/// fork moves nothing.
#[derive(Clone, Debug)]
struct DLane {
    /// Register values, `[reg_offset * nslots + slot]`; a bump arena
    /// over each sub-cohort's frame stack (frame `i` owns offsets
    /// `frames[i].base .. frames[i].base + frames[i].len`). Sized to
    /// the deepest sub-cohort; never shrinks.
    vals: Vec<Value>,
    /// Per-slot RNG streams.
    rng: Vec<SplitMix64>,
    /// Local memory, `[cell * nslots + slot]`.
    local: Vec<Value>,
}

/// An operand resolved against one lane's frame: either an immediate
/// broadcast to every slot or the start of a register's slot column in
/// the value arena. Hoists the `(base + reg) * nslots` arithmetic out of
/// the slot-inner loops.
#[derive(Clone, Copy)]
enum Row {
    Imm(Value),
    At(usize),
}

impl CtlLane {
    /// Register base offset of the top (live) frame.
    #[inline]
    fn cur_base(&self) -> usize {
        self.frames.last().expect("lane has no frame").base
    }

    /// First arena row above the lane's frames.
    fn top(&self) -> usize {
        self.frames.last().expect("lane has no frame").end()
    }

    /// Pushes a callee frame: extends the arena by `num_regs` offsets,
    /// default-initializing the new window for `slots` only — other
    /// sub-cohorts share the arena and may hold live values in these
    /// rows' other columns.
    fn push_frame(
        &mut self,
        d: &mut DLane,
        ns: usize,
        slots: u64,
        pc: usize,
        ret_regs: PoolRange,
        num_regs: usize,
    ) {
        let base = self.top();
        let top = base + num_regs;
        if d.vals.len() < top * ns {
            d.vals.resize(top * ns, Value::default());
        }
        for r in base..top {
            let row = r * ns;
            for (lo, hi) in mask_runs(slots) {
                for v in &mut d.vals[row + lo..row + hi] {
                    *v = Value::default();
                }
            }
        }
        self.frames.push(Frame { pc, ret_regs, base, len: num_regs });
    }

    /// Pops the top frame, releasing its arena window.
    fn pop_frame(&mut self) -> Frame {
        self.frames.pop().expect("return without frame")
    }
}

impl DLane {
    /// Resolves an operand to a [`Row`] against the frame at `base`.
    #[inline]
    fn row(&self, ns: usize, base: usize, op: Operand) -> Row {
        match op {
            Operand::Imm(v) => Row::Imm(v),
            Operand::Reg(r) => Row::At((base + r.index()) * ns),
        }
    }

    /// Reads a resolved operand for one slot.
    #[inline]
    fn get(&self, row: Row, slot: usize) -> Value {
        match row {
            Row::Imm(v) => v,
            Row::At(i) => self.vals[i + slot],
        }
    }

    /// Writes a register of the frame at `base` for one slot.
    #[inline]
    fn set(&mut self, ns: usize, base: usize, r: usize, slot: usize, v: Value) {
        self.vals[(base + r) * ns + slot] = v;
    }

    /// Evaluates an operand against the frame at `base` for one slot.
    #[inline]
    fn eval(&self, ns: usize, base: usize, op: Operand, slot: usize) -> Value {
        match op {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.vals[(base + r.index()) * ns + slot],
        }
    }
}

/// One warp's control plane, owned per sub-cohort.
#[derive(Clone, Debug)]
struct CWarp {
    lanes_c: Vec<CtlLane>,
    /// Live pc of each lane's top frame (shared across the sub-cohort's
    /// slots).
    pcs: Vec<usize>,
    /// Barrier participation masks.
    masks: Vec<u64>,
    lane_mask: u64,
    runnable: u64,
    waiting: u64,
    at_sync: u64,
    exited: u64,
    busy_until: u64,
    rr_cursor: usize,
    last_lanes: u64,
    done: bool,
}

/// One warp's data plane, shared by every sub-cohort.
#[derive(Clone, Debug)]
struct DWarp {
    lanes_d: Vec<DLane>,
    /// Memory-hierarchy tag state, one [`MemTags`](crate::mem) per
    /// slot (empty unless [`SimConfig::mem`] is on). Tag *contents* are
    /// per-slot data, but slots of one memory-state class
    /// ([`Cohort::mem_classes`]) hold equal tags in every warp, so the
    /// cohort walks the hierarchy once per class and replays the walk's
    /// fills on the other members. Only the whole
    /// [`AccessOutcome`](crate::mem::AccessOutcome) must stay uniform
    /// within a sub-cohort.
    hier_tags: Vec<crate::mem::MemTags>,
}

/// One masked sub-cohort: a control plane plus the slot mask it
/// governs and its own clock and metrics accumulator. Forked from its
/// parent on control divergence; merged back when control re-agrees.
#[derive(Clone, Debug)]
struct SubCohort {
    /// Slots executing under this control plane (disjoint across
    /// sub-cohorts).
    slots: u64,
    cycle: u64,
    /// Shared metrics accumulator: every counter a scalar run would
    /// bump is bumped once here for the whole sub-cohort. A slot's true
    /// metrics are `metrics + bases[slot]`. `cycles` stays 0 until
    /// finalization.
    metrics: Metrics,
    warps: Vec<CWarp>,
}

/// What one issue needs to know to fork a child sub-cohort (or
/// materialize a scalar machine) mid-round: which warp is issuing and
/// its pre-pick scheduler fields (the pick already advanced them; the
/// child must re-run the pick itself).
#[derive(Clone, Copy)]
struct IssueCtx {
    w: usize,
    pre_last_lanes: u64,
    pre_rr_cursor: usize,
    /// The issuing warp's `busy_until` at the moment an *unbatched*
    /// scalar run would pick this instruction. For the round's first
    /// issue that is the warp's stored value; for the i-th batched
    /// issue it is `round cycle + Σ costs of the batch prefix` — the
    /// exact cycle the unbatched timeline reaches that pick, so a class
    /// forking mid-batch replays on the true clock.
    pre_busy_until: u64,
}

/// The cohort's [`LaneLoop`]: one ALU issue over (lane mask × live
/// slots). Operand and destination rows are resolved once per lane, and
/// the slot loop walks contiguous runs of the slot mask so a full (or
/// fragmented-but-runny) mask takes dense counted inner loops over the
/// column slices — the shape the autovectorizer wants.
struct CohortAlu<'a> {
    cw: &'a mut CWarp,
    dw: &'a mut DWarp,
    ns: usize,
    slots: u64,
    mask: u64,
    dst: simt_ir::Reg,
    lhs: Operand,
    rhs: Operand,
}

impl LaneLoop for CohortAlu<'_> {
    /// `(slot, lane, lhs, rhs)` of every slot's first refused lane; the
    /// slot's later lanes are skipped.
    type Out = Vec<(usize, usize, Value, Value)>;

    #[inline]
    fn run<K: Fn(Value, Value) -> Option<Value>>(self, k: K, _can_fault: bool) -> Self::Out {
        let CohortAlu { cw, dw, ns, slots, mask, dst, lhs, rhs } = self;
        let mut faults = Vec::new();
        let mut faulted = 0u64;
        for l in lanes(mask) {
            let base = cw.lanes_c[l].cur_base();
            let dl = &mut dw.lanes_d[l];
            let lr = dl.row(ns, base, lhs);
            let rr = dl.row(ns, base, rhs);
            let drow = (base + dst.index()) * ns;
            for (lo, hi) in mask_runs(slots & !faulted) {
                for s in lo..hi {
                    let (a, b) = (dl.get(lr, s), dl.get(rr, s));
                    match k(a, b) {
                        Some(v) => dl.vals[drow + s] = v,
                        None => {
                            faulted |= 1 << s;
                            faults.push((s, l, a, b));
                        }
                    }
                }
            }
            cw.pcs[l] += 1;
        }
        faults
    }
}

/// The cohort's batch-safety probe: runs an issue's kernel over every
/// (lane, slot) without writing anything.
struct CohortProbe<'a> {
    cw: &'a CWarp,
    dw: &'a DWarp,
    ns: usize,
    slots: u64,
    mask: u64,
    lhs: Operand,
    rhs: Operand,
}

impl LaneLoop for CohortProbe<'_> {
    /// Whether the kernel accepted every cell.
    type Out = bool;

    #[inline]
    fn run<K: Fn(Value, Value) -> Option<Value>>(self, k: K, can_fault: bool) -> bool {
        let CohortProbe { cw, dw, ns, slots, mask, lhs, rhs } = self;
        !can_fault
            || lanes(mask).all(|l| {
                let base = cw.lanes_c[l].cur_base();
                let dl = &dw.lanes_d[l];
                let (lr, rr) = (dl.row(ns, base, lhs), dl.row(ns, base, rhs));
                lanes(slots).all(|s| k(dl.get(lr, s), dl.get(rr, s)).is_some())
            })
    }
}

/// Per-access fault captured during a cohort issue, resolved to the
/// owning seed's `Err` after the hot borrows end.
enum SlotFault {
    Oob { lane: usize, addr: i64, size: usize, space: MemSpace },
    Arith { lane: usize, message: String },
}

/// The lockstep sweep machine: forked control planes over one SoA data
/// plane.
struct Cohort<'m> {
    image: &'m DecodedImage,
    cfg: &'m SimConfig,
    /// Per-pc issue costs, shared by sub-cohorts and detached machines.
    costs: Vec<u32>,
    /// Cohort width (number of seed instances), fixed for the whole
    /// run: columns keep stride `nslots` even as slots fork and resolve.
    nslots: usize,
    seed_lo: u64,
    /// Live sub-cohorts, unordered (the run loop picks min-clock).
    subs: Vec<SubCohort>,
    /// The shared data plane, one entry per warp.
    data: Vec<DWarp>,
    /// Global memory, `[addr * nslots + slot]`.
    global: Vec<Value>,
    global_len: usize,
    local_len: usize,
    /// Per-slot metrics deltas (wrapping) relative to the owning
    /// sub-cohort's accumulator: a slot's true metrics are
    /// `sub.metrics + bases[slot]`. Zero until the slot's first
    /// fork/merge/rejoin.
    bases: Vec<Metrics>,
    /// Detached scalar machines (escape hatch), stepped
    /// cycle-synchronously.
    detached: Vec<Option<Machine<'m>>>,
    /// Slots with a machine in `detached` (hot-loop early-out).
    detached_mask: u64,
    /// Final per-seed results, filled as instances resolve.
    results: Vec<Option<Result<SimOutput, SimError>>>,
    stats: SweepStats,
    // Reusable hot-loop buffers.
    groups: Vec<(usize, u64)>,
    /// Pcs of the groups the last pick did *not* choose — the cohort
    /// twin of [`Scratch::other_pcs`], consulted by the straight-line
    /// batcher's merge guard (empty after a converged pick). Per-pick
    /// scratch: every round's pick rewrites it before the batcher
    /// reads it, so it is safely shared across sub-cohorts.
    other_pcs: Vec<usize>,
    /// Per-slot address staging for global accesses,
    /// `[slot * lanes_in_mask + idx]`.
    addr_buf: Vec<i64>,
    /// Segment ids derived from one slot's addresses (flat coalescing).
    lines_buf: Vec<i64>,
    /// Staged call arguments / return values, `[idx * nslots + slot]`.
    stage: Vec<Value>,
    /// Per-slot machine-wide MSHR files of the memory-hierarchy model
    /// (each seed instance is its own virtual machine, so "machine-wide"
    /// means per slot here). Empty files unless [`SimConfig::mem`] is on.
    /// Equal within each memory-state class ([`Self::mem_classes`]).
    mshrs: Vec<crate::mem::MemMshrs>,
    /// Memory-state classes: disjoint slot masks over the unresolved,
    /// non-detached slots, such that all slots of one class hold equal
    /// [`Self::mshrs`] and equal [`DWarp::hier_tags`] in every warp.
    /// Independent of the sub-cohorts (a class may span several). One
    /// class at launch; refined wherever only part of a class commits,
    /// invalidates or is overwritten, and never coarsened.
    mem_classes: Vec<u64>,
    /// Hierarchy walk staging, shared across slots (each walk
    /// repopulates it).
    mem_scratch: crate::mem::MemScratch,
}

impl<'m> Cohort<'m> {
    /// Validates the launch (identically to [`Machine::new`]) and
    /// builds the initial SoA state for `nslots` instances: one root
    /// sub-cohort owning every slot, over one shared data plane.
    fn new(
        image: &'m DecodedImage,
        cfg: &'m SimConfig,
        sweep: &SweepLaunch,
        nslots: usize,
    ) -> Result<Cohort<'m>, SimError> {
        let launch = &sweep.base;
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
        let entry = kfunc.entry_pc as usize;

        let mut warps = Vec::with_capacity(launch.num_warps);
        let mut data = Vec::with_capacity(launch.num_warps);
        for w in 0..launch.num_warps {
            let mut lanes_c = Vec::with_capacity(width);
            let mut lanes_d = Vec::with_capacity(width);
            for lane in 0..width {
                let tid = (w * width + lane) as u64;
                let mut vals = vec![Value::default(); num_regs * nslots];
                for (i, a) in launch.args.iter().enumerate() {
                    for s in 0..nslots {
                        vals[i * nslots + s] = *a;
                    }
                }
                lanes_c.push(CtlLane {
                    frames: vec![Frame {
                        pc: entry,
                        ret_regs: PoolRange::EMPTY,
                        base: 0,
                        len: num_regs,
                    }],
                    status: Status::Runnable,
                });
                lanes_d.push(DLane {
                    vals,
                    rng: (0..nslots)
                        .map(|s| SplitMix64::for_sweep_instance(sweep.seed_lo, s as u64, tid))
                        .collect(),
                    local: vec![Value::default(); launch.local_mem_size * nslots],
                });
            }
            warps.push(CWarp {
                lanes_c,
                pcs: vec![entry; width],
                masks: vec![0; image.num_barriers],
                lane_mask,
                runnable: lane_mask,
                waiting: 0,
                at_sync: 0,
                exited: 0,
                busy_until: 0,
                rr_cursor: 0,
                last_lanes: 0,
                done: false,
            });
            data.push(DWarp {
                lanes_d,
                hier_tags: (0..nslots)
                    .map(|_| crate::mem::MemTags::new(cfg.mem.as_ref()))
                    .collect(),
            });
        }

        let mut global = vec![Value::default(); launch.global_mem.len() * nslots];
        for (a, v) in launch.global_mem.iter().enumerate() {
            for s in 0..nslots {
                global[a * nslots + s] = *v;
            }
        }

        let slots = if nslots == 64 { u64::MAX } else { (1u64 << nslots) - 1 };
        Ok(Cohort {
            image,
            cfg,
            costs: image.resolve_costs(&cfg.latency),
            nslots,
            seed_lo: sweep.seed_lo,
            subs: vec![SubCohort {
                slots,
                cycle: 0,
                metrics: Metrics::new(launch.num_warps, width),
                warps,
            }],
            data,
            global,
            global_len: launch.global_mem.len(),
            local_len: launch.local_mem_size,
            bases: vec![Metrics::new(launch.num_warps, width); nslots],
            detached: (0..nslots).map(|_| None).collect(),
            detached_mask: 0,
            results: vec![None; nslots],
            stats: SweepStats { instances: nslots, peak_subcohorts: 1, ..SweepStats::default() },
            groups: Vec::new(),
            other_pcs: Vec::new(),
            addr_buf: Vec::new(),
            lines_buf: Vec::new(),
            stage: Vec::new(),
            mshrs: (0..nslots).map(|_| crate::mem::MemMshrs::new(cfg.mem.as_ref())).collect(),
            mem_classes: vec![slots],
            mem_scratch: crate::mem::MemScratch::default(),
        })
    }

    /// Drives every sub-cohort and detached machine to completion:
    /// min-clock-first over the sub-cohorts, with merge and rejoin
    /// checks at each visited round boundary.
    fn run(mut self, cancel: Option<&CancelToken>) -> Result<SweepOutput, SimError> {
        while !self.subs.is_empty() {
            self.next_round(cancel)?;
        }
        self.finish_detached(cancel)?;
        let runs = self
            .results
            .iter_mut()
            .enumerate()
            .map(|(s, r)| SeedRun {
                seed: self.seed_lo.wrapping_add(s as u64),
                result: r.take().expect("every slot resolved"),
            })
            .collect();
        Ok(SweepOutput { runs, stats: self.stats })
    }

    /// Runs one round of the sub-cohort at the frontier (minimum) cycle.
    fn next_round(&mut self, cancel: Option<&CancelToken>) -> Result<(), SimError> {
        let t = self.subs.iter().map(|sc| sc.cycle).min().expect("subs non-empty");
        if let Some(tok) = cancel {
            if tok.is_cancelled() {
                return Err(SimError::Cancelled { cycle: t });
            }
        }
        // Reconvergence checks happen at the frontier cycle before
        // anything at it executes: merge sub-cohorts whose control
        // re-agreed, then catch detached machines up and rejoin any
        // whose control realigned.
        self.merge_at(t);
        self.drive_detached(t);
        let si = self
            .subs
            .iter()
            .position(|sc| sc.cycle == t)
            .expect("a sub-cohort sits at the minimum cycle");
        // The running sub-cohort is moved out of `subs` for the round
        // so forked children can push into `subs` mid-issue.
        let mut sub = self.subs.swap_remove(si);
        if self.round(&mut sub) {
            self.finalize_sub(&sub);
        } else if sub.slots != 0 {
            self.subs.push(sub);
        }
        Ok(())
    }

    /// Whether the memory-state classes are disjoint and every class's
    /// slots hold equal MSHR files and equal tags in every warp (the
    /// invariant the shared hierarchy walk relies on). Checked round
    /// by round in the unit tests.
    #[cfg(test)]
    fn mem_classes_hold(&self) -> bool {
        let mut seen = 0u64;
        self.mem_classes.iter().all(|&c| {
            let r = c.trailing_zeros() as usize;
            let disjoint = c & seen == 0;
            seen |= c;
            disjoint
                && lanes(c).all(|s| {
                    self.mshrs[s] == self.mshrs[r]
                        && self.data.iter().all(|dw| dw.hier_tags[s] == dw.hier_tags[r])
                })
        })
    }

    /// Marks a slot of `sub` resolved with its own terminal error.
    fn resolve_err(&mut self, sub: &mut SubCohort, s: usize, e: SimError) {
        sub.slots &= !(1u64 << s);
        leave_classes(&mut self.mem_classes, 1u64 << s);
        self.results[s] = Some(Err(e));
    }

    /// Resolves every slot of `sub` with one shared error (deadlock,
    /// cycle budget): these arise purely from shared control state, so
    /// every instance's scalar run would fail identically.
    fn resolve_all(&mut self, sub: &mut SubCohort, e: &SimError) {
        for s in lanes(sub.slots) {
            self.results[s] = Some(Err(e.clone()));
        }
        leave_classes(&mut self.mem_classes, sub.slots);
        sub.slots = 0;
    }

    /// Records one lockstep issue by the sub-cohort currently `width`
    /// slots wide.
    #[inline]
    fn note_issue(&mut self, width: u32) {
        self.stats.lockstep_issues += 1;
        self.stats.occupancy_sum += u64::from(width);
        self.stats.occupancy_hist[occupancy_bucket(width)] += 1;
    }

    /// Merges every pair of sub-cohorts sitting at cycle `t` whose
    /// control planes are equal: the merged group keeps one plane, the
    /// other's slots fold in under their metrics delta, and the shared
    /// data plane needs no reconciliation. Sound because equal control
    /// planes pick identically forever (see [`crate::sched`]).
    fn merge_at(&mut self, t: u64) {
        if self.subs.len() < 2 {
            return;
        }
        let mut i = 0;
        while i < self.subs.len() {
            if self.subs[i].cycle != t {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < self.subs.len() {
                if self.subs[j].cycle == t && subs_match(&self.subs[i], &self.subs[j]) {
                    let b = self.subs.swap_remove(j);
                    let d = metrics_delta(&b.metrics, &self.subs[i].metrics);
                    for s in lanes(b.slots) {
                        self.bases[s] = metrics_sum(&self.bases[s], &d);
                    }
                    self.subs[i].slots |= b.slots;
                    self.stats.merges += 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// One scheduling round of `sub` over its control plane — the
    /// cohort mirror of [`Machine::step`], including the straight-line
    /// batcher (batched and unbatched execution are equivalent in every
    /// observable; the cohort batches so the per-round scheduling cost
    /// it amortizes across slots matches the scalar baseline's).
    /// Returns `true` once every warp has finished.
    fn round(&mut self, sub: &mut SubCohort) -> bool {
        // `sub` is popped off `self.subs` while it runs, so a non-empty
        // `subs` (or any detached machine) means the cohort is split.
        let split = !self.subs.is_empty() || self.detached_mask != 0;
        let mut next_ready = u64::MAX;
        let mut all_done = true;
        for w in 0..sub.warps.len() {
            if sub.warps[w].done {
                continue;
            }
            all_done = false;
            if sub.warps[w].busy_until > sub.cycle {
                next_ready = next_ready.min(sub.warps[w].busy_until);
                continue;
            }
            let ctx = IssueCtx {
                w,
                pre_last_lanes: sub.warps[w].last_lanes,
                pre_rr_cursor: sub.warps[w].rr_cursor,
                pre_busy_until: sub.warps[w].busy_until,
            };
            match self.pick_group_c(sub, w) {
                Some((pc, mask)) => {
                    sub.warps[w].last_lanes = mask;
                    // Stall pressure samples before execution, exactly
                    // like the scalar engine's issue path.
                    let waiting_lanes = sub.warps[w].waiting.count_ones();
                    let div0 = self.stats.forks + self.stats.detaches;
                    let cost = self.exec_c(sub, pc, mask, ctx);
                    if sub.slots == 0 {
                        // Every instance of this sub-cohort forked,
                        // detached, or faulted mid-round; its plane is
                        // abandoned and the children replay from their
                        // own consistent snapshots.
                        return false;
                    }
                    let roi = self.image.roi[pc];
                    sub.metrics.record_issue(w, mask, cost.max(1), roi, waiting_lanes);
                    self.note_issue(sub.slots.count_ones());
                    let mut busy = sub.cycle + u64::from(cost.max(1));
                    // Straight-line batching, mirroring the scalar
                    // engine's run-ahead (see [`Machine::step`]): a
                    // group that is provably re-picked unchanged
                    // executes warp-local ops within this slot. The
                    // cohort never carries trace/journal (multi-
                    // instance sweeps reject them), so those disablers
                    // don't apply; batched ops never touch statuses, so
                    // the stall-pressure sample stays valid for every
                    // issue in the batch. Each batched issue builds its
                    // own [`IssueCtx`] — `last_lanes` re-sticks to the
                    // mask, the RoundRobin cursor is consumed per issue
                    // exactly as the converged pick would, and
                    // `pre_busy_until` carries the unbatched clock — so
                    // a class forking mid-batch (cross-seed branch
                    // divergence) still snapshots the exact control
                    // state an unbatched run would reach at that pick.
                    // Faultable ops only batch when every (lane, slot)
                    // operand is provably safe: per-seed faults must
                    // surface at their precise round.
                    // A divergent issue ends the batch (and skips
                    // starting one): the sooner this sub returns to the
                    // run loop, the sooner its frontier lines up with
                    // the sibling it just forked from — letting
                    // re-agreeing sub-cohorts merge after one arm
                    // instead of forking again rounds ahead of the
                    // merge scan. Cutting a batch short is always
                    // equivalent to unbatched execution.
                    if self.stats.forks + self.stats.detaches == div0
                        && keeps_lockstep(&self.image.insts[pc])
                        && (mask == sub.warps[w].runnable
                            || self.cfg.scheduler == SchedulerPolicy::Greedy)
                    {
                        let lead = mask.trailing_zeros() as usize;
                        let round_robin = self.cfg.scheduler == SchedulerPolicy::RoundRobin;
                        for _ in 0..BATCH_LIMIT {
                            let npc = sub.warps[w].pcs[lead];
                            let inst = &self.image.insts[npc];
                            let branch = matches!(inst, DecodedInst::Branch { .. });
                            if branch && split {
                                // While the cohort is split, every sub
                                // stops at every branch: forks and the
                                // code between branches cost the same
                                // in every sibling, so this keeps the
                                // sub-cohorts' round boundaries on one
                                // cadence — equal-cycle frontiers recur
                                // and re-agreeing planes actually meet
                                // in the merge scan instead of
                                // leapfrogging each other forever.
                                break;
                            }
                            if self.other_pcs.contains(&npc) {
                                // Pending merge with a frozen group:
                                // the next real round must re-group.
                                break;
                            }
                            if !(branch || is_warp_local(inst))
                                || !self.batch_fault_free_c(sub, w, mask, inst)
                            {
                                break;
                            }
                            let bctx = IssueCtx {
                                w,
                                pre_last_lanes: mask,
                                pre_rr_cursor: sub.warps[w].rr_cursor,
                                pre_busy_until: busy,
                            };
                            if round_robin {
                                let rr = &mut sub.warps[w].rr_cursor;
                                *rr = rr.wrapping_add(1);
                            }
                            let divb = self.stats.forks + self.stats.detaches;
                            let c = self.exec_c(sub, npc, mask, bctx);
                            if sub.slots == 0 {
                                return false;
                            }
                            let diverged = self.stats.forks + self.stats.detaches != divb;
                            sub.metrics.record_issue(
                                w,
                                mask,
                                c.max(1),
                                self.image.roi[npc],
                                waiting_lanes,
                            );
                            self.note_issue(sub.slots.count_ones());
                            busy += u64::from(c.max(1));
                            if diverged {
                                break;
                            }
                            if branch {
                                let warp = &sub.warps[w];
                                let tpc = warp.pcs[lead];
                                if lanes(mask).any(|l| warp.pcs[l] != tpc) {
                                    // The group split; the next round
                                    // re-groups exactly as unbatched
                                    // execution would here.
                                    break;
                                }
                            }
                        }
                    }
                    sub.warps[w].busy_until = busy;
                    next_ready = next_ready.min(busy);
                }
                None => {
                    let live_lanes = sub.warps[w].lane_mask & !sub.warps[w].exited;
                    if live_lanes == 0 {
                        sub.warps[w].done = true;
                    } else {
                        // Deadlock is a property of shared control:
                        // every live instance fails with the identical
                        // diagnostic its scalar run would build here.
                        let waiting = lanes(live_lanes)
                            .map(|l| {
                                let b = match sub.warps[w].lanes_c[l].status {
                                    Status::Waiting(b) => b,
                                    _ => BarrierId(0),
                                };
                                (self.location_at(w, l, sub.warps[w].pcs[l]), b)
                            })
                            .collect();
                        let barriers = Self::barrier_dump(&sub.warps[w]);
                        let e = SimError::Deadlock {
                            cycle: sub.cycle,
                            waiting,
                            barriers,
                            recon: ReconDump::BarrierFile,
                        };
                        self.resolve_all(sub, &e);
                        return false;
                    }
                }
            }
        }
        if all_done {
            return true;
        }
        if sub.cycle >= self.cfg.max_cycles {
            let e = SimError::MaxCyclesExceeded { limit: self.cfg.max_cycles };
            self.resolve_all(sub, &e);
            return false;
        }
        if next_ready != u64::MAX {
            sub.cycle = next_ready.max(sub.cycle + 1);
        }
        false
    }

    /// Finalizes every slot of a finished sub-cohort into its output at
    /// the sub-cohort's finish cycle.
    fn finalize_sub(&mut self, sub: &SubCohort) {
        let ns = self.nslots;
        leave_classes(&mut self.mem_classes, sub.slots);
        for s in lanes(sub.slots) {
            let mut metrics = metrics_sum(&sub.metrics, &self.bases[s]);
            metrics.cycles = sub.cycle;
            let global_mem = (0..self.global_len).map(|a| self.global[a * ns + s]).collect();
            self.results[s] = Some(Ok(SimOutput {
                metrics,
                global_mem,
                trace: None,
                profile: None,
                journal: None,
            }));
        }
    }

    /// Steps every detached machine up to the frontier cycle `t`,
    /// resolving the ones that finish or fail, and rejoins any whose
    /// control plane matches a sub-cohort's at this round boundary.
    fn drive_detached(&mut self, t: u64) {
        if self.detached_mask == 0 {
            return;
        }
        for s in lanes(self.detached_mask) {
            let Some(mut m) = self.detached[s].take() else { continue };
            let mut finished = false;
            let mut err = None;
            while m.cycle < t {
                self.stats.scalar_steps += 1;
                match m.step() {
                    Ok(false) => {}
                    Ok(true) => {
                        finished = true;
                        break;
                    }
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            if finished {
                self.results[s] = Some(Ok(m.into_output()));
                self.detached_mask &= !(1u64 << s);
            } else if let Some(e) = err {
                self.results[s] = Some(Err(e));
                self.detached_mask &= !(1u64 << s);
            } else if let Some(si) = self
                .subs
                .iter()
                .position(|sc| sc.cycle == t && m.cycle == t && control_matches(sc, &m))
            {
                self.absorb(si, s, &m);
                self.detached_mask &= !(1u64 << s);
            } else {
                self.detached[s] = Some(m);
            }
        }
    }

    /// Runs every remaining detached machine to completion (every
    /// sub-cohort is finished; clock synchrony no longer matters).
    fn finish_detached(&mut self, cancel: Option<&CancelToken>) -> Result<(), SimError> {
        for s in 0..self.nslots {
            let Some(mut m) = self.detached[s].take() else { continue };
            let r = loop {
                if let Some(t) = cancel {
                    if t.is_cancelled() {
                        return Err(SimError::Cancelled { cycle: m.cycle });
                    }
                }
                self.stats.scalar_steps += 1;
                match m.step() {
                    Ok(false) => {}
                    Ok(true) => break Ok(m.into_output()),
                    Err(e) => break Err(e),
                }
            };
            self.results[s] = Some(r);
        }
        Ok(())
    }
}

/// Componentwise wrapping sum of two metrics snapshots (`per_warp`
/// pairwise; `warp_width` copied from `a`).
fn metrics_sum(a: &Metrics, b: &Metrics) -> Metrics {
    let mut m = Metrics::new(a.per_warp.len(), a.warp_width);
    m.cycles = a.cycles.wrapping_add(b.cycles);
    m.issues = a.issues.wrapping_add(b.issues);
    m.active_lane_sum = a.active_lane_sum.wrapping_add(b.active_lane_sum);
    m.issue_weight = a.issue_weight.wrapping_add(b.issue_weight);
    m.roi_issues = a.roi_issues.wrapping_add(b.roi_issues);
    m.roi_active_lane_sum = a.roi_active_lane_sum.wrapping_add(b.roi_active_lane_sum);
    m.stall_cycles = a.stall_cycles.wrapping_add(b.stall_cycles);
    m.barrier_ops = a.barrier_ops.wrapping_add(b.barrier_ops);
    m.mem = a.mem.wrapping_add(&b.mem);
    m.recon = a.recon.wrapping_add(&b.recon);
    m.lane_insts = a.lane_insts.wrapping_add(b.lane_insts);
    for (i, slot) in m.per_warp.iter_mut().enumerate() {
        slot.0 = a.per_warp[i].0.wrapping_add(b.per_warp[i].0);
        slot.1 = a.per_warp[i].1.wrapping_add(b.per_warp[i].1);
    }
    m
}

/// Componentwise wrapping difference `a - b` (the per-slot base such
/// that `b + base == a`).
fn metrics_delta(a: &Metrics, b: &Metrics) -> Metrics {
    let mut m = Metrics::new(a.per_warp.len(), a.warp_width);
    m.cycles = a.cycles.wrapping_sub(b.cycles);
    m.issues = a.issues.wrapping_sub(b.issues);
    m.active_lane_sum = a.active_lane_sum.wrapping_sub(b.active_lane_sum);
    m.issue_weight = a.issue_weight.wrapping_sub(b.issue_weight);
    m.roi_issues = a.roi_issues.wrapping_sub(b.roi_issues);
    m.roi_active_lane_sum = a.roi_active_lane_sum.wrapping_sub(b.roi_active_lane_sum);
    m.stall_cycles = a.stall_cycles.wrapping_sub(b.stall_cycles);
    m.barrier_ops = a.barrier_ops.wrapping_sub(b.barrier_ops);
    m.mem = a.mem.wrapping_sub(&b.mem);
    m.recon = a.recon.wrapping_sub(&b.recon);
    m.lane_insts = a.lane_insts.wrapping_sub(b.lane_insts);
    for (i, slot) in m.per_warp.iter_mut().enumerate() {
        slot.0 = a.per_warp[i].0.wrapping_sub(b.per_warp[i].0);
        slot.1 = a.per_warp[i].1.wrapping_sub(b.per_warp[i].1);
    }
    m
}

/// Partitions live slots by a per-slot key: the largest class (ties
/// broken toward the class containing the lowest slot) keeps the
/// current sub-cohort; every other class is returned to fork off.
fn partition_classes<K: PartialEq + Copy>(live: u64, key: impl Fn(usize) -> K) -> (u64, Vec<u64>) {
    // Divergence across seeds is shallow in practice; a linear class
    // scan over at most 64 slots is plenty.
    let mut classes: Vec<(K, u64, u32)> = Vec::new();
    for s in lanes(live) {
        let k = key(s);
        match classes.iter_mut().find(|(ck, _, _)| *ck == k) {
            Some((_, mask, n)) => {
                *mask |= 1u64 << s;
                *n += 1;
            }
            None => classes.push((k, 1u64 << s, 1)),
        }
    }
    // First insertion order is lowest-slot order, so a plain max scan
    // with strict `>` implements the tie-break.
    let mut winner = 0u64;
    let mut best = 0u32;
    for &(_, mask, n) in &classes {
        if n > best {
            best = n;
            winner = mask;
        }
    }
    let minorities = classes.iter().map(|&(_, mask, _)| mask).filter(|&m| m != winner).collect();
    (winner, minorities)
}

/// Splits every memory-state class that `mask` cuts into its slots
/// inside `mask` and its slots outside it.
fn split_classes(classes: &mut Vec<u64>, mask: u64) {
    for i in 0..classes.len() {
        let (inside, outside) = (classes[i] & mask, classes[i] & !mask);
        if inside != 0 && outside != 0 {
            classes[i] = inside;
            classes.push(outside);
        }
    }
}

/// Takes `mask`'s slots out of their memory-state classes, dropping
/// classes left empty.
fn leave_classes(classes: &mut Vec<u64>, mask: u64) {
    if mask != 0 {
        classes.retain_mut(|c| {
            *c &= !mask;
            *c != 0
        });
    }
}

/// Makes every slot of `mask` a memory-state class of its own.
fn isolate_slots(classes: &mut Vec<u64>, mask: u64) {
    leave_classes(classes, mask);
    classes.extend(lanes(mask).map(|s| 1u64 << s));
}

/// The slots of each class part (`class & slots`) whose `k`-wide rows of
/// `rows` are not all equal: the parts an access or invalidation would
/// scatter into per-slot states.
fn scattered_parts(classes: &[u64], slots: u64, rows: &[i64], k: usize) -> u64 {
    let mut scattered = 0u64;
    for &class in classes {
        let part = class & slots;
        if part == 0 {
            continue;
        }
        let r = part.trailing_zeros() as usize;
        let row = &rows[r * k..(r + 1) * k];
        if !lanes(part).all(|s| rows[s * k..(s + 1) * k] == *row) {
            scattered |= part;
        }
    }
    scattered
}

/// Whether two sub-cohorts' control planes are equal — the merge test.
///
/// Compared: per warp — pcs, barrier masks, status masks, per-lane
/// statuses, frame structure (depth, per-frame register count,
/// return-register spans, and the saved pc of *suspended* frames; the
/// top frame's [`Frame::pc`] is stale by design on both sides and
/// never read), `busy_until`, `rr_cursor`, `last_lanes`, `done`. Frame
/// window bases are implied by the per-frame lengths (the arena is a
/// bump allocator), so equal lengths mean both planes address the same
/// rows.
fn subs_match(a: &SubCohort, b: &SubCohort) -> bool {
    a.warps.iter().zip(b.warps.iter()).all(|(aw, bw)| {
        if aw.done != bw.done
            || aw.busy_until != bw.busy_until
            || aw.rr_cursor != bw.rr_cursor
            || aw.last_lanes != bw.last_lanes
            || aw.runnable != bw.runnable
            || aw.waiting != bw.waiting
            || aw.at_sync != bw.at_sync
            || aw.exited != bw.exited
            || aw.pcs != bw.pcs
            || aw.masks != bw.masks
        {
            return false;
        }
        aw.lanes_c
            .iter()
            .zip(bw.lanes_c.iter())
            .all(|(al, bl)| al.status == bl.status && frames_match(&al.frames, &bl.frames))
    })
}

/// Whether two call stacks have the same structure: depth, window
/// lengths (which imply the window bases), return-register spans, and
/// the saved pcs of suspended frames (a top frame's saved pc is stale
/// by design and never read).
fn frames_match(a: &[Frame], b: &[Frame]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).enumerate().all(|(i, (x, y))| {
            x.len == y.len && x.ret_regs == y.ret_regs && (i + 1 == a.len() || x.pc == y.pc)
        })
}

/// Whether a detached machine's control plane equals a sub-cohort's —
/// the rejoin test, same comparison as [`subs_match`] against the
/// scalar representation. Ignored: `pick_hint`/`other_pcs` (scheduling
/// hints are provably behavior-neutral) and hierarchy tags (per-slot
/// data in the cohort).
fn control_matches(sub: &SubCohort, m: &Machine<'_>) -> bool {
    sub.warps.iter().zip(m.warps.iter()).all(|(cw, mw)| {
        if cw.done != mw.done
            || cw.busy_until != mw.busy_until
            || cw.rr_cursor != mw.rr_cursor
            || cw.last_lanes != mw.last_lanes
            || cw.runnable != mw.runnable
            || cw.waiting != mw.waiting
            || cw.at_sync != mw.at_sync
            || cw.exited != mw.exited
            || cw.pcs != mw.pcs
            || cw.masks != mw.masks
        {
            return false;
        }
        cw.lanes_c
            .iter()
            .zip(mw.threads.iter())
            .all(|(cl, t)| cl.status == t.status && frames_match(&cl.frames, &t.frames))
    })
}

// Scheduling, control, and diagnostics over a sub-cohort's plane —
// mirrors of the scalar engine's methods, operating on `CWarp`.
impl Cohort<'_> {
    /// Debug-only invariant, mirroring [`Machine`]'s `check_masks`.
    #[cfg(debug_assertions)]
    fn check_masks(cw: &CWarp, w: usize) {
        let mut expect = (0u64, 0u64, 0u64, 0u64);
        for (l, t) in cw.lanes_c.iter().enumerate() {
            let bit = 1u64 << l;
            match t.status {
                Status::Runnable => expect.0 |= bit,
                Status::Waiting(_) => expect.1 |= bit,
                Status::WaitingSync => expect.2 |= bit,
                Status::Exited => expect.3 |= bit,
            }
        }
        assert_eq!(
            (cw.runnable, cw.waiting, cw.at_sync, cw.exited),
            expect,
            "status masks out of sync with lane statuses in warp {w}"
        );
    }

    /// Groups runnable lanes by pc and applies the scheduler policy —
    /// the cohort twin of [`Machine`]'s `pick_group` (identical
    /// converged fast path, group construction, and policy call, so
    /// any control plane equal to this one — another sub-cohort's or a
    /// scalar machine's — picks identically).
    fn pick_group_c(&mut self, sub: &mut SubCohort, w: usize) -> Option<(usize, u64)> {
        #[cfg(debug_assertions)]
        Self::check_masks(&sub.warps[w], w);
        let runnable = sub.warps[w].runnable;
        if runnable == 0 {
            return None;
        }
        let pcs = &sub.warps[w].pcs;
        let mut it = lanes(runnable);
        let first = it.next().expect("runnable mask is non-empty");
        let pc0 = pcs[first];
        let mut rest = runnable & (runnable - 1);
        let mut converged = true;
        for l in lanes(rest) {
            if pcs[l] != pc0 {
                converged = false;
                rest &= !((1u64 << l) - 1);
                break;
            }
        }
        if converged {
            self.other_pcs.clear();
            if self.cfg.scheduler == SchedulerPolicy::RoundRobin {
                let warp = &mut sub.warps[w];
                warp.rr_cursor = warp.rr_cursor.wrapping_add(1);
            }
            return Some((pc0, runnable));
        }
        let groups = &mut self.groups;
        groups.clear();
        groups.push((pc0, runnable & !rest));
        for l in lanes(rest) {
            let pc = pcs[l];
            match groups.iter().position(|&(p, _)| p >= pc) {
                Some(i) if groups[i].0 == pc => groups[i].1 |= 1 << l,
                Some(i) => groups.insert(i, (pc, 1 << l)),
                None => groups.push((pc, 1 << l)),
            }
        }
        let warp = &mut sub.warps[w];
        let picked =
            select_group_mask(self.cfg.scheduler, groups, warp.last_lanes, &mut warp.rr_cursor);
        self.other_pcs.clear();
        if let Some((pc, _)) = picked {
            self.other_pcs.extend(groups.iter().map(|&(p, _)| p).filter(|&p| p != pc));
        }
        picked
    }

    /// Whether executing `inst` over `mask` is guaranteed not to fault
    /// in *any* live slot of `sub`: the op's own kernel, from the shared
    /// table, accepts every (lane, slot) operand pair. A batched issue
    /// must be infallible: a per-seed fault resolves that slot with the
    /// exact error its scalar run would raise, and look-ahead would
    /// misstamp its round. Faultable operands leave the instruction to
    /// execute in its own round.
    fn batch_fault_free_c(&self, sub: &SubCohort, w: usize, mask: u64, inst: &DecodedInst) -> bool {
        let probe = |op: AluOp, lhs, rhs| {
            op.dispatch(CohortProbe {
                cw: &sub.warps[w],
                dw: &self.data[w],
                ns: self.nslots,
                slots: sub.slots,
                mask,
                lhs,
                rhs,
            })
        };
        match *inst {
            DecodedInst::Bin { op, lhs, rhs, .. } => probe(AluOp::Bin(op), lhs, rhs),
            DecodedInst::Un { op, src, .. } => {
                probe(AluOp::Un(op), src, Operand::Imm(Value::default()))
            }
            _ => true,
        }
    }

    /// Thread location for a fault raised while issuing `pc` — the
    /// shared pc array may already have advanced past the faulting
    /// lane (the cohort advances once for the surviving slots), so
    /// faults name the issued pc explicitly.
    fn location_at(&self, warp: usize, lane: usize, pc: usize) -> ThreadLocation {
        let o = self.image.origin[pc];
        ThreadLocation { warp, lane, func: o.func, block: o.block, inst: o.inst as usize }
    }

    /// Barrier-register dump of one warp (deadlock diagnostics),
    /// mirroring the scalar engine's.
    fn barrier_dump(cw: &CWarp) -> Vec<BarrierState> {
        let live = cw.lane_mask & !cw.exited;
        let mut out = Vec::new();
        for (i, &m) in cw.masks.iter().enumerate() {
            let b = BarrierId::new(i);
            let mut waiters = 0u64;
            for l in lanes(cw.waiting) {
                if cw.lanes_c[l].status == Status::Waiting(b) {
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

    /// Executes one barrier operation on a sub-cohort's control plane —
    /// barrier semantics are pure control, so one execution serves the
    /// whole sub-cohort (only `arrived` writes registers, broadcast to
    /// every live slot).
    fn exec_barrier_c(&mut self, sub: &mut SubCohort, w: usize, mask: u64, op: BarrierOp) {
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                let warp = &mut sub.warps[w];
                warp.masks[b.index()] |= mask;
                for l in lanes(mask) {
                    warp.pcs[l] += 1;
                }
            }
            BarrierOp::Cancel(b) => {
                let warp = &mut sub.warps[w];
                warp.masks[b.index()] &= !mask;
                for l in lanes(mask) {
                    warp.pcs[l] += 1;
                }
                Self::release_check_c(warp, b);
            }
            BarrierOp::Copy { dst, src } => {
                let warp = &mut sub.warps[w];
                warp.masks[dst.index()] = warp.masks[src.index()];
                for l in lanes(mask) {
                    warp.pcs[l] += 1;
                }
                Self::release_check_c(warp, dst);
            }
            BarrierOp::ArrivedCount { dst, bar } => {
                let ns = self.nslots;
                let slots = sub.slots;
                let cw = &mut sub.warps[w];
                let dw = &mut self.data[w];
                let n = cw.masks[bar.index()].count_ones() as i64;
                for l in lanes(mask) {
                    let base = cw.lanes_c[l].cur_base();
                    let dl = &mut dw.lanes_d[l];
                    for (lo, hi) in mask_runs(slots) {
                        for s in lo..hi {
                            dl.set(ns, base, dst.index(), s, Value::I64(n));
                        }
                    }
                    cw.pcs[l] += 1;
                }
            }
            BarrierOp::Wait(b) => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.lanes_c[l].status = Status::Waiting(b);
                }
                warp.runnable &= !mask;
                warp.waiting |= mask;
                Self::release_check_c(warp, b);
            }
        }
    }

    /// Releases the `__syncthreads` group once every live thread is at
    /// one (control-plane twin of the scalar engine's check).
    fn sync_release_check_c(warp: &mut CWarp) {
        if warp.runnable != 0 || warp.waiting != 0 || warp.at_sync == 0 {
            return;
        }
        let releasing = warp.at_sync;
        for l in lanes(releasing) {
            warp.lanes_c[l].status = Status::Runnable;
            warp.pcs[l] += 1;
        }
        warp.at_sync = 0;
        warp.runnable |= releasing;
    }

    /// Releases barrier `b` if every live participant is blocked on it.
    fn release_check_c(warp: &mut CWarp, b: BarrierId) {
        let mut waiting_b = 0u64;
        for l in lanes(warp.waiting) {
            if warp.lanes_c[l].status == Status::Waiting(b) {
                waiting_b |= 1 << l;
            }
        }
        if waiting_b == 0 {
            return;
        }
        let live = warp.lane_mask & !warp.exited;
        let participants = warp.masks[b.index()] & live;
        if participants & !waiting_b == 0 {
            warp.masks[b.index()] = 0;
            for l in lanes(waiting_b) {
                warp.lanes_c[l].status = Status::Runnable;
                warp.pcs[l] += 1;
            }
            warp.waiting &= !waiting_b;
            warp.runnable |= waiting_b;
        }
    }

    /// Drops exited lanes from every barrier and re-checks releases.
    fn on_exit_mask_c(warp: &mut CWarp, mask: u64) {
        warp.runnable &= !mask;
        warp.waiting &= !mask;
        warp.at_sync &= !mask;
        warp.exited |= mask;
        let nb = warp.masks.len();
        for b in 0..nb {
            warp.masks[b] &= !mask;
        }
        for b in 0..nb {
            Self::release_check_c(warp, BarrierId::new(b));
        }
        Self::sync_release_check_c(warp);
    }
}

// Fork, detach, rejoin: control-plane duplication and the state
// projection between the SoA plane and scalar machines.
impl<'m> Cohort<'m> {
    /// Splits `class` off `sub` at a divergent issue: forks a child
    /// sub-cohort when under the cap, else detaches to scalar machines
    /// (the escape hatch). Called *before* the divergent instruction
    /// mutates any state, so the child replays the in-progress round
    /// from a consistent snapshot: warps earlier in warp order already
    /// issued (their `busy_until` moved past this cycle), the issuing
    /// warp's scheduler fields are restored to their pre-pick values
    /// (`ctx`), and later warps are untouched — exactly the state an
    /// independent run of those slots would be in when its round
    /// reaches the issuing warp. The shared SoA data plane is untouched:
    /// the child simply reads and writes it under its own slot mask.
    fn split_off(&mut self, sub: &mut SubCohort, class: u64, ctx: IssueCtx) {
        if self.subs.len() + 2 <= MAX_SUBCOHORTS {
            let mut warps = sub.warps.clone();
            let cw = &mut warps[ctx.w];
            cw.last_lanes = ctx.pre_last_lanes;
            cw.rr_cursor = ctx.pre_rr_cursor;
            cw.busy_until = ctx.pre_busy_until;
            self.subs.push(SubCohort {
                slots: class,
                cycle: sub.cycle,
                metrics: sub.metrics.clone(),
                warps,
            });
            sub.slots &= !class;
            self.stats.forks += 1;
            self.stats.peak_subcohorts = self.stats.peak_subcohorts.max(self.subs.len() as u32 + 1);
        } else {
            self.detach_slots(sub, class, ctx);
        }
    }

    /// Detaches every slot in `mask` into scalar machines built from
    /// their SoA columns (same pre-application snapshot argument as
    /// [`Self::split_off`]).
    fn detach_slots(&mut self, sub: &mut SubCohort, mask: u64, ctx: IssueCtx) {
        // A detached machine owns its memory state until it rejoins.
        leave_classes(&mut self.mem_classes, mask);
        for s in lanes(mask) {
            let m = self.materialize(sub, s, ctx);
            self.detached[s] = Some(m);
            self.detached_mask |= 1u64 << s;
            sub.slots &= !(1u64 << s);
            self.stats.detaches += 1;
        }
    }

    /// Projects slot `s`'s column of the SoA state under `sub`'s
    /// control plane into a standalone scalar [`Machine`].
    fn materialize(&self, sub: &SubCohort, s: usize, ctx: IssueCtx) -> Machine<'m> {
        let ns = self.nslots;
        let width = self.cfg.warp_width;
        let warps = sub
            .warps
            .iter()
            .zip(self.data.iter())
            .enumerate()
            .map(|(wi, (cw, dw))| {
                // Both arenas stack the same windows, so each lane's live
                // rows copy across: cohort row `r` of slot `s` becomes
                // row `r` of lane `l`.
                let rows = cw.lanes_c.iter().map(CtlLane::top).max().unwrap_or(0);
                let mut regs = RegArena::new(width, rows);
                for (l, (cl, dl)) in cw.lanes_c.iter().zip(dw.lanes_d.iter()).enumerate() {
                    for r in 0..cl.top() {
                        regs.vals[r * width + l] = dl.vals[r * ns + s];
                    }
                    regs.at[l] = cl.cur_base() * width + l;
                }
                let threads = cw
                    .lanes_c
                    .iter()
                    .zip(dw.lanes_d.iter())
                    .map(|(cl, dl)| Thread {
                        frames: cl.frames.clone(),
                        status: cl.status,
                        rng: dl.rng[s],
                        local: (0..self.local_len).map(|c| dl.local[c * ns + s]).collect(),
                    })
                    .collect();
                Warp {
                    threads,
                    regs,
                    pcs: cw.pcs.clone(),
                    masks: cw.masks.clone(),
                    lane_mask: cw.lane_mask,
                    runnable: cw.runnable,
                    waiting: cw.waiting,
                    at_sync: cw.at_sync,
                    exited: cw.exited,
                    busy_until: if wi == ctx.w { ctx.pre_busy_until } else { cw.busy_until },
                    rr_cursor: if wi == ctx.w { ctx.pre_rr_cursor } else { cw.rr_cursor },
                    last_lanes: if wi == ctx.w { ctx.pre_last_lanes } else { cw.last_lanes },
                    pick_hint: None,
                    other_pcs: Vec::new(),
                    ipdom_stack: Vec::new(),
                    splits: Vec::new(),
                    mem_tags: dw.hier_tags[s].clone(),
                    done: cw.done,
                }
            })
            .collect();
        Machine {
            image: self.image,
            cfg: self.cfg,
            costs: self.costs.clone(),
            warps,
            global: (0..self.global_len).map(|a| self.global[a * ns + s]).collect(),
            metrics: metrics_sum(&sub.metrics, &self.bases[s]),
            trace: None,
            profile: None,
            journal: None,
            scratch: Scratch::default(),
            mshrs: self.mshrs[s].clone(),
            pending_mem: None,
            ipdom: None,
            pending_split: None,
            cycle: sub.cycle,
        }
    }

    /// Rejoins a detached machine whose control realigned with sub
    /// `si`: copies its data plane back into slot `s`'s columns and
    /// records the metrics delta it accumulated while away. Its memory
    /// state comes back as a class of its own.
    fn absorb(&mut self, si: usize, s: usize, m: &Machine<'_>) {
        isolate_slots(&mut self.mem_classes, 1u64 << s);
        let ns = self.nslots;
        let width = self.cfg.warp_width;
        let Cohort { subs, bases, global, data, mshrs, .. } = self;
        let sub = &mut subs[si];
        bases[s] = metrics_delta(&m.metrics, &sub.metrics);
        mshrs[s] = m.mshrs.clone();
        for (a, v) in m.global.iter().enumerate() {
            global[a * ns + s] = *v;
        }
        for ((cw, dw), mw) in sub.warps.iter().zip(data.iter_mut()).zip(m.warps.iter()) {
            dw.hier_tags[s] = mw.mem_tags.clone();
            let lanes = cw.lanes_c.iter().zip(dw.lanes_d.iter_mut()).zip(mw.threads.iter());
            for (l, ((cl, dl), t)) in lanes.enumerate() {
                dl.rng[s] = t.rng;
                for (c, v) in t.local.iter().enumerate() {
                    dl.local[c * ns + s] = *v;
                }
                // Matching control means matching windows: the lane's
                // live rows copy back, row for row.
                for r in 0..cl.top() {
                    dl.vals[r * ns + s] = mw.regs.vals[r * width + l];
                }
            }
        }
        sub.slots |= 1u64 << s;
        self.stats.rejoins += 1;
    }
}

// The cohort execute path: one instruction over (lane mask × live
// slots). Control effects (pc updates, status transitions, barrier
// bookkeeping) happen once per sub-cohort; value effects happen per
// (lane, slot) over contiguous masked slot runs.
impl Cohort<'_> {
    /// Executes one decoded instruction for the issued group across
    /// every slot of `sub`; returns the (uniform) issue cost. Slots
    /// whose data would make the issue non-uniform fork (or, past the
    /// cap, detach) and faulting slots resolve to their own error
    /// inside the arm — callers re-check `sub.slots`.
    fn exec_c(&mut self, sub: &mut SubCohort, pc: usize, mask: u64, ctx: IssueCtx) -> u32 {
        let image = self.image;
        let inst = &image.insts[pc];
        let w = ctx.w;
        let cost = self.costs[pc];
        match *inst {
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                self.alu_c(sub, pc, mask, w, AluOp::Bin(op), dst, lhs, rhs);
            }
            DecodedInst::Un { op, dst, src } => {
                let pad = Operand::Imm(Value::default());
                self.alu_c(sub, pc, mask, w, AluOp::Un(op), dst, src, pad);
            }
            DecodedInst::Mov { dst, src } => {
                let pad = Operand::Imm(Value::default());
                self.alu_c(sub, pc, mask, w, AluOp::Mov, dst, src, pad);
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    let pick =
                        if dl.eval(ns, base, cond, s).is_truthy() { if_true } else { if_false };
                    let v = dl.eval(ns, base, pick, s);
                    dl.set(ns, base, dst.index(), s, v);
                });
            }
            DecodedInst::Load { dst, space, addr } => match space {
                MemSpace::Global => {
                    return self.access_global_c(sub, pc, mask, ctx, addr, None, Some(dst), cost);
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, None, Some(dst)),
            },
            DecodedInst::Store { space, addr, value } => match space {
                MemSpace::Global => {
                    return self.access_global_c(sub, pc, mask, ctx, addr, Some(value), None, cost);
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, Some(value), None),
            },
            DecodedInst::AtomicAdd { dst, addr, value } => {
                self.atomic_add_c(sub, pc, mask, w, dst, addr, value);
            }
            DecodedInst::Special { dst, kind } => {
                let width = self.cfg.warp_width;
                let n_threads = (self.data.len() * width) as i64;
                self.data_c(sub, w, mask, |dl, ns, base, s, l| {
                    let v = match kind {
                        SpecialValue::Tid => Value::I64((w * width + l) as i64),
                        SpecialValue::LaneId => Value::I64(l as i64),
                        SpecialValue::WarpId => Value::I64(w as i64),
                        SpecialValue::NumThreads => Value::I64(n_threads),
                        SpecialValue::WarpWidth => Value::I64(width as i64),
                    };
                    dl.set(ns, base, dst.index(), s, v);
                });
            }
            DecodedInst::Rng { dst, kind } => {
                let ns = self.nslots;
                let slots = sub.slots;
                let cw = &mut sub.warps[w];
                let dw = &mut self.data[w];
                for l in lanes(mask) {
                    let base = cw.lanes_c[l].cur_base();
                    let dl = &mut dw.lanes_d[l];
                    let drow = (base + dst.index()) * ns;
                    for (lo, hi) in mask_runs(slots) {
                        for s in lo..hi {
                            let v = match kind {
                                RngKind::U63 => Value::I64(dl.rng[s].next_u63()),
                                RngKind::Unit => Value::F64(dl.rng[s].next_unit()),
                            };
                            dl.vals[drow + s] = v;
                        }
                    }
                    cw.pcs[l] += 1;
                }
            }
            DecodedInst::SyncThreads => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.lanes_c[l].status = Status::WaitingSync;
                }
                warp.runnable &= !mask;
                warp.at_sync |= mask;
                Self::sync_release_check_c(warp);
            }
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous count — per slot, over the same
                // issued mask.
                let ns = self.nslots;
                let slots = sub.slots;
                let mut counts = [0i64; COHORT_SLOTS];
                {
                    let cw = &sub.warps[w];
                    let dw = &self.data[w];
                    for l in lanes(mask) {
                        let base = cw.lanes_c[l].cur_base();
                        let dl = &dw.lanes_d[l];
                        let row = dl.row(ns, base, pred);
                        for (lo, hi) in mask_runs(slots) {
                            for (s, c) in counts.iter_mut().enumerate().take(hi).skip(lo) {
                                if dl.get(row, s).is_truthy() {
                                    *c += 1;
                                }
                            }
                        }
                    }
                }
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    dl.set(ns, base, dst.index(), s, Value::I64(counts[s]));
                });
            }
            DecodedInst::SeedRng { src } => {
                let launch_mix = 0x5EED_u64; // stream domain separator
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    let v = dl.eval(ns, base, src, s).as_i64() as u64;
                    dl.rng[s] = SplitMix64::for_thread(v ^ launch_mix, v);
                });
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let arg_ops = image.operands(args);
                let ns = self.nslots;
                let slots = sub.slots;
                let Cohort { data, stage, .. } = self;
                let cw = &mut sub.warps[w];
                let dw = &mut data[w];
                for l in lanes(mask) {
                    let ret_pc = cw.pcs[l] + 1;
                    let cl = &mut cw.lanes_c[l];
                    let dl = &mut dw.lanes_d[l];
                    let base = cl.cur_base();
                    // Arguments evaluate in the caller frame, staged
                    // before the callee frame extends the arena.
                    stage.clear();
                    stage.resize(arg_ops.len() * ns, Value::default());
                    for (i, a) in arg_ops.iter().enumerate() {
                        for (lo, hi) in mask_runs(slots) {
                            for s in lo..hi {
                                stage[i * ns + s] = dl.eval(ns, base, *a, s);
                            }
                        }
                    }
                    // Suspend the caller: save its resume point.
                    cl.frames.last_mut().expect("lane has no frame").pc = ret_pc;
                    cl.push_frame(dl, ns, slots, entry_pc as usize, rets, num_regs as usize);
                    let nb = cl.cur_base();
                    for i in 0..arg_ops.len() {
                        for (lo, hi) in mask_runs(slots) {
                            for s in lo..hi {
                                dl.set(ns, nb, i, s, stage[i * ns + s]);
                            }
                        }
                    }
                    cw.pcs[l] = entry_pc as usize;
                }
            }
            DecodedInst::UnresolvedCall { name } => {
                let at = self.location_at(w, mask.trailing_zeros() as usize, pc);
                let e = SimError::UnresolvedCall {
                    at,
                    callee: image.callee_names[name as usize].clone(),
                };
                self.resolve_all(sub, &e);
            }
            DecodedInst::Barrier(op) => {
                self.exec_barrier_c(sub, w, mask, op);
                sub.metrics.barrier_ops += u64::from(mask.count_ones());
            }
            DecodedInst::Skip => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.pcs[l] += 1;
                }
            }
            DecodedInst::Jump { target } => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.pcs[l] = target as usize;
                }
            }
            DecodedInst::Branch { cond, then_pc, else_pc } => {
                // Per-slot taken masks; each class disagreeing with the
                // largest one forks off *before* the branch applies.
                let ns = self.nslots;
                let slots = sub.slots;
                let mut takens = [0u64; COHORT_SLOTS];
                {
                    let cw = &sub.warps[w];
                    let dw = &self.data[w];
                    for l in lanes(mask) {
                        let base = cw.lanes_c[l].cur_base();
                        let dl = &dw.lanes_d[l];
                        let row = dl.row(ns, base, cond);
                        let bit = 1u64 << l;
                        for (lo, hi) in mask_runs(slots) {
                            for (s, t) in takens.iter_mut().enumerate().take(hi).skip(lo) {
                                if dl.get(row, s).is_truthy() {
                                    *t |= bit;
                                }
                            }
                        }
                    }
                }
                let (_winner, minorities) = partition_classes(slots, |s| takens[s]);
                for class in minorities {
                    self.split_off(sub, class, ctx);
                }
                let rep = sub.slots.trailing_zeros() as usize;
                let taken = takens[rep];
                let cw = &mut sub.warps[w];
                for l in lanes(mask) {
                    cw.pcs[l] =
                        if taken & (1 << l) != 0 { then_pc as usize } else { else_pc as usize };
                }
            }
            DecodedInst::Return { values } => {
                let value_ops = image.operands(values);
                let ns = self.nslots;
                let slots = sub.slots;
                let mut exited = 0u64;
                {
                    let Cohort { data, stage, .. } = self;
                    let cw = &mut sub.warps[w];
                    let dw = &mut data[w];
                    for l in lanes(mask) {
                        let cl = &mut cw.lanes_c[l];
                        let dl = &mut dw.lanes_d[l];
                        let base = cl.cur_base();
                        stage.clear();
                        stage.resize(value_ops.len() * ns, Value::default());
                        for (i, v) in value_ops.iter().enumerate() {
                            for (lo, hi) in mask_runs(slots) {
                                for s in lo..hi {
                                    stage[i * ns + s] = dl.eval(ns, base, *v, s);
                                }
                            }
                        }
                        let fm = cl.pop_frame();
                        if cl.frames.is_empty() {
                            // Returning from the kernel frame behaves as
                            // exit, like the scalar engine.
                            cl.status = Status::Exited;
                            cl.frames.push(fm);
                            exited |= 1 << l;
                            continue;
                        }
                        let ret_regs = image.regs(fm.ret_regs);
                        let cbase = cl.cur_base();
                        for (i, r) in ret_regs.iter().enumerate() {
                            if i >= value_ops.len() {
                                break;
                            }
                            for (lo, hi) in mask_runs(slots) {
                                for s in lo..hi {
                                    dl.set(ns, cbase, r.index(), s, stage[i * ns + s]);
                                }
                            }
                        }
                        cw.pcs[l] = cl.frames.last().expect("caller frame").pc;
                    }
                }
                if exited != 0 {
                    Self::on_exit_mask_c(&mut sub.warps[w], exited);
                }
            }
            DecodedInst::Exit => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.lanes_c[l].status = Status::Exited;
                }
                Self::on_exit_mask_c(warp, mask);
            }
        }
        cost
    }

    /// Executes one ALU issue across every slot of `sub` through the
    /// shared kernel table: the op is dispatched once, and a slot whose
    /// lane faults resolves to its own `Arithmetic` error at the first
    /// faulting lane in lane order, exactly like its scalar run.
    #[allow(clippy::too_many_arguments)]
    fn alu_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        op: AluOp,
        dst: simt_ir::Reg,
        lhs: Operand,
        rhs: Operand,
    ) {
        let faults = op.dispatch(CohortAlu {
            cw: &mut sub.warps[w],
            dw: &mut self.data[w],
            ns: self.nslots,
            slots: sub.slots,
            mask,
            dst,
            lhs,
            rhs,
        });
        for (s, l, a, b) in faults {
            let at = self.location_at(w, l, pc);
            self.resolve_err(sub, s, SimError::Arithmetic { at, message: op.fault(a, b) });
        }
    }

    /// Shared loop shape for the infallible per-(lane, slot) data arms.
    fn data_c(
        &mut self,
        sub: &mut SubCohort,
        w: usize,
        mask: u64,
        mut f: impl FnMut(&mut DLane, usize, usize, usize, usize),
    ) {
        let ns = self.nslots;
        let slots = sub.slots;
        let cw = &mut sub.warps[w];
        let dw = &mut self.data[w];
        for l in lanes(mask) {
            let base = cw.lanes_c[l].cur_base();
            let dl = &mut dw.lanes_d[l];
            for (lo, hi) in mask_runs(slots) {
                for s in lo..hi {
                    f(dl, ns, base, s, l);
                }
            }
            cw.pcs[l] += 1;
        }
    }

    /// Resolves a per-slot access fault into the owning seed's error.
    fn fault_to_err(&self, w: usize, pc: usize, f: SlotFault) -> SimError {
        match f {
            SlotFault::Oob { lane, addr, size, space } => {
                SimError::MemoryFault { at: self.location_at(w, lane, pc), addr, size, space }
            }
            SlotFault::Arith { lane, message } => {
                SimError::Arithmetic { at: self.location_at(w, lane, pc), message }
            }
        }
    }

    /// Global load/store: the issue cost is data-dependent (coalescing
    /// segments, hierarchy state), so it runs in three phases.
    ///
    /// 1. Stage every slot's lane addresses, flag each slot's first
    ///    fault, and price the access per slot as an
    ///    [`AccessOutcome`](crate::mem::AccessOutcome) — with **no**
    ///    mutation, so a diverging slot's pre-access state is intact.
    /// 2. Resolve faulted slots to their own errors; partition the rest
    ///    by outcome and fork off the minority classes.
    /// 3. Apply the access to the surviving slots (value movement,
    ///    hierarchy fills, write-through invalidation) and return the
    ///    now-uniform cost.
    ///
    /// Only the pricing differs between the two cost models. Flat
    /// memory folds each slot's coalescing segments into a cost-only
    /// outcome, once for all slots when their addresses agree. Under a
    /// hierarchy the walk runs once per memory-state class
    /// ([`Self::mem_classes`]), not once per slot: a class's slots hold
    /// equal tags and MSHR files, so where its issuing slots also share
    /// one address vector, a pure [`probe`](crate::mem::probe) on the
    /// lowest of them prices the access for all of them, and phase 3
    /// replays that walk's staged fills on every member with
    /// [`apply_staged`](crate::mem::apply_staged). A class part whose
    /// addresses differ is probed and committed slot by slot, and its
    /// committing slots become classes of their own. Probes never
    /// mutate, so a forking slot's pre-access state stays intact for
    /// its replay; every class the commit cuts is split afterwards.
    #[allow(clippy::too_many_arguments)]
    fn access_global_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        ctx: IssueCtx,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
        base_cost: u32,
    ) -> u32 {
        let ns = self.nslots;
        let w = ctx.w;
        let k = mask.count_ones() as usize;
        // Global accesses never batch (`is_warp_local` excludes them),
        // so the issue cycle of every engine is its round clock.
        let now = sub.cycle;
        let mut faults: Vec<(usize, SlotFault)> = Vec::new();
        let mut outs = [crate::mem::AccessOutcome::default(); COHORT_SLOTS];
        // Slots probed and committed on their own (class parts whose
        // address vectors differ).
        let mut scattered = 0u64;
        // The slot whose walk `mem_scratch` stages right now.
        let mut staged = None;
        {
            let glen = self.global_len;
            let slots = sub.slots;
            let Cohort { data, addr_buf, lines_buf, mshrs, mem_scratch, mem_classes, cfg, .. } =
                self;
            let cw = &sub.warps[w];
            let dw = &data[w];
            addr_buf.clear();
            addr_buf.resize(ns * k, 0);
            // Lane-major address staging: the operand row resolves once
            // per lane, out-of-range slots are flagged and attributed to
            // their first faulting lane below. Slot-uniform addresses
            // (seed-independent access streams — the common case) are
            // detected on the fly so pricing can be shared.
            let mut oob = 0u64;
            let mut uniform = true;
            let rep = if slots == 0 { 0 } else { slots.trailing_zeros() as usize };
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &dw.lanes_d[l];
                let row = dl.row(ns, base, addr);
                let a0 = dl.get(row, rep).as_i64();
                for (lo, hi) in mask_runs(slots) {
                    for s in lo..hi {
                        let a = dl.get(row, s).as_i64();
                        addr_buf[s * k + idx] = a;
                        uniform &= a == a0;
                        if a < 0 || a as usize >= glen {
                            oob |= 1 << s;
                        }
                    }
                }
            }
            for s in lanes(oob) {
                let (idx, l) = lanes(mask)
                    .enumerate()
                    .find(|&(idx, _)| {
                        let a = addr_buf[s * k + idx];
                        a < 0 || a as usize >= glen
                    })
                    .expect("faulted slot has a faulting lane");
                let a = addr_buf[s * k + idx];
                faults.push((
                    s,
                    SlotFault::Oob { lane: l, addr: a, size: glen, space: MemSpace::Global },
                ));
            }
            let live = slots & !oob;
            match &cfg.mem {
                None => {
                    // Flat coalescing: a cost-only outcome per slot,
                    // priced once when every slot touches the same cells.
                    let lat = &cfg.latency;
                    let mut price = |r: usize| {
                        let segs = lat.segments_in(&addr_buf[r * k..(r + 1) * k], lines_buf);
                        let cost = base_cost + lat.mem_segment * segs.saturating_sub(1);
                        crate::mem::AccessOutcome { cost, ..Default::default() }
                    };
                    if uniform {
                        if live != 0 {
                            let out = price(rep);
                            for s in lanes(live) {
                                outs[s] = out;
                            }
                        }
                    } else {
                        for s in lanes(live) {
                            outs[s] = price(s);
                        }
                    }
                }
                Some(hier) => {
                    // One pure probe per class part with a shared
                    // address vector, one per slot elsewhere.
                    if !uniform {
                        scattered = scattered_parts(mem_classes, live, addr_buf, k);
                    }
                    for &class in mem_classes.iter() {
                        let part = class & live;
                        let probed =
                            if part & scattered == 0 { part & part.wrapping_neg() } else { part };
                        for r in lanes(probed) {
                            let addrs = &addr_buf[r * k..(r + 1) * k];
                            let out = crate::mem::probe(
                                hier,
                                &dw.hier_tags[r],
                                &mshrs[r],
                                mem_scratch,
                                addrs,
                                now,
                            );
                            staged = Some(r);
                            if probed == part {
                                outs[r] = out;
                            } else {
                                for s in lanes(part) {
                                    outs[s] = out;
                                }
                            }
                        }
                    }
                }
            }
        }
        for (s, f) in faults {
            let e = self.fault_to_err(w, pc, f);
            self.resolve_err(sub, s, e);
        }
        if sub.slots == 0 {
            return base_cost;
        }
        let (_winner, minorities) = partition_classes(sub.slots, |s| outs[s]);
        for class in minorities {
            self.split_off(sub, class, ctx);
        }
        let winners = sub.slots;
        let out = outs[winners.trailing_zeros() as usize];
        {
            let Cohort { data, addr_buf, global, mshrs, mem_scratch, mem_classes, cfg, .. } = self;
            let cw = &mut sub.warps[w];
            let dw = &mut data[w];
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                if let Some(v) = value {
                    let row = dl.row(ns, base, v);
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            global[a * ns + s] = dl.get(row, s);
                        }
                    }
                } else if let Some(dst) = dst {
                    let drow = (base + dst.index()) * ns;
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            dl.vals[drow + s] = global[a * ns + s];
                        }
                    }
                }
                cw.pcs[l] += 1;
            }
            // Hierarchy fills: per committing class part, its lowest
            // slot (every slot, if scattered) stages the walk — unless
            // the cost phase's last probe still holds it — and every
            // slot of the part applies the staged fills and MSHR entries.
            if let Some(hier) = &cfg.mem {
                for &class in mem_classes.iter() {
                    let part = class & winners;
                    for s in lanes(part) {
                        let lead =
                            s == part.trailing_zeros() as usize || scattered & (1u64 << s) != 0;
                        if lead && staged != Some(s) {
                            let addrs = &addr_buf[s * k..(s + 1) * k];
                            let walked = crate::mem::probe(
                                hier,
                                &dw.hier_tags[s],
                                &mshrs[s],
                                mem_scratch,
                                addrs,
                                now,
                            );
                            debug_assert_eq!(walked, out, "the commit walk must replay the probe");
                            staged = Some(s);
                        }
                        crate::mem::apply_staged(
                            hier,
                            &mut dw.hier_tags[s],
                            &mut mshrs[s],
                            mem_scratch,
                            &out,
                            now,
                        );
                    }
                }
            }
        }
        if self.cfg.mem.is_some() {
            if value.is_some() {
                // Write-through invalidation (equal address vectors keep
                // a class's tags equal).
                self.invalidate_hier_c(winners, k);
            }
            split_classes(&mut self.mem_classes, winners);
            isolate_slots(&mut self.mem_classes, winners & scattered);
        }
        sub.metrics.mem.record(&out);
        out.cost
    }

    /// Memory-hierarchy write-through invalidation: drops the lines
    /// covering each slot's staged addresses (`addr_buf`, `k` per slot)
    /// from that slot's tags in **every** warp.
    fn invalidate_hier_c(&mut self, slots: u64, k: usize) {
        let Cohort { data, addr_buf, cfg, .. } = self;
        let hier = cfg.mem.as_ref().expect("hier invalidation without mem configured");
        for s in lanes(slots) {
            let addrs = &addr_buf[s * k..(s + 1) * k];
            for dw in data.iter_mut() {
                crate::mem::invalidate(hier, &mut dw.hier_tags[s], addrs);
            }
        }
    }

    /// Write-through invalidation for atomics: drops the lines covering
    /// each slot's staged addresses (`addr_buf`, `k` per slot) from that
    /// slot's hierarchy tags in **every** warp, refining the
    /// memory-state classes it cuts. A no-op under flat memory.
    fn invalidate_lines_c(&mut self, slots: u64, k: usize) {
        if self.cfg.mem.is_none() {
            return;
        }
        self.invalidate_hier_c(slots, k);
        // Equal address vectors invalidate equal tags equally; any
        // other part of a class drifts apart slot by slot.
        let scattered = scattered_parts(&self.mem_classes, slots, &self.addr_buf, k);
        split_classes(&mut self.mem_classes, slots);
        isolate_slots(&mut self.mem_classes, scattered);
    }

    /// Local load/store: flat cost, so only per-slot OOB faults can
    /// split the sub-cohort (and they resolve, not fork).
    #[allow(clippy::too_many_arguments)]
    fn access_local_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
    ) {
        let ns = self.nslots;
        let llen = self.local_len;
        let slots = sub.slots;
        let mut faults: Vec<(usize, SlotFault)> = Vec::new();
        let mut faulted = 0u64;
        {
            let cw = &mut sub.warps[w];
            let dw = &mut self.data[w];
            for l in lanes(mask) {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                let arow = dl.row(ns, base, addr);
                let vrow = value.map(|v| dl.row(ns, base, v));
                let drow = dst.map(|d| (base + d.index()) * ns);
                for s in lanes(slots & !faulted) {
                    let a = dl.get(arow, s).as_i64();
                    if a < 0 || a as usize >= llen {
                        faulted |= 1 << s;
                        faults.push((
                            s,
                            SlotFault::Oob { lane: l, addr: a, size: llen, space: MemSpace::Local },
                        ));
                        continue;
                    }
                    let cell = (a as usize) * ns + s;
                    if let Some(vr) = vrow {
                        dl.local[cell] = dl.get(vr, s);
                    } else if let Some(dr) = drow {
                        dl.vals[dr + s] = dl.local[cell];
                    }
                }
                cw.pcs[l] += 1;
            }
        }
        for (s, f) in faults {
            let e = self.fault_to_err(w, pc, f);
            self.resolve_err(sub, s, e);
        }
    }

    /// Atomic add: static cost (no coalescing model), lanes serialized
    /// in lane order against each slot's own global column, touched
    /// lines invalidated per slot.
    #[allow(clippy::too_many_arguments)]
    fn atomic_add_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        dst: simt_ir::Reg,
        addr: Operand,
        value: Operand,
    ) {
        let ns = self.nslots;
        let k = mask.count_ones() as usize;
        let slots = sub.slots;
        let mut faults: Vec<(usize, SlotFault)> = Vec::new();
        let mut faulted = 0u64;
        {
            let glen = self.global_len;
            let Cohort { data, global, addr_buf, .. } = self;
            let cw = &mut sub.warps[w];
            let dw = &mut data[w];
            addr_buf.clear();
            addr_buf.resize(ns * k, 0);
            for s in lanes(slots) {
                for (idx, l) in lanes(mask).enumerate() {
                    let base = cw.lanes_c[l].cur_base();
                    let dl = &mut dw.lanes_d[l];
                    let a = dl.eval(ns, base, addr, s).as_i64();
                    let v = dl.eval(ns, base, value, s);
                    if a < 0 || a as usize >= glen {
                        faulted |= 1 << s;
                        faults.push((
                            s,
                            SlotFault::Oob {
                                lane: l,
                                addr: a,
                                size: glen,
                                space: MemSpace::Global,
                            },
                        ));
                        break;
                    }
                    let old = global[(a as usize) * ns + s];
                    match crate::alu::eval_bin(BinOp::Add, old, v) {
                        Ok(new) => global[(a as usize) * ns + s] = new,
                        Err(m) => {
                            faulted |= 1 << s;
                            faults.push((s, SlotFault::Arith { lane: l, message: m }));
                            break;
                        }
                    }
                    dl.set(ns, base, dst.index(), s, old);
                    addr_buf[s * k + idx] = a;
                }
            }
            for l in lanes(mask) {
                cw.pcs[l] += 1;
            }
        }
        // Faulted slots' runs discard all state, so only the survivors'
        // write-through invalidation is observable.
        self.invalidate_lines_c(slots & !faulted, k);
        for (s, f) in faults {
            let e = self.fault_to_err(w, pc, f);
            self.resolve_err(sub, s, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemHierarchy;
    use simt_ir::parse_and_link;

    /// Slot-uniform control: every seed takes the same path (branches key
    /// off `tid`, not RNG), so the whole sweep stays in lockstep — but the
    /// kernel is busy: divergent lanes, a loop, barriers, a call, an
    /// atomic, RNG data, and global traffic.
    const LOCKSTEP_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 4
  join b0
  brdiv %r2, bb1, bb2
bb1:
  %r3 = rng.u63
  %r4 = mul %r1, 3
  %r5 = load global[%r4]
  %r3 = rem %r3, 100
  %r5 = add %r5, %r3
  call @f(%r5, %r2) -> (%r5)
  store global[%r4], %r5
  jmp bb3
bb2:
  %r5 = atomic_add [0], 1
  %r6 = vote %r2
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
";

    /// Seed-dependent *uniform* branch: the vote count is identical for
    /// every lane of a warp but differs across seeds, so whole instances
    /// disagree on the branch and the minority forks off. Both arms cost
    /// the same, so the sub-cohorts' control planes realign at bb3 and
    /// they merge.
    const VOTE_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  brdiv %r3, bb1, bb2
bb1:
  %r4 = add %r2, 10
  jmp bb3
bb2:
  %r4 = add %r2, 3
  jmp bb3
bb3:
  %r5 = special.tid
  store global[%r5], %r4
  exit
}
";

    /// Seed-dependent *lane-level* branch: per-lane RNG decides each
    /// lane's direction, so the taken masks differ across nearly every
    /// seed — far more classes than [`MAX_SUBCOHORTS`], driving the
    /// scalar escape hatch alongside forking. The two arms are
    /// cost-symmetric and reconverge through a barrier wait, so forked
    /// sub-cohorts merge and detached instances rejoin.
    const LANE_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=1, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  join b0
  brdiv %r1, bb1, bb2
bb1:
  %r4 = add %r1, 10
  jmp bb3
bb2:
  %r4 = add %r1, 3
  jmp bb3
bb3:
  wait b0
  %r5 = special.tid
  store global[%r5], %r4
  exit
}
";

    /// Seed-dependent *call depth*: one sub-cohort enters `@f` while its
    /// sibling stays in the kernel frame, then the sibling pushes a
    /// frame over the same arena rows at bb3. Exercises the shared-arena
    /// invariant that `push_frame` initializes the new register window
    /// for the pushing sub-cohort's slots only.
    const CALL_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  brdiv %r3, bb1, bb2
bb1:
  call @f(%r2) -> (%r4)
  jmp bb3
bb2:
  %r4 = add %r2, 1
  jmp bb3
bb3:
  call @f(%r4) -> (%r5)
  %r6 = special.tid
  store global[%r6], %r5
  exit
}
device @f(params=1, regs=4, barriers=0, entry=bb0) {
bb0:
  %r1 = add %r0, 7
  %r2 = mul %r1, 3
  ret %r2
}
";

    /// Seed-dependent *loop trip count* (uniform per instance via vote):
    /// sub-cohorts fork at the loop header and never re-agree mid-loop,
    /// finishing at different cycles — the no-merge worst case that
    /// still must stay bit-identical and fully masked.
    const LOOP_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r0 = rem %r0, 6
  %r1 = special.tid
  %r2 = vote %r0
  %r0 = rem %r2, 4
  jmp bb1
bb1:
  brdiv %r0, bb2, bb3
bb2:
  %r0 = sub %r0, 1
  %r3 = add %r3, 2
  jmp bb1
bb3:
  store global[%r1], %r3
  exit
}
";

    /// Seed-dependent addresses: lanes load `global[rng % 33]` against a
    /// 32-cell memory, so some instances fault (address 32) and the rest
    /// split on coalescing-cost divergence.
    const FAULTY_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 33
  %r2 = load global[%r1]
  %r3 = special.tid
  store global[%r3], %r2
  exit
}
";

    /// Memory-state drift: each lane first loads one of eight lines
    /// picked by its own RNG draw, so seeds that touched the same *number*
    /// of lines share the access's outcome (and sub-cohort) while their
    /// tags and MSHR files differ. The slot-uniform load that follows
    /// then hits, merges or misses per seed; the store, the atomic on a
    /// seed-dependent address and the final reload refine the classes
    /// further.
    const MEM_DRIFT_KERNEL: &str = "\
kernel @k(params=0, regs=10, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 8
  %r2 = mul %r1, 16
  %r3 = load global[%r2]
  %r4 = load global[48]
  %r5 = special.tid
  %r6 = add %r3, %r4
  store global[%r5], %r6
  %r7 = atomic_add [%r2], 1
  %r8 = load global[%r2]
  %r9 = load global[48]
  exit
}
";

    /// Atomic drift: a slot-uniform load fills four lines in every
    /// seed, then each lane's atomic hits an RNG-picked one of them, so
    /// the write-through invalidation alone leaves seeds with different
    /// resident sets — which the slot-uniform reload then prices.
    const ATOMIC_DRIFT_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r5 = special.tid
  %r1 = mul %r5, 16
  %r2 = load global[%r1]
  %r0 = rng.u63
  %r3 = rem %r0, 4
  %r4 = mul %r3, 16
  %r6 = atomic_add [%r4], 1
  %r7 = load global[%r1]
  exit
}
";

    /// A warp-uniform, seed-dependent load (one of eight lines per seed:
    /// equal outcomes, distinct memory states), then lane-level RNG
    /// divergence with a global load of a different line in each arm
    /// and a barrier: under the hierarchy, instances past the
    /// sub-cohort cap detach with their own memory state and rejoin
    /// before the closing store and reloads.
    const HIER_REJOIN_KERNEL: &str = "\
kernel @k(params=0, regs=10, barriers=1, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r5 = special.tid
  %r7 = add %r5, 32
  %r8 = vote %r1
  %r8 = rem %r8, 8
  %r8 = mul %r8, 16
  %r9 = add %r8, 128
  %r9 = load global[%r9]
  join b0
  brdiv %r1, bb1, bb2
bb1:
  %r4 = load global[%r5]
  jmp bb3
bb2:
  %r4 = load global[%r7]
  jmp bb3
bb3:
  wait b0
  store global[%r5], %r4
  %r6 = load global[%r5]
  %r6 = load global[%r7]
  exit
}
";

    /// The tight-MSHR hierarchy of `figures ablate-mem`.
    fn tight_mem(cfg: SimConfig) -> SimConfig {
        let spec = "l1:lines=16,cells=16,lat=2,mshrs=1;l2:lines=128,cells=16,lat=8,mshrs=2;\
                    dram:lat=48,extra=4";
        let mem = crate::mem::MemHierarchy::parse(spec, &cfg.latency).expect("valid spec");
        SimConfig { mem: Some(mem), ..cfg }
    }

    fn launch(kernel: &str, num_warps: usize, cells: usize, args: Vec<Value>) -> Launch {
        Launch {
            kernel: kernel.into(),
            num_warps,
            args,
            global_mem: vec![Value::I64(7); cells],
            local_mem_size: 0,
            seed: 0, // ignored by sweeps
        }
    }

    /// Runs the sweep and asserts every [`SeedRun`] is bit-identical to
    /// an independent scalar run of that seed. Returns the stats so
    /// callers can assert on the fork/merge/occupancy counters.
    fn assert_matches_scalar(src: &str, cfg: &SimConfig, sweep: &SweepLaunch) -> SweepStats {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, cfg, sweep, None).expect("sweep runs");
        assert_eq!(out.runs.len(), sweep.instances() as usize);
        assert_eq!(out.stats.instances, sweep.instances() as usize);
        assert_eq!(
            out.stats.occupancy_hist.iter().sum::<u64>(),
            out.stats.lockstep_issues,
            "every lockstep issue lands in exactly one occupancy bucket"
        );
        for (i, run) in out.runs.iter().enumerate() {
            let seed = sweep.seed_lo + i as u64;
            assert_eq!(run.seed, seed, "runs are in seed order");
            let mut launch = sweep.base.clone();
            launch.seed = seed;
            let scalar = crate::exec::run_image(&image, cfg, &launch);
            match (&run.result, &scalar) {
                (Ok(s), Ok(r)) => {
                    assert_eq!(s.metrics, r.metrics, "metrics differ for seed {seed}");
                    assert_eq!(s.global_mem, r.global_mem, "global memory differs for seed {seed}");
                    assert!(s.trace.is_none() && s.profile.is_none() && s.journal.is_none());
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "errors differ for seed {seed}"),
                (a, b) => panic!("seed {seed}: sweep returned {a:?}, scalar returned {b:?}"),
            }
        }
        out.stats
    }

    fn all_policies() -> [SchedulerPolicy; 5] {
        [
            SchedulerPolicy::Greedy,
            SchedulerPolicy::MinPc,
            SchedulerPolicy::MaxPc,
            SchedulerPolicy::MostThreads,
            SchedulerPolicy::RoundRobin,
        ]
    }

    #[test]
    fn empty_range_yields_empty_output() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 9, 9);
        let out = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap();
        assert!(out.runs.is_empty());
        assert_eq!(out.stats, SweepStats::default());
    }

    #[test]
    fn single_seed_delegates_and_allows_observability() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let cfg = SimConfig { trace: true, ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 5, 6);
        let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.runs[0].seed, 5);
        let run = out.runs[0].result.as_ref().expect("run succeeds");
        assert!(run.trace.is_some(), "single-instance sweeps keep full observability");
    }

    #[test]
    fn rejects_ranges_wider_than_the_cohort() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 65);
        let err = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap_err();
        assert!(matches!(err, SimError::SweepUnsupported { .. }), "{err}");
    }

    #[test]
    fn rejects_observability_for_multi_instance_sweeps() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 2);
        for cfg in [
            SimConfig { trace: true, ..SimConfig::default() },
            SimConfig { profile: true, ..SimConfig::default() },
            SimConfig {
                journal: Some(crate::journal::JournalConfig::default()),
                ..SimConfig::default()
            },
        ] {
            let err = run_sweep_image(&image, &cfg, &sweep, None).unwrap_err();
            assert!(matches!(err, SimError::SweepUnsupported { .. }), "{err}");
        }
    }

    #[test]
    fn unknown_kernel_fails_the_whole_sweep() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("nope", 1, 32, vec![]), 0, 4);
        let err = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap_err();
        assert_eq!(err, SimError::NoSuchKernel("nope".into()));
    }

    #[test]
    fn lockstep_sweep_is_bit_identical_across_policies() {
        for policy in all_policies() {
            let mut cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            cfg.mem = Some(MemHierarchy::l1(&cfg.latency));
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(12)]), 100, 116);
            let stats = assert_matches_scalar(LOCKSTEP_KERNEL, &cfg, &sweep);
            assert!(stats.lockstep_issues > 0, "{policy:?}: cohort never issued");
            assert_eq!(stats.forks, 0, "{policy:?}: uniform control never forks");
            assert_eq!(stats.detaches, 0, "{policy:?}: {stats:?}");
            assert_eq!(stats.scalar_steps, 0, "{policy:?}: {stats:?}");
            assert_eq!(stats.peak_subcohorts, 1, "{policy:?}: {stats:?}");
            assert!(
                (stats.mean_occupancy() - 16.0).abs() < f64::EPSILON,
                "{policy:?}: 16 instances in lockstep occupy every issue: {stats:?}"
            );
        }
    }

    #[test]
    fn uniform_divergence_forks_and_merges_without_scalar_fallback() {
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 32);
        let stats = assert_matches_scalar(VOTE_DIVERGE_KERNEL, &SimConfig::default(), &sweep);
        assert!(stats.forks > 0, "seeds disagree on the vote parity: {stats:?}");
        assert!(stats.merges > 0, "cost-symmetric arms must realign: {stats:?}");
        assert_eq!(stats.detaches, 0, "two classes never exceed the cap: {stats:?}");
        assert_eq!(stats.scalar_steps, 0, "{stats:?}");
        assert!(stats.peak_subcohorts >= 2, "{stats:?}");
        assert!(
            stats.mean_occupancy() > 1.0,
            "masked execution keeps width above scalar: {stats:?}"
        );
    }

    #[test]
    fn lane_divergence_forks_and_reconverges_across_policies() {
        for policy in all_policies() {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 24);
            let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: taken masks differ per seed: {stats:?}");
            assert!(
                stats.merges + stats.rejoins > 0,
                "{policy:?}: barrier reconvergence realigns: {stats:?}"
            );
        }
    }

    #[test]
    fn hardware_recon_sweeps_fall_back_to_exact_scalar_runs() {
        // The hardware reconvergence models bypass the cohort engine:
        // every seed runs on its own scalar machine (exact by
        // construction) and the work is accounted as scalar steps, so
        // zero lockstep issues and zero forks.
        for recon in [
            ReconvergenceModel::IpdomStack,
            ReconvergenceModel::WarpSplit { window: 0, compact: false },
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ] {
            let cfg = SimConfig { recon, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 12);
            let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
            assert_eq!(stats.lockstep_issues, 0, "{recon:?}: {stats:?}");
            assert_eq!(stats.forks, 0, "{recon:?}: {stats:?}");
            assert!(stats.scalar_steps > 0, "{recon:?}: {stats:?}");
        }
    }

    #[test]
    fn class_explosion_past_the_cap_takes_the_scalar_escape_hatch() {
        // 48 seeds × per-lane random taken masks ≈ 48 distinct classes
        // at one branch: far more than MAX_SUBCOHORTS, so the engine
        // must fork up to the cap and detach the rest — and still be
        // bit-identical.
        let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 48);
        let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &SimConfig::default(), &sweep);
        assert!(stats.forks > 0, "{stats:?}");
        assert!(stats.detaches > 0, "class count exceeds the cap: {stats:?}");
        assert!(stats.scalar_steps > 0, "{stats:?}");
        assert!(
            stats.peak_subcohorts as usize <= MAX_SUBCOHORTS,
            "the cap bounds live sub-cohorts: {stats:?}"
        );
    }

    #[test]
    fn divergent_call_depths_share_the_arena_safely() {
        for policy in all_policies() {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 24);
            let stats = assert_matches_scalar(CALL_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: call-depth divergence forks: {stats:?}");
        }
    }

    #[test]
    fn mixed_call_depth_explosion_detaches_and_stays_exact() {
        // Lanes sit in `@helper` at two call depths when its RNG branch
        // splits 48 seeds into ~48 taken-mask classes: past the cap,
        // the escape hatch projects multi-frame register windows into
        // scalar machines (and, once the barrier realigns them, copies
        // them back).
        let kernel = crate::exec::tests::MIXED_DEPTH_KERNEL;
        let (mut detached, mut rejoined) = (false, false);
        for policy in all_policies() {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 48);
            let stats = assert_matches_scalar(kernel, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: {stats:?}");
            detached |= stats.detaches > 0;
            rejoined |= stats.rejoins > 0;
        }
        assert!(detached, "some policy must take the escape hatch");
        assert!(rejoined, "some detached seed must rejoin");
    }

    #[test]
    fn divergent_trip_counts_stay_masked_and_bit_identical() {
        for policy in all_policies() {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 32);
            let stats = assert_matches_scalar(LOOP_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: trip counts differ: {stats:?}");
            assert_eq!(stats.detaches, 0, "{policy:?}: four classes fit the cap: {stats:?}");
            assert_eq!(stats.scalar_steps, 0, "{policy:?}: {stats:?}");
        }
    }

    #[test]
    fn faulting_instances_report_their_own_scalar_error() {
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 24);
        let module = parse_and_link(FAULTY_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap();
        let faults = out.runs.iter().filter(|r| r.result.is_err()).count();
        assert!(faults > 0, "rem 33 over 32 cells faults some seed");
        assert!(faults < 24, "and spares some seed");
        assert_matches_scalar(FAULTY_KERNEL, &SimConfig::default(), &sweep);
    }

    #[test]
    fn faulting_sweep_matches_scalar_with_cache() {
        let mut cfg = SimConfig::default();
        cfg.mem = Some(MemHierarchy::l1(&cfg.latency));
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 40, 60);
        assert_matches_scalar(FAULTY_KERNEL, &cfg, &sweep);
    }

    #[test]
    fn cycle_limit_resolves_every_instance() {
        let cfg = SimConfig { max_cycles: 50, ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(1_000_000)]), 0, 8);
        assert_matches_scalar(LOCKSTEP_KERNEL, &cfg, &sweep);
    }

    #[test]
    fn cancellation_fails_the_whole_sweep() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let module = parse_and_link(LOCKSTEP_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 256, vec![Value::I64(50)]), 0, 4);
        let err =
            run_sweep_image(&image, &SimConfig::default(), &sweep, Some(&cancel)).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err}");
    }

    /// Drives a cohort round by round, asserting the memory-state class
    /// invariant before every round (release builds included). Returns
    /// whether some sub-cohort ever held slots of two classes, and the
    /// most classes ever live.
    fn drive_checking_classes(src: &str, cfg: &SimConfig, sweep: &SweepLaunch) -> (bool, usize) {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let n = sweep.instances() as usize;
        let mut c = Cohort::new(&image, cfg, sweep, n).expect("cohort builds");
        let (mut spanned, mut max_classes) = (false, 1);
        while !c.subs.is_empty() {
            assert!(c.mem_classes_hold(), "classes drifted: {:?}", c.mem_classes);
            spanned |= c
                .subs
                .iter()
                .any(|sc| c.mem_classes.iter().filter(|&&cl| cl & sc.slots != 0).count() >= 2);
            max_classes = max_classes.max(c.mem_classes.len());
            c.next_round(None).expect("runs");
        }
        assert!(c.mem_classes_hold(), "classes drifted: {:?}", c.mem_classes);
        (spanned, max_classes)
    }

    #[test]
    fn memory_state_classes_split_where_slot_states_drift() {
        for policy in all_policies() {
            let cfg =
                tight_mem(SimConfig { scheduler: policy, warp_width: 4, ..SimConfig::default() });
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![]), 0, 32);
            let stats = assert_matches_scalar(MEM_DRIFT_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: per-seed walks disagree: {stats:?}");
            let (spanned, max_classes) = drive_checking_classes(MEM_DRIFT_KERNEL, &cfg, &sweep);
            assert!(spanned, "{policy:?}: a sub-cohort must hold slots of two classes");
            assert!(max_classes > 2, "{policy:?}: drift refines the launch class");
        }
    }

    #[test]
    fn atomic_invalidation_refines_memory_state_classes() {
        for policy in all_policies() {
            let cfg =
                tight_mem(SimConfig { scheduler: policy, warp_width: 4, ..SimConfig::default() });
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![]), 0, 32);
            let stats = assert_matches_scalar(ATOMIC_DRIFT_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: resident sets differ after atomics: {stats:?}");
            let (_, max_classes) = drive_checking_classes(ATOMIC_DRIFT_KERNEL, &cfg, &sweep);
            assert!(max_classes > 1, "{policy:?}: the atomic splits the launch class");
        }
    }

    #[test]
    fn detached_instances_rejoin_as_their_own_memory_state_class() {
        let (mut detached, mut rejoined) = (false, false);
        for policy in all_policies() {
            let cfg = tight_mem(SimConfig { scheduler: policy, ..SimConfig::default() });
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![]), 0, 48);
            let stats = assert_matches_scalar(HIER_REJOIN_KERNEL, &cfg, &sweep);
            drive_checking_classes(HIER_REJOIN_KERNEL, &cfg, &sweep);
            detached |= stats.detaches > 0;
            rejoined |= stats.rejoins > 0;
        }
        assert!(detached, "some policy must take the escape hatch");
        assert!(rejoined, "some detached seed must rejoin");
    }

    #[test]
    fn occupancy_buckets_partition_the_width_range() {
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(3), 2);
        assert_eq!(occupancy_bucket(4), 2);
        assert_eq!(occupancy_bucket(5), 3);
        assert_eq!(occupancy_bucket(8), 3);
        assert_eq!(occupancy_bucket(9), 4);
        assert_eq!(occupancy_bucket(16), 4);
        assert_eq!(occupancy_bucket(17), 5);
        assert_eq!(occupancy_bucket(32), 5);
        assert_eq!(occupancy_bucket(33), 6);
        assert_eq!(occupancy_bucket(64), 6);
        assert_eq!(OCCUPANCY_BUCKET_LABELS.len(), OCCUPANCY_BUCKETS);
    }
}
