//! Differential test of the decoded execution engine against the
//! reference tree-walking interpreter.
//!
//! [`simt_sim::run`] lowers the module to a flat [`DecodedImage`] and
//! executes that; [`simt_sim::run_reference`] walks the IR directly. The
//! two must agree *exactly* — same metrics (cycle counts, efficiency,
//! stalls, barrier ops), same final memory, same per-block profile, and
//! the same error on faulting programs — for random structured kernels
//! across every scheduler policy, with calls, barriers, `syncthreads`,
//! atomics, local memory, RNG streams, and the L1 memory preset in play.

mod common;

use proptest::prelude::*;
use simt_ir::{parse_and_link, parse_module, Value};
use simt_sim::{run, run_reference, Launch, MemHierarchy, SchedulerPolicy, SimConfig, SimOutput};

/// Everything that shapes one random kernel + run.
#[derive(Clone, Debug)]
struct Case {
    outer_iters: i64,
    branch_p: f64,
    then_work: u32,
    epilog_work: u32,
    inner_trip_max: i64,
    use_barrier: bool,
    use_sync: bool,
    use_call: bool,
    seed: u64,
    policy: SchedulerPolicy,
    warps: usize,
    /// Price global accesses with [`MemHierarchy::l1`] instead of the
    /// flat coalescing fold.
    l1: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (1i64..8, 0.05f64..0.95, 0u32..40, 0u32..10, 1i64..8),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<u64>()),
        common::any_policy(),
        1usize..3,
        any::<bool>(),
    )
        .prop_map(
            |(
                (outer_iters, branch_p, then_work, epilog_work, inner_trip_max),
                (use_barrier, use_sync, use_call, seed),
                policy,
                warps,
                l1,
            )| Case {
                outer_iters,
                branch_p,
                then_work,
                epilog_work,
                inner_trip_max,
                use_barrier,
                use_sync,
                use_call,
                seed,
                policy,
                warps,
                l1,
            },
        )
}

/// Textual kernel: outer loop around a divergent branch whose taken path
/// runs an RNG-trip inner loop, with atomics, local memory, a device call,
/// and optional convergence-barrier / `syncthreads` reconvergence.
fn kernel_src(c: &Case) -> String {
    let join = if c.use_barrier { "  join b0\n" } else { "" };
    let wait = if c.use_barrier { "  wait b0\n" } else { "" };
    let sync = if c.use_sync { "  syncthreads\n" } else { "" };
    let accumulate =
        if c.use_call { "  call @helper(%r1, 5) -> (%r1)\n" } else { "  %r1 = add %r1, 13\n" };
    format!(
        "device @helper(params=2, regs=4, barriers=0, entry=bb0) {{\n\
         bb0:\n  %r2 = add %r0, %r1\n  %r3 = mul %r2, 3\n  ret %r3\n}}\n\
         kernel @k(params=0, regs=12, barriers=1, entry=bb0) {{\n\
         bb0:\n\
         \x20 %r0 = special.tid\n\
         \x20 rngseed %r0\n\
         \x20 %r1 = mov 0\n\
         \x20 %r2 = mov 0\n\
         {join}\
         \x20 jmp bb1\n\
         bb1:\n\
         \x20 %r3 = rng.unit\n\
         \x20 %r4 = lt %r3, {p}\n\
         \x20 %r5 = vote %r4\n\
         \x20 brdiv %r4, bb2, bb3\n\
         bb2:\n\
         \x20 work {wt}\n\
         {accumulate}\
         \x20 %r6 = mov 0\n\
         \x20 %r7 = rng.u63\n\
         \x20 %r8 = rem %r7, {im}\n\
         \x20 jmp bb4\n\
         bb4:\n\
         \x20 %r1 = add %r1, %r6\n\
         \x20 %r6 = add %r6, 1\n\
         \x20 %r9 = le %r6, %r8\n\
         \x20 brdiv %r9, bb4, bb3\n\
         bb3:\n\
         \x20 work {we}\n\
         \x20 %r10 = atomic_add [60], 1\n\
         \x20 store local[0], %r1\n\
         \x20 %r11 = load local[0]\n\
         \x20 %r2 = add %r2, 1\n\
         \x20 %r4 = lt %r2, {outer}\n\
         \x20 brdiv %r4, bb1, bb5\n\
         bb5:\n\
         {wait}\
         {sync}\
         \x20 %r11 = sel %r4, 1, %r1\n\
         \x20 store global[%r0], %r11\n\
         \x20 exit\n}}\n",
        p = c.branch_p,
        wt = c.then_work,
        im = c.inner_trip_max,
        we = c.epilog_work,
        outer = c.outer_iters,
    )
}

fn config_for(c: &Case) -> SimConfig {
    let mut cfg = SimConfig {
        max_cycles: 50_000_000,
        scheduler: c.policy,
        profile: true,
        ..SimConfig::default()
    };
    if c.l1 {
        cfg.mem = Some(MemHierarchy::l1(&cfg.latency));
    }
    cfg
}

fn launch_for(c: &Case) -> Launch {
    let mut launch = Launch::new("k", c.warps);
    launch.seed = c.seed;
    launch.global_mem = vec![Value::I64(0); 64];
    launch.local_mem_size = 4;
    launch
}

/// Profile entries in a deterministic order (the profile map itself is a
/// hash map, so its iteration order is not comparable directly).
fn sorted_profile(out: &SimOutput) -> Vec<String> {
    let mut entries: Vec<String> = out
        .profile
        .as_ref()
        .map(|p| p.iter().map(|(k, v)| format!("{k:?}: {v:?}")).collect())
        .unwrap_or_default();
    entries.sort();
    entries
}

fn assert_same(decoded: &SimOutput, reference: &SimOutput, ctx: &dyn std::fmt::Debug) {
    assert_eq!(decoded.metrics, reference.metrics, "metrics diverged on {ctx:?}");
    assert_eq!(decoded.global_mem, reference.global_mem, "memory diverged on {ctx:?}");
    assert_eq!(sorted_profile(decoded), sorted_profile(reference), "profile diverged on {ctx:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn decoded_engine_matches_reference_interpreter(case in case_strategy()) {
        let module = parse_and_link(&kernel_src(&case))
            .unwrap_or_else(|e| panic!("generated kernel must parse: {e}"));
        let cfg = config_for(&case);
        let launch = launch_for(&case);
        let decoded = run(&module, &cfg, &launch);
        let reference = run_reference(&module, &cfg, &launch);
        match (&decoded, &reference) {
            (Ok(d), Ok(r)) => assert_same(d, r, &case),
            (Err(d), Err(r)) => prop_assert_eq!(
                d.to_string(), r.to_string(), "errors diverged on {:?}", &case
            ),
            _ => prop_assert!(
                false,
                "one interpreter failed, the other did not, on {:?}: decoded={:?} reference={:?}",
                &case, &decoded.as_ref().err(), &reference.as_ref().err()
            ),
        }
    }
}

/// Faulting programs must fault identically: same error text, including
/// the (func, block, inst) location recovered from the decoded image's
/// origin map.
#[test]
fn out_of_range_access_faults_identically() {
    let module = parse_and_link(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  %r1 = load global[9999]\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig::default();
    let mut launch = Launch::new("k", 1);
    launch.global_mem = vec![Value::I64(0); 8];
    let decoded = run(&module, &cfg, &launch).unwrap_err();
    let reference = run_reference(&module, &cfg, &launch).unwrap_err();
    assert_eq!(decoded.to_string(), reference.to_string());
}

/// A call to a function the linker never resolved (possible when running
/// an unlinked module directly) must produce the same runtime error from
/// both interpreters.
#[test]
fn unresolved_call_faults_identically() {
    let module = parse_module(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  call @missing(1) -> (%r0)\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig::default();
    let launch = Launch::new("k", 1);
    let decoded = run(&module, &cfg, &launch).unwrap_err();
    let reference = run_reference(&module, &cfg, &launch).unwrap_err();
    assert_eq!(decoded.to_string(), reference.to_string());
}

/// The empty-block edge case: a block whose only content is its
/// terminator still profiles one entry per arrival in both interpreters.
#[test]
fn empty_blocks_execute_identically() {
    let module = parse_and_link(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  jmp bb1\n\
         bb1:\n  jmp bb2\n\
         bb2:\n  store global[%r0], 7\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig { profile: true, ..SimConfig::default() };
    let mut launch = Launch::new("k", 1);
    launch.global_mem = vec![Value::I64(0); 32];
    let decoded = run(&module, &cfg, &launch).unwrap();
    let reference = run_reference(&module, &cfg, &launch).unwrap();
    assert_same(&decoded, &reference, &"empty-block kernel");
}

// ---------------------------------------------------------------------
// ALU kernel table and batch-fault differential.
//
// The decoded engine dispatches each ALU op once per issue through a
// kernel table, and a fallible kernel commits all its lanes or none, so
// a fault found while the straight-line batcher runs ahead only ends
// the batch. These tests pin both against the tree-walker, which calls
// the scalar specification once per lane.
// ---------------------------------------------------------------------

const BIN_OPS: [&str; 18] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "min", "max", "eq", "ne",
    "lt", "le", "gt", "ge",
];
const BITWISE_OPS: [&str; 5] = ["and", "or", "xor", "shl", "shr"];
const UN_OPS: [&str; 8] = ["not", "neg", "sqrt", "exp", "log", "abs", "itof", "ftoi"];

/// Operand sources by type, as `(registers, immediates)`. The prologue
/// makes every integer register non-zero on every lane (`%r3 = 3t+1`,
/// `%r4 = 5-2t`), so no generated integer division can fault; `%r5` is
/// a positive float and `%r6` a negative one.
fn pool(float: bool) -> ([&'static str; 2], [&'static str; 3]) {
    if float {
        (["%r5", "%r6"], ["2.5", "-0.5", "1e3"])
    } else {
        (["%r3", "%r4"], ["7", "-3", "65"])
    }
}

/// Every non-faulting ALU instruction shape, writing `%r8`: each binary
/// op over {int, float, int×float, float×int} operands in the forms
/// reg×reg, reg×imm and imm×reg, and each unary op over {int, float} as
/// a register or an immediate. Bitwise ops and `not` on floats fault, so
/// they are left to the fault test.
fn alu_shapes() -> Vec<String> {
    let mut out = Vec::new();
    for (i, op) in BIN_OPS.iter().enumerate() {
        for (lf, rf) in [(false, false), (true, true), (false, true), (true, false)] {
            if (lf || rf) && BITWISE_OPS.contains(op) {
                continue;
            }
            let ((lr, li), (rr, ri)) = (pool(lf), pool(rf));
            let (a, b) = (lr[i % 2], rr[(i + 1) % 2]);
            let (ia, ib) = (li[i % 3], ri[(i + 2) % 3]);
            for (x, y) in [(a, b), (a, ib), (ia, b)] {
                out.push(format!("%r8 = {op} {x}, {y}"));
            }
        }
    }
    for (i, op) in UN_OPS.iter().enumerate() {
        for float in [false, true] {
            if float && *op == "not" {
                continue;
            }
            let (r, imm) = pool(float);
            out.push(format!("%r8 = {op} {}", r[i % 2]));
            out.push(format!("%r8 = {op} {}", imm[i % 3]));
        }
    }
    out
}

/// A kernel whose lanes in `mask` (by lane id) run `body` as one
/// straight-line block. With `store_each`, each `%r8 = ...` line's
/// result is stored to the thread's next output cell; without, the block
/// is pure warp-local ALU work the batcher can run through end to end,
/// and only the final `%r8` and fault registers are stored. Registers `%r9..%r14` carry the fault
/// plumbing for threads `faults.0` and `faults.1`: `%r10`/`%r13` are 0
/// on the faulting thread and 1 elsewhere, `%r11`/`%r14` a float there
/// and an integer elsewhere.
fn alu_kernel(
    mask: u32,
    outs: usize,
    faults: (usize, usize),
    body: &[String],
    store_each: bool,
) -> String {
    let mut src = format!(
        "kernel @k(params=0, regs=16, barriers=0, entry=bb0) {{\n\
         bb0:\n\
         \x20 %r0 = special.tid\n\
         \x20 %r1 = special.lane\n\
         \x20 %r2 = shr {mask}, %r1\n\
         \x20 %r2 = and %r2, 1\n\
         \x20 %r3 = mul %r0, 3\n\
         \x20 %r3 = add %r3, 1\n\
         \x20 %r4 = mul %r0, -2\n\
         \x20 %r4 = add %r4, 5\n\
         \x20 %r5 = itof %r0\n\
         \x20 %r5 = mul %r5, 0.75\n\
         \x20 %r5 = add %r5, 0.5\n\
         \x20 %r6 = itof %r0\n\
         \x20 %r6 = sub -1.25, %r6\n\
         \x20 %r7 = mul %r0, {outs}\n\
         \x20 %r9 = eq %r0, {f0}\n\
         \x20 %r10 = sub 1, %r9\n\
         \x20 %r11 = sel %r9, 1.5, 3\n\
         \x20 %r12 = eq %r0, {f1}\n\
         \x20 %r13 = sub 1, %r12\n\
         \x20 %r14 = sel %r12, 1.5, 3\n\
         \x20 brdiv %r2, bb1, bb2\n\
         bb1:\n",
        f0 = faults.0,
        f1 = faults.1,
    );
    for line in body {
        src.push_str(&format!("  {line}\n"));
        if store_each && line.starts_with("%r8 =") {
            src.push_str("  store global[%r7], %r8\n  %r7 = add %r7, 1\n");
        }
    }
    if !store_each {
        for r in ["%r8", "%r10", "%r11", "%r13", "%r14"] {
            src.push_str(&format!("  store global[%r7], {r}\n  %r7 = add %r7, 1\n"));
        }
    }
    src.push_str("  jmp bb2\nbb2:\n  exit\n}\n");
    src
}

/// Decoded ≡ reference on metrics, memory (compared by `Debug` text, so
/// NaN results compare equal to themselves) and error text.
fn assert_engines_agree(src: &str, cfg: &SimConfig, launch: &Launch) {
    let module = parse_and_link(src).unwrap_or_else(|e| panic!("kernel must parse: {e}\n{src}"));
    let decoded = run(&module, cfg, launch);
    let reference = run_reference(&module, cfg, launch);
    match (&decoded, &reference) {
        (Ok(d), Ok(r)) => {
            assert_eq!(d.metrics, r.metrics, "metrics diverged under {:?}", cfg.scheduler);
            assert_eq!(
                format!("{:?}", d.global_mem),
                format!("{:?}", r.global_mem),
                "memory diverged under {:?}",
                cfg.scheduler
            );
        }
        (Err(d), Err(r)) => {
            assert_eq!(d.to_string(), r.to_string(), "errors diverged under {:?}", cfg.scheduler)
        }
        _ => panic!(
            "one engine failed under {:?}: decoded={:?} reference={:?}",
            cfg.scheduler,
            decoded.as_ref().err(),
            reference.as_ref().err()
        ),
    }
}

fn alu_launch(warps: usize, outs: usize) -> Launch {
    let mut launch = Launch::new("k", warps);
    launch.global_mem = vec![Value::I64(0); warps * 32 * outs];
    launch
}

/// One planted fault: the faulting line for the thread whose plumbing
/// registers are `(zero_one, float_int)`.
fn fault_line(kind: usize, regs: (&str, &str)) -> String {
    let (z, f) = regs;
    match kind % 5 {
        // Division by zero reading and writing the divisor: lanes that
        // commit early would zero their own divisor and move the fault.
        0 => format!("{z} = rem {z}, {z}"),
        1 => format!("%r8 = div %r3, {z}"),
        2 => format!("{f} = {} {f}, 7", BITWISE_OPS[kind % BITWISE_OPS.len()]),
        3 => format!("%r8 = xor 7, {f}"),
        _ => format!("{f} = not {f}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every ALU op × operand type × operand form, over a random lane
    /// mask (all lanes, so batches run converged, or a random subset,
    /// so they run divergent), under every scheduler policy.
    #[test]
    fn every_alu_shape_matches_reference_over_random_masks(
        mask in prop_oneof![Just(u32::MAX), any::<u32>()],
        warps in 1usize..3,
        policy in common::any_policy(),
    ) {
        let body = alu_shapes();
        let src = alu_kernel(mask, body.len(), (usize::MAX >> 1, usize::MAX >> 1), &body, true);
        let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
        assert_engines_agree(&src, &cfg, &alu_launch(warps, body.len()));
    }

    /// Two faults planted in one straight-line block of warp-local ALU
    /// work, each on one random thread, between random runs of
    /// non-faulting ops. Whichever
    /// fault a scalar walk reaches first in scheduling order must win —
    /// same error, same warp and lane, same instruction — even though
    /// the decoded engine reaches both while batching ahead.
    #[test]
    fn batched_faults_surface_in_scheduling_order(
        mask in any::<u32>(),
        warps in 2usize..4,
        threads in (0usize..96, 0usize..96),
        kinds in (0usize..10, 0usize..10),
        runs in (
            prop::collection::vec(0usize..1000, 0..24),
            prop::collection::vec(0usize..1000, 0..24),
            prop::collection::vec(0usize..1000, 0..8),
        ),
    ) {
        let shapes = alu_shapes();
        let pick = |ix: &Vec<usize>| ix.iter().map(|&i| shapes[i % shapes.len()].clone()).collect::<Vec<_>>();
        let (t0, t1) = (threads.0 % (warps * 32), threads.1 % (warps * 32));
        let mut body = pick(&runs.0);
        body.push(fault_line(kinds.0, ("%r10", "%r11")));
        body.extend(pick(&runs.1));
        body.push(fault_line(kinds.1, ("%r13", "%r14")));
        body.extend(pick(&runs.2));
        // Both faulting lanes run the block.
        let mask = mask | 1 << (t0 % 32) | 1 << (t1 % 32);
        let outs = 5;
        let src = alu_kernel(mask, outs, (t0, t1), &body, false);
        for policy in [SchedulerPolicy::Greedy, SchedulerPolicy::RoundRobin] {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            assert_engines_agree(&src, &cfg, &alu_launch(warps, outs));
        }
    }
}

/// The ordering case the reserve/commit rule exists for: warp 0's fault
/// sits later in the block than warp 1's. The decoded engine batches
/// warp 0 past warp 1's fault cycle before warp 1 issues at all; the
/// error must still be warp 1's, as in the tree-walker.
#[test]
fn a_later_warps_earlier_fault_wins() {
    let filler: Vec<String> = alu_shapes().into_iter().take(12).collect();
    let mut body = vec![fault_line(0, ("%r13", "%r14"))];
    body.extend(filler);
    body.push(fault_line(0, ("%r10", "%r11")));
    // Thread 3 (warp 0) faults at the end, thread 37 (warp 1) first.
    let src = alu_kernel(u32::MAX, 5, (3, 37), &body, false);
    for policy in [SchedulerPolicy::Greedy, SchedulerPolicy::RoundRobin] {
        let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
        let launch = alu_launch(2, 5);
        assert_engines_agree(&src, &cfg, &launch);
        let err = run(&parse_and_link(&src).unwrap(), &cfg, &launch).unwrap_err();
        assert!(err.to_string().starts_with("warp 1 lane 5 "), "{policy:?}: {err}");
    }
}
