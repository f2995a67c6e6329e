//! The L1 preset of the memory hierarchy ([`MemHierarchy::l1`]): hits
//! are cheap, misses pay full latency, stores/atomics invalidate, and
//! values are never affected. Every case runs on the tree-walker, the
//! decoded engine and a seed sweep, which must agree exactly.

use simt_ir::{parse_and_link, Module, Value};
use simt_sim::{
    run, run_reference, run_sweep, Launch, MemHierarchy, SimConfig, SimOutput, SweepLaunch,
};

/// The default config with the L1 preset as its memory model.
fn l1_cfg() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.mem = Some(MemHierarchy::l1(&cfg.latency));
    cfg
}

/// Runs `l` on the decoded engine, the tree-walker and a 4-seed sweep
/// (the kernels draw no random numbers, so every seed is the same run),
/// asserts they agree on metrics and memory, and returns the decoded
/// engine's output.
fn run_everywhere(m: &Module, cfg: &SimConfig, l: &Launch) -> SimOutput {
    let decoded = run(m, cfg, l).unwrap();
    let reference = run_reference(m, cfg, l).unwrap();
    assert_eq!(reference.metrics, decoded.metrics, "tree-walker vs decoded");
    assert_eq!(reference.global_mem, decoded.global_mem, "tree-walker vs decoded");
    let sweep = run_sweep(m, cfg, &SweepLaunch::new(l.clone(), 0, 4)).unwrap();
    for r in sweep.runs {
        let out = r.result.unwrap();
        assert_eq!(out.metrics, decoded.metrics, "seed {} vs decoded", r.seed);
        assert_eq!(out.global_mem, decoded.global_mem, "seed {} vs decoded", r.seed);
    }
    decoded
}

#[test]
fn repeated_loads_hit_and_get_cheaper() {
    // Every thread loads the same line 50 times.
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = mov 0\n  jmp bb1\n\
         bb1:\n  %r1 = load global[3]\n  %r0 = add %r0, 1\n  %r2 = lt %r0, 50\n  br %r2, bb1, bb2\n\
         bb2:\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(7); 16];

    let cold = run_everywhere(&m, &SimConfig::default(), &l);
    let warm = run_everywhere(&m, &l1_cfg(), &l);
    assert!(
        warm.metrics.cycles < cold.metrics.cycles,
        "cache should cut cycles: {} vs {}",
        warm.metrics.cycles,
        cold.metrics.cycles
    );
    let l1 = warm.metrics.mem.levels[0];
    assert!(l1.hits >= 49, "hits {}", l1.hits);
    assert_eq!(l1.misses, 1);
    assert!(cold.metrics.mem.is_zero(), "flat memory reports no hierarchy counters");
}

#[test]
fn values_are_unaffected_by_the_cache() {
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  %r1 = load global[%r0]\n  %r2 = mul %r1, 2\n  store global[%r0], %r2\n  %r3 = load global[%r0]\n  store global[%r0], %r3\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 2);
    l.global_mem = (0..64).map(Value::I64).collect();
    let plain = run_everywhere(&m, &SimConfig::default(), &l);
    let cached = run_everywhere(&m, &l1_cfg(), &l);
    assert_eq!(plain.global_mem, cached.global_mem);
    for t in 0..64 {
        assert_eq!(cached.global_mem[t], Value::I64(2 * t as i64));
    }
}

#[test]
fn conflicting_lines_evict() {
    // Two addresses mapping to the same direct-mapped slot, alternated:
    // every access misses.
    let mut cfg = SimConfig::default();
    cfg.mem = Some(MemHierarchy::parse("l1:lines=4,cells=16,lat=2", &cfg.latency).unwrap());
    // line(0)=0 -> slot 0; line(64*16=1024)=64 -> slot 0 as well (64 % 4 == 0).
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = mov 0\n  jmp bb1\n\
         bb1:\n  %r1 = load global[0]\n  %r1 = load global[1024]\n  %r0 = add %r0, 1\n  %r2 = lt %r0, 10\n  br %r2, bb1, bb2\n\
         bb2:\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(0); 1025];
    let out = run_everywhere(&m, &cfg, &l);
    let l1 = out.metrics.mem.levels[0];
    assert_eq!(l1.hits, 0, "ping-pong eviction leaves no hits");
    assert_eq!(l1.misses, 20);
}

#[test]
fn stores_invalidate_cached_lines() {
    // load (miss) -> load (hit) -> store same line -> load (miss again).
    let m = parse_and_link(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = load global[5]\n  %r1 = load global[5]\n  store global[5], 9\n  %r2 = load global[5]\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(1); 16];
    let out = run_everywhere(&m, &l1_cfg(), &l);
    // load miss, load hit, store (hits the cached line, then
    // invalidates it), load miss again.
    let l1 = out.metrics.mem.levels[0];
    assert_eq!(l1.hits, 2, "hits {}", l1.hits);
    assert_eq!(l1.misses, 2, "misses {}", l1.misses);
    assert_eq!(out.global_mem[5], Value::I64(9));
}

#[test]
fn atomics_invalidate_across_warps() {
    // Warp threads cache cell 0, then atomics bump it; a later load still
    // returns the true value and pays a miss.
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = load global[0]\n  %r1 = atomic_add [0], 1\n  %r2 = load global[0]\n  %r3 = special.tid\n  %r3 = add %r3, 1\n  store global[%r3], %r2\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 2);
    l.global_mem = vec![Value::I64(0); 65];
    let out = run_everywhere(&m, &l1_cfg(), &l);
    assert_eq!(out.global_mem[0], Value::I64(64), "all 64 atomics landed");
}
