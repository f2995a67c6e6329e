//! Differential conformance for the memory-hierarchy cost model's
//! degenerate configurations.
//!
//! The hierarchy ([`SimConfig::mem`]) replaces both legacy global-access
//! cost paths — the flat coalescing fold and the single-level
//! [`CacheConfig`] model — and claims two exact degenerate cases:
//!
//! - [`MemHierarchy::flat`] (no cache levels) reproduces the flat
//!   coalescing cost `mem_base + mem_segment * (segments - 1)`;
//! - [`MemHierarchy::l1`] (one level mirroring a `CacheConfig`)
//!   reproduces the legacy cache cost and hit/miss counters.
//!
//! For random programs from the conformance genome, this test runs the
//! legacy config and its degenerate hierarchy twin on **all three
//! engines** (tree-walking reference, decoded hot loop, seed-sweep
//! cohort) under **every scheduler policy** and asserts bit-identical
//! results: metrics (with the hierarchy's own per-level counters
//! stripped — they are new observability, not a cost change), final
//! global memory, and errors.
//!
//! Case count defaults to 64 and is capped by `CONFORMANCE_CASES`.

use conformance::oracle::POLICIES;
use conformance::program::spec_strategy;
use conformance::{build_module, compare_outputs, ProgramSpec};
use proptest::prelude::*;
use simt_sim::{
    run, run_reference, run_sweep, CacheConfig, Launch, MemHierarchy, MemStats, SimConfig,
    SimError, SimOutput, SweepLaunch, DEFAULT_SEED,
};

/// Instances per sweep comparison (small: the sweep engine's own
/// differential covers cohort mechanics; this test targets the cost
/// model).
const INSTANCES: u64 = 4;

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

/// Compares a legacy run with its hierarchy twin, with the
/// hierarchy-only counters removed from the twin (a legacy run never
/// populates them).
fn compare_legacy(
    legacy: &Result<SimOutput, SimError>,
    hier: &Result<SimOutput, SimError>,
    what: &str,
) -> Result<(), String> {
    let stripped = hier.clone().map(|mut h| {
        h.metrics.mem = MemStats::default();
        h
    });
    compare_outputs(legacy, &stripped, what)
}

/// Runs `legacy_cfg` and `hier_cfg` over the spec's program on all
/// three engines and demands identical observable results.
fn check_degenerate(
    spec: &ProgramSpec,
    legacy_cfg: &SimConfig,
    hier_cfg: &SimConfig,
    what: &str,
) -> Result<(), String> {
    let module = build_module(spec);
    let mut base = Launch::new("main", spec.warps);
    base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];

    // Decoded hot loop.
    let l = run(&module, legacy_cfg, &base);
    let h = run(&module, hier_cfg, &base);
    compare_legacy(&l, &h, &format!("{what}/decoded"))?;

    // Tree-walking reference oracle.
    let l = run_reference(&module, legacy_cfg, &base);
    let h = run_reference(&module, hier_cfg, &base);
    compare_legacy(&l, &h, &format!("{what}/reference"))?;

    // Seed-sweep cohort, per seed.
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    let sweep = SweepLaunch::new(base, seed_lo, seed_lo + INSTANCES);
    let ls = run_sweep(&module, legacy_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: legacy sweep failed: {e}"))?;
    let hs = run_sweep(&module, hier_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: hier sweep failed: {e}"))?;
    for (lr, hr) in ls.runs.iter().zip(hs.runs.iter()) {
        compare_legacy(&lr.result, &hr.result, &format!("{what}/sweep seed {}", lr.seed))?;
    }
    Ok(())
}

fn check(spec: &ProgramSpec) -> Result<(), String> {
    for policy in POLICIES {
        let base_cfg = SimConfig {
            warp_width: spec.warp_width,
            scheduler: policy,
            max_cycles: MAX_CYCLES,
            ..SimConfig::default()
        };

        // Depth 0: flat coalescing fold vs an empty-levels hierarchy.
        let legacy = base_cfg.clone();
        let hier =
            SimConfig { mem: Some(MemHierarchy::flat(&base_cfg.latency)), ..base_cfg.clone() };
        check_degenerate(spec, &legacy, &hier, &format!("{policy:?}/flat"))?;

        // Depth 1: legacy CacheConfig vs its one-level hierarchy twin.
        let cache = CacheConfig::default();
        let legacy = SimConfig { cache: Some(cache.clone()), ..base_cfg.clone() };
        let hier = SimConfig {
            mem: Some(MemHierarchy::l1(&cache, &base_cfg.latency)),
            ..base_cfg.clone()
        };
        check_degenerate(spec, &legacy, &hier, &format!("{policy:?}/l1"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn degenerate_hierarchies_reproduce_legacy_costs(spec in spec_strategy()) {
        if let Err(violation) = check(&spec) {
            prop_assert!(
                false,
                "generator seed {:#018x} violated hierarchy degeneracy:\n{violation}",
                spec.seed
            );
        }
    }
}

/// Replays a single genome seed from `CONFORMANCE_SEED` (mirrors
/// `fuzz_equivalence::replay_env_seed`).
#[test]
fn replay_env_seed() {
    let Some(seed) = conformance::replay_seed() else {
        return;
    };
    let spec = ProgramSpec::generate(seed);
    if let Err(violation) = check(&spec) {
        panic!("seed {seed:#018x}:\n{violation}");
    }
}
