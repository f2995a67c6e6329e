//! Differential conformance for the memory hierarchy's depth-0
//! degenerate configuration.
//!
//! Global accesses are priced by one of two models: the flat coalescing
//! fold (`SimConfig::mem = None`) or a [`MemHierarchy`]. The hierarchy
//! claims the flat fold as its exact depth-0 case:
//! [`MemHierarchy::flat`] (no cache levels) reproduces the flat
//! coalescing cost `mem_base + mem_segment * (segments - 1)`.
//!
//! For random programs from the conformance genome, this test runs the
//! flat config and its degenerate hierarchy twin on **all three
//! engines** (tree-walking reference, decoded hot loop, seed-sweep
//! cohort) under **every scheduler policy** and asserts bit-identical
//! results: metrics (with the hierarchy's own per-level counters
//! stripped — they are observability, not a cost change), final global
//! memory, and errors.
//!
//! Case count defaults to 64 and is capped by `CONFORMANCE_CASES`.

use conformance::oracle::POLICIES;
use conformance::program::spec_strategy;
use conformance::{build_module, compare_outputs, ProgramSpec};
use proptest::prelude::*;
use simt_sim::{
    run, run_reference, run_sweep, Launch, MemHierarchy, MemStats, SimConfig, SimError, SimOutput,
    SweepLaunch, DEFAULT_SEED,
};

/// Instances per sweep comparison (small: the sweep engine's own
/// differential covers cohort mechanics; this test targets the cost
/// model).
const INSTANCES: u64 = 4;

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

/// Compares a flat run with its hierarchy twin, with the
/// hierarchy-only counters removed from the twin (a flat run never
/// populates them).
fn compare_flat(
    flat: &Result<SimOutput, SimError>,
    hier: &Result<SimOutput, SimError>,
    what: &str,
) -> Result<(), String> {
    let stripped = hier.clone().map(|mut h| {
        h.metrics.mem = MemStats::default();
        h
    });
    compare_outputs(flat, &stripped, what)
}

/// Runs `flat_cfg` and `hier_cfg` over the spec's program on all
/// three engines and demands identical observable results.
fn check_degenerate(
    spec: &ProgramSpec,
    flat_cfg: &SimConfig,
    hier_cfg: &SimConfig,
    what: &str,
) -> Result<(), String> {
    let module = build_module(spec);
    let mut base = Launch::new("main", spec.warps);
    base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];

    // Decoded hot loop.
    let l = run(&module, flat_cfg, &base);
    let h = run(&module, hier_cfg, &base);
    compare_flat(&l, &h, &format!("{what}/decoded"))?;

    // Tree-walking reference oracle.
    let l = run_reference(&module, flat_cfg, &base);
    let h = run_reference(&module, hier_cfg, &base);
    compare_flat(&l, &h, &format!("{what}/reference"))?;

    // Seed-sweep cohort, per seed.
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    let sweep = SweepLaunch::new(base, seed_lo, seed_lo + INSTANCES);
    let ls = run_sweep(&module, flat_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: flat sweep failed: {e}"))?;
    let hs = run_sweep(&module, hier_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: hier sweep failed: {e}"))?;
    for (lr, hr) in ls.runs.iter().zip(hs.runs.iter()) {
        compare_flat(&lr.result, &hr.result, &format!("{what}/sweep seed {}", lr.seed))?;
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
        let hier =
            SimConfig { mem: Some(MemHierarchy::flat(&base_cfg.latency)), ..base_cfg.clone() };
        check_degenerate(spec, &base_cfg, &hier, &format!("{policy:?}/flat"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn flat_hierarchy_reproduces_flat_costs(spec in spec_strategy()) {
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
