//! Differential conformance for the seed-sweep cohort under real
//! (multi-level, MSHR-limited) memory hierarchies and the L1 preset.
//!
//! The cohort prices a global access by walking the hierarchy once per
//! memory-state class of seed instances and replaying the walk's fills
//! on the other members; forks on any disagreement in the walk's
//! outcome; and keeps machine-wide MSHR files per instance. None of that
//! is visible in the degenerate flat hierarchy that
//! `hier_flat_differential.rs` crosses, so this test runs random genome
//! programs under two tight multi-level specs and the single-level
//! [`MemHierarchy::l1`] preset and demands
//!
//! sweep ≡ N independent decoded runs ≡ N tree-walking reference runs
//!
//! per seed, bit-identically: metrics (per-level memory counters
//! included), final global memory, and errors. Every program runs raw,
//! SR-compiled and meld-compiled, under every scheduler policy.
//!
//! Case count defaults to 64 and is capped by `CONFORMANCE_CASES`.

use conformance::oracle::POLICIES;
use conformance::program::spec_strategy;
use conformance::{build_module, compare_outputs, ProgramSpec};
use proptest::prelude::*;
use simt_ir::Module;
use simt_sim::{
    run, run_reference, run_sweep, LatencyModel, Launch, MemHierarchy, SimConfig, SweepLaunch,
    DEFAULT_SEED,
};
use specrecon_core::{compile, CompileOptions, PassError, RepairStrategy};

/// The tight-MSHR L1/L2/DRAM hierarchy of `figures ablate-mem` at its
/// smallest L1: one L1 MSHR, so nearly every miss stalls or merges.
const TIGHT: &str =
    "l1:lines=16,cells=16,lat=2,mshrs=1;l2:lines=128,cells=16,lat=8,mshrs=2;dram:lat=48,extra=4";

/// Three cache levels with differing line sizes and at least two MSHRs
/// at every level, so misses rebase across granularities and merge
/// into in-flight entries at each depth.
const THREE_LEVEL: &str = "l1:lines=8,cells=8,lat=2,mshrs=2;l2:lines=32,cells=16,lat=6,mshrs=2;\
                           l3:lines=128,cells=32,lat=14,mshrs=3;dram:lat=40,extra=3";

/// The hierarchies crossed, by name: the two tight specs above and the
/// L1 preset (`figures ablate-cache`).
fn hierarchies() -> [(&'static str, MemHierarchy); 3] {
    let lat = LatencyModel::default();
    let parse = |spec| MemHierarchy::parse(spec, &lat).expect("valid spec");
    [(TIGHT, parse(TIGHT)), (THREE_LEVEL, parse(THREE_LEVEL)), ("l1", MemHierarchy::l1(&lat))]
}

/// Seed instances per sweep.
const INSTANCES: u64 = 6;

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

/// The program variants crossed: the generated module as-is, and the
/// SR and melding compiles of it. A compile the pipeline legitimately
/// rejects (a prediction outside a reducible region, a conflict that
/// survives dynamic deconfliction) is skipped, as in the oracle.
fn variants(spec: &ProgramSpec) -> Result<Vec<(&'static str, Module)>, String> {
    let module = build_module(spec);
    let mut out = vec![("raw", module.clone())];
    for (name, strategy) in [("sr", RepairStrategy::Sr), ("meld", RepairStrategy::Meld)] {
        let mut opts: CompileOptions = strategy.options();
        opts.warp_width = spec.warp_width as u32;
        opts.lint = false;
        let compiled = match compile(&module, &opts) {
            Err(PassError::SpeculativeConflict(_)) => {
                opts.spec_deconflict = true;
                compile(&module, &opts)
            }
            r => r,
        };
        match compiled {
            Ok(c) => out.push((name, c.module)),
            Err(PassError::BadPrediction(_) | PassError::SpeculativeConflict(_)) => {}
            Err(e) => return Err(format!("{name}: compile failed: {e}")),
        }
    }
    Ok(out)
}

/// Crosses every (variant, spec, policy) cell; returns the MSHR stall
/// cycles the successful runs accumulated, so callers can check the
/// MSHR path was exercised.
fn check(spec: &ProgramSpec) -> Result<u64, String> {
    let mut stalls = 0u64;
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    let mut base = Launch::new("main", spec.warps);
    base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];
    for (variant, module) in variants(spec)? {
        for (mem_name, mem) in hierarchies() {
            for policy in POLICIES {
                let what = format!("{variant}/{policy:?}/{mem_name}");
                let cfg = SimConfig {
                    warp_width: spec.warp_width,
                    scheduler: policy,
                    max_cycles: MAX_CYCLES,
                    mem: Some(mem.clone()),
                    ..SimConfig::default()
                };
                let sweep = SweepLaunch::new(base.clone(), seed_lo, seed_lo + INSTANCES);
                let out = run_sweep(&module, &cfg, &sweep)
                    .map_err(|e| format!("{what}: whole sweep failed: {e}"))?;
                if out.runs.len() != INSTANCES as usize {
                    return Err(format!("{what}: {} runs for {INSTANCES} seeds", out.runs.len()));
                }
                for seed_run in &out.runs {
                    let mut launch = base.clone();
                    launch.seed = seed_run.seed;
                    let scalar = run(&module, &cfg, &launch);
                    let reference = run_reference(&module, &cfg, &launch);
                    let at = format!("{what} seed {}", seed_run.seed);
                    compare_outputs(&seed_run.result, &scalar, &format!("{at}: sweep vs decoded"))?;
                    compare_outputs(&scalar, &reference, &format!("{at}: decoded vs reference"))?;
                    if let Ok(o) = &scalar {
                        stalls +=
                            o.metrics.mem.levels.iter().map(|l| l.mshr_stall_cycles).sum::<u64>();
                    }
                }
            }
        }
    }
    Ok(stalls)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn sweep_matches_scalar_and_reference_under_real_hierarchies(spec in spec_strategy()) {
        if let Err(violation) = check(&spec) {
            prop_assert!(
                false,
                "generator seed {:#018x} violated hierarchy sweep exactness:\n{violation}",
                spec.seed
            );
        }
    }
}

/// A fixed handful of genome programs: the crossing holds, and the
/// specs really do drive the MSHR path (a silent no-stall run would
/// make the property above vacuous for the code it targets).
#[test]
fn fixed_programs_cross_and_stall_their_mshrs() {
    let mut stalls = 0u64;
    for seed in 0..8u64 {
        let spec = ProgramSpec::generate(seed);
        stalls += check(&spec).unwrap_or_else(|v| panic!("seed {seed:#018x}:\n{v}"));
    }
    assert!(stalls > 0, "no run stalled on an MSHR");
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
