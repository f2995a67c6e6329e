//! The `seed_sweep` Criterion group: lockstep multi-seed cohort
//! throughput against the scalar per-seed baseline.
//!
//! Two benchmarks per workload — `sweep/<name>` runs one 32-seed
//! cohort, `scalar/<name>` runs the same 32 seeds as independent scalar
//! machines — both annotated with the summed simulated cycles so the
//! report prints comparable cycles/sec. Covered workloads are the Monte
//! Carlo registry entries (lockstep fast path) plus the seed-divergent
//! stressors (fork/merge path). `sweep_hier/<name>` runs the lookup
//! kernels' 32-seed cohort under the tight-MSHR hierarchy of `figures
//! ablate-mem` (the cohort's shared hierarchy walk). This is the
//! Criterion-side view of the `sweep/*` / `sweep_scalar/*` entries
//! `perfbench` snapshots into `BENCH_<n>.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simt_sim::{run_image, run_sweep_image, MemHierarchy, SimConfig, SweepLaunch, DEFAULT_SEED};
use specrecon_bench::perf::MONTE_CARLO;
use workloads::eval::{with_warps, Engine};
use workloads::{registry, seedstorm};

const SEEDS: u64 = 32;

/// The tight-MSHR L1/L2/DRAM hierarchy of `figures ablate-mem` at its
/// smallest L1.
const TIGHT_MSHR: &str =
    "l1:lines=16,cells=16,lat=2,mshrs=1;l2:lines=128,cells=16,lat=8,mshrs=2;dram:lat=48,extra=4";

fn bench_seed_sweep(c: &mut Criterion) {
    let engine = Engine::new(1);
    let cfg = SimConfig::default();
    let hier_cfg = SimConfig {
        mem: Some(MemHierarchy::parse(TIGHT_MSHR, &cfg.latency).expect("valid hierarchy spec")),
        ..SimConfig::default()
    };
    let mut g = c.benchmark_group("seed_sweep");
    let mut pool: Vec<workloads::Workload> =
        registry().into_iter().filter(|w| MONTE_CARLO.contains(&w.name)).collect();
    pool.push(seedstorm::build(&seedstorm::Params::default()));
    for w in pool {
        let w = with_warps(&w, 2);
        let image = engine.decoded(&w.module, None).expect("registry workload decodes");
        let sweep = SweepLaunch::new(w.launch.clone(), DEFAULT_SEED, DEFAULT_SEED + SEEDS);
        let out = run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs");
        let cycles: u64 = out
            .runs
            .iter()
            .map(|r| r.result.as_ref().expect("seed run succeeds").metrics.cycles)
            .sum();
        g.throughput(Throughput::Elements(cycles));
        g.bench_with_input(BenchmarkId::new("sweep", w.name), &sweep, |b, sweep| {
            b.iter(|| run_sweep_image(&image, &cfg, sweep, None).expect("sweep runs"));
        });
        g.bench_with_input(BenchmarkId::new("scalar", w.name), &w, |b, w| {
            b.iter(|| {
                for s in 0..SEEDS {
                    let mut launch = w.launch.clone();
                    launch.seed = DEFAULT_SEED + s;
                    run_image(&image, &cfg, &launch).expect("runs");
                }
            });
        });
        if matches!(w.name, "rsbench" | "xsbench") {
            let out = run_sweep_image(&image, &hier_cfg, &sweep, None).expect("sweep runs");
            let hier_cycles: u64 = out
                .runs
                .iter()
                .map(|r| r.result.as_ref().expect("seed run succeeds").metrics.cycles)
                .sum();
            g.throughput(Throughput::Elements(hier_cycles));
            g.bench_with_input(BenchmarkId::new("sweep_hier", w.name), &sweep, |b, sweep| {
                b.iter(|| run_sweep_image(&image, &hier_cfg, sweep, None).expect("sweep runs"));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_seed_sweep);
criterion_main!(benches);
