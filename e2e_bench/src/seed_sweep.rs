//! `seed-sweep`: the six sweep workloads (the five Monte Carlo kernels
//! plus `seed-storm`), SR-compiled, run over seed ranges through
//! `Engine::sweep_image_range` with `nproc` engine workers. Narrow
//! ranges become 2-seed cohorts, wide ones fill 64-slot cohorts; one
//! share runs under a tight-MSHR memory hierarchy (the cohort's
//! probe/commit path) and one under `warp-split` (the per-seed scalar
//! fallback).

use crate::batch;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{stats, Bench, Report};
use simt_sim::{
    run_image, DecodedImage, MemHierarchy, Metrics, ReconvergenceModel, SimConfig, SweepStats,
};
use specrecon_core::RepairStrategy;
use std::sync::Arc;
use std::time::Duration;
use workloads::eval::Engine;
use workloads::Workload;

/// The five Monte Carlo registry kernels plus the seed-divergent
/// stressor, in a fixed order.
pub fn workloads() -> Vec<Workload> {
    const MONTE_CARLO: [&str; 5] = ["rsbench", "xsbench", "mcb", "mc-gpu", "gpu-mcml"];
    let mut ws: Vec<Workload> =
        workloads::registry().into_iter().filter(|w| MONTE_CARLO.contains(&w.name)).collect();
    ws.push(workloads::seedstorm::build(&workloads::seedstorm::Params::default()));
    ws
}

/// The tight-MSHR L1/L2/DRAM hierarchy of `figures ablate-mem` at its
/// smallest L1.
pub const TIGHT_MSHR: &str =
    "l1:lines=16,cells=16,lat=2,mshrs=1;l2:lines=128,cells=16,lat=8,mshrs=2;dram:lat=48,extra=4";

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    Flat,
    Hier,
    WarpSplit,
}

impl Variant {
    pub fn config(self) -> SimConfig {
        let mut cfg = SimConfig::default();
        match self {
            Variant::Flat => {}
            Variant::Hier => {
                cfg.mem = Some(
                    MemHierarchy::parse(TIGHT_MSHR, &cfg.latency).expect("valid hierarchy spec"),
                )
            }
            Variant::WarpSplit => {
                cfg.recon = ReconvergenceModel::WarpSplit { window: 0, compact: false }
            }
        }
        cfg
    }
}

/// One operation: the seed range `[lo, lo + width)` of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub workload: usize,
    pub lo: u64,
    pub width: u64,
    pub variant: Variant,
}

/// The batch for `seed`: a fixed composition whose range starts are
/// drawn from the seed.
pub fn batch(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut lo = || rng.next_u64() >> 16;
    let mut ops = Vec::new();
    for w in 0..6 {
        for _ in 0..2 {
            ops.push(Op { workload: w, lo: lo(), width: 4, variant: Variant::Flat });
        }
        ops.push(Op { workload: w, lo: lo(), width: 64, variant: Variant::Flat });
    }
    for w in [2, 5] {
        ops.push(Op { workload: w, lo: lo(), width: 256, variant: Variant::Flat });
    }
    for w in [0, 1] {
        ops.push(Op { workload: w, lo: lo(), width: 64, variant: Variant::Hier });
    }
    for w in [2, 5] {
        ops.push(Op { workload: w, lo: lo(), width: 8, variant: Variant::WarpSplit });
    }
    ops
}

pub struct SeedSweep {
    workloads: Vec<Workload>,
    images: Vec<Arc<DecodedImage>>,
    engine: Engine,
    ops: Vec<Op>,
    configs: [SimConfig; 3],
    /// Per operation, each seed's metrics and the engine's counters from
    /// the checked first run; every timed run must repeat both.
    first: Vec<(Vec<Metrics>, SweepStats)>,
}

impl SeedSweep {
    fn cfg(&self, v: Variant) -> &SimConfig {
        &self.configs[v as usize]
    }

    fn sweep(&self, op: &Op) -> Result<(Vec<Metrics>, SweepStats), String> {
        let w = &self.workloads[op.workload];
        let out = self
            .engine
            .sweep_image_range(
                &self.images[op.workload],
                self.cfg(op.variant),
                &w.launch,
                op.lo,
                op.lo + op.width,
                None,
            )
            .map_err(|e| format!("{}: {e}", w.name))?;
        let metrics = out
            .runs
            .into_iter()
            .map(|run| {
                run.result
                    .map(|o| o.metrics)
                    .map_err(|e| format!("{} seed {}: {e}", w.name, run.seed))
            })
            .collect::<Result<_, _>>()?;
        Ok((metrics, out.stats))
    }

    /// A standalone scalar run of one seed.
    fn scalar(
        &self,
        image: &DecodedImage,
        w: &Workload,
        cfg: &SimConfig,
        seed: u64,
    ) -> Result<Metrics, String> {
        let mut launch = w.launch.clone();
        launch.seed = seed;
        run_image(image, cfg, &launch)
            .map(|o| o.metrics)
            .map_err(|e| format!("{} seed {seed}: {e}", w.name))
    }
}

impl Bench for SeedSweep {
    fn setup(seed: u64) -> Self {
        let workloads = workloads();
        let engine = Engine::new(crate::nproc());
        let opts = RepairStrategy::Sr.options();
        let images = workloads
            .iter()
            .map(|w| {
                engine.decoded(&w.module, Some(&opts)).unwrap_or_else(|e| panic!("{}: {e}", w.name))
            })
            .collect();
        let configs = [Variant::Flat.config(), Variant::Hier.config(), Variant::WarpSplit.config()];
        SeedSweep { workloads, images, engine, ops: batch(seed), configs, first: Vec::new() }
    }

    /// Every per-seed result of the first pass must equal a standalone
    /// scalar run of that seed. The 4-wide flat ranges are also run
    /// PDOM-compiled for the simulated SR speed-up.
    fn check(&mut self, r: &mut Report) {
        let pdom_engine = Engine::new(1);
        let pdom_opts = RepairStrategy::Pdom.options();
        let mut pdom_cycles = vec![0u64; self.workloads.len()];
        let mut sr_cycles = vec![0u64; self.workloads.len()];
        let mut sr_effs: Vec<Vec<f64>> = vec![Vec::new(); self.workloads.len()];
        for op in self.ops.clone() {
            r.attempted += 1;
            let w = &self.workloads[op.workload];
            let swept = match self.sweep(&op) {
                Ok(m) => m,
                Err(e) => {
                    r.fail(e);
                    self.first.push(Default::default());
                    continue;
                }
            };
            let cfg = self.cfg(op.variant);
            for (seed, m) in (op.lo..).zip(&swept.0) {
                match self.scalar(&self.images[op.workload], w, cfg, seed) {
                    Ok(s) if &s == m => {}
                    Ok(_) => r.fail(format!(
                        "{} seed {seed}: sweep result differs from a standalone run",
                        w.name
                    )),
                    Err(e) => r.fail(e),
                }
            }
            if op.variant == Variant::Flat && op.width == 4 {
                let pdom = pdom_engine.decoded(&w.module, Some(&pdom_opts)).expect("PDOM compiles");
                for (seed, m) in (op.lo..).zip(&swept.0) {
                    match self.scalar(&pdom, w, cfg, seed) {
                        Ok(p) => pdom_cycles[op.workload] += p.cycles,
                        Err(e) => r.fail(e),
                    }
                    sr_cycles[op.workload] += m.cycles;
                    sr_effs[op.workload].push(m.simt_efficiency());
                }
            }
            self.first.push(swept);
        }
        let speedups: Vec<f64> =
            pdom_cycles.iter().zip(&sr_cycles).map(|(&p, &s)| p as f64 / s.max(1) as f64).collect();
        let effs: Vec<f64> = sr_effs.iter().map(|e| stats::mean(e)).collect();
        r.set("sr_sim_speedup", stats::geomean(&speedups), "ratio");
        r.set("sr_simt_eff", stats::mean(&effs), "ratio");
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer, r: &mut Report) {
        let run = |i: usize, req: u64, tr: &mut Tracer| -> Result<u64, String> {
            let op = &self.ops[i];
            let got = tr.span("eval.sweep_image_range", req, |_| self.sweep(op))?;
            if got != self.first[i] {
                return Err(format!(
                    "{} [{}, +{}): a timed sweep changed its results or counters",
                    self.workloads[op.workload].name, op.lo, op.width
                ));
            }
            Ok(got.0.iter().map(|m| m.issues).sum())
        };
        // One client keeps every CPU busy: the engine has `nproc` jobs.
        let budget = Duration::from_secs_f64(seconds);
        let phase = batch::closed_loop(1, self.ops.len(), budget, tracer, run);
        batch::report(&phase, r);
    }
}
