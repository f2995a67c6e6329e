//! `table2-scalar`: the Fig. 7/8 experiment as a fixed batch of scalar
//! runs — the nine Table-2 kernels under PDOM and SR, plus `srad` under
//! PDOM and melding — with the registry launch, flat memory, the
//! barrier file and greedy scheduling. Compilation happens in set-up,
//! so the timed loop is the simulator's scalar hot loop.

use crate::batch;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{stats, Bench, Report};
use simt_sim::{run_image, run_reference, DecodedImage, Metrics, SimConfig};
use specrecon_core::{compile, RepairStrategy};
use std::sync::Arc;
use std::time::Duration;
use workloads::eval::Engine;
use workloads::Workload;

/// One operation of the batch: a workload (launch seed already drawn)
/// compiled under one repair.
#[derive(Clone, Debug)]
pub struct Op {
    pub workload: Workload,
    pub repair: RepairStrategy,
}

/// The batch for `seed`: every kernel's launch seed is drawn from it.
pub fn batch(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut kernels = workloads::registry();
    kernels.push(workloads::srad::build(&workloads::srad::Params::default()));
    let mut ops = Vec::new();
    for w in kernels {
        let w = w.rebind().seed(rng.next_u64()).done();
        let repairs = if w.name == "srad" {
            [RepairStrategy::Pdom, RepairStrategy::Meld]
        } else {
            [RepairStrategy::Pdom, RepairStrategy::Sr]
        };
        for repair in repairs {
            ops.push(Op { workload: w.clone(), repair });
        }
    }
    ops
}

/// Compiles and decodes every operation's kernel on a cold engine.
pub fn images(ops: &[Op]) -> Vec<Arc<DecodedImage>> {
    let engine = Engine::new(1);
    ops.iter()
        .map(|op| {
            engine
                .decoded(&op.workload.module, Some(&op.repair.options()))
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", op.workload.name))
        })
        .collect()
}

pub struct Table2 {
    ops: Vec<Op>,
    images: Vec<Arc<DecodedImage>>,
    cfg: SimConfig,
    /// Each operation's metrics from its checked first run; every timed
    /// run must repeat them exactly.
    first: Vec<Metrics>,
}

impl Bench for Table2 {
    fn setup(seed: u64) -> Self {
        let ops = batch(seed);
        let images = images(&ops);
        Table2 { ops, images, cfg: SimConfig::default(), first: Vec::new() }
    }

    /// The decoded engine must match the tree-walking reference on every
    /// (kernel, repair); its metrics become the expected ones.
    fn check(&mut self, r: &mut Report) {
        let mut pdom = Vec::new();
        let mut sr = Vec::new();
        for (op, image) in self.ops.iter().zip(&self.images) {
            let w = &op.workload;
            let out = run_image(image, &self.cfg, &w.launch);
            let compiled = compile(&w.module, &op.repair.options()).map(|c| c.module);
            let reference = compiled
                .map_err(|e| e.to_string())
                .and_then(|m| run_reference(&m, &self.cfg, &w.launch).map_err(|e| e.to_string()));
            r.attempted += 1;
            match (out, reference) {
                (Ok(o), Ok(rf)) if o.metrics == rf.metrics && o.global_mem == rf.global_mem => {
                    if w.name != "srad" {
                        match op.repair {
                            RepairStrategy::Pdom => pdom.push(o.metrics.clone()),
                            _ => sr.push(o.metrics.clone()),
                        }
                    }
                    self.first.push(o.metrics);
                }
                (o, rf) => {
                    r.fail(format!(
                        "{} {}: decoded engine {:?} != reference {:?}",
                        w.name,
                        op.repair.spec(),
                        o.map(|o| o.metrics.cycles),
                        rf.map(|o| o.metrics.cycles)
                    ));
                    self.first.push(Metrics::default());
                }
            }
        }
        let speedups: Vec<f64> =
            pdom.iter().zip(&sr).map(|(p, s)| p.cycles as f64 / s.cycles as f64).collect();
        let effs: Vec<f64> = sr.iter().map(Metrics::simt_efficiency).collect();
        r.set("sr_sim_speedup", stats::geomean(&speedups), "ratio");
        r.set("sr_simt_eff", stats::mean(&effs), "ratio");
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer, r: &mut Report) {
        let run = |op: usize, req: u64, tr: &mut Tracer| -> Result<u64, String> {
            let w = &self.ops[op].workload;
            let out = tr
                .span("exec.run_image", req, |_| run_image(&self.images[op], &self.cfg, &w.launch))
                .map_err(|e| format!("{}: {e}", w.name))?;
            if out.metrics != self.first[op] {
                return Err(format!(
                    "{} {}: a timed run changed its metrics",
                    w.name,
                    self.ops[op].repair.spec()
                ));
            }
            Ok(out.metrics.issues)
        };
        // `nproc` clients: on a shared host one vCPU can run a third
        // slower than another for minutes at a time, and a measurement
        // spread over all of them shifts far less than one confined to a
        // single thread.
        let budget = Duration::from_secs_f64(seconds);
        let phase = batch::closed_loop(crate::nproc(), self.ops.len(), budget, tracer, run);
        batch::report(&phase, r);
    }
}
