//! The closed-loop runner shared by the two batch workloads.

use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Simulated warp-issues of the operations that succeeded.
    pub issues: u64,
    pub ops: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Host CPU seconds the whole process used during the phase.
    pub cpu_s: f64,
    /// Reasons for failed operations (errors and wrong outputs).
    pub errors: Vec<String>,
}

/// Runs the `n_ops` operations of a batch in order, over and over, from
/// `clients` threads, each sending its next operation only when the
/// previous one completed. `run(op, req, tracer)` executes one operation
/// and returns the simulated warp-issues it did, or why it failed.
///
/// One client runs whole passes until `budget` has passed (at least
/// three). Several clients start at staggered offsets and stop at the
/// budget.
pub fn closed_loop<F>(
    clients: usize,
    n_ops: usize,
    budget: Duration,
    tracer: &mut Tracer,
    run: F,
) -> Phase
where
    F: Fn(usize, u64, &mut Tracer) -> Result<u64, String> + Sync,
{
    let start = Instant::now();
    let cpu_start = crate::cpu_s();
    let run = &run;
    let results: Vec<(Phase, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                let mut tr = tracer.sibling();
                s.spawn(move || {
                    let mut ph = Phase::default();
                    let mut req = (c as u64) << 40;
                    let mut pass = 0u64;
                    'passes: loop {
                        for k in 0..n_ops {
                            if clients > 1 && start.elapsed() >= budget {
                                break 'passes;
                            }
                            let op = (k + c * n_ops / clients.max(1)) % n_ops;
                            let r = run(op, req, &mut tr);
                            req += 1;
                            ph.ops += 1;
                            match r {
                                Ok(issues) => ph.issues += issues,
                                Err(e) => {
                                    ph.failed += 1;
                                    ph.errors.push(e);
                                }
                            }
                        }
                        pass += 1;
                        if clients == 1 && pass >= 3 && start.elapsed() >= budget {
                            break;
                        }
                    }
                    (ph, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        cpu_s: crate::cpu_s() - cpu_start,
        ..Phase::default()
    };
    for (ph, tr) in results {
        all.issues += ph.issues;
        all.ops += ph.ops;
        all.failed += ph.failed;
        all.errors.extend(ph.errors);
        tracer.absorb(tr);
    }
    all
}

/// Records the end-to-end metrics of a batch workload's phase.
pub fn report(ph: &Phase, r: &mut crate::Report) {
    r.set("sim_issues_per_s", ph.issues as f64 / ph.elapsed_s, "issues/s");
    r.set("cpu_us_per_op", ph.cpu_s * 1e6 / ph.ops as f64, "us");
    r.attempted += ph.ops;
    r.failed += ph.failed;
    r.mismatches.extend(ph.errors.iter().take(8).cloned());
}
