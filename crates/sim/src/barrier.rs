//! Convergence-barrier and `__syncthreads` semantics of the decoded
//! engine.
//!
//! Barrier registers hold per-warp participation masks (one bit per
//! lane). `Wait` blocks a thread until every live participant of the
//! barrier is blocked on it, then releases them together and clears the
//! register — which is how reconvergence happens. A thread's exit drops
//! it from every mask so barriers never wait on departed threads
//! (Volta's forward-progress guarantee). `__syncthreads` is the separate
//! *correctness* barrier: every live thread of the warp must arrive
//! before any proceeds.
//!
//! Everything here is mask-form: the issued group arrives as a `u64`
//! lane mask, participation updates are single OR/AND-NOT operations,
//! and the warp's incremental `runnable`/`waiting`/`at_sync`/`exited`
//! masks are maintained at each status transition so the scheduler
//! never re-scans thread statuses.
//!
//! These methods live on [`Machine`] from [`crate::exec`]; they are split
//! out because they are the part of the execution model the Speculative
//! Reconvergence passes actually manipulate.

use crate::config::ReconvergenceModel;
use crate::exec::{Machine, Status};
use crate::journal::JournalEvent;
use crate::sched::lanes;
use simt_ir::{BarrierId, BarrierOp, Value};

impl Machine<'_> {
    /// Executes one barrier operation for the issued lane mask.
    pub(crate) fn exec_barrier(&mut self, w: usize, mask: u64, op: BarrierOp) {
        // Pre-Volta hardware has no convergence-barrier register file:
        // under the IPDOM stack model every compiler soft-barrier is an
        // inert op that advances its lanes (the issue cost still
        // accrues — the instruction occupies a slot). Registers stay
        // zero, so `arrived` reads 0, and `wait` never blocks —
        // reconvergence is the stack's job. `__syncthreads` is a
        // separate instruction and keeps its real semantics.
        if matches!(self.cfg.recon, ReconvergenceModel::IpdomStack) {
            let warp = &mut self.warps[w];
            match op {
                BarrierOp::ArrivedCount { dst, .. } => {
                    warp.regs.write_lanes(&mut warp.pcs, mask, dst, |_| Value::I64(0));
                }
                _ => warp.advance_lanes(mask),
            }
            return;
        }
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                self.warps[w].masks[b.index()] |= mask;
                self.warps[w].advance_lanes(mask);
                self.journal_push(JournalEvent::BarrierJoin {
                    cycle: self.cycle,
                    warp: w,
                    barrier: b,
                    mask,
                });
            }
            BarrierOp::Cancel(b) => {
                self.warps[w].masks[b.index()] &= !mask;
                self.warps[w].advance_lanes(mask);
                self.journal_push(JournalEvent::BarrierCancel {
                    cycle: self.cycle,
                    warp: w,
                    barrier: b,
                    mask,
                });
                self.release_check(w, b);
            }
            BarrierOp::Copy { dst, src } => {
                self.warps[w].masks[dst.index()] = self.warps[w].masks[src.index()];
                self.warps[w].advance_lanes(mask);
                self.release_check(w, dst);
            }
            BarrierOp::ArrivedCount { dst, bar } => {
                let warp = &mut self.warps[w];
                let n = warp.masks[bar.index()].count_ones() as i64;
                warp.regs.write_lanes(&mut warp.pcs, mask, dst, |_| Value::I64(n));
            }
            BarrierOp::Wait(b) => {
                // Block at the wait instruction; the PC advances on
                // release.
                let warp = &mut self.warps[w];
                for l in lanes(mask) {
                    warp.threads[l].status = Status::Waiting(b);
                }
                warp.runnable &= !mask;
                warp.waiting |= mask;
                self.journal_push(JournalEvent::BarrierWait {
                    cycle: self.cycle,
                    warp: w,
                    barrier: b,
                    mask,
                });
                self.release_check(w, b);
            }
        }
    }

    /// Releases the `__syncthreads` cohort once every live thread is at
    /// one.
    pub(crate) fn sync_release_check(&mut self, w: usize) {
        let warp = &mut self.warps[w];
        // All live threads are at the sync exactly when nothing is
        // runnable or barrier-blocked and at least one lane arrived.
        if warp.runnable != 0 || warp.waiting != 0 || warp.at_sync == 0 {
            return;
        }
        let releasing = warp.at_sync;
        for l in lanes(releasing) {
            warp.threads[l].status = Status::Runnable;
            warp.pcs[l] += 1;
        }
        warp.at_sync = 0;
        warp.runnable |= releasing;
        self.journal_push(JournalEvent::SyncRelease {
            cycle: self.cycle,
            warp: w,
            mask: releasing,
        });
    }

    /// Releases barrier `b` if every live participant is blocked on it.
    pub(crate) fn release_check(&mut self, w: usize, b: BarrierId) {
        let warp = &mut self.warps[w];
        // Lanes blocked on *this* barrier: scan only the waiting mask
        // (statuses carry which barrier each waiting lane is parked on).
        let mut waiting_b = 0u64;
        for l in lanes(warp.waiting) {
            if warp.threads[l].status == Status::Waiting(b) {
                waiting_b |= 1 << l;
            }
        }
        if waiting_b == 0 {
            return;
        }
        let live = warp.lane_mask & !warp.exited;
        let participants = warp.masks[b.index()] & live;
        if participants & !waiting_b == 0 {
            // Release: all waiting lanes advance past their wait; the
            // barrier register is consumed.
            warp.masks[b.index()] = 0;
            for l in lanes(waiting_b) {
                warp.threads[l].status = Status::Runnable;
                warp.pcs[l] += 1;
            }
            warp.waiting &= !waiting_b;
            warp.runnable |= waiting_b;
            self.journal_push(JournalEvent::BarrierRelease {
                cycle: self.cycle,
                warp: w,
                barrier: b,
                mask: waiting_b,
            });
        }
    }

    /// Drops exited lanes from every barrier and re-checks releases —
    /// the forward-progress rule. The caller has already set each
    /// thread's status to [`Status::Exited`]. Batched over a mask:
    /// releases are monotone in removed participants, so clearing the
    /// whole cohort before one re-check pass releases exactly the
    /// barriers that per-lane processing would.
    pub(crate) fn on_exit_mask(&mut self, w: usize, mask: u64) {
        let warp = &mut self.warps[w];
        warp.runnable &= !mask;
        warp.waiting &= !mask;
        warp.at_sync &= !mask;
        warp.exited |= mask;
        let nb = warp.masks.len();
        for b in 0..nb {
            warp.masks[b] &= !mask;
        }
        for b in 0..nb {
            self.release_check(w, BarrierId::new(b));
        }
        self.sync_release_check(w);
    }
}
