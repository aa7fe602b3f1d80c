//! The serving kernel: one batch plan, one bit-parallel engine.
//!
//! [`BehaviouralBackend`] answers every query batch with word-parallel
//! kernels over the [`SnapView`] a dispatcher captured for the batch,
//! so online writes landing mid-batch can never tear a word under a
//! running search. Each snapshot block already carries what the
//! kernels read — bit-sliced match planes for exact and range search
//! ([`ferrotcam::BitSlices`], 64 rows per machine word, with early
//! exit once a block is dead; exact search runs both of its steps on
//! them) and the row-major packed words the popcount Hamming kernels
//! scan — so nothing is rebuilt per batch.
//!
//! Energy and latency are attributed, not simulated: the kernel's
//! per-step miss counters feed the SPICE-calibrated Table IV
//! early-termination energy, and the batch plan feeds the modelled bank
//! schedule. The service's sampled audit lane checks the kernel against
//! the scalar oracle in [`crate::reference`] on the same captured view.

use crate::batch;
use crate::request::RequestKind;
use crate::shard::SnapView;
use ferrotcam::approx::{threshold_search, top_k};
use ferrotcam::{ApproxHit, PackedQuery, SearchOutcome};
use ferrotcam_arch::sched::ScheduleOutcome;
use ferrotcam_spice::parallel::par_map;

/// The execution backend a service runs. Single-valued: the
/// behavioural kernel is the only serving path. The type is kept only
/// for callers that set [`crate::ServiceConfig::backend`] explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The bit-parallel behavioural kernel.
    #[default]
    Behavioural,
}

/// One planned batch handed to the kernel: parallel arrays, one entry
/// per job.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec<'a> {
    /// Packed queries (bit queries for exact/threshold/top-k; 2-bit
    /// level queries for range).
    pub queries: &'a [PackedQuery],
    /// What each query asks for.
    pub kinds: &'a [RequestKind],
    /// `None` fans the job out over every shard; `Some(s)` pins it.
    pub targets: &'a [Option<usize>],
    /// Per-job bank-time multiplier from the dispatcher's cost model.
    pub costs: &'a [f64],
}

/// One executed batch: per-job outcomes plus the modelled bank
/// schedule, in batch order.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Per-job merged outcome; matches are global slot ids, ascending.
    pub outcomes: Vec<SearchOutcome>,
    /// Per-job ranked hits for approximate kinds, best-first with ties
    /// toward the lowest global row; empty for exact and range jobs.
    pub hits: Vec<Vec<ApproxHit>>,
    /// Per-job modelled completion time on the bank pool (s).
    pub per_job_latency_s: Vec<f64>,
    /// The batch's bank schedule (utilization, makespan, waits).
    pub sched: ScheduleOutcome,
}

/// Plans a batch onto the banks and runs it. [`BehaviouralBackend`] is
/// the only implementation.
pub trait ExecBackend {
    /// Execute one batch against a captured snapshot view. `jobs` is
    /// the worker-pool width, `t_bank` the modelled per-bank busy time
    /// (s) for a unit-cost query.
    fn execute(
        &self,
        view: &SnapView,
        spec: &BatchSpec<'_>,
        jobs: usize,
        t_bank: f64,
    ) -> ExecResult;
}

/// One job's answer on one shard: counters plus (for approximate
/// kinds) the shard-local ranked hits with *global* row ids.
#[derive(Debug, Clone)]
struct ShardAnswer {
    outcome: SearchOutcome,
    hits: Vec<ApproxHit>,
}

/// Merge-and-rank step after every shard answered: sorts matches
/// globally and applies the kind's final selection (top-k truncation
/// after the cross-shard merge, so the global ranking — not any one
/// shard's — decides).
fn finalize_job(kind: RequestKind, outcome: &mut SearchOutcome, hits: &mut Vec<ApproxHit>) {
    match kind {
        RequestKind::Exact | RequestKind::Range => outcome.matches.sort_unstable(),
        RequestKind::Threshold { .. } => {
            hits.sort_unstable();
            outcome.matches.sort_unstable();
        }
        RequestKind::TopK { k } => {
            hits.sort_unstable();
            hits.truncate(k);
            // Per-shard answers count every examined row as a step-1
            // miss; the kept winners move over to the match column.
            let examined = outcome.step1_misses;
            outcome.matches = hits.iter().map(|h| h.row).collect();
            outcome.matches.sort_unstable();
            outcome.step1_misses = examined - hits.len();
        }
        _ => unreachable!("write kinds never reach the search kernel"),
    }
}

/// The serving kernel. Stateless: every snapshot block already holds
/// its bit-sliced match planes (exact search's step 1 over the
/// even-digit planes, step 2 over the odd-digit planes for a block's
/// step-1 survivors, and the per-cell range expressions) and the packed
/// words the popcount Hamming kernel scans — both maintained
/// incrementally by the copy-on-write shard snapshots, so nothing is
/// transposed per batch and writes never invalidate a kernel-side
/// cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct BehaviouralBackend;

impl ExecBackend for BehaviouralBackend {
    fn execute(
        &self,
        view: &SnapView,
        spec: &BatchSpec<'_>,
        jobs: usize,
        t_bank: f64,
    ) -> ExecResult {
        let shards = view.shard_count();
        let plan = batch::plan(spec.targets, shards);
        // Only the shards with work, in shard order: the merge below
        // absorbs in the same order as over every shard, and a batch
        // that touches one shard runs on this thread (`par_map` spawns
        // no more workers than it has items).
        let busy: Vec<(usize, &[usize])> = plan
            .per_shard
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(s, list)| (s, list.as_slice()))
            .collect();
        let per_shard: Vec<Vec<(usize, ShardAnswer)>> = par_map(&busy, jobs, |_, &(s, list)| {
            list.iter()
                .map(|&j| (j, shard_answer(view, s, spec.kinds[j], &spec.queries[j])))
                .collect()
        });
        let n = spec.targets.len();
        let mut outcomes: Vec<SearchOutcome> = (0..n).map(|_| SearchOutcome::empty()).collect();
        let mut hits: Vec<Vec<ApproxHit>> = (0..n).map(|_| Vec::new()).collect();
        for shard_results in per_shard {
            for (j, ans) in shard_results {
                outcomes[j].absorb(ans.outcome);
                hits[j].extend(ans.hits);
            }
        }
        for j in 0..n {
            finalize_job(spec.kinds[j], &mut outcomes[j], &mut hits[j]);
        }
        let (sched, per_job_latency_s) = plan.schedule_weighted(shards, t_bank, spec.costs);
        ExecResult {
            outcomes,
            hits,
            per_job_latency_s,
            sched,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Kernel calls made on this thread, so a test can tell which
    /// thread ran a batch.
    static KERNEL_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The kernel's answer for one job on shard `s`, with global row ids.
fn shard_answer(view: &SnapView, s: usize, kind: RequestKind, q: &PackedQuery) -> ShardAnswer {
    #[cfg(test)]
    KERNEL_CALLS.with(|n| n.set(n.get() + 1));
    let snap = view.shard(s);
    match kind {
        RequestKind::Exact => {
            let mut outcome = snap.search(q);
            for m in &mut outcome.matches {
                *m = view.global_row(s, *m);
            }
            ShardAnswer {
                outcome,
                hits: Vec::new(),
            }
        }
        RequestKind::Threshold { t } => {
            let mut hits = Vec::new();
            for (base, blk) in snap.blocks() {
                let mut h = threshold_search(blk.packed(), q, t);
                for hit in &mut h {
                    hit.row = view.global_row(s, base + hit.row);
                }
                hits.extend(h);
            }
            let mut outcome = SearchOutcome::empty();
            outcome.matches = hits.iter().map(|h| h.row).collect();
            outcome.step1_misses = snap.rows() - hits.len();
            ShardAnswer { outcome, hits }
        }
        RequestKind::TopK { k } => {
            // One selection across every block: the heap's distance
            // bound carries from block to block, so the copy-on-write
            // layout prunes as hard as a contiguous scan. Local rows
            // scan ascending and global ids are monotone in them, so
            // the (distance, row) tie order is preserved.
            let mut hits = top_k(snap.blocks().map(|(base, blk)| (base, blk.packed())), q, k);
            for hit in &mut hits {
                hit.row = view.global_row(s, hit.row);
            }
            ShardAnswer {
                outcome: SearchOutcome {
                    matches: Vec::new(),
                    step1_misses: snap.rows(),
                    step2_misses: 0,
                },
                hits,
            }
        }
        RequestKind::Range => {
            // Admission rejects odd widths (`Invalid::OddRangeWidth`).
            let mut outcome = SearchOutcome::empty();
            outcome.matches = snap.range_search(q);
            for m in &mut outcome.matches {
                *m = view.global_row(s, *m);
            }
            outcome.step1_misses = snap.rows() - outcome.matches.len();
            ShardAnswer {
                outcome,
                hits: Vec::new(),
            }
        }
        _ => unreachable!("write kinds never reach the search kernel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{LiveTable, ShardedTcam};
    use ferrotcam::TernaryWord;
    use rand::split_mix64;

    fn view(table: &ShardedTcam) -> SnapView {
        LiveTable::from_sharded(table).snapshot()
    }

    fn table(rows: u64, shards: usize, width: usize) -> ShardedTcam {
        let mut t = ShardedTcam::new(width, shards);
        let mut seed = 0xfeed_0000_0000_0000 ^ rows;
        for _ in 0..rows {
            t.store(TernaryWord::from_u64(split_mix64(&mut seed), width));
        }
        t
    }

    fn rand_query(width: usize, seed: &mut u64) -> PackedQuery {
        let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| split_mix64(seed)).collect();
        PackedQuery::from_words(width, &words)
    }

    /// A batch pinned to one shard answers the same with a pool of 8
    /// as serially, and every kernel call runs on the calling thread; a
    /// batch over three shards with the same pool runs on its workers.
    #[test]
    fn a_one_shard_batch_runs_on_the_calling_thread() {
        let t = view(&table(1500, 3, 24));
        let mut seed = 11u64;
        let queries: Vec<PackedQuery> = (0..3).map(|_| rand_query(24, &mut seed)).collect();
        let kinds = [
            RequestKind::Exact,
            RequestKind::Threshold { t: 9 },
            RequestKind::TopK { k: 4 },
        ];
        let costs = [1.0; 3];
        let run = |targets: &[Option<usize>], jobs: usize| {
            let before = KERNEL_CALLS.with(std::cell::Cell::get);
            let spec = BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets,
                costs: &costs,
            };
            let r = BehaviouralBackend.execute(&t, &spec, jobs, 1e-9);
            (r, KERNEL_CALLS.with(std::cell::Cell::get) - before)
        };
        let pinned = [Some(1); 3];
        let (serial, _) = run(&pinned, 1);
        let (pooled, here) = run(&pinned, 8);
        assert_eq!(here, 3, "every kernel call on the calling thread");
        assert_eq!(pooled.outcomes, serial.outcomes);
        assert_eq!(pooled.hits, serial.hits);
        assert_eq!(pooled.per_job_latency_s, serial.per_job_latency_s);
        assert!(
            serial.hits[2].len() == 4 && serial.outcomes[1].matches.len() > 1,
            "the batch has answers to compare"
        );
        let (_, here) = run(&[None, Some(0), Some(2)], 8);
        assert_eq!(here, 0, "three busy shards run on the pool's workers");
    }

    #[test]
    fn weighted_costs_shift_the_batch_schedule() {
        let t = view(&table(64, 2, 16));
        let behav = BehaviouralBackend;
        let queries: Vec<PackedQuery> = {
            let mut seed = 7u64;
            (0..4).map(|_| rand_query(16, &mut seed)).collect()
        };
        let kinds = vec![RequestKind::Exact; 4];
        let targets = vec![Some(0), Some(0), Some(1), Some(1)];
        let unit = vec![1.0; 4];
        let heavy = vec![1.0, 4.0, 1.0, 1.0];
        let a = behav.execute(
            &t,
            &BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &unit,
            },
            1,
            1e-9,
        );
        let b = behav.execute(
            &t,
            &BatchSpec {
                queries: &queries,
                kinds: &kinds,
                targets: &targets,
                costs: &heavy,
            },
            1,
            1e-9,
        );
        assert!(
            b.sched.makespan > a.sched.makespan,
            "cost 4 job stretches the bank"
        );
        assert_eq!(
            a.outcomes[0].matches, b.outcomes[0].matches,
            "costs never change answers"
        );
    }
}
