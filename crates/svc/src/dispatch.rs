//! Priority- and size-aware dispatch.
//!
//! The dispatcher pulls admitted jobs into a priority heap ordered by
//! (priority desc, estimated cost asc, admission order) — urgent work
//! first, and shortest-job-first among equals to keep mean latency down.
//! Cost comes from the paper's §4 flop model, so "size" means modeled
//! work, not just dimension.
//!
//! Jobs whose estimate falls below [`small job threshold`](crate::service::ServiceConfig::small_job_flops)
//! are coalesced into batches handed to a single worker (which fans out
//! with `rayon` internally); large jobs are dispatched alone. This
//! mirrors how SLATE amortizes per-task overhead by batching small tile
//! kernels while letting big trailing updates own their stream.

use crate::job::{JobKind, JobSpec};
use crate::metrics::MetricsRegistry;
use crate::queue::{AdmittedJob, Bounded, PopError, Producer};
use polar_batch::BatchOptions;
use polar_qdwh::{qdwh_flops, zolo_flops, IterationKind, ZoloOptions};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Estimated real flops for a job, used for ordering and batching.
///
/// QDWH is costed at the paper's worst-case iteration profile (3 QR + 3
/// Cholesky) — a deliberate overestimate for well-conditioned inputs so
/// borderline jobs are routed conservatively. QDWH-SVD adds the
/// Hermitian EVD + GEMM stages (~`12 n^3`); the one-sided Jacobi
/// baseline is costed at its typical `O(n^3)` sweep count. Zolo-PD trades
/// flops for iterations: the iterations, by kind, its scalar plan runs from
/// the worst-case interval `[eps, 1]` at the job's degree `zolo_r` (read
/// for [`JobKind::Zolo`] only) — one QR-based and one Cholesky-based at
/// `r = 8`, more and cheaper ones at lower degrees.
pub fn estimate_flops(kind: JobKind, m: usize, n: usize, zolo_r: usize) -> f64 {
    let base = qdwh_flops(n, 3, 3, false);
    let n3 = (n as f64).powi(3);
    // rectangular inputs pay the initial QR reduction on top
    let rect = if m > n { 2.0 * (m as f64) * (n as f64) * (n as f64) } else { 0.0 };
    match kind {
        // the fused engine saves wall time, not modeled flops: cost a
        // Batched job exactly like a scalar QDWH of the same shape
        JobKind::Qdwh | JobKind::Batched => base + rect,
        JobKind::QdwhSvd => base + rect + 12.0 * n3,
        JobKind::SvdPolar => 30.0 * n3 + rect,
        JobKind::Zolo => {
            // 64: no degree needs a tenth of that (an `r` outside 1..=8 plans
            // nothing, and the job is refused when it runs)
            let worst = ZoloOptions { r: zolo_r, max_iterations: 64, ..Default::default() };
            let kinds = worst.planned_kinds(f64::EPSILON).unwrap_or_default();
            let it_qr = kinds.iter().filter(|&&k| k == IterationKind::QrBased).count();
            zolo_flops(n, it_qr, kinds.len() - it_qr, zolo_r, false) + rect
        }
    }
}

/// What a worker receives: one large job, a coalesced batch of small
/// ones (each solved independently), or a shape-homogeneous fused group
/// for the whole-batch engine.
pub(crate) enum WorkItem {
    Single(Box<AdmittedJob>),
    Batch(Vec<AdmittedJob>),
    /// Same-shape [`crate::job::JobKind::Batched`] jobs, solved as one
    /// `polar_batch::qdwh_batched` call.
    Fused(Vec<AdmittedJob>),
}

struct Queued {
    seq: u64,
    priority: u8,
    cost: f64,
    job: AdmittedJob,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: greater = dispatched first.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.cost.total_cmp(&self.cost))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

pub(crate) struct DispatcherConfig {
    pub batch_max: usize,
    pub small_job_flops: f64,
    /// How long an under-full same-shape `Batched` group may wait for
    /// more members before dispatching anyway. `None` (the default)
    /// dispatches immediately, preserving latency-first behavior; a
    /// bounded window trades that first job's latency for fuller fused
    /// batches (higher `batch_fill_ratio`).
    pub batch_gather_window: Option<Duration>,
}

/// Dispatcher thread body: runs until the admission queue is closed and
/// the heap drains, then closes the work queue by dropping its producer
/// (stopping workers).
pub(crate) fn run_dispatcher(
    admission: Arc<Bounded<AdmittedJob>>,
    work: Producer<WorkItem>,
    cfg: DispatcherConfig,
    metrics: Arc<MetricsRegistry>,
) {
    let mut heap: BinaryHeap<Queued> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut closed = false;
    // per-shape deadline for the bounded batch-gathering window: set when
    // an under-full Batched group is first held, cleared when it ships
    let mut gather: HashMap<(usize, usize), Instant> = HashMap::new();

    let push = |heap: &mut BinaryHeap<Queued>, seq: &mut u64, job: AdmittedJob| {
        let spec = &job.spec;
        let (m, n) = (spec.matrix.nrows(), spec.matrix.ncols());
        let cost = estimate_flops(spec.kind, m, n, spec.zolo.r);
        *seq += 1;
        heap.push(Queued { seq: *seq, priority: spec.priority, cost, job });
    };

    loop {
        // pump admissions: block briefly when idle, drain greedily after
        if !closed {
            let mut wait = if heap.is_empty() { Duration::from_millis(5) } else { Duration::ZERO };
            loop {
                match admission.pop(Some(wait)) {
                    Ok(job) => push(&mut heap, &mut seq, job),
                    Err(PopError::Timeout) => break,
                    Err(PopError::Closed) => {
                        closed = true;
                        break;
                    }
                }
                wait = Duration::ZERO;
            }
        }

        if heap.is_empty() {
            if closed {
                break; // nothing queued, nothing can arrive: stop workers
            }
            continue;
        }

        // form the next work item: fuse same-shape Batched jobs, batch
        // small jobs, isolate large ones
        let top = heap.pop().unwrap();
        let item = if top.job.spec.kind == JobKind::Batched {
            let batch_max = cfg.batch_max.max(1);
            let key = (top.job.spec.matrix.nrows(), top.job.spec.matrix.ncols());
            if let Some(window) = cfg.batch_gather_window {
                // count the queued members of top's group (top included);
                // an under-full group waits until its shape's deadline for
                // late arrivals instead of shipping a fragment
                let queued =
                    1 + heap.iter().filter(|q| fuses_with(&top.job.spec, &q.job.spec)).count();
                if queued < batch_max && !closed {
                    let now = Instant::now();
                    let deadline = *gather.entry(key).or_insert(now + window);
                    if now < deadline {
                        heap.push(top);
                        // sleep on the admission queue so the hold
                        // doesn't busy-spin; new arrivals re-enter the
                        // loop immediately
                        let wait = (deadline - now).min(Duration::from_millis(1));
                        match admission.pop(Some(wait)) {
                            Ok(job) => push(&mut heap, &mut seq, job),
                            Err(PopError::Timeout) => {}
                            Err(PopError::Closed) => closed = true,
                        }
                        continue;
                    }
                }
                gather.remove(&key);
            }
            let batch = collect_fused(&mut heap, top, batch_max);
            MetricsRegistry::inc(&metrics.fused_batches);
            metrics.batch_size.record_ns(batch.len() as u64);
            metrics.fused_jobs.fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
            metrics
                .fused_capacity
                .fetch_add(batch_max as u64, std::sync::atomic::Ordering::Relaxed);
            metrics.queue_depth.fetch_sub(batch.len() as i64, std::sync::atomic::Ordering::Relaxed);
            WorkItem::Fused(batch)
        } else if top.cost <= cfg.small_job_flops && cfg.batch_max > 1 {
            let mut batch = vec![top.job];
            while batch.len() < cfg.batch_max {
                match heap.peek() {
                    Some(next) if next.cost <= cfg.small_job_flops => {
                        let q = heap.pop().unwrap();
                        batch.push(q.job);
                    }
                    _ => break,
                }
            }
            if batch.len() > 1 {
                MetricsRegistry::inc(&metrics.batches);
            }
            metrics.queue_depth.fetch_sub(batch.len() as i64, std::sync::atomic::Ordering::Relaxed);
            WorkItem::Batch(batch)
        } else {
            metrics.queue_depth.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
            WorkItem::Single(Box::new(top.job))
        };

        // waits for a free worker: the hand-off holds one item
        let _ = work.push(item, None);
    }
}

/// May `b` ride in the `qdwh_batched` call that solves `a`? Both are
/// [`JobKind::Batched`], share `(rows, cols)` (the service scalar is
/// `f64`, so shape is the whole storage key) and agree on every solver
/// option the engine reads — one option set drives a fused group, so a job
/// fused behind a different one would get that one's answer (no `H` behind
/// a `factor_only` head, another iteration cap or `l_0`).
fn fuses_with(a: &JobSpec, b: &JobSpec) -> bool {
    let shape = |s: &JobSpec| (s.matrix.nrows(), s.matrix.ncols());
    a.kind == JobKind::Batched
        && b.kind == JobKind::Batched
        && shape(a) == shape(b)
        && BatchOptions::same_numerics(&a.opts, &b.opts)
}

/// Pull every queued job that [`fuses_with`] `top` out of the heap, up to
/// `batch_max`. Coalescing deliberately ignores priority inside a group —
/// riding an already-dispatched fused batch is strictly cheaper than
/// waiting for a later slot. Everything else is pushed back untouched.
fn collect_fused(heap: &mut BinaryHeap<Queued>, top: Queued, batch_max: usize) -> Vec<AdmittedJob> {
    let mut batch = vec![top.job];
    let mut rest = Vec::new();
    while batch.len() < batch_max {
        match heap.pop() {
            Some(q) if fuses_with(&batch[0].spec, &q.job.spec) => {
                batch.push(q.job);
            }
            Some(q) => rest.push(q),
            None => break,
        }
    }
    for q in rest {
        heap.push(q);
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_orders_by_size_and_kind() {
        let cost = |kind, m, n| estimate_flops(kind, m, n, 8);
        let small = cost(JobKind::Qdwh, 32, 32);
        let big = cost(JobKind::Qdwh, 256, 256);
        assert!(big > small * 100.0);
        // SVD costs strictly more than PD at the same size
        assert!(cost(JobKind::QdwhSvd, 64, 64) > cost(JobKind::Qdwh, 64, 64));
        // rectangular pays more than square at equal n
        assert!(cost(JobKind::Qdwh, 128, 64) > cost(JobKind::Qdwh, 64, 64));
        // the paper's §4 number at its (3 QR, 3 Cholesky) profile
        let n3 = 64f64.powi(3);
        let paper = 4.0 / 3.0 * n3 + 3.0 * 26.0 / 3.0 * n3 + 3.0 * 13.0 / 3.0 * n3 + 2.0 * n3;
        assert!((cost(JobKind::Qdwh, 64, 64) / paper - 1.0).abs() < 1e-14);
    }

    #[test]
    fn zolo_cost_follows_the_jobs_degree() {
        let zolo = |r| estimate_flops(JobKind::Zolo, 96, 64, r);
        let (n3, rect) = (64f64.powi(3), 2.0 * 96.0 * 64.0 * 64.0);
        let qr_iter = |r: f64| r * (20.0 / 3.0 + 2.0) * n3;
        let chol_iter = |r: f64| n3 + r * (1.0 / 3.0 + 2.0) * n3;
        // r = 8 from [eps, 1]: one QR-based iteration, one Cholesky-based
        assert_eq!(zolo(8), qr_iter(8.0) + chol_iter(8.0) + 2.0 * n3 + rect);
        // r = 2 needs four (QR, QR, Cholesky, Cholesky) and is costed at
        // them: ordered ahead of an r = 8 job, batched with what it costs
        assert_eq!(zolo(2), 2.0 * (qr_iter(2.0) + chol_iter(2.0)) + 2.0 * n3 + rect);
        assert!(zolo(2) < 0.6 * zolo(8));
        assert!(zolo(2) < estimate_flops(JobKind::Qdwh, 96, 64, 2) * 1.2);
        // The cost grows with the degree while the planned kinds stay the
        // same and drops where one more term saves an iteration (r = 4
        // plans QR, QR, Cholesky; r = 5 plans QR, Cholesky, Cholesky): the
        // "2 iterations at any r" this replaced was monotone in r and
        // under-costed every degree below 5.
        assert!(zolo(1) < zolo(2) && zolo(2) < zolo(3) && zolo(3) < zolo(4));
        assert!(zolo(5) < zolo(6) && zolo(6) < zolo(7));
        assert!(zolo(5) < zolo(4) && zolo(8) < zolo(7));
        // an invalid degree costs its epilogue, without panicking
        assert_eq!(zolo(0), 2.0 * n3 + rect);
    }

    #[test]
    fn heap_order_priority_then_cost_then_fifo() {
        use crate::cancel::CancelToken;
        use crate::job::{JobId, JobSpec};
        use polar_matrix::Matrix;
        use std::time::Instant;

        let mk = |seq: u64, priority: u8, cost: f64| {
            let (result_tx, _rx) = std::sync::mpsc::sync_channel(1);
            Queued {
                seq,
                priority,
                cost,
                job: AdmittedJob {
                    id: JobId(seq),
                    spec: JobSpec::qdwh(Matrix::<f64>::zeros(1, 1)),
                    cancel: CancelToken::new(),
                    submitted: Instant::now(),
                    result_tx,
                },
            }
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(1, 0, 10.0));
        heap.push(mk(2, 5, 100.0)); // urgent, expensive
        heap.push(mk(3, 5, 1.0)); // urgent, cheap -> first among urgent
        heap.push(mk(4, 0, 10.0)); // same as seq 1 -> after it (FIFO)
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|q| q.seq)).collect();
        assert_eq!(order, vec![3, 2, 1, 4]);
    }
}
