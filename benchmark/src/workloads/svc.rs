//! Jobs through `polar-svc`: a closed loop of waves and an open loop of
//! Poisson arrivals, over the same small-matrix pool.

use crate::check;
use crate::rng::Rng;
use crate::spans::Recorder;
use polar_batch::{qdwh_batched, BatchEntry, BatchOptions, CondestCache};
use polar_gen::{generate, MatrixSpec, SigmaDistribution};
use polar_matrix::Matrix;
use polar_svc::{JobError, JobHandle, JobOutput, JobResult, JobSpec, PolarService, ServiceConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every `CHECK_EVERY`-th small job gets the full accuracy check (all get
/// the `Ok` + finite-entries check; every large job gets the full one).
const CHECK_EVERY: usize = 16;

#[derive(Debug, Clone)]
pub struct SvcSpec {
    /// Small jobs: `small_n × small_n` f64, κ = `small_cond`, submitted
    /// as `JobKind::Batched` with the condition hint attached.
    pub small_n: usize,
    pub small_cond: f64,
    /// Distinct small matrices generated in set-up; jobs cycle through.
    pub pool: usize,
    /// Jobs per wave (closed loop) and the service's `batch_max`.
    pub wave: usize,
    pub warmup_waves: usize,
    pub workers: usize,
    /// Large jobs (open loop only): `JobKind::Qdwh`, `big_n × big_n`.
    pub big_n: usize,
    pub big_cond: f64,
    pub big_pool: usize,
    /// Frozen arrival rate of the small jobs of the open loop, and the
    /// frozen mean period of its large jobs.
    pub rate_per_s: f64,
    pub big_period_s: f64,
    /// Frozen latency limits of a small and of a large job, for
    /// `slo_ok_share`.
    pub small_slo_ms: f64,
    pub big_slo_ms: f64,
    /// Jobs unfinished this long after the last due time count as failed.
    pub drain_s: f64,
    pub tol: f64,
}

/// A started, warmed-up service with its input pools.
pub struct SvcState {
    pub svc: PolarService,
    pub small: Vec<Matrix<f64>>,
    pub big: Vec<Matrix<f64>>,
    pub gen_s: f64,
}

/// The service counters a stint is charged with (after − before).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub fused_batches: u64,
    pub fused_jobs: u64,
    pub fused_capacity: u64,
    pub condest_hits: u64,
    pub condest_misses: u64,
    pub rejected: u64,
    pub retries: u64,
}

impl Counters {
    fn read(svc: &PolarService) -> Self {
        let m = svc.metrics();
        Counters {
            fused_batches: m.fused_batches,
            fused_jobs: m.fused_jobs,
            fused_capacity: m.fused_capacity,
            condest_hits: m.condest_hits,
            condest_misses: m.condest_misses,
            rejected: m.rejected_full,
            retries: m.retries,
        }
    }

    fn since(self, before: Counters) -> Self {
        Counters {
            fused_batches: self.fused_batches - before.fused_batches,
            fused_jobs: self.fused_jobs - before.fused_jobs,
            fused_capacity: self.fused_capacity - before.fused_capacity,
            condest_hits: self.condest_hits - before.condest_hits,
            condest_misses: self.condest_misses - before.condest_misses,
            rejected: self.rejected - before.rejected,
            retries: self.retries - before.retries,
        }
    }
}

/// Everything one stint of jobs produced. Latencies are caller-observed:
/// submit (closed loop) or due time (open loop) to result in hand.
#[derive(Debug, Default)]
pub struct SvcOutcome {
    pub latency_ms: Vec<f64>,
    pub small_ms: Vec<f64>,
    pub big_ms: Vec<f64>,
    /// `JobResult.wait` / `.run` of every finished job.
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    /// Wall of the submit call, per job.
    pub submit_us: Vec<f64>,
    /// Closed loop: wall of each wave.
    pub wave_s: Vec<f64>,
    /// Open loop: how late the generator sent each job.
    pub lateness_ms: Vec<f64>,
    /// Open loop: jobs admitted but unfinished at the last due time.
    pub backlog_end: usize,
    /// The timed window: sum of wave walls, or schedule start to last
    /// result.
    pub window_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub within_slo: usize,
    pub flops: f64,
    pub orth_max: f64,
    pub backward_max: f64,
    pub counters: Counters,
}

impl SvcOutcome {
    /// Pool another segment's outcome into this one.
    pub fn absorb(&mut self, other: SvcOutcome) {
        self.latency_ms.extend(other.latency_ms);
        self.small_ms.extend(other.small_ms);
        self.big_ms.extend(other.big_ms);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.run_ms.extend(other.run_ms);
        self.submit_us.extend(other.submit_us);
        self.wave_s.extend(other.wave_s);
        self.lateness_ms.extend(other.lateness_ms);
        self.backlog_end += other.backlog_end;
        self.window_s += other.window_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.within_slo += other.within_slo;
        self.flops += other.flops;
        self.orth_max = self.orth_max.max(other.orth_max);
        self.backward_max = self.backward_max.max(other.backward_max);
        // counters describe one service instance; a pooled outcome keeps
        // none (only single-stint traced runs read them)
        self.counters = Counters::default();
    }
}

fn matrix(n: usize, cond: f64, seed: u64) -> Matrix<f64> {
    generate::<f64>(&MatrixSpec { m: n, n, cond, distribution: SigmaDistribution::Geometric, seed })
        .0
}

fn small_job(spec: &SvcSpec, a: &Matrix<f64>) -> JobSpec {
    JobSpec::batched(a.clone()).with_cond_hint(spec.small_cond)
}

/// Set-up: generate the pools from the seed, start the service, warm it
/// with a few waves (and every large matrix once, when the workload has
/// large jobs).
pub fn setup(spec: &SvcSpec, seed: u64, with_big: bool, rec: &Recorder) -> SvcState {
    let t = Instant::now();
    let (small, big) = rec.within("gen.generate", None, 0, || {
        let mut seeds = Rng::stream(seed, "svc.small");
        let small: Vec<_> = (0..spec.pool)
            .map(|_| matrix(spec.small_n, spec.small_cond, seeds.next_u64()))
            .collect();
        let mut seeds = Rng::stream(seed, "svc.big");
        let big: Vec<_> = (0..if with_big { spec.big_pool } else { 0 })
            .map(|_| matrix(spec.big_n, spec.big_cond, seeds.next_u64()))
            .collect();
        (small, big)
    });
    let gen_s = t.elapsed().as_secs_f64();

    let svc = PolarService::start(ServiceConfig {
        workers: spec.workers,
        queue_capacity: (spec.wave * 8).max(64),
        batch_max: spec.wave,
        ..Default::default()
    });
    for w in 0..spec.warmup_waves {
        let jobs = wave_jobs(spec, &small, w);
        for h in svc.submit_batch(jobs).expect("warm-up wave admitted") {
            h.wait().output.expect("warm-up job succeeds");
        }
    }
    for a in &big {
        let h = svc.try_submit(JobSpec::qdwh(a.clone())).expect("warm-up job admitted");
        h.wait().output.expect("warm-up large job succeeds");
    }
    SvcState { svc, small, big, gen_s }
}

/// The pool indices wave `w` carries.
fn wave_indices(spec: &SvcSpec, w: usize) -> impl Iterator<Item = usize> + '_ {
    (0..spec.wave).map(move |k| (w * spec.wave + k) % spec.pool)
}

fn wave_jobs(spec: &SvcSpec, small: &[Matrix<f64>], w: usize) -> Vec<JobSpec> {
    wave_indices(spec, w).map(|i| small_job(spec, &small[i])).collect()
}

/// What is kept of a finished job's output.
enum Outcome {
    /// Everything, for the full accuracy check (or to report the error).
    Kept(Result<JobOutput, JobError>),
    /// The cheap check's verdict; the factors are already dropped, so a
    /// long run does not hold every output it ever received.
    Reduced { finite: bool, flops: f64 },
}

/// A finished job as the caller saw it.
struct Done {
    /// Position in the stint (wave-major, or schedule order).
    index: usize,
    /// Pool index of its input, and whether it is a large job.
    input: usize,
    big: bool,
    start: Instant,
    submitted: Instant,
    end: Instant,
    queue_wait: Duration,
    run: Duration,
    outcome: Outcome,
}

impl Done {
    /// Every large job and every `CHECK_EVERY`-th job keeps its output for
    /// the full check; the rest are reduced to the cheap check here.
    fn outcome(index: usize, big: bool, output: Result<JobOutput, JobError>) -> Outcome {
        match output {
            Ok(JobOutput::Polar(pd)) if !big && !index.is_multiple_of(CHECK_EVERY) => {
                Outcome::Reduced { finite: check::finite(&pd), flops: pd.info.flops_estimate }
            }
            other => Outcome::Kept(other),
        }
    }
}

/// Folds finished jobs into an outcome: failure accounting, latency
/// lists, spans, and — outside any timed region — the output checks.
struct Accountant<'a> {
    spec: &'a SvcSpec,
    state: &'a SvcState,
    spot: Rng,
    rec: &'a Recorder,
}

impl Accountant<'_> {
    fn account(&mut self, out: &mut SvcOutcome, done: Done, op: u64) {
        let rec = self.rec;
        let latency_ms = done.end.duration_since(done.start).as_secs_f64() * 1e3;
        let root = rec.record("op.job", None, op, rec.ns_of(done.start), rec.ns_of(done.end));
        let submitted_ns = rec.ns_of(done.submitted);
        rec.record("svc.submit", root, op, rec.ns_of(done.start), submitted_ns);
        let wait = rec.record("svc.wait", root, op, submitted_ns, rec.ns_of(done.end));
        let started_ns = submitted_ns + done.queue_wait.as_nanos() as u64;
        rec.record("svc.queue", wait, op, submitted_ns, started_ns);
        rec.record("svc.run", wait, op, started_ns, started_ns + done.run.as_nanos() as u64);

        out.latency_ms.push(latency_ms);
        if done.big { &mut out.big_ms } else { &mut out.small_ms }.push(latency_ms);
        out.queue_wait_ms.push(done.queue_wait.as_secs_f64() * 1e3);
        out.run_ms.push(done.run.as_secs_f64() * 1e3);

        let correct = match &done.outcome {
            Outcome::Reduced { finite, flops } => {
                out.flops += flops;
                *finite
            }
            Outcome::Kept(Ok(JobOutput::Polar(pd))) => {
                out.flops += pd.info.flops_estimate;
                let pool = if done.big { &self.state.big } else { &self.state.small };
                let (acc, ok) = rec.within("check.accuracy", root, op, || {
                    check::accuracy(&pool[done.input], pd, self.spec.tol, &mut self.spot)
                });
                out.orth_max = out.orth_max.max(acc.orth);
                out.backward_max = out.backward_max.max(acc.backward);
                if !ok {
                    eprintln!("job {op} is outside the tolerance {:e}: {acc:?}", self.spec.tol);
                }
                ok
            }
            Outcome::Kept(Ok(JobOutput::Svd(_))) => false,
            Outcome::Kept(Err(e)) => {
                eprintln!("job {op} failed: {e}");
                false
            }
        };
        if !correct {
            out.failed += 1;
        } else if latency_ms <= if done.big { self.spec.big_slo_ms } else { self.spec.small_slo_ms }
        {
            out.within_slo += 1;
        }
    }
}

/// Closed loop, one caller: send a wave of `spec.wave` jobs with
/// `submit_batch`, wait for all of them, then send the next, until the
/// wave walls add up to `budget_s` (at least `min_waves`).
pub fn wave_stint(
    spec: &SvcSpec,
    state: &SvcState,
    budget_s: f64,
    min_waves: usize,
    seed: u64,
    rec: &Recorder,
    op_base: u64,
) -> SvcOutcome {
    let mut out = SvcOutcome::default();
    let mut accountant = Accountant { spec, state, spot: Rng::stream(seed, "svc.spot"), rec };
    let before = Counters::read(&state.svc);
    // continue the pool cycle where the warm-up left it
    let mut w = spec.warmup_waves;
    while out.window_s < budget_s || out.wave_s.len() < min_waves {
        let jobs = wave_jobs(spec, &state.small, w);
        let start = Instant::now();
        let handles =
            std::hint::black_box(state.svc.submit_batch(jobs)).expect("wave admitted: queue sized");
        let submitted = Instant::now();
        let finished: Vec<(Instant, JobResult)> = handles
            .into_iter()
            .map(|h| {
                let r = h.wait();
                (Instant::now(), r)
            })
            .collect();
        let end = finished.last().map_or(submitted, |(t, _)| *t);
        let wave_s = end.duration_since(start).as_secs_f64();
        out.window_s += wave_s;
        out.wave_s.push(wave_s);

        // clock stopped: accounting and checks. Job k's share of the
        // submit call is its slice of the loop inside `submit_batch`.
        let slice = submitted.duration_since(start) / spec.wave as u32;
        for (k, (input, (end, result))) in wave_indices(spec, w).zip(finished).enumerate() {
            let index = out.attempted;
            out.attempted += 1;
            out.submit_us.push(slice.as_secs_f64() * 1e6);
            let done = Done {
                index,
                input,
                big: false,
                start: start + slice * k as u32,
                submitted: start + slice * (k as u32 + 1),
                end,
                queue_wait: result.wait,
                run: result.run,
                outcome: Done::outcome(index, false, result.output),
            };
            accountant.account(&mut out, done, op_base + index as u64);
        }
        w += 1;
    }
    out.counters = Counters::read(&state.svc).since(before);
    out
}

/// The same waves handed straight to `qdwh_batched` on the calling thread
/// (hinted entries, warm shared cache — what the service's worker does
/// with a full wave), as many as fit in `budget_s`, at most `max_waves`.
/// Returns each call's wall; `1 − direct ÷ service` is what the service
/// adds around the engine.
pub fn direct_waves(
    spec: &SvcSpec,
    state: &SvcState,
    budget_s: f64,
    max_waves: usize,
    rec: &Recorder,
) -> Vec<f64> {
    let opts = BatchOptions {
        condest_cache: Some(std::sync::Arc::new(CondestCache::new())),
        ..Default::default()
    };
    let entries = |w: usize| -> Vec<BatchEntry<f64>> {
        wave_indices(spec, w)
            .map(|i| BatchEntry::with_cond_hint(state.small[i].clone(), spec.small_cond))
            .collect()
    };
    qdwh_batched(&mut entries(0), &opts).expect("direct warm-up wave converges");
    let mut walls = Vec::new();
    let mut spent = 0.0;
    while walls.len() < max_waves && (spent < budget_s || walls.len() < 3) {
        let mut wave = entries(spec.warmup_waves + walls.len());
        let span = rec.open("batch.qdwh_batched", None, 0);
        let t = Instant::now();
        let infos = std::hint::black_box(qdwh_batched(&mut wave, &opts));
        let dt = t.elapsed().as_secs_f64();
        rec.close(span);
        infos.expect("direct wave converges");
        spent += dt;
        walls.push(dt);
    }
    walls
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub big: bool,
    /// Index into the small or the large pool.
    pub input: usize,
}

/// Due times of the large jobs in a window of `seconds`: a Poisson
/// process at one job per `period_s`, stratified. Every window of one
/// length holds the same number of large jobs (`seconds ÷ period_s`,
/// rounded; drawn freely the count alone — 36 ± 6 in twelve seconds —
/// moved p95 by more than any bound), and the gaps between them are the
/// exponential distribution's quantile midpoints in seeded random order,
/// so the short gaps of a Poisson process — the next large job arriving
/// while the previous one still holds the pool, which is what stalls the
/// small jobs — occur equally often under every seed. The seed decides
/// where in the window they fall.
fn big_due_times(period_s: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let count = ((seconds / period_s).round() as usize).max(1);
    // `count` arrivals have `count − 1` gaps between them; one mean gap is
    // left over, split at random between the lead-in and the tail
    let slack = seconds / count as f64;
    let inner = count - 1;
    let mut gaps: Vec<f64> =
        (0..inner).map(|k| -(1.0 - (k as f64 + 0.5) / inner as f64).ln()).collect();
    let scale = (seconds - slack) / gaps.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    for k in (1..inner).rev() {
        gaps.swap(k, rng.below(k + 1));
    }
    let mut due_s = rng.next_f64() * slack;
    let mut due = vec![due_s];
    for gap in gaps {
        due_s += gap * scale;
        due.push(due_s);
    }
    due
}

/// Small jobs arrive as a Poisson process at `spec.rate_per_s`, large
/// jobs as [`big_due_times`] places them. A pure function of the seed.
pub fn schedule(spec: &SvcSpec, seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut gaps = Rng::stream(seed, "svc.arrivals");
    let mut inputs = Rng::stream(seed, "svc.inputs");
    let mut arrivals = Vec::new();
    let mut due_s = gaps.exp_gap_s(spec.rate_per_s);
    while due_s < seconds {
        arrivals.push(Arrival { due_s, big: false, input: inputs.below(spec.pool) });
        due_s += gaps.exp_gap_s(spec.rate_per_s);
    }
    let big = &mut Rng::stream(seed, "svc.big_arrivals");
    for due_s in big_due_times(spec.big_period_s, seconds, big) {
        arrivals.push(Arrival { due_s, big: true, input: big.below(spec.big_pool) });
    }
    arrivals.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    arrivals
}

/// A job sent and not yet seen to finish.
struct Pending {
    index: usize,
    input: usize,
    big: bool,
    due: Instant,
    submitted: Instant,
    handle: JobHandle,
}

/// Open loop: a single generator thread sends each job of the seeded
/// schedule with `try_submit` at its due time, whether or not earlier
/// jobs finished; a collector thread notes when each result arrives.
/// Latency counts from the due time, so a stalled generator or a refused
/// submission is charged to the system, not hidden.
pub fn open_stint(
    spec: &SvcSpec,
    state: &SvcState,
    seconds: f64,
    seed: u64,
    rec: &Recorder,
    op_base: u64,
) -> SvcOutcome {
    let arrivals = schedule(spec, seed, seconds);
    let mut out = SvcOutcome { attempted: arrivals.len(), ..Default::default() };
    let before = Counters::read(&state.svc);
    let (tx, rx) = mpsc::channel::<Pending>();
    let t0 = Instant::now();

    let (finished, backlog_end, last_end) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, spec.drain_s));
        let mut refused = 0usize;
        for (index, arrival) in arrivals.iter().enumerate() {
            let job = if arrival.big {
                JobSpec::qdwh(state.big[arrival.input].clone())
            } else {
                small_job(spec, &state.small[arrival.input])
            };
            let due = t0 + Duration::from_secs_f64(arrival.due_s);
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let sent = Instant::now();
            out.lateness_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            match state.svc.try_submit(job) {
                Ok(handle) => {
                    let submitted = Instant::now();
                    out.submit_us.push(submitted.duration_since(sent).as_secs_f64() * 1e6);
                    let pending = Pending {
                        index,
                        input: arrival.input,
                        big: arrival.big,
                        due,
                        submitted,
                        handle,
                    };
                    tx.send(pending).expect("collector outlives the generator");
                }
                Err(e) => {
                    eprintln!("job {index} refused: {e}");
                    refused += 1;
                }
            }
        }
        let m = state.svc.metrics();
        let backlog_end = (m.queue_depth + m.in_flight) as usize;
        drop(tx);
        let (finished, last_end) = collector.join().expect("collector thread panicked");
        out.failed += refused;
        (finished, backlog_end, last_end)
    });

    out.backlog_end = backlog_end;
    out.window_s = last_end.duration_since(t0).as_secs_f64().max(seconds);
    // refused jobs were counted above; the rest of the shortfall never
    // finished within the drain limit
    let sent = out.submit_us.len();
    out.failed += sent - finished.len();
    let mut accountant = Accountant { spec, state, spot: Rng::stream(seed, "svc.spot"), rec };
    for done in finished {
        let op = op_base + done.index as u64;
        accountant.account(&mut out, done, op);
    }
    out.counters = Counters::read(&state.svc).since(before);
    out
}

/// Collector thread body: poll every outstanding handle, stamping the
/// moment a result is first seen. Returns the finished jobs in schedule
/// order and the time of the last result. Gives up `drain_s` after the
/// generator hung up.
fn collect(rx: mpsc::Receiver<Pending>, drain_s: f64) -> (Vec<Done>, Instant) {
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut finished: Vec<Done> = Vec::new();
    let mut last_end = Instant::now();
    let mut hung_up: Option<Instant> = None;
    loop {
        loop {
            match rx.try_recv() {
                Ok(p) => outstanding.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    hung_up.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        let mut progressed = false;
        let mut i = 0;
        while i < outstanding.len() {
            match outstanding[i].handle.try_wait() {
                Some(result) => {
                    let end = Instant::now();
                    let p = outstanding.swap_remove(i);
                    last_end = end;
                    progressed = true;
                    finished.push(Done {
                        index: p.index,
                        input: p.input,
                        big: p.big,
                        // latency counts from the due time; the lateness
                        // of the generator shows as a long `svc.submit`
                        start: p.due,
                        submitted: p.submitted,
                        end,
                        queue_wait: result.wait,
                        run: result.run,
                        outcome: Done::outcome(p.index, p.big, result.output),
                    });
                }
                None => i += 1,
            }
        }
        match hung_up {
            Some(_) if outstanding.is_empty() => break,
            Some(t) if t.elapsed().as_secs_f64() > drain_s => {
                eprintln!(
                    "{} jobs unfinished {drain_s} s after the last due time",
                    outstanding.len()
                );
                break;
            }
            _ => {}
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    finished.sort_by_key(|d| d.index);
    (finished, last_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let spec = crate::workloads::svc_spec(false, 2);
        let a = schedule(&spec, 11, 5.0);
        assert_eq!(a, schedule(&spec, 11, 5.0));
        assert_ne!(a, schedule(&spec, 12, 5.0));
        // ~ rate × seconds arrivals in due order
        let expected = spec.rate_per_s * 5.0;
        assert!((a.len() as f64 - expected).abs() < 0.1 * expected, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.last().unwrap().due_s < 5.0);
        assert!(a.iter().all(|x| x.input < if x.big { spec.big_pool } else { spec.pool }));
        // a window shorter than the period still holds one large job
        assert_eq!(schedule(&spec, 11, 0.3).iter().filter(|x| x.big).count(), 1);
    }

    #[test]
    fn every_seed_draws_the_same_large_job_gaps() {
        let spec = crate::workloads::svc_spec(false, 2);
        let gaps = |seed: u64| -> Vec<f64> {
            let due: Vec<f64> =
                schedule(&spec, seed, 4.0).iter().filter(|x| x.big).map(|x| x.due_s).collect();
            assert_eq!(due.len(), 5);
            assert!(due[0] >= 0.0 && *due.last().unwrap() < 4.0);
            let mut gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
            gaps.sort_by(f64::total_cmp);
            gaps
        };
        let reference = gaps(1);
        // 4 s at one large job per 0.8 s: exponential quantile midpoints at
        // 1/8, 3/8, 5/8, 7/8, scaled to 3.2 s. The shortest gap is well
        // inside the quarter second one large job takes: they collide.
        assert!((reference[0] - 0.1166).abs() < 1e-3, "{reference:?}");
        assert!((reference.iter().sum::<f64>() - 3.2).abs() < 1e-9);
        for seed in 2..20 {
            let g = gaps(seed);
            assert!(g.iter().zip(&reference).all(|(x, y)| (x - y).abs() < 1e-9), "{g:?}");
        }
        // the order of the gaps does depend on the seed
        let order = |seed: u64| -> Vec<f64> {
            let due: Vec<f64> =
                schedule(&spec, seed, 4.0).iter().filter(|x| x.big).map(|x| x.due_s).collect();
            due.windows(2).map(|w| w[1] - w[0]).collect()
        };
        assert!((2..20).any(|seed| order(seed)[0] != order(1)[0]));
    }
}
