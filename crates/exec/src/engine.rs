//! The campaign engine: fingerprint, dedup, cache-probe, execute in
//! parallel, merge in input order — with crash-safe journaling and a
//! retry/timeout/quarantine failure policy.

use crate::cache::{CacheError, CacheLoad, DiskCache};
use crate::chaos::IoFaultShim;
use crate::fingerprint::{campaign_fingerprint, Fingerprint};
use crate::journal::{Journal, JournalRecord, Replay};
use crate::json::Json;
use crate::policy::{parse_timeout_panic, RetryPolicy};
use crate::pool;
use cfd_core::CancelToken;
use cfd_obs::{ArgValue, EventLog, Level, MetricsRegistry, TraceLog};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A unit of work a campaign submits to the [`Engine`].
///
/// Implementors live in the crates that own the domain types: the bench
/// crate defines lint jobs, the harden crate defines fault-trial jobs,
/// and this crate ships the common simulation/profiling jobs
/// ([`SimJob`](crate::SimJob), [`ProfileJob`](crate::ProfileJob),
/// [`FuncJob`](crate::FuncJob)).
///
/// The contract that makes parallel sweeps deterministic and cacheable:
///
/// * [`execute`](CampaignJob::execute) must be a pure function of the
///   job's content — no ambient state, no randomness beyond seeds carried
///   in the job itself;
/// * [`fingerprint`](CampaignJob::fingerprint) must cover everything
///   `execute` reads (two jobs with equal fingerprints are required to
///   produce identical outputs, because the engine deduplicates them);
/// * the JSON codec must round-trip exactly:
///   `result_from_json(parse(result_to_json(out)))` reproduces `out`.
///   All repo results are integer counters, so exact round-tripping is a
///   matter of not inventing floats.
pub trait CampaignJob: Send + Sync {
    /// What the job produces.
    type Output: Clone + Send;

    /// Cache namespace (e.g. `"sim"`), checked on cache load so two job
    /// types can never mis-decode each other's entries.
    fn kind(&self) -> &'static str;

    /// Content fingerprint covering every input `execute` depends on.
    fn fingerprint(&self) -> Fingerprint;

    /// Human-readable label, stored in cache entries for debuggability.
    fn describe(&self) -> String;

    /// Runs the job. May panic; the engine isolates panics into
    /// [`JobError::Panicked`] without killing the sweep.
    fn execute(&self) -> Self::Output;

    /// Runs the job under a cancellation token carrying the campaign's
    /// deterministic cycle budget. Jobs that drive a simulated core
    /// should thread `cancel` into the sim loop and raise
    /// [`timeout_panic`](crate::policy::timeout_panic) on budget
    /// exhaustion; the default ignores the token (jobs with no cycle
    /// notion cannot time out).
    fn execute_cancellable(&self, cancel: &CancelToken) -> Self::Output {
        let _ = cancel;
        self.execute()
    }

    /// Serializes a result as a complete JSON document.
    fn result_to_json(out: &Self::Output) -> String;

    /// Rebuilds a result from a parsed cache entry. Takes `&self` so
    /// fields that cannot live in the cache (e.g. `&'static str` names)
    /// are reconstructed from the job itself. `None` rejects the entry
    /// (treated as a cache miss).
    fn result_from_json(&self, v: &Json) -> Option<Self::Output>;
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload is the panic message. The sweep
    /// continues — a poisoned simulation is a failed row, not a dead
    /// campaign.
    Panicked(String),
    /// The job exhausted its deterministic cycle budget and was killed
    /// cooperatively by the sim loop.
    Timeout {
        /// The budget that was exceeded, in simulated cycles.
        budget_cycles: u64,
    },
    /// The job is in the poisoned-job ledger (it failed every attempt of
    /// an earlier session) and was skipped instead of re-executed.
    Quarantined {
        /// Failed attempts on record when it was poisoned.
        strikes: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Timeout { budget_cycles } => {
                write!(f, "job exceeded its cycle budget of {budget_cycles}")
            }
            JobError::Quarantined { strikes } => {
                write!(f, "job quarantined after {strikes} failed attempts")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Whether to consult/populate the on-disk result cache.
    pub use_cache: bool,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Retry/timeout/quarantine policy (default: everything off).
    pub policy: RetryPolicy,
    /// Resume an interrupted campaign: replay the journal instead of
    /// truncating it, honour its quarantine ledger, and re-execute only
    /// jobs whose results are not already durable in the cache.
    pub resume: bool,
    /// Whether to keep the write-ahead job journal (requires the cache;
    /// `--resume` needs a journal from the interrupted run).
    pub journal: bool,
    /// Chaos-harness hook: routes cache and journal writes through a
    /// seeded fault injector. Production configs leave this `None`.
    pub io_faults: Option<IoFaultShim>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 1,
            use_cache: true,
            cache_dir: PathBuf::from("target/cfd-cache"),
            policy: RetryPolicy::default(),
            resume: false,
            journal: true,
            io_faults: None,
        }
    }
}

impl ExecConfig {
    /// Default config overridden by the environment: `CFD_JOBS` sets the
    /// worker count, `CFD_CACHE_DIR` relocates the cache. Malformed
    /// values are ignored.
    pub fn from_env() -> ExecConfig {
        let mut cfg = ExecConfig::default();
        if let Ok(v) = std::env::var("CFD_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    cfg.jobs = n;
                }
            }
        }
        if let Ok(dir) = std::env::var("CFD_CACHE_DIR") {
            if !dir.trim().is_empty() {
                cfg.cache_dir = PathBuf::from(dir);
            }
        }
        cfg
    }
}

/// Counters the engine accumulates across [`Engine::run_all`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Results served from the disk cache.
    pub cache_hits: u64,
    /// Successful executions (any attempt).
    pub executed: u64,
    /// Jobs whose final attempt failed (panic or timeout).
    pub failed: u64,
    /// Duplicate submissions folded onto another job's result.
    pub deduped: u64,
    /// Corrupt cache entries detected, quarantined, and re-executed.
    pub corrupt: u64,
    /// Retry attempts (executions beyond each job's first attempt).
    pub retried: u64,
    /// Attempts killed by the deterministic cycle budget.
    pub timeout: u64,
    /// Jobs skipped via the poisoned-job ledger plus jobs newly poisoned
    /// this run.
    pub quarantined: u64,
}

/// How a job's slot was filled, for the trace.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobOutcome {
    CacheHit,
    Executed,
    Panicked,
    Timeout,
    Quarantined,
    Deduped,
}

impl JobOutcome {
    fn name(self) -> &'static str {
        match self {
            JobOutcome::CacheHit => "cache_hit",
            JobOutcome::Executed => "executed",
            JobOutcome::Panicked => "panicked",
            JobOutcome::Timeout => "timeout",
            JobOutcome::Quarantined => "quarantined",
            JobOutcome::Deduped => "deduped",
        }
    }
}

/// Engine telemetry: the counters behind [`Engine::stats`] and the job
/// trace, both guarded by one lock so a batch lands atomically.
struct EngineTelemetry {
    registry: MetricsRegistry,
    trace: TraceLog,
    /// Logical clock for job spans. Trace timestamps must be
    /// byte-deterministic across worker counts, so they cannot come from
    /// wall time or completion order: the clock ticks once per job in
    /// *submission* order during the single-threaded merge phase.
    clock: u64,
}

/// The campaign engine. One engine is shared per sweep; its stats
/// accumulate over every `run_all` call so the driver can print a single
/// summary line at exit.
pub struct Engine {
    cfg: ExecConfig,
    cache: Option<DiskCache>,
    telemetry: Mutex<EngineTelemetry>,
    log: Mutex<Option<Arc<EventLog>>>,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(cfg: ExecConfig) -> Engine {
        let cache = if cfg.use_cache {
            let cache = DiskCache::new(&cfg.cache_dir);
            Some(match &cfg.io_faults {
                Some(shim) => cache.with_io_faults(shim.clone()),
                None => cache,
            })
        } else {
            None
        };
        Engine {
            cfg,
            cache,
            telemetry: Mutex::new(EngineTelemetry {
                registry: MetricsRegistry::enabled(),
                trace: TraceLog::enabled(),
                clock: 0,
            }),
            log: Mutex::new(None),
        }
    }

    /// Attaches (or detaches) a structured event log. The engine emits
    /// batch-level records (`batch_start`, `cache_probe`, `retry_wave`,
    /// `batch_done`) only from its single-threaded sections, so for a
    /// given submission the emitted stream — modulo the wall-clock field
    /// [`strip_wall`](cfd_obs::strip_wall) removes — is byte-identical
    /// across worker counts.
    pub fn set_log(&self, log: Option<Arc<EventLog>>) {
        *self.log.lock().expect("log lock poisoned") = log;
    }

    /// The attached event log, if any (drivers reuse it for their own
    /// records so sequence numbers stay globally ordered).
    pub fn log(&self) -> Option<Arc<EventLog>> {
        self.log.lock().expect("log lock poisoned").clone()
    }

    /// A single-threaded, cache-less engine: the reference behaviour.
    /// Library entry points that predate the engine delegate here, so
    /// their results are identical to what they always produced.
    pub fn serial() -> Engine {
        Engine::new(ExecConfig { jobs: 1, use_cache: false, ..ExecConfig::default() })
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.cfg.jobs
    }

    /// Snapshot of the accumulated counters (read back out of the metrics
    /// registry, which is their system of record).
    pub fn stats(&self) -> ExecStats {
        let t = self.telemetry.lock().expect("telemetry lock poisoned");
        ExecStats {
            submitted: t.registry.counter("exec.submitted"),
            cache_hits: t.registry.counter("exec.cache_hits"),
            executed: t.registry.counter("exec.executed"),
            failed: t.registry.counter("exec.failed"),
            deduped: t.registry.counter("exec.deduped"),
            corrupt: t.registry.counter("exec.corrupt"),
            retried: t.registry.counter("exec.retried"),
            timeout: t.registry.counter("exec.timeout"),
            quarantined: t.registry.counter("exec.quarantined"),
        }
    }

    /// Deterministic rendering of the full metrics registry (counters in
    /// name order).
    pub fn metrics(&self) -> String {
        self.telemetry.lock().expect("telemetry lock poisoned").registry.render()
    }

    /// The job trace so far as Perfetto/Chrome trace-event JSON.
    /// Timestamps are the engine's logical job clock (submission order),
    /// never wall time: N-worker runs serialize byte-identically to
    /// 1-worker runs.
    pub fn trace_json(&self) -> String {
        self.telemetry.lock().expect("telemetry lock poisoned").trace.to_json()
    }

    /// The machine-greppable summary line the drivers print to stderr:
    /// `[cfd-exec] jobs=4 submitted=86 cache_hits=80 executed=6 failed=0
    /// deduped=0 corrupt=0 retried=0 timeout=0 quarantined=0`.
    /// Byte-deterministic across worker counts.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        format!(
            "[cfd-exec] jobs={} submitted={} cache_hits={} executed={} failed={} deduped={} corrupt={} retried={} timeout={} quarantined={}",
            self.cfg.jobs,
            s.submitted,
            s.cache_hits,
            s.executed,
            s.failed,
            s.deduped,
            s.corrupt,
            s.retried,
            s.timeout,
            s.quarantined
        )
    }

    /// Runs one job through the same fingerprint/cache/isolate path as a
    /// batch of one.
    pub fn run_one<J: CampaignJob>(&self, job: &J) -> Result<J::Output, JobError> {
        self.run_all(std::slice::from_ref(job)).pop().expect("one job in, one result out")
    }

    /// Opens (or resumes) the campaign's write-ahead journal. The file
    /// lives under `<cache>/journal/` and is named by the campaign
    /// fingerprint — a fold over every submitted job fingerprint — so a
    /// resumed invocation with identical inputs finds its own journal and
    /// a changed campaign never replays a stale one. Journal IO is
    /// best-effort: failure to open degrades to journal-less execution.
    fn open_journal(&self, fps: &[Fingerprint]) -> (Option<Journal>, Replay) {
        let Some(cache) = &self.cache else { return (None, Replay::default()) };
        if !self.cfg.journal {
            return (None, Replay::default());
        }
        let campaign = campaign_fingerprint(fps).hex();
        let path = cache.dir().join("journal").join(format!("{campaign}.wal"));
        let opened = if self.cfg.resume {
            Journal::open_resume(&path)
        } else {
            Journal::create(&path).map(|j| (j, Replay::default()))
        };
        let Ok((journal, replay)) = opened else { return (None, Replay::default()) };
        let journal = match &self.cfg.io_faults {
            Some(shim) => journal.with_io_faults(shim.clone()),
            None => journal,
        };
        if replay.campaign.is_none() {
            let _ = journal.append(&JournalRecord::Campaign { fingerprint: campaign, jobs: fps.len() as u64 });
        }
        (Some(journal), replay)
    }

    /// Runs a batch: results come back in submission order, one per job,
    /// regardless of worker count, cache state, retries, or duplicate
    /// folding.
    ///
    /// Pipeline per unique fingerprint: consult the poisoned-job ledger
    /// (resume only), probe the cache — quarantining corrupt entries for
    /// re-execution — then execute the misses under `catch_unwind` on the
    /// worker pool. Completion is made durable *inside the worker* (cache
    /// store, then journal `done`/`failed` record), so a process killed
    /// mid-batch keeps every finished job. Failed jobs re-run in retry
    /// waves ordered by fingerprint (never by completion time); jobs that
    /// fail every attempt can be promoted into the quarantine ledger.
    /// Because each slot is filled purely by its input index, an N-thread
    /// run is byte-identical to a 1-thread run — the determinism contract
    /// the report formats rely on.
    pub fn run_all<J: CampaignJob>(&self, jobs: &[J]) -> Vec<Result<J::Output, JobError>> {
        let n = jobs.len();
        let policy = self.cfg.policy;
        let mut batch = ExecStats { submitted: n as u64, ..ExecStats::default() };
        let log = self.log.lock().expect("log lock poisoned").clone();

        let fps: Vec<Fingerprint> = jobs.iter().map(|j| j.fingerprint()).collect();
        let (journal, replay) = self.open_journal(&fps);

        // First submission of each fingerprint owns the execution;
        // later duplicates fold onto it.
        let mut owner: HashMap<Fingerprint, usize> = HashMap::new();
        for (i, &fp) in fps.iter().enumerate() {
            match owner.entry(fp) {
                std::collections::hash_map::Entry::Occupied(_) => batch.deduped += 1,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }

        // Log events come only from the engine's serial sections, so the
        // stream (modulo wall clock) never depends on the worker count.
        if let Some(l) = &log {
            l.info(
                "cfd-exec",
                "batch_start",
                &[("submitted", (n as u64).into()), ("unique", (owner.len() as u64).into())],
            );
        }

        let mut results: Vec<Option<Result<J::Output, JobError>>> = (0..n).map(|_| None).collect();
        let mut slot: Vec<JobOutcome> = vec![JobOutcome::Deduped; n];
        let mut attempts: Vec<u64> = vec![0; n];

        // Poisoned-job ledger and cache probe (owners only), serial:
        // entry IO is trivial next to simulation time and keeps the
        // accounting deterministic.
        let mut to_run: Vec<usize> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if owner.get(&fps[i]) != Some(&i) {
                continue;
            }
            if let Some(&strikes) = replay.quarantined.get(&fps[i].hex()) {
                batch.quarantined += 1;
                slot[i] = JobOutcome::Quarantined;
                results[i] = Some(Err(JobError::Quarantined { strikes }));
                continue;
            }
            let probe = match &self.cache {
                Some(c) => c.load_checked(job.kind(), fps[i]),
                None => CacheLoad::Miss,
            };
            let hit = match probe {
                CacheLoad::Hit(v) => job.result_from_json(&v),
                CacheLoad::Miss => None,
                CacheLoad::Corrupt(_) => {
                    batch.corrupt += 1;
                    None
                }
            };
            match hit {
                Some(out) => {
                    batch.cache_hits += 1;
                    slot[i] = JobOutcome::CacheHit;
                    results[i] = Some(Ok(out));
                }
                None => to_run.push(i),
            }
        }

        if let Some(l) = &log {
            l.event(
                Level::Debug,
                "cfd-exec",
                "cache_probe",
                &[
                    ("hits", batch.cache_hits.into()),
                    ("misses", (to_run.len() as u64).into()),
                    ("corrupt", batch.corrupt.into()),
                    ("quarantined", batch.quarantined.into()),
                ],
            );
        }

        if let Some(j) = &journal {
            for &i in &to_run {
                let _ = j.append(&JournalRecord::Submitted { index: i as u64, fp: fps[i].hex() });
            }
        }

        // Strike counts carry over from resumed sessions, so a job that
        // crashed the previous run and crashes again accumulates toward
        // the quarantine threshold.
        let mut strikes: HashMap<usize, u64> =
            to_run.iter().map(|&i| (i, replay.strikes.get(&fps[i].hex()).copied().unwrap_or(0))).collect();

        // Execute the misses on the pool, then retry failures in waves
        // ordered by fingerprint. Each worker writes only its own index,
        // so placement is independent of completion order; durability
        // (cache store + journal record) happens in the worker so a
        // mid-batch kill keeps every completed job.
        let store_error: Mutex<Option<CacheError>> = Mutex::new(None);
        let mut wave: Vec<usize> = to_run.clone();
        let mut wave_no: u64 = 0;
        let final_failed: Vec<usize> = loop {
            let attempt = wave_no + 1;
            let outcomes = pool::run_indexed(self.cfg.jobs, wave.len(), |k| {
                let i = wave[k];
                if let Some(j) = &journal {
                    let _ = j.append(&JournalRecord::Started { index: i as u64 });
                }
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let cancel = match policy.timeout_cycles {
                        0 => CancelToken::new(),
                        budget => CancelToken::with_budget(budget),
                    };
                    jobs[i].execute_cancellable(&cancel)
                }))
                .map_err(|payload| panic_message(payload.as_ref()));
                match run {
                    Ok(out) => {
                        if let Some(c) = &self.cache {
                            // Panicked jobs are never cached: a panic is a
                            // bug signal, and bugs should reproduce on
                            // re-run.
                            if let Err(e) =
                                c.store(jobs[i].kind(), fps[i], &jobs[i].describe(), &J::result_to_json(&out))
                            {
                                let mut first = store_error.lock().expect("store-error lock poisoned");
                                first.get_or_insert(e);
                            }
                        }
                        if let Some(j) = &journal {
                            let _ = j.append(&JournalRecord::Done { index: i as u64, fp: fps[i].hex() });
                        }
                        Ok(out)
                    }
                    Err(msg) => {
                        if let Some(j) = &journal {
                            let class = if parse_timeout_panic(&msg).is_some() { "timeout" } else { "panic" };
                            let _ =
                                j.append(&JournalRecord::Failed { index: i as u64, class: class.to_string(), attempt });
                        }
                        Err(msg)
                    }
                }
            });

            let mut failed_wave: Vec<usize> = Vec::new();
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let i = wave[k];
                attempts[i] += 1;
                if wave_no > 0 {
                    batch.retried += 1;
                }
                match outcome {
                    Ok(out) => {
                        batch.executed += 1;
                        slot[i] = JobOutcome::Executed;
                        results[i] = Some(Ok(out));
                    }
                    Err(msg) => {
                        *strikes.entry(i).or_insert(0) += 1;
                        match parse_timeout_panic(&msg) {
                            Some(budget_cycles) => {
                                batch.timeout += 1;
                                slot[i] = JobOutcome::Timeout;
                                results[i] = Some(Err(JobError::Timeout { budget_cycles }));
                            }
                            None => {
                                slot[i] = JobOutcome::Panicked;
                                results[i] = Some(Err(JobError::Panicked(msg)));
                            }
                        }
                        failed_wave.push(i);
                    }
                }
            }
            if failed_wave.is_empty() {
                break Vec::new();
            }
            if wave_no >= policy.max_retries {
                break failed_wave;
            }
            // Deterministic backoff: the next wave's order comes from the
            // job fingerprints, never from completion timing.
            failed_wave.sort_by_key(|&i| fps[i].hex());
            wave = failed_wave;
            wave_no += 1;
            if let Some(l) = &log {
                l.info("cfd-exec", "retry_wave", &[("wave", wave_no.into()), ("jobs", (wave.len() as u64).into())]);
            }
        };

        for &i in &final_failed {
            batch.failed += 1;
            let total_strikes = strikes.get(&i).copied().unwrap_or(0);
            if policy.quarantine_after > 0 && total_strikes >= policy.quarantine_after {
                batch.quarantined += 1;
                if let Some(j) = &journal {
                    let _ = j.append(&JournalRecord::Quarantined { fp: fps[i].hex(), strikes: total_strikes });
                }
            }
        }

        // A failing store disabled the cache for the rest of the run;
        // say so once, with the cause, and keep going.
        if let Some(e) = store_error.lock().expect("store-error lock poisoned").take() {
            match &log {
                Some(l) => l.warn("cfd-exec", "cache_disabled", &[("error", format!("{e}").into())]),
                None => eprintln!("[cfd-exec] warning: result cache disabled: {e}"),
            }
        }

        // Fold duplicates onto their owner's result.
        for i in 0..n {
            if results[i].is_none() {
                let o = owner[&fps[i]];
                results[i] = results[o].clone();
            }
        }

        if let Some(l) = &log {
            l.info(
                "cfd-exec",
                "batch_done",
                &[
                    ("executed", batch.executed.into()),
                    ("cache_hits", batch.cache_hits.into()),
                    ("failed", batch.failed.into()),
                    ("deduped", batch.deduped.into()),
                    ("corrupt", batch.corrupt.into()),
                    ("retried", batch.retried.into()),
                    ("timeout", batch.timeout.into()),
                    ("quarantined", batch.quarantined.into()),
                ],
            );
        }

        // Land the batch in one locked section: counters first, then one
        // trace record per job in *submission* order on the logical
        // clock, so the serialized trace is independent of worker count
        // and completion order.
        let mut t = self.telemetry.lock().expect("telemetry lock poisoned");
        t.registry.counter_add("exec.submitted", batch.submitted);
        t.registry.counter_add("exec.cache_hits", batch.cache_hits);
        t.registry.counter_add("exec.executed", batch.executed);
        t.registry.counter_add("exec.failed", batch.failed);
        t.registry.counter_add("exec.deduped", batch.deduped);
        t.registry.counter_add("exec.corrupt", batch.corrupt);
        t.registry.counter_add("exec.retried", batch.retried);
        t.registry.counter_add("exec.timeout", batch.timeout);
        t.registry.counter_add("exec.quarantined", batch.quarantined);
        // Fixed lane count for the tid field: a display aid only. It must
        // NOT derive from cfg.jobs, or the trace bytes would change with
        // the worker count.
        const TRACE_LANES: u64 = 4;
        for (i, job) in jobs.iter().enumerate() {
            let tid = i as u64 % TRACE_LANES;
            let mut args = vec![
                ("kind", ArgValue::from(job.kind())),
                ("fingerprint", ArgValue::from(fps[i].hex())),
                ("outcome", ArgValue::from(slot[i].name())),
            ];
            if attempts[i] > 1 {
                args.push(("attempts", ArgValue::from(attempts[i])));
            }
            match slot[i] {
                JobOutcome::Executed | JobOutcome::Panicked | JobOutcome::Timeout => {
                    let ts = t.clock;
                    t.trace.span("queue_wait", "exec", ts, 1, 0, tid, vec![("outcome", slot[i].name().into())]);
                    t.trace.span(job.describe(), "exec", ts + 1, 1, 0, tid, args);
                    t.clock += 2;
                }
                JobOutcome::CacheHit | JobOutcome::Deduped | JobOutcome::Quarantined => {
                    let ts = t.clock;
                    t.trace.instant(job.describe(), "exec", ts, 0, tid, args);
                    t.clock += 1;
                }
            }
        }
        drop(t);
        results.into_iter().map(|r| r.expect("every slot filled")).collect()
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hasher;

    /// A toy job for engine unit tests: squares a number, panics on a
    /// poison value.
    struct SquareJob {
        x: u64,
        salt: u64,
    }

    impl CampaignJob for SquareJob {
        type Output = u64;

        fn kind(&self) -> &'static str {
            "test-square"
        }

        fn fingerprint(&self) -> Fingerprint {
            let mut h = Hasher::new();
            h.section("x", &self.x.to_le_bytes());
            h.section("salt", &self.salt.to_le_bytes());
            h.finish()
        }

        fn describe(&self) -> String {
            format!("square {}", self.x)
        }

        fn execute(&self) -> u64 {
            assert!(self.x != 13, "poison value 13");
            self.x * self.x
        }

        fn result_to_json(out: &u64) -> String {
            format!("{{\"v\":{out}}}")
        }

        fn result_from_json(&self, v: &Json) -> Option<u64> {
            v.get("v")?.as_u64()
        }
    }

    fn squares(xs: &[u64], salt: u64) -> Vec<SquareJob> {
        xs.iter().map(|&x| SquareJob { x, salt }).collect()
    }

    #[test]
    fn serial_engine_runs_in_order() {
        let eng = Engine::serial();
        let got = eng.run_all(&squares(&[1, 2, 3], 0));
        assert_eq!(got, vec![Ok(1), Ok(4), Ok(9)]);
        let s = eng.stats();
        assert_eq!((s.submitted, s.executed, s.cache_hits), (3, 3, 0));
    }

    #[test]
    fn panic_is_isolated_to_its_job() {
        let eng = Engine::serial();
        let got = eng.run_all(&squares(&[2, 13, 4], 0));
        assert_eq!(got[0], Ok(4));
        match &got[1] {
            Err(JobError::Panicked(m)) => assert!(m.contains("poison value 13"), "actual message: {m:?}"),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert_eq!(got[2], Ok(16));
        assert_eq!(eng.stats().failed, 1);
    }

    #[test]
    fn duplicates_fold_within_a_batch() {
        let eng = Engine::serial();
        let got = eng.run_all(&squares(&[5, 5, 5, 6], 0));
        assert_eq!(got, vec![Ok(25), Ok(25), Ok(25), Ok(36)]);
        let s = eng.stats();
        assert_eq!((s.submitted, s.executed, s.deduped), (4, 2, 2));
    }

    #[test]
    fn stats_line_shape() {
        let eng = Engine::serial();
        let _ = eng.run_all(&squares(&[1], 0));
        assert_eq!(
            eng.stats_line(),
            "[cfd-exec] jobs=1 submitted=1 cache_hits=0 executed=1 failed=0 deduped=0 corrupt=0 retried=0 timeout=0 quarantined=0"
        );
    }

    #[test]
    fn stats_line_renders_every_failure_counter() {
        let eng = Engine::serial();
        let line = eng.stats_line();
        for field in [
            "corrupt=",
            "retried=",
            "timeout=",
            "quarantined=",
            "submitted=",
            "cache_hits=",
            "executed=",
            "failed=",
            "deduped=",
        ] {
            assert!(line.contains(field), "stats line missing {field:?}: {line}");
        }
    }

    #[test]
    fn stats_accumulate_across_batches() {
        // `experiments all` runs many batches on one engine and prints
        // one stats line, so the counters must accumulate, not reset,
        // between run_all calls.
        let eng = Engine::serial();
        let _ = eng.run_all(&squares(&[1, 2], 7));
        let _ = eng.run_all(&squares(&[3, 3, 13], 7));
        let s = eng.stats();
        assert_eq!(s.submitted, 5, "submissions sum over both batches");
        assert_eq!(s.executed, 3, "1,2 then 3 (13 panics)");
        assert_eq!(s.deduped, 1);
        assert_eq!(s.failed, 1);
        let line = eng.stats_line();
        assert!(line.contains("submitted=5"), "line reflects the accumulated totals: {line}");
    }

    #[test]
    fn retries_rerun_failures_and_are_counted() {
        let eng = Engine::new(ExecConfig {
            use_cache: false,
            policy: RetryPolicy { max_retries: 2, timeout_cycles: 0, quarantine_after: 0 },
            ..ExecConfig::default()
        });
        // The poison job fails deterministically every attempt; the rest
        // succeed on the first.
        let got = eng.run_all(&squares(&[2, 13, 4], 0));
        assert!(matches!(&got[1], Err(JobError::Panicked(_))));
        let s = eng.stats();
        assert_eq!(s.executed, 2, "successes execute once each");
        assert_eq!(s.retried, 2, "the failing job burns both retries");
        assert_eq!(s.failed, 1, "failed counts jobs, not attempts");
    }

    #[test]
    fn trace_and_metrics_are_byte_identical_across_worker_counts() {
        let run = |jobs: usize| {
            let eng = Engine::new(ExecConfig { jobs, use_cache: false, ..ExecConfig::default() });
            let _ = eng.run_all(&squares(&[1, 2, 3, 3, 4, 5, 6, 7], 99));
            (eng.trace_json(), eng.metrics())
        };
        let (t1, m1) = run(1);
        let (t4, m4) = run(4);
        assert_eq!(t1, t4, "trace must not depend on worker count");
        assert_eq!(m1, m4, "metrics must not depend on worker count");
        assert!(t1.contains("\"name\":\"queue_wait\""));
        assert!(t1.contains("\"outcome\":\"deduped\""));
    }

    #[test]
    fn event_log_is_byte_identical_across_worker_counts() {
        let run = |jobs: usize| {
            let eng = Engine::new(ExecConfig {
                jobs,
                use_cache: false,
                policy: RetryPolicy { max_retries: 1, timeout_cycles: 0, quarantine_after: 0 },
                ..ExecConfig::default()
            });
            let log = Arc::new(cfd_obs::EventLog::memory(cfd_obs::Level::Debug));
            eng.set_log(Some(Arc::clone(&log)));
            let _ = eng.run_all(&squares(&[1, 2, 3, 3, 13, 5, 6, 7], 77));
            cfd_obs::strip_wall(&log.contents())
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "engine log events must come only from serial sections");
        assert!(one.contains("\"event\":\"batch_start\""), "{one}");
        assert!(one.contains("\"event\":\"retry_wave\""), "13 fails and retries: {one}");
        assert!(one.contains("\"event\":\"batch_done\""), "{one}");
    }

    #[test]
    fn from_env_defaults_without_vars() {
        // Can't mutate the environment safely in a threaded test binary;
        // just check the default shape.
        let cfg = ExecConfig::default();
        assert_eq!(cfg.jobs, 1);
        assert!(cfg.use_cache);
        assert!(cfg.journal);
        assert!(!cfg.resume);
        assert_eq!(cfg.policy, RetryPolicy::default());
    }
}
