//! The four workloads. Each sets up (builds its kernels and their
//! functional reference counts, several times, keeping the median time),
//! then repeats its timed pass until the run's time is up, checking every
//! output and folding every simulated statistic into the digest.
//!
//! Simulated caches and predictors start empty in every run: every
//! `Core::run`, `run_sampled` and `profile` call builds its own, and so do
//! the traced replays.

use crate::kernels::{self, is_cfd, select, Digest, Kernel, Replay, Selection, Tally};
use crate::trace::Tracer;
use cfd_analysis::{classify_program, ClassifyConfig};
use cfd_bench::runner::CYCLE_LIMIT;
use cfd_core::{run_sampled, Core, CoreConfig, RunReport, SampleConfig, SampledReport};
use cfd_exec::{run_report_from_json, CampaignJob, DiskCache, Engine, ExecConfig, ExecStats, SimJob};
use cfd_profile::{classified_mpki, profile, ProfileReport};
use cfd_workloads::Scale;
use std::path::{Path, PathBuf};
use std::time::Instant;

// Kernel sizes keep each timed call short (about 10-60 ms on a 2-core
// Xeon host) so a 10 s run repeats every call many times: on a shared
// host, slow spells come and go within tens of milliseconds, and short,
// repeated calls let the per-call best (`best_pass_s`) find the quiet
// moments.
/// Outer trip count of the `detail` kernels (35 runs, ~0.45 s a pass).
pub const DETAIL_N: usize = 500;
/// Outer trip count of the `sampled` kernels: long enough for two or three
/// sampling periods per run, ~95 detailed slices a pass.
pub const SAMPLED_N: usize = 4_000;
/// Outer trip count of the `profile` kernels (21 kernels, ~0.3 s a pass).
pub const PROFILE_N: usize = 10_000;
/// Times setup is repeated; setup_s is the median.
pub const SETUP_REPEATS: usize = 5;
/// Predictor used by the profiling workload (the paper's §II method).
pub const PROFILE_PREDICTOR: &str = "isl-tage";
/// The checked-in transcript of `experiments all`.
pub const GOLDEN: &str = "crates/bench/tests/fixtures/experiments_golden.txt";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Detail,
    Sampled,
    Profile,
    CampaignWarm,
}

impl Name {
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "detail" => Some(Name::Detail),
            "sampled" => Some(Name::Sampled),
            "profile" => Some(Name::Profile),
            "campaign_warm" => Some(Name::CampaignWarm),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Detail => "detail",
            Name::Sampled => "sampled",
            Name::Profile => "profile",
            Name::CampaignWarm => "campaign_warm",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Name,
    /// Workload data seed (`Scale::seed`).
    pub seed: u64,
    /// How long the timed passes run; at least one pass always runs.
    pub seconds: f64,
    pub trace: bool,
    /// Outer trip count override, for the benchmark's own tests.
    pub n: Option<usize>,
    /// Scratch directory for the campaign's result cache.
    pub work_dir: PathBuf,
}

/// A per-layer metric: name, value, unit, and the base it was taken over.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

/// What one run measured.
pub struct Outcome {
    pub setup_s: f64,
    pub pass_s: Vec<f64>,
    /// Each untraced pass's per-call times, in call order.
    pub laps: Vec<Vec<f64>>,
    /// Traced passes made; pass spans are averaged over them.
    pub traced_passes: usize,
    /// Simulated instructions one pass covers.
    pub instructions: u64,
    /// Simulation calls (or engine jobs) one pass makes.
    pub jobs: u64,
    pub digest: u64,
    pub tally: Tally,
    /// Per-layer metrics; filled by the traced run only.
    pub layers: Vec<Layer>,
    /// Lines for the human-readable report and the results file.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    fn new(trace: bool) -> Outcome {
        Outcome {
            setup_s: 0.0,
            pass_s: Vec::new(),
            laps: Vec::new(),
            traced_passes: 0,
            instructions: 0,
            jobs: 0,
            digest: 0,
            tally: Tally::default(),
            layers: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Mean duration per traced pass of the spans called `name`, in ns.
    fn pass_ns(&self, name: &str) -> f64 {
        self.tracer.total_ns(name) as f64 / self.traced_passes.max(1) as f64
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str, base: String) {
        self.layers.push(Layer { name: name.to_string(), value, unit, base });
    }
}

/// The timed pass's wall time with every call at its fastest over the
/// run's passes (best-of-N per call). On a shared 2-core Xeon host, pass
/// times swing by up to 2x within seconds while little steal is reported;
/// the per-call minimum filters those swings, while a slower simulator
/// slows every sample.
pub fn best_pass_s(laps: &[Vec<f64>]) -> f64 {
    let calls = laps.iter().map(Vec::len).min().unwrap_or(0);
    (0..calls).map(|i| laps.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min)).sum()
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` [`SETUP_REPEATS`] times and returns the last result with the
/// median time.
fn repeated<T>(o: &mut Outcome, mut f: impl FnMut(&mut Tracer, &mut Tally) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut tally = Tally::default();
        let out = o.tracer.span("setup", |t| f(t, &mut tally));
        times.push(t0.elapsed().as_secs_f64());
        last = Some((out, tally));
    }
    let (out, tally) = last.expect("at least one setup");
    o.tally.attempted += tally.attempted;
    o.tally.failed += tally.failed;
    o.tally.notes.extend(tally.notes);
    (out, median(&times))
}

/// The timed passes, repeated until `seconds` are up; every pass must
/// reproduce the first pass's digest. A traced run alternates untraced and
/// traced passes and ends on a traced one; the gap between the two kinds
/// is the tracing overhead.
fn passes(o: &mut Outcome, seconds: f64, mut pass: impl FnMut(&mut Tracer, &mut Tally) -> u64) {
    let traced = o.tracer.on();
    let mut traced_laps = Vec::new();
    let start = Instant::now();
    let mut first = None;
    loop {
        let on = traced && o.pass_s.len() % 2 == 1;
        o.tracer.set_on(on);
        let t0 = Instant::now();
        let d = o.tracer.span("pass", |t| pass(t, &mut o.tally));
        o.pass_s.push(t0.elapsed().as_secs_f64());
        let laps = o.tracer.take_laps();
        if on {
            traced_laps.push(laps);
        } else {
            o.laps.push(laps);
        }
        match first {
            None => first = Some(d),
            Some(f) => o.tally.check(d == f, || format!("pass {} digest {d:016x} != first {f:016x}", o.pass_s.len())),
        }
        if start.elapsed().as_secs_f64() >= seconds && (!traced || on) {
            break;
        }
    }
    o.tracer.set_on(traced);
    o.digest = first.expect("at least one pass");
    if traced {
        o.traced_passes = traced_laps.len();
        let (plain, with) = (best_pass_s(&o.laps), best_pass_s(&traced_laps));
        o.layer(
            "trace.overhead_pct",
            100.0 * (with - plain) / plain,
            "%",
            format!("best untraced pass {plain:.4} s, {} traced passes", traced_laps.len()),
        );
    }
}

fn report_digest(d: &mut Digest, r: &RunReport) {
    let s = &r.stats;
    d.words(&[
        s.cycles,
        s.retired,
        s.fetched,
        s.wrong_path_fetched,
        s.issued,
        s.retired_branches,
        s.mispredictions,
        s.bq_hits,
        s.bq_misses,
        s.tq_hits,
        s.btb_misfetches,
        s.icache_misses,
        s.lsq_forwards,
    ]);
    d.words(&s.cpi_slots);
    for c in [r.cache_stats.0, r.cache_stats.1, r.cache_stats.2] {
        d.words(&[c.accesses, c.hits, c.writebacks]);
    }
    d.words(&r.level_counts);
    d.words(&r.mshr_histogram);
}

fn sampled_digest(d: &mut Digest, r: &SampledReport) {
    d.words(&[
        r.measured_instructions,
        r.measured_cycles,
        r.ff_instructions,
        r.warmup_instructions,
        r.total_instructions,
        r.intervals,
    ]);
}

fn profile_digest(d: &mut Digest, r: &ProfileReport) {
    d.words(&[r.instructions, r.branches, r.mispredictions]);
    for (pc, b) in &r.per_branch {
        d.words(&[u64::from(*pc), b.executed, b.taken, b.mispredicted]);
    }
}

/// Runs a simulation call, turning an error or a panic into a message, so
/// a broken simulator fails an output check instead of ending the run.
pub fn guard<T, E: std::fmt::Display>(call: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("panicked".to_string()),
    }
}

fn core_run(k: &Kernel) -> Result<RunReport, String> {
    guard(|| Core::new(CoreConfig::default(), k.workload.program.clone(), k.workload.mem.clone())?.run(CYCLE_LIMIT))
}

fn core_span(k: &Kernel) -> &'static str {
    if is_cfd(k.variant) {
        "core.run.cfd"
    } else {
        "core.run.base"
    }
}

/// Builds the kernels in setup and records the setup-side layer metrics.
fn setup_kernels(o: &mut Outcome, sel: Selection, scale: Scale) -> Vec<Kernel> {
    let list = select(sel);
    let (kernels, setup_s) = repeated(o, |t, tally| kernels::build(t, tally, &list, scale));
    o.setup_s = setup_s;
    kernels
}

fn layer_setup(o: &mut Outcome, kernels: &[Kernel]) {
    let reps = SETUP_REPEATS as f64;
    let build_ns = o.tracer.total_ns("workloads.build") as f64 / reps;
    let machine_ns = o.tracer.total_ns("isa.machine_run") as f64 / reps;
    let instr: u64 = kernels.iter().map(|k| k.instructions).sum();
    o.layer("workloads.build_ms", build_ns / 1e6, "ms", format!("{} builds", kernels.len()));
    o.layer("isa.machine_mips", instr as f64 * 1e3 / machine_ns.max(1.0), "Minstr/s", format!("{instr} instructions"));
}

fn layer_replay(o: &mut Outcome, r: &Replay) {
    let tage = o.tracer.total_ns("predictor.isl_tage") as f64;
    let btb = o.tracer.total_ns("predictor.btb") as f64;
    let hier = o.tracer.total_ns("mem.hierarchy") as f64;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    o.layer("predictor.tage_ns_per_branch", per(tage, r.branches), "ns", format!("{} branches", r.branches));
    o.layer("predictor.branches", r.branches as f64, "count", "replayed retired stream".into());
    o.layer("predictor.mispredicts", r.mispredicts as f64, "count", format!("{} branches", r.branches));
    o.layer("predictor.btb_ns_per_op", per(btb, r.btb_ops), "ns", format!("{} taken transfers", r.btb_ops));
    o.layer("mem.hierarchy_ns_per_access", per(hier, r.accesses), "ns", format!("{} accesses", r.accesses));
    o.layer("mem.accesses", r.accesses as f64, "count", "replayed retired stream".into());
    for (i, m) in r.misses.iter().enumerate() {
        o.layer(&format!("mem.misses_l{}", i + 1), *m as f64, "count", format!("{} accesses", r.accesses));
    }
}

/// Core-layer metrics from the `core.run.*` spans over `reports`, and the
/// estimated split of that time: the two functional oracles (each runs
/// every instruction, so twice the `Machine::run` time), the predictor
/// and the hierarchy (their replays), and the pipeline stages (the rest).
/// The replays cover the retired path only, so the pipeline share is an
/// upper estimate.
fn layer_core(o: &mut Outcome, kernels: &[Kernel], reports: &[RunReport], replay_ns: Option<(f64, f64)>, sets: usize) {
    let (mut cyc, mut ret) = ([0u64; 2], 0u64);
    for (k, r) in kernels.iter().zip(reports) {
        cyc[usize::from(is_cfd(k.variant))] += r.stats.cycles;
        ret += r.stats.retired;
    }
    let base_ns = o.tracer.total_ns("core.run.base") as f64 / sets as f64;
    let cfd_ns = o.tracer.total_ns("core.run.cfd") as f64 / sets as f64;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    o.layer("core.ns_per_cycle.base", per(base_ns, cyc[0]), "ns", format!("{} base cycles", cyc[0]));
    o.layer("core.ns_per_cycle.cfd", per(cfd_ns, cyc[1]), "ns", format!("{} cfd cycles", cyc[1]));
    o.layer("core.cycles", (cyc[0] + cyc[1]) as f64, "count", format!("{} runs", reports.len()));
    o.layer("core.retired", ret as f64, "count", format!("{} runs", reports.len()));
    let core_ns = base_ns + cfd_ns;
    o.layer(
        "kcps",
        (cyc[0] + cyc[1]) as f64 * 1e6 / core_ns.max(1.0),
        "kcycle/s",
        format!("{:.3} s of Core::run", core_ns / 1e9),
    );
    if let Some((pred, hier)) = replay_ns {
        let oracle = 2.0 * o.tracer.total_ns("isa.machine_run") as f64 / SETUP_REPEATS as f64;
        let share = |ns: f64| 100.0 * ns / core_ns.max(1.0);
        let base = format!("{:.3} s of Core::run", core_ns / 1e9);
        o.layer("core.pipeline_share_est", share(core_ns - oracle - pred - hier), "%", base.clone());
        o.layer("core.oracle_share_est", share(oracle), "%", base.clone());
        o.layer("core.predictor_share_est", share(pred), "%", base.clone());
        o.layer("core.hierarchy_share_est", share(hier), "%", base);
    }
}

pub fn run(opts: &Options) -> Outcome {
    let mut o = Outcome::new(opts.trace);
    match opts.workload {
        Name::Detail => detail(&mut o, opts, |_| {}),
        Name::Sampled => sampled(&mut o, opts),
        Name::Profile => profiling(&mut o, opts),
        Name::CampaignWarm => campaign_warm(&mut o, opts),
    }
    o
}

/// The detail workload with its kernels altered after setup, so a test
/// can check that a wrong expected output fails exactly one op.
#[cfg(test)]
pub fn run_tampered(opts: &Options, tamper: impl FnOnce(&mut [Kernel])) -> Outcome {
    let mut o = Outcome::new(opts.trace);
    detail(&mut o, opts, tamper);
    o
}

/// `Core::run` of every kernel's base and preferred CFD form.
fn detail(o: &mut Outcome, opts: &Options, tamper: impl FnOnce(&mut [Kernel])) {
    let scale = Scale { n: opts.n.unwrap_or(DETAIL_N), seed: opts.seed };
    let mut kernels = setup_kernels(o, Selection::Pairs, scale);
    tamper(&mut kernels);
    o.instructions = kernels.iter().map(|k| k.instructions).sum();
    o.jobs = kernels.len() as u64;
    let mut reports: Vec<RunReport> = Vec::new();
    passes(o, opts.seconds, |t, tally| {
        let mut d = Digest::default();
        reports.clear();
        for k in &kernels {
            match t.lap(core_span(k), |_| core_run(k)) {
                Ok(r) => {
                    tally.check(r.stats.retired == k.instructions, || {
                        format!(
                            "{} [{}] retired {} != functional {}",
                            k.name, k.variant, r.stats.retired, k.instructions
                        )
                    });
                    report_digest(&mut d, &r);
                    reports.push(r);
                }
                Err(e) => tally.check(false, || format!("{} [{}] Core::run: {e}", k.name, k.variant)),
            }
        }
        d.value()
    });
    if !o.tracer.on() {
        return;
    }
    layer_setup(o, &kernels);
    let r = kernels::replay(&mut o.tracer, &kernels, &CoreConfig::default().hierarchy);
    layer_replay(o, &r);
    let pred = (o.tracer.total_ns("predictor.isl_tage") + o.tracer.total_ns("predictor.btb")) as f64;
    let hier = o.tracer.total_ns("mem.hierarchy") as f64;
    if reports.len() == kernels.len() {
        let sets = o.traced_passes;
        layer_core(o, &kernels, &reports, Some((pred, hier)), sets);
    }
    // The same pairs' two other paths, whose own timed runs spread too
    // widely on a shared host to gate on: sampled mode, and the campaign
    // engine that serves them to the experiments. Skipped at the tests'
    // tiny scale, where the campaign's cold fill would dominate.
    if opts.n.is_none() {
        fold_in(o, Name::Sampled, opts, &["core.sampled_", "ipc_err_pct"]);
        fold_in(o, Name::CampaignWarm, opts, &["exec.", "bench.experiment."]);
    }
}

/// Runs `workload` traced, for one untraced and one traced pass, and adds
/// its output checks, notes and the per-layer metrics whose names start
/// with one of `prefixes` to `o`.
fn fold_in(o: &mut Outcome, workload: Name, opts: &Options, prefixes: &[&str]) {
    let sub = run(&Options { workload, seconds: 0.0, trace: true, ..opts.clone() });
    o.tally.attempted += sub.tally.attempted;
    o.tally.failed += sub.tally.failed;
    o.tally.notes.extend(sub.tally.notes);
    o.notes.push(format!("{} digest {:016x}", workload.as_str(), sub.digest));
    o.notes.extend(sub.notes);
    o.notes.extend(sub.tracer.table().lines().map(|l| format!("{} {l}", workload.as_str())));
    o.layers.extend(sub.layers.into_iter().filter(|l| prefixes.iter().any(|p| l.name.starts_with(p))));
}

/// `run_sampled` with the default `SampleConfig` on the same pairs.
fn sampled(o: &mut Outcome, opts: &Options) {
    let scale = Scale { n: opts.n.unwrap_or(SAMPLED_N), seed: opts.seed };
    let kernels = setup_kernels(o, Selection::Pairs, scale);
    o.instructions = kernels.iter().map(|k| k.instructions).sum();
    o.jobs = kernels.len() as u64;
    let mut reports: Vec<SampledReport> = Vec::new();
    passes(o, opts.seconds, |t, tally| {
        let mut d = Digest::default();
        reports.clear();
        for k in &kernels {
            let w = &k.workload;
            let out = t.lap("core.run_sampled", |_| {
                guard(|| {
                    run_sampled(
                        CoreConfig::default(),
                        w.program.clone(),
                        w.mem.clone(),
                        SampleConfig::default(),
                        CYCLE_LIMIT,
                    )
                })
            });
            match out {
                Ok(r) => {
                    tally.check(r.total_instructions == k.instructions, || {
                        format!(
                            "{} [{}] sampled total {} != functional {}",
                            k.name, k.variant, r.total_instructions, k.instructions
                        )
                    });
                    sampled_digest(&mut d, &r);
                    reports.push(r);
                }
                Err(e) => tally.check(false, || format!("{} [{}] run_sampled: {e}", k.name, k.variant)),
            }
        }
        d.value()
    });
    if !o.tracer.on() {
        return;
    }
    layer_setup(o, &kernels);
    let total: u64 = reports.iter().map(|r| r.total_instructions).sum();
    let ff: u64 = reports.iter().map(|r| r.ff_instructions).sum();
    let intervals: u64 = reports.iter().map(|r| r.intervals).sum();
    let ns = o.pass_ns("core.run_sampled");
    o.layer("core.sampled_ns_per_instr", ns / total.max(1) as f64, "ns", format!("{total} instructions"));
    o.layer("core.sampled_intervals", intervals as f64, "count", format!("{} runs", reports.len()));
    o.layer("core.sampled_ff_share", 100.0 * ff as f64 / total.max(1) as f64, "%", format!("{total} instructions"));
    let r = kernels::replay(&mut o.tracer, &kernels, &CoreConfig::default().hierarchy);
    layer_replay(o, &r);
    // Full-detail reference: the IPC the sampled estimate is judged by.
    let mut full = Vec::new();
    let mut max_err = 0.0f64;
    for (k, s) in kernels.iter().zip(&reports) {
        let Ok(f) = o.tracer.span(core_span(k), |_| core_run(k)) else {
            o.tally.check(false, || format!("{} [{}] full-detail reference failed", k.name, k.variant));
            continue;
        };
        let err = 100.0 * (s.ipc_estimate() - f.ipc()).abs() / f.ipc().max(1e-12);
        o.notes.push(format!(
            "{:<20} {:<10} ipc_full {:.4} ipc_sampled {:.4} err {err:.2}%",
            k.name,
            k.variant.label(),
            f.ipc(),
            s.ipc_estimate()
        ));
        max_err = max_err.max(err);
        full.push(f);
    }
    if full.len() == kernels.len() {
        layer_core(o, &kernels, &full, None, 1);
    }
    o.layer("ipc_err_pct", max_err, "%", format!("max over {} runs", full.len()));
}

/// `cfd_profile::profile` under ISL-TAGE plus the static classification
/// of every base kernel.
fn profiling(o: &mut Outcome, opts: &Options) {
    let scale = Scale { n: opts.n.unwrap_or(PROFILE_N), seed: opts.seed };
    let kernels = setup_kernels(o, Selection::Base, scale);
    o.instructions = kernels.iter().map(|k| k.instructions).sum();
    o.jobs = kernels.len() as u64;
    passes(o, opts.seconds, |t, tally| {
        let mut d = Digest::default();
        for k in &kernels {
            let w = &k.workload;
            match t.lap("profile.profile", |_| guard(|| profile(w, PROFILE_PREDICTOR, kernels::INSTRUCTION_LIMIT))) {
                Ok(rep) => {
                    tally.check(rep.instructions == k.instructions, || {
                        format!("{} profile instructions {} != functional {}", k.name, rep.instructions, k.instructions)
                    });
                    profile_digest(&mut d, &rep);
                    let classes =
                        t.lap("analysis.classify", |_| classify_program(&w.program, None, ClassifyConfig::default()));
                    for c in &classes {
                        d.word(u64::from(c.pc));
                        d.bytes(format!("{:?}", c.class).as_bytes());
                    }
                    for (class, mpki) in t.lap("analysis.classified_mpki", |_| classified_mpki(w, &rep)) {
                        d.bytes(format!("{class:?}").as_bytes());
                        d.word(mpki.to_bits());
                    }
                }
                Err(e) => tally.check(false, || format!("{} profile: {e}", k.name)),
            }
        }
        d.value()
    });
    if !o.tracer.on() {
        return;
    }
    layer_setup(o, &kernels);
    let prof_ns = o.pass_ns("profile.profile");
    let classify_ns = o.pass_ns("analysis.classify");
    o.layer(
        "profile.ns_per_instr",
        prof_ns / o.instructions.max(1) as f64,
        "ns",
        format!("{} instructions", o.instructions),
    );
    o.layer(
        "analysis.classify_ms",
        classify_ns / 1e6 / kernels.len().max(1) as f64,
        "ms",
        format!("per kernel, {} kernels", kernels.len()),
    );
    let r = kernels::replay(&mut o.tracer, &kernels, &CoreConfig::default().hierarchy);
    layer_replay(o, &r);
    let tage = o.tracer.total_ns("predictor.isl_tage") as f64;
    o.layer(
        "profile.predictor_share",
        100.0 * tage / prof_ns.max(1.0),
        "%",
        format!("{:.3} s of profile", prof_ns / 1e9),
    );
    let machine = o.tracer.total_ns("isa.machine_run") as f64 / SETUP_REPEATS as f64;
    o.notes.push(format!(
        "profile split: predictor {:.1}%, functional machine {:.1}% of {:.3} s",
        100.0 * tage / prof_ns.max(1.0),
        100.0 * machine / prof_ns.max(1.0),
        prof_ns / 1e9
    ));
}

/// The `experiments all` transcript, exactly as the CLI writes it.
fn transcript_part(id: &str, what: &str, out: &str) -> String {
    format!(
        "==============================================================\n\
         == {id} — {what}\n\
         ==============================================================\n{out}\n\n"
    )
}

/// Compares a transcript with the golden fixture: one op.
pub fn check_transcript(tally: &mut Tally, got: &str, want: &str, what: &str) {
    tally.check(got == want, || {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        format!("{what} transcript differs from {GOLDEN} at line {}", line + 1)
    });
}

/// Runs one experiment. Experiments panic when a simulation fails; that
/// output then fails the transcript check instead of ending the run.
fn run_experiment(e: &cfd_bench::Experiment, engine: &Engine) -> String {
    guard(|| Ok::<_, String>((e.run)(engine))).unwrap_or_else(|err| format!("<{} {err}>", e.id))
}

fn engine(dir: &Path, jobs: usize) -> Engine {
    Engine::new(ExecConfig { jobs, use_cache: true, cache_dir: dir.to_path_buf(), ..ExecConfig::default() })
}

/// A seed-dependent order of `0..n` (xorshift Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

fn stats_words(s: &ExecStats) -> [u64; 5] {
    [s.submitted, s.cache_hits, s.executed, s.failed, s.deduped]
}

/// The full experiment set, re-run at one worker against a result cache
/// filled in setup. The experiments build their workloads at the fixed
/// default scale the golden transcript was taken at, so here the seed only
/// sets the order the experiments run in; the transcript is assembled in
/// registry order and must match the fixture byte for byte.
fn campaign_warm(o: &mut Outcome, opts: &Options) {
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    o.tally.check(!golden.is_empty(), || format!("cannot read {GOLDEN}"));
    let dir = opts.work_dir.join("cache");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = cfd_bench::all();
    let scale = Scale::default();
    // The fingerprint-probe jobs: every catalog pair at the experiments'
    // own scale and configuration, so each should be a cache hit.
    let probe_list = select(Selection::Pairs);
    let (probes, build_s) = repeated(o, |t, _| {
        probe_list
            .iter()
            .map(|(e, v)| SimJob {
                workload: t.span("workloads.build", |_| e.build(*v, scale)),
                cfg: CoreConfig::default(),
                cycle_limit: CYCLE_LIMIT,
            })
            .collect::<Vec<_>>()
    });
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let cold = engine(&dir, jobs);
    let (t0, cpu0) = (Instant::now(), crate::host::cpu_s());
    let mut transcript = String::new();
    o.tracer.span("exec.cold_fill", |_| {
        for e in &registry {
            transcript.push_str(&transcript_part(e.id, e.what, &run_experiment(e, &cold)));
        }
    });
    let (cold_s, cold_cpu_s) = (t0.elapsed().as_secs_f64(), crate::host::cpu_s() - cpu0);
    check_transcript(&mut o.tally, &transcript, &golden, "cold fill");
    let cs = cold.stats();
    o.notes.push(format!(
        "cold fill at {jobs} workers: {cold_s:.1} s wall, {cold_cpu_s:.1} s CPU; submitted {} executed {} cache_hits {} deduped {} failed {}",
        cs.submitted, cs.executed, cs.cache_hits, cs.deduped, cs.failed
    ));
    // Distinct simulated instructions the cache now holds: the work one
    // warm pass serves instead of simulating.
    let cache = DiskCache::new(&dir);
    for entry in cache.scan().iter().filter(|e| e.kind == "sim") {
        let fp = cfd_exec::Fingerprint(
            u64::from_str_radix(&entry.fingerprint[..16], 16).unwrap_or(0),
            u64::from_str_radix(&entry.fingerprint[16..], 16).unwrap_or(0),
        );
        if let Some(r) = cache.load("sim", fp).as_ref().and_then(run_report_from_json) {
            o.instructions += r.stats.retired;
        }
    }
    o.setup_s = build_s + t0.elapsed().as_secs_f64();

    let order = permutation(registry.len(), opts.seed);
    let mut warm_stats = ExecStats::default();
    passes(o, opts.seconds, |t, tally| {
        let warm = engine(&dir, 1);
        let mut outs = vec![String::new(); registry.len()];
        for &i in &order {
            let e = &registry[i];
            outs[i] = t.lap(&format!("bench.experiment.{}", e.id), |_| run_experiment(e, &warm));
        }
        let got: String = registry.iter().zip(&outs).map(|(e, out)| transcript_part(e.id, e.what, out)).collect();
        check_transcript(tally, &got, &golden, "warm pass");
        warm_stats = warm.stats();
        tally.check(warm_stats.executed == 0, || format!("warm pass executed {} jobs", warm_stats.executed));
        let mut d = Digest::default();
        d.bytes(got.as_bytes());
        d.words(&stats_words(&warm_stats));
        d.value()
    });
    o.jobs = warm_stats.submitted;
    if o.tracer.on() {
        let reps = SETUP_REPEATS as f64;
        o.layer(
            "workloads.build_ms",
            o.tracer.total_ns("workloads.build") as f64 / reps / 1e6,
            "ms",
            format!("{} builds", probes.len()),
        );
        let mut hits = 0u64;
        for job in &probes {
            let fp = o.tracer.span("exec.fingerprint", |_| job.fingerprint());
            let Some(v) = o.tracer.span("exec.cache_load", |_| cache.load(job.kind(), fp)) else { continue };
            hits += u64::from(o.tracer.span("exec.json_decode", |_| run_report_from_json(&v)).is_some());
        }
        let n = probes.len().max(1) as f64;
        let per_hit = |ns: u64| if hits == 0 { 0.0 } else { ns as f64 / 1e3 / hits as f64 };
        o.layer(
            "exec.fingerprint_us_per_job",
            o.tracer.total_ns("exec.fingerprint") as f64 / 1e3 / n,
            "us",
            format!("{} jobs", probes.len()),
        );
        o.layer(
            "exec.cache_load_us_per_job",
            per_hit(o.tracer.total_ns("exec.cache_load")),
            "us",
            format!("{hits} hits of {} probes", probes.len()),
        );
        o.layer(
            "exec.json_decode_us_per_job",
            per_hit(o.tracer.total_ns("exec.json_decode")),
            "us",
            format!("{hits} decodes"),
        );
        o.layer(
            "exec.cache_hits",
            warm_stats.cache_hits as f64,
            "count",
            format!("{} jobs submitted", warm_stats.submitted),
        );
        o.layer(
            "exec.executed",
            warm_stats.executed as f64,
            "count",
            format!("{} jobs submitted", warm_stats.submitted),
        );
        for e in &registry {
            let name = format!("bench.experiment.{}", e.id);
            o.layer(&format!("{name}_ms"), o.pass_ns(&name) / 1e6, "ms", "mean traced warm pass".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Experiment ids, for the per-layer metric list.
pub fn experiment_ids() -> Vec<&'static str> {
    cfd_bench::all().iter().map(|e| e.id).collect()
}
