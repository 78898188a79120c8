//! Experiment runner: regenerates the paper's tables and figures, and
//! runs fault-injection campaigns.
//!
//! ```text
//! Usage:
//!   experiments list          list available experiments
//!   experiments `<id>`...     run specific experiments (e.g. fig18 fig24)
//!   experiments all           run everything; also writes the deterministic
//!                             transcript to artifacts/experiments_output.txt
//!   experiments faults [opts] run a fault-injection campaign (see below)
//!   experiments lint [opts]   statically verify queue discipline of every
//!                             catalog workload and transform output; exits
//!                             non-zero on any error finding
//!   experiments separability [opts]
//!                             catalog-wide separability table: every
//!                             analyzed branch, its heuristic vs precise
//!                             class, the automatic CFD/CFD-TQ/speculative
//!                             selection, and the differential gates on
//!                             every accepted rewrite (lint, functional
//!                             equivalence, dynamic disjointness claims);
//!                             exits non-zero when any gate fails
//!   experiments observe <workload> [opts]
//!                             one telemetry-armed run: CPI stack, ASCII
//!                             IPC/occupancy timeline, CSV time series and
//!                             a Perfetto trace (all byte-deterministic)
//!   experiments simperf [opts]
//!                             host-side simulator throughput: time one
//!                             telemetry-free run of every catalog workload
//!                             and report KIPS (timings are host-dependent;
//!                             the simulated columns stay deterministic)
//!   experiments ckpt [opts]   checkpoint-determinism sweep: run every
//!                             catalog workload straight and restored from
//!                             quarter-point checkpoints, byte-compare the
//!                             serialized reports, and write both JSONL
//!                             artifacts for the verify.sh cmp gate; exits
//!                             2 on any divergence
//!   experiments chaos [opts]  IO-fault chaos sweep over the campaign
//!                             engine's durability machinery (torn cache
//!                             writes, corrupt cache bytes, truncated
//!                             journals, mid-run kills); exits non-zero if
//!                             any injected fault silently diverges
//!   experiments dse [opts]    design-space exploration: expand a preset
//!                             config grid (predictor x BQ/VQ/TQ x widths
//!                             x L1), simulate every point, and emit the
//!                             per-point IPC/MPKI/EDP table plus the
//!                             Pareto frontier (byte-deterministic)
//!   experiments logcheck --log FILE
//!                             validate a JSONL event log (schema version,
//!                             dense sequence numbers) and print its
//!                             wall-clock-stripped canonical form; exits 1
//!                             on any schema violation
//!
//! Global options (any subcommand):
//!   --jobs N        worker threads for simulations (default $CFD_JOBS or 1);
//!                   results are byte-identical at any worker count
//!   --no-cache      bypass the on-disk result cache (target/cfd-cache)
//!   --resume        resume an interrupted campaign from its job journal:
//!                   replay completed work from the cache and re-execute
//!                   only jobs that never finished
//!   --retries N     re-run failed jobs up to N extra times in
//!                   deterministic fingerprint order; jobs that exhaust
//!                   their retries are quarantined in the journal ledger
//!   --timeout-cycles N
//!                   cancel any simulation that exceeds N simulated cycles
//!                   and record it as a timeout failure (deterministic:
//!                   the budget is checked on the simulated clock)
//!   --quiet         suppress the [cfd-exec] stats line on stderr
//!   --trace-out P   write the engine's job trace (Perfetto JSON) to P
//!
//! Observe options:
//!   --variant V     which transform to run (base, cfd, cfd+, ...; default base)
//!   --interval N    sampling interval in cycles (default 1000)
//!   --scale N       workload outer trip count (default catalog scale)
//!   --csv PATH      time-series CSV destination
//!                   (default artifacts/observe_<workload>_<variant>.csv)
//!   --trace-out P   pipeline-trace destination
//!                   (default artifacts/observe_<workload>_<variant>.trace.json)
//!
//! Lint options:
//!   --json PATH     write the JSON lint table to PATH ("-" = stdout)
//!
//! Separability options:
//!   --json PATH     write the JSON separability table to PATH ("-" = stdout)
//!
//! Campaign options:
//!   --seed N        trial-point seed (default 0xcfdfa017)
//!   --trials N      trials per (workload, fault) pair (default 1)
//!   --scale N       workload outer trip count (default 120)
//!   --smoke         small fast sweep (scale 40)
//!   --json PATH     write the JSON verdict table to PATH ("-" = stdout)
//!
//! Simperf options:
//!   --scale N       workload outer trip count (default catalog scale)
//!   --json PATH     timing-record destination ("-" = stdout;
//!                   default artifacts/BENCH_simperf.json). Each run
//!                   produces one timestamped JSON record; the default
//!                   overwrites the file with the latest record
//!   --append        append the record instead of overwriting, turning
//!                   the artifact into a JSONL throughput trajectory
//!   --profile       run the catalog through the stage self-profiler
//!                   and print per-stage wall-time shares (sum to
//!                   exactly 100.00%) plus scheduler-efficiency counters
//!   --min-kips N    soft throughput floor: warn on stderr for every
//!                   workload simulating slower than N KIPS (timings are
//!                   host-dependent, so this never fails the run)
//!   --min-kips-hard N
//!                   hard throughput floor: like --min-kips but exits 3
//!                   when any workload falls below N KIPS. Meant for CI
//!                   hosts whose worst-case speed is known; set the floor
//!                   far below nominal so only a real regression trips it
//!   --sampled       run the sampled-simulation cross-check instead:
//!                   every workload runs once in full detail and once in
//!                   fast-forward/warmup/detail sampled mode, reporting
//!                   per-workload IPC error and wall-clock speedup. The
//!                   error column is deterministic; exits 4 when any
//!                   workload's error exceeds the --max-err bound
//!   --max-err P     sampled-mode IPC error bound in percent
//!                   (default 10; only meaningful with --sampled)
//!
//! Ckpt options:
//!   --scale N       workload outer trip count (default catalog scale)
//!   --straight-out PATH
//!                   straight-run JSONL destination
//!                   (default artifacts/ckpt_straight.json)
//!   --restored-out PATH
//!                   restored-run JSONL destination
//!                   (default artifacts/ckpt_restored.json)
//!
//! Dse options:
//!   --preset NAME   which sweep grid to run: `default` (the flagship
//!                   216-point grid) or `tiny` (8-point smoke grid)
//!   --out PATH      write the report to PATH instead of stdout
//!   --log FILE      attach a JSONL event-log sink to the engine (batch
//!                   lifecycle events; validate with
//!                   `experiments logcheck`). File-only: stderr stays
//!                   byte-identical with and without it
//!   --log-level L   event-log severity floor for --log (error|warn|
//!                   info|debug|trace; default debug)
//!
//! Chaos options:
//!   --seed N        fault-shim seed (default 0xcfdc4a05)
//!   --scale N       probe workload outer trip count (default 40)
//!   --json PATH     write the JSON verdict table to PATH ("-" = stdout)
//! ```

use cfd_bench::experiments;
use cfd_exec::{Engine, ExecConfig, RetryPolicy};
use cfd_harden::{run_campaign_on, run_exec_chaos, CampaignConfig, ChaosConfig};
use std::time::Instant;

/// Global flags that outlive subcommand dispatch.
struct Global {
    quiet: bool,
    trace_out: Option<String>,
}

impl Global {
    /// End-of-run chores: the stats line (unless `--quiet`) and the
    /// engine job trace (when `--trace-out` was given).
    fn finish(&self, engine: &Engine) {
        if !self.quiet {
            eprintln!("{}", engine.stats_line());
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, engine.trace_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("engine trace written to {path}");
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let observing = args.first().is_some_and(|a| a == "observe");
    let mut cfg = ExecConfig::from_env();
    let mut global = Global { quiet: false, trace_out: None };
    let mut retries = 0u64;
    let mut timeout_cycles = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                args.remove(i);
                let v = if i < args.len() {
                    args.remove(i)
                } else {
                    eprintln!("--jobs needs a value");
                    std::process::exit(1);
                };
                cfg.jobs = parse_u64(&v).filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("bad value for --jobs: `{v}`");
                    std::process::exit(1);
                }) as usize;
            }
            "--no-cache" => {
                args.remove(i);
                cfg.use_cache = false;
            }
            "--resume" => {
                args.remove(i);
                cfg.resume = true;
            }
            "--retries" => {
                args.remove(i);
                let v = take_value(&mut args, i, "--retries");
                retries = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --retries: `{v}`");
                    std::process::exit(1);
                });
            }
            "--timeout-cycles" => {
                args.remove(i);
                let v = take_value(&mut args, i, "--timeout-cycles");
                timeout_cycles = parse_u64(&v).filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("bad value for --timeout-cycles: `{v}`");
                    std::process::exit(1);
                });
            }
            "--quiet" => {
                args.remove(i);
                global.quiet = true;
            }
            // `observe` keeps its own --trace-out (it names the *pipeline*
            // trace, not the engine's job trace).
            "--trace-out" if !observing => {
                args.remove(i);
                if i >= args.len() {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(1);
                }
                global.trace_out = Some(args.remove(i));
            }
            _ => i += 1,
        }
    }
    if retries > 0 || timeout_cycles > 0 {
        cfg.policy = RetryPolicy::bounded(retries, timeout_cycles);
    }
    let engine = Engine::new(cfg);

    if args.is_empty() || args[0] == "list" {
        println!("available experiments:");
        for e in experiments::all() {
            println!("  {:8} {}", e.id, e.what);
        }
        println!("  {:8} run every experiment", "all");
        println!("  {:8} fault-injection campaign (--seed N --trials N --scale N --smoke --json PATH)", "faults");
        println!("  {:8} static queue-discipline verification of catalog + transforms (--json PATH)", "lint");
        println!(
            "  {:8} catalog-wide branch classes, auto-CFD decisions, differential gates (--json PATH)",
            "separability"
        );
        println!(
            "  {:8} telemetry-armed run of one workload (--variant V --interval N --scale N --csv P --trace-out P)",
            "observe"
        );
        println!(
            "  {:8} host-side simulator throughput over the catalog (--scale N --json PATH --profile --append)",
            "simperf"
        );
        println!(
            "  {:8} IO-fault chaos sweep over cache + journal durability (--seed N --scale N --json PATH)",
            "chaos"
        );
        println!("  {:8} checkpoint-determinism sweep: straight vs quarter-point-restored runs (--scale N)", "ckpt");
        println!(
            "  {:8} DSE sweep with IPC/MPKI/EDP Pareto frontier (--preset default|tiny --out PATH --log FILE)",
            "dse"
        );
        println!("  {:8} validate a JSONL event log and print its canonical form (--log FILE)", "logcheck");
        return;
    }
    if args[0] == "faults" {
        run_fault_campaign(&engine, &global, &args[1..]);
        return;
    }
    if args[0] == "chaos" {
        run_chaos(&args[1..]);
        return;
    }
    if args[0] == "simperf" {
        run_simperf(&args[1..]);
        return;
    }
    if args[0] == "ckpt" {
        run_ckpt(&args[1..]);
        return;
    }
    if args[0] == "dse" {
        run_dse(&engine, &global, &args[1..]);
        return;
    }
    if args[0] == "logcheck" {
        run_logcheck(&args[1..]);
        return;
    }
    if args[0] == "lint" {
        run_lint(&engine, &global, &args[1..]);
        return;
    }
    if args[0] == "separability" {
        run_separability(&args[1..]);
        return;
    }
    if args[0] == "observe" {
        run_observe(&args[1..]);
        return;
    }
    let write_transcript = args[0] == "all";
    let ids: Vec<String> =
        if args[0] == "all" { experiments::all().iter().map(|e| e.id.to_string()).collect() } else { args };
    let mut transcript = String::new();
    for id in ids {
        let Some(e) = experiments::by_id(&id) else {
            eprintln!("unknown experiment `{id}` (try `list`)");
            std::process::exit(1);
        };
        let t0 = Instant::now();
        let header = format!(
            "==============================================================\n\
             == {} — {}\n\
             ==============================================================\n",
            e.id, e.what
        );
        print!("{header}");
        let out = (e.run)(&engine);
        println!("{out}");
        println!("[{} completed in {:.1}s]\n", e.id, t0.elapsed().as_secs_f64());
        if write_transcript {
            transcript.push_str(&header);
            transcript.push_str(&out);
            transcript.push_str("\n\n");
        }
    }
    if write_transcript {
        let path = "artifacts/experiments_output.txt";
        std::fs::create_dir_all("artifacts").unwrap_or_else(|e| {
            eprintln!("cannot create artifacts/: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, &transcript).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("transcript written to {path}");
    }
    global.finish(&engine);
}

fn run_observe(args: &[String]) {
    use cfd_bench::observe::{observe, parse_variant, variant_slug, ObserveOptions};
    let mut name: Option<String> = None;
    let mut opts = ObserveOptions::default();
    let mut csv_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--variant" => {
                let v = val("--variant");
                opts.variant = parse_variant(&v).unwrap_or_else(|| {
                    eprintln!("unknown variant `{v}` (try base, cfd, cfd+, dfd, ...)");
                    std::process::exit(1);
                });
            }
            "--interval" => {
                let v = val("--interval");
                opts.interval = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --interval: `{v}`");
                    std::process::exit(1);
                });
            }
            "--scale" => {
                let v = val("--scale");
                opts.scale.n = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --scale: `{v}`");
                    std::process::exit(1);
                }) as usize;
            }
            "--csv" => csv_path = Some(val("--csv")),
            "--trace-out" => trace_path = Some(val("--trace-out")),
            other if other.starts_with("--") => {
                eprintln!("unknown observe option `{other}`");
                std::process::exit(1);
            }
            other => {
                if name.replace(other.to_string()).is_some() {
                    eprintln!("observe takes exactly one workload");
                    std::process::exit(1);
                }
            }
        }
    }
    let Some(name) = name else {
        eprintln!(
            "usage: experiments observe <workload> [--variant V] [--interval N] [--scale N] [--csv P] [--trace-out P]"
        );
        std::process::exit(1);
    };
    let obs = observe(&name, &opts).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let slug = variant_slug(obs.variant);
    let csv_path = csv_path.unwrap_or_else(|| format!("artifacts/observe_{name}_{slug}.csv"));
    let trace_path = trace_path.unwrap_or_else(|| format!("artifacts/observe_{name}_{slug}.trace.json"));
    print!("{}", obs.render());
    for (path, content) in [(&csv_path, obs.csv()), (&trace_path, obs.trace_json())] {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                });
            }
        }
        std::fs::write(path, content).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    println!("\ntime series written to {csv_path}");
    println!("pipeline trace written to {trace_path} (load in ui.perfetto.dev)");
}

/// `experiments dse`: expand a preset grid, evaluate every point, print
/// the per-point table and Pareto frontier.
fn run_dse(engine: &Engine, global: &Global, args: &[String]) {
    use cfd_serve::SweepConfig;
    let mut preset = "default".to_string();
    let mut out_path: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut log_level = cfd_obs::Level::Debug;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--preset" => preset = val("--preset"),
            "--out" => out_path = Some(val("--out")),
            "--log" => log_path = Some(val("--log")),
            "--log-level" => {
                let v = val("--log-level");
                log_level = cfd_obs::Level::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                });
            }
            other => {
                eprintln!("unknown dse option `{other}`");
                std::process::exit(1);
            }
        }
    }
    // --log attaches a file-only JSONL event sink to the engine (level
    // --log-level, default debug). File-only on purpose: stderr and the
    // golden transcript stay byte-identical with and without it.
    if let Some(path) = &log_path {
        let log = cfd_obs::EventLog::new(log_level).with_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        engine.set_log(Some(std::sync::Arc::new(log)));
    }
    let cfg = SweepConfig::preset(&preset).unwrap_or_else(|| {
        eprintln!("unknown preset `{preset}` (have: default, tiny)");
        std::process::exit(1);
    });
    let t0 = Instant::now();
    let points = cfg.expand().map(|p| p.len()).unwrap_or(0);
    eprintln!("dse sweep: {} ({} grid points, preset `{preset}`)", cfg.describe(), points);
    let report = cfd_serve::run_sweep(engine, &cfg).unwrap_or_else(|e| {
        eprintln!("dse sweep failed: {e}");
        std::process::exit(2);
    });
    match &out_path {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                        eprintln!("cannot create {}: {e}", dir.display());
                        std::process::exit(1);
                    });
                }
            }
            std::fs::write(path, &report).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("DSE report written to {path}");
        }
        None => print!("{report}"),
    }
    println!("[dse completed in {:.1}s: {points} grid points]", t0.elapsed().as_secs_f64());
    global.finish(engine);
}

/// `experiments logcheck --log FILE`: validate a JSONL event log and print
/// its wall-clock-stripped canonical form (the surface verify.sh `cmp`s).
fn run_logcheck(args: &[String]) {
    let path = match args {
        [flag, path] if flag == "--log" => path,
        _ => {
            eprintln!("usage: experiments logcheck --log FILE");
            std::process::exit(1);
        }
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let canonical = cfd_serve::check_log(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    print!("{canonical}");
}

fn run_simperf(args: &[String]) {
    use cfd_bench::simperf;
    use cfd_workloads::Scale;
    let mut scale = Scale::default();
    let mut json_path: Option<String> = None;
    let mut min_kips: Option<f64> = None;
    let mut min_kips_hard: Option<f64> = None;
    let mut with_profile = false;
    let mut append = false;
    let mut sampled = false;
    let mut max_err = 10.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--scale" => {
                let v = val("--scale");
                scale.n = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --scale: `{v}`");
                    std::process::exit(1);
                }) as usize;
            }
            "--json" => json_path = Some(val("--json")),
            "--profile" => with_profile = true,
            "--append" => append = true,
            "--min-kips" => {
                let v = val("--min-kips");
                min_kips = Some(parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --min-kips: `{v}`");
                    std::process::exit(1);
                }) as f64);
            }
            "--min-kips-hard" => {
                let v = val("--min-kips-hard");
                min_kips_hard = Some(parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --min-kips-hard: `{v}`");
                    std::process::exit(1);
                }) as f64);
            }
            "--sampled" => sampled = true,
            "--max-err" => {
                let v = val("--max-err");
                max_err = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --max-err: `{v}`");
                    std::process::exit(1);
                }) as f64;
            }
            other => {
                eprintln!("unknown simperf option `{other}`");
                std::process::exit(1);
            }
        }
    }
    if sampled {
        let t0 = Instant::now();
        let rows = simperf::run_catalog_sampled(scale, cfd_core::SampleConfig::default());
        print!("{}", simperf::sampled_table(&rows));
        let over = simperf::sampled_over_bound(&rows, max_err);
        for r in &over {
            eprintln!(
                "[simperf] ERROR: {} [{}] sampled IPC {:.4} vs full {:.4} ({:.2}% > {max_err:.0}% bound)",
                r.name,
                r.variant.label(),
                r.ipc_sampled,
                r.ipc_full,
                r.err_percent
            );
        }
        println!(
            "[simperf sampled cross-check completed in {:.1}s: {} workloads]",
            t0.elapsed().as_secs_f64(),
            rows.len()
        );
        if !over.is_empty() {
            std::process::exit(4);
        }
        return;
    }
    let t0 = Instant::now();
    let (rows, profile) = if with_profile {
        let (rows, p) = simperf::run_catalog_profiled(scale);
        (rows, Some(p))
    } else {
        (simperf::run_catalog(scale), None)
    };
    print!("{}", simperf::table(&rows));
    if let Some(p) = &profile {
        print!("{}", simperf::profile_table(p));
    }
    if let Some(floor) = min_kips {
        for r in simperf::below_floor(&rows, floor) {
            eprintln!(
                "[simperf] WARNING: {} [{}] simulated at {:.0} KIPS, below the {floor:.0} KIPS soft floor",
                r.name,
                r.variant.label(),
                r.kips
            );
        }
    }
    let hard_floor_broken = min_kips_hard.is_some_and(|floor| {
        let slow = simperf::below_floor(&rows, floor);
        for r in &slow {
            eprintln!(
                "[simperf] ERROR: {} [{}] simulated at {:.0} KIPS, below the {floor:.0} KIPS hard floor",
                r.name,
                r.variant.label(),
                r.kips
            );
        }
        !slow.is_empty()
    });
    let ts = std::time::SystemTime::now().duration_since(std::time::SystemTime::UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let record = simperf::history_record(&rows, profile.as_ref(), ts, scale.n);
    let json_path = json_path.unwrap_or_else(|| "artifacts/BENCH_simperf.json".to_string());
    if json_path == "-" {
        println!("{record}");
    } else {
        if let Some(dir) = std::path::Path::new(&json_path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                });
            }
        }
        let write = |path: &str| {
            if append {
                use std::io::Write as _;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{record}"))
            } else {
                std::fs::write(path, format!("{record}\n"))
            }
        };
        write(&json_path).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            std::process::exit(1);
        });
        println!("timing record {} {json_path}", if append { "appended to" } else { "written to" });
    }
    println!("[simperf completed in {:.1}s: {} workloads]", t0.elapsed().as_secs_f64(), rows.len());
    if hard_floor_broken {
        std::process::exit(3);
    }
}

fn run_ckpt(args: &[String]) {
    use cfd_bench::ckpt;
    use cfd_workloads::Scale;
    let mut scale = Scale::default();
    let mut straight_out = "artifacts/ckpt_straight.json".to_string();
    let mut restored_out = "artifacts/ckpt_restored.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--scale" => {
                let v = val("--scale");
                scale.n = parse_u64(&v).unwrap_or_else(|| {
                    eprintln!("bad value for --scale: `{v}`");
                    std::process::exit(1);
                }) as usize;
            }
            "--straight-out" => straight_out = val("--straight-out"),
            "--restored-out" => restored_out = val("--restored-out"),
            other => {
                eprintln!("unknown ckpt option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let t0 = Instant::now();
    let rows = ckpt::run_catalog_ckpt(scale);
    print!("{}", ckpt::table(&rows));
    let write = |path: &str, body: String| {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                    eprintln!("cannot create {}: {e}", dir.display());
                    std::process::exit(1);
                });
            }
        }
        std::fs::write(path, body).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    };
    write(&straight_out, ckpt::straight_lines(&rows));
    write(&restored_out, ckpt::restored_lines(&rows));
    println!("report lines written to {straight_out} and {restored_out}");
    println!("[ckpt completed in {:.1}s: {} workloads]", t0.elapsed().as_secs_f64(), rows.len());
    for r in rows.iter().filter(|r| !r.ok()) {
        eprintln!(
            "[ckpt] ERROR: {} [{}] restored run diverged from straight run at cycle(s) {:?}",
            r.name,
            r.variant.label(),
            r.mismatched_at
        );
    }
    if rows.iter().any(|r| !r.ok()) {
        std::process::exit(2);
    }
}

fn run_lint(engine: &Engine, global: &Global, args: &[String]) {
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(1);
                }))
            }
            other => {
                eprintln!("unknown lint option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let t0 = Instant::now();
    let rows = cfd_bench::lint::lint_all_on(engine);
    print!("{}", cfd_bench::lint::table(&rows));
    match json_path.as_deref() {
        Some("-") => println!("{}", cfd_bench::lint::to_json(&rows)),
        Some(path) => {
            std::fs::write(path, cfd_bench::lint::to_json(&rows)).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("lint table written to {path}");
        }
        None => {}
    }
    let errors = cfd_bench::lint::error_count(&rows);
    println!(
        "[lint completed in {:.1}s: {} programs, {} error finding(s)]",
        t0.elapsed().as_secs_f64(),
        rows.len(),
        errors
    );
    global.finish(engine);
    if errors > 0 {
        std::process::exit(2);
    }
}

fn run_separability(args: &[String]) {
    use cfd_bench::separability;
    use cfd_workloads::Scale;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(1);
                }))
            }
            other => {
                eprintln!("unknown separability option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let t0 = Instant::now();
    let rows = separability::run_separability(Scale { n: 400, seed: 9 });
    print!("{}", separability::table(&rows));
    match json_path.as_deref() {
        Some("-") => println!("{}", separability::to_json(&rows)),
        Some(path) => {
            std::fs::write(path, separability::to_json(&rows)).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("separability table written to {path}");
        }
        None => {}
    }
    let ok = separability::gate_ok(&rows);
    println!(
        "[separability completed in {:.1}s: {} branches, gates {}]",
        t0.elapsed().as_secs_f64(),
        rows.len(),
        if ok { "pass" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(2);
    }
}

fn run_chaos(args: &[String]) {
    let mut cfg = ChaosConfig::default();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            });
            parse_u64(v).unwrap_or_else(|| {
                eprintln!("bad value for {what}: `{v}`");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--seed" => cfg.seed = num("--seed"),
            "--scale" => cfg.scale_n = num("--scale") as usize,
            "--json" => {
                json_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(1);
                }))
            }
            other => {
                eprintln!("unknown chaos option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let t0 = Instant::now();
    println!("exec chaos sweep: seed {:#x}, scale {}, cache root {}", cfg.seed, cfg.scale_n, cfg.cache_root.display());
    let report = run_exec_chaos(&cfg);
    println!("{}", report.table());
    match json_path.as_deref() {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => {
            std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("verdict table written to {path}");
        }
        None => {}
    }
    let silent = report.silent_divergences();
    println!(
        "[chaos completed in {:.1}s: {} scenarios, {} contract violations]",
        t0.elapsed().as_secs_f64(),
        report.outcomes.len(),
        silent
    );
    if silent > 0 {
        std::process::exit(2);
    }
}

fn run_fault_campaign(engine: &Engine, global: &Global, args: &[String]) {
    let mut cfg = CampaignConfig::default();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(1);
            });
            parse_u64(v).unwrap_or_else(|| {
                eprintln!("bad value for {what}: `{v}`");
                std::process::exit(1);
            })
        };
        match a.as_str() {
            "--seed" => cfg.seed = num("--seed"),
            "--trials" => cfg.trials_per_pair = num("--trials") as usize,
            "--scale" => cfg.scale_n = num("--scale") as usize,
            "--smoke" => cfg.scale_n = 40,
            "--json" => {
                json_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(1);
                }))
            }
            other => {
                eprintln!("unknown campaign option `{other}`");
                std::process::exit(1);
            }
        }
    }
    let t0 = Instant::now();
    println!(
        "fault campaign: seed {:#x}, {} workloads x {} fault classes, {} trial(s)/pair, scale {}",
        cfg.seed,
        cfg.workloads.len(),
        cfg.faults.len(),
        cfg.trials_per_pair,
        cfg.scale_n
    );
    let report = run_campaign_on(engine, &cfg);
    println!("{}", report.table());
    match json_path.as_deref() {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => {
            std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("verdict table written to {path}");
        }
        None => {}
    }
    let silent = report.silent_divergences();
    println!(
        "[faults completed in {:.1}s: {} trials, {} contract violations]",
        t0.elapsed().as_secs_f64(),
        report.outcomes.len(),
        silent
    );
    global.finish(engine);
    if silent > 0 {
        std::process::exit(2);
    }
}

/// Pops the value following a global flag out of the arg vector (the
/// flag itself has already been removed at index `i`).
fn take_value(args: &mut Vec<String>, i: usize, flag: &str) -> String {
    if i < args.len() {
        args.remove(i)
    } else {
        eprintln!("{flag} needs a value");
        std::process::exit(1);
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}
