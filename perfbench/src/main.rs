//! The repository benchmark: one command that runs a named workload,
//! checks every output, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as the last line of its output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detail --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root; see README.md for what each workload
//! and metric means.

mod host;
mod kernels;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{median, Layer, Name, Options, Outcome};

/// Every per-layer metric the traced run reports, with its unit, besides
/// one `bench.experiment.<id>_ms` per experiment. A layer the workload
/// sends no traffic to reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.build_ms", "ms"),
    ("isa.machine_mips", "Minstr/s"),
    ("predictor.tage_ns_per_branch", "ns"),
    ("predictor.branches", "count"),
    ("predictor.mispredicts", "count"),
    ("predictor.btb_ns_per_op", "ns"),
    ("mem.hierarchy_ns_per_access", "ns"),
    ("mem.accesses", "count"),
    ("mem.misses_l1", "count"),
    ("mem.misses_l2", "count"),
    ("mem.misses_l3", "count"),
    ("core.ns_per_cycle.base", "ns"),
    ("core.ns_per_cycle.cfd", "ns"),
    ("core.cycles", "count"),
    ("core.retired", "count"),
    ("kcps", "kcycle/s"),
    ("core.pipeline_share_est", "%"),
    ("core.oracle_share_est", "%"),
    ("core.predictor_share_est", "%"),
    ("core.hierarchy_share_est", "%"),
    ("core.sampled_ns_per_instr", "ns"),
    ("core.sampled_intervals", "count"),
    ("core.sampled_ff_share", "%"),
    ("ipc_err_pct", "%"),
    ("profile.ns_per_instr", "ns"),
    ("profile.predictor_share", "%"),
    ("analysis.classify_ms", "ms"),
    ("exec.fingerprint_us_per_job", "us"),
    ("exec.cache_load_us_per_job", "us"),
    ("exec.json_decode_us_per_job", "us"),
    ("exec.cache_hits", "count"),
    ("exec.executed", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric, with its unit.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.extend(workloads::experiment_ids().into_iter().map(|id| (format!("bench.experiment.{id}_ms"), "ms")));
    out
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload detail|sampled|profile|campaign_warm --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Option<Options> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Name::parse(v)?),
            "--seed" => seed = Some(v.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(v.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Options {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        n: None,
        work_dir: PathBuf::from("perfbench/work").join(std::process::id().to_string()),
    })
}

/// `(name, value, unit)` of every metric the run reports.
fn metrics(o: &Outcome, trace: bool, peak_rss_mb: f64) -> Vec<(String, f64, &'static str)> {
    if trace {
        return per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let v = o.layers.iter().find(|l| l.name == name).map_or(0.0, |l| l.value);
                (name, v, unit)
            })
            .collect();
    }
    let wall = workloads::best_pass_s(&o.laps);
    vec![
        ("setup_s".into(), o.setup_s, "s"),
        ("wall_s".into(), wall, "s"),
        ("kips".into(), o.instructions as f64 / 1e3 / wall, "kinstr/s"),
        ("jobs_per_s".into(), o.jobs as f64 / wall, "1/s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ]
}

fn json_line(o: &Outcome, metrics: &[(String, f64, &'static str)]) -> String {
    let mut m = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|| usage());
    let steal0 = host::steal_ticks();
    let o = workloads::run(&opts);
    let steal = host::steal_ticks().zip(steal0).map(|(b, a)| (b.0 - a.0, b.1 - a.1));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let rss = host::peak_rss_mb();
    let ms = metrics(&o, opts.trace, rss);
    let record = host::record(steal);
    let failed_frac = o.tally.failed as f64 / o.tally.attempted.max(1) as f64;

    let mut report = String::new();
    let name = opts.workload.as_str();
    let _ =
        writeln!(report, "workload {name} seed {} trace {} passes {}", opts.seed, u8::from(opts.trace), o.pass_s.len());
    let _ = writeln!(report, "digest {:016x}", o.digest);
    let _ = writeln!(
        report,
        "checks {} attempted, {} failed, failed_frac {failed_frac}",
        o.tally.attempted, o.tally.failed
    );
    for n in &o.tally.notes {
        let _ = writeln!(report, "  FAILED {n}");
    }
    let _ = writeln!(report, "host {record}");
    for n in &o.notes {
        let _ = writeln!(report, "note {n}");
    }
    let pass_list: Vec<String> = o.pass_s.iter().map(|s| format!("{s:.4}")).collect();
    let _ = writeln!(report, "pass_s [{}]", pass_list.join(", "));
    let _ = writeln!(report, "median_pass_s {:.4} (wall_s sums each call's fastest time)", median(&o.pass_s));
    if opts.trace {
        let _ = write!(report, "self time per span:\n{}", o.tracer.table());
        for Layer { name, value, unit, base } in &o.layers {
            let _ = writeln!(report, "layer {name:<32} {value:>14.4} {unit:<9} base: {base}");
        }
    }
    for (n, v, u) in &ms {
        let _ = writeln!(report, "metric {n:<32} {v:>14.4} {u}");
    }
    print!("{report}");

    // The results file: everything printed, plus the spans of a traced run.
    let dir = PathBuf::from("perfbench/results");
    let path = dir.join(format!("{name}-seed{}-trace{}.json", opts.seed, u8::from(opts.trace)));
    let mut file = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failed_frac\":{failed_frac},\"host\":",
        opts.seed,
        opts.trace,
        o.digest,
        o.tally.attempted,
        o.tally.failed,
    );
    cfd_exec::json::write_str(&mut file, &record);
    file.push_str(",\"report\":");
    cfd_exec::json::write_str(&mut file, &report);
    if opts.trace {
        let _ = write!(file, ",\"spans\":{}", o.tracer.to_json());
    }
    file.push('}');
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", json_line(&o, &ms));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Tally;

    fn tiny(workload: Name, trace: bool) -> Options {
        Options {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            n: Some(40),
            work_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
        }
    }

    #[test]
    fn two_runs_give_identical_digests() {
        for w in [Name::Detail, Name::Sampled, Name::Profile] {
            let (a, b) = (workloads::run(&tiny(w, false)), workloads::run(&tiny(w, false)));
            assert_eq!(a.digest, b.digest, "{w:?}");
            assert_eq!((a.tally.failed, b.tally.failed), (0, 0), "{w:?}: {:?}", a.tally.notes);
            let traced = workloads::run(&tiny(w, true));
            assert_eq!(traced.digest, a.digest, "{w:?}: tracing must not change simulated output");
        }
    }

    #[test]
    fn another_seed_gives_another_digest() {
        let a = workloads::run(&tiny(Name::Detail, false));
        let b = workloads::run(&Options { seed: 8, ..tiny(Name::Detail, false) });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn tampered_instruction_count_is_exactly_one_failed_op() {
        let opts = tiny(Name::Detail, false);
        let clean = workloads::run(&opts);
        let tampered = workloads::run_tampered(&opts, |kernels| kernels[3].instructions += 1);
        assert_eq!(clean.tally.failed, 0);
        assert_eq!(tampered.tally.failed, 1, "{:?}", tampered.tally.notes);
        assert_eq!(tampered.tally.attempted, clean.tally.attempted);
    }

    #[test]
    fn tampered_transcript_is_exactly_one_failed_op() {
        let golden = "== fig1\nrow 1.00x\n";
        let mut t = Tally::default();
        workloads::check_transcript(&mut t, golden, golden, "warm");
        workloads::check_transcript(&mut t, "== fig1\nrow 1.01x\n", golden, "warm");
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(t.notes[0].contains("line 2"), "{:?}", t.notes);
    }

    #[test]
    fn a_panicking_call_is_an_error_not_a_crash() {
        let out: Result<u64, String> = workloads::guard(|| -> Result<u64, String> { panic!("simulator bug") });
        assert_eq!(out, Err("panicked".to_string()));
        assert_eq!(workloads::guard(|| Err::<u64, _>("bad pc")), Err("bad pc".to_string()));
    }

    #[test]
    fn self_times_sum_to_their_parent_spans() {
        let o = workloads::run(&tiny(Name::Detail, true));
        let spans = o.tracer.spans();
        assert!(spans.iter().any(|s| s.name == "core.run.cfd"));
        assert!(spans.iter().any(|s| s.name == "predictor.isl_tage"));
        let own = o.tracer.self_ns();
        for (i, root) in spans.iter().enumerate() {
            // Every span's self time plus its descendants' self times is
            // its duration.
            let mut subtree = 0;
            for (j, _) in spans.iter().enumerate() {
                let mut k = Some(j);
                while let Some(x) = k {
                    if x == i {
                        subtree += own[j];
                        break;
                    }
                    k = spans[x].parent;
                }
            }
            assert_eq!(subtree, root.dur_ns(), "span {} ({})", i, root.name);
        }
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let o = workloads::run(&tiny(Name::Detail, true));
        let ms = metrics(&o, true, 1.0);
        assert_eq!(ms.len(), per_layer_names().len());
        assert!(ms.iter().any(|(n, v, _)| n == "core.pipeline_share_est" && *v > 0.0));
        let e2e = metrics(&o, false, 1.0);
        assert!(e2e.iter().all(|(_, v, _)| *v > 0.0), "{e2e:?}");
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        for (name, unit) in per_layer_names() {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name} [{unit}]");
        }
        let o = workloads::run(&tiny(Name::Detail, false));
        for (name, _, unit) in metrics(&o, false, 1.0) {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name} [{unit}]");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let ok: Vec<String> = ["--workload", "profile", "--seed", "3", "--seconds", "10", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_args(&ok).expect("valid");
        assert_eq!((o.workload, o.seed, o.seconds, o.trace), (Name::Profile, 3, 10.0, true));
        let mut bad = ok.clone();
        bad[1] = "nope".into();
        assert!(parse_args(&bad).is_none());
        assert!(parse_args(&ok[..6]).is_none());
    }
}
