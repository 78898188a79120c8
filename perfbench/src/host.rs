//! The host-noise record kept with every run, so a run slowed by CPU steal
//! or another toolchain reads as such and not as a regression.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// User plus system CPU time of this process so far, in seconds
/// (`/proc/self/stat`, assuming the usual 100 ticks per second).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest.split_whitespace().skip(11).take(2).filter_map(|x| x.parse().ok()).collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "none".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// FNV-1a over the simulator's sources, in path order: names the code
/// under test where no git metadata is present.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// One line: core count, CPU model, toolchain, code identity, and the
/// steal ticks accrued during the run.
pub fn record(steal: Option<(u64, u64)>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={} src={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        source_digest()
    );
    match steal {
        Some((s, total)) => {
            let _ = write!(out, " steal_ticks={s} steal_pct={:.2}", 100.0 * s as f64 / total.max(1) as f64);
        }
        None => out.push_str(" steal_ticks=unknown"),
    }
    out
}
