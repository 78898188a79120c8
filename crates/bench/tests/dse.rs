//! `experiments dse` integration: the tiny grid end-to-end (deterministic
//! across worker counts, structurally sound, replayed from a warm cache
//! without re-executing) and structural checks on the
//! checked-in flagship fixture — parsed and re-analyzed, never
//! re-simulated (the 216-point grid is release-binary work; verify.sh
//! regenerates it and `cmp`s the bytes).

use cfd_exec::{Engine, ExecConfig};
use cfd_serve::{frontier, run_sweep, DseRow, SweepConfig};

fn cacheless(jobs: usize) -> Engine {
    Engine::new(ExecConfig { jobs, use_cache: false, journal: false, ..ExecConfig::default() })
}

#[test]
fn tiny_sweep_report_is_deterministic_and_structured() {
    let cfg = SweepConfig::preset_tiny();
    let a = run_sweep(&cacheless(1), &cfg).unwrap();
    let b = run_sweep(&cacheless(2), &cfg).unwrap();
    assert_eq!(a, b, "report bytes must not depend on worker count");

    let points = cfg.expand().unwrap().len();
    assert!(a.starts_with(&format!("# DSE sweep: {}, {points} points\n", cfg.describe())));
    let (table, front) = parse_report(&a);
    assert_eq!(table.len(), points);
    assert!(!front.is_empty(), "a finite sweep always has a frontier");
    assert!(front.len() <= table.len());
}

/// A sweep re-run on a warm cache re-executes nothing: a fresh engine on
/// the same cache directory serves every point from disk and renders the
/// same bytes.
#[test]
fn warm_cache_replay_executes_nothing() {
    let dir = std::env::temp_dir().join(format!("cfd-dse-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = || Engine::new(ExecConfig { jobs: 2, cache_dir: dir.clone(), ..ExecConfig::default() });
    let cfg = SweepConfig::preset_tiny();

    let cold = run_sweep(&cached(), &cfg).unwrap();
    let warm_engine = cached();
    let warm = run_sweep(&warm_engine, &cfg).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warm, cold, "warm replay must be byte-identical to the cold run");
    let stats = warm_engine.stats();
    assert_eq!(stats.executed, 0, "warm replay re-executed points");
    assert_eq!(stats.cache_hits, 8, "every tiny-grid point comes from the cache");
}

/// The flagship fixture holds the contract the issue names: >= 200 grid
/// points, a non-empty frontier, and no dominated point on it. The rows
/// are parsed back from the rendered table and re-analyzed with the same
/// `frontier` the generator used — at table precision the rendered
/// digits round-trip exactly, so this re-derivation is lossless.
#[test]
fn flagship_fixture_has_full_grid_and_clean_frontier() {
    let text = std::fs::read_to_string("tests/fixtures/dse_default.txt")
        .expect("checked-in fixture tests/fixtures/dse_default.txt");
    let (table, front) = parse_report(&text);
    assert!(table.len() >= 200, "flagship grid must have >= 200 points, found {}", table.len());
    assert!(!front.is_empty(), "frontier must be non-empty");

    let recomputed = frontier(&table);
    let expected: Vec<String> = recomputed.iter().map(|&i| table[i].label.clone()).collect();
    let got: Vec<String> = front.iter().map(|r| r.label.clone()).collect();
    assert_eq!(got, expected, "fixture frontier must be exactly the non-dominated set, in grid order");

    // Every frontier row repeats a grid row verbatim.
    for f in &front {
        assert!(
            table.iter().any(|t| t.label == f.label && t.ipc == f.ipc && t.mpki == f.mpki && t.edp == f.edp),
            "frontier row {} not found in the grid table",
            f.label
        );
    }
}

/// Parses the rendered report back into (grid rows, frontier rows).
fn parse_report(text: &str) -> (Vec<DseRow>, Vec<DseRow>) {
    let mut table = Vec::new();
    let mut front = Vec::new();
    let mut in_front = false;
    for line in text.lines() {
        if line.starts_with("# Pareto frontier") {
            in_front = true;
            continue;
        }
        if line.starts_with('#') || line.starts_with("point") || line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert!(cols.len() >= 4, "malformed row: {line}");
        let row = DseRow {
            label: cols[..cols.len() - 3].join(" "),
            ipc: cols[cols.len() - 3].parse().unwrap(),
            mpki: cols[cols.len() - 2].parse().unwrap(),
            edp: cols[cols.len() - 1].parse().unwrap(),
        };
        if in_front {
            front.push(row);
        } else {
            table.push(row);
        }
    }
    (table, front)
}
