//! Deterministic Pareto aggregation over (IPC, MPKI, EDP).
//!
//! Dominance is decided on the *rendered* metrics, not the raw `f64`s:
//! each metric is passed through the fixed-precision funnel in
//! `cfd-energy` ([`fixed_scaled`]) at the same precision the table
//! prints, so the frontier can never disagree with the numbers the
//! reader sees, and the whole report is byte-stable across hosts. A
//! point is dominated when another point is at least as good on every
//! objective (IPC maximized; MPKI and EDP minimized) and strictly better
//! on at least one; rendering-identical points do not dominate each
//! other, so ties survive together. Frontier order is input (grid
//! expansion) order.

use cfd_energy::{fixed, fixed_scaled};

/// Decimals printed (and compared) per metric.
const IPC_DECIMALS: usize = 3;
const MPKI_DECIMALS: usize = 2;
const EDP_DECIMALS: usize = 3;

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct DseRow {
    /// Grid-point label (`pred=... bq=... ...`).
    pub label: String,
    /// Retired instructions per cycle (maximize).
    pub ipc: f64,
    /// Mispredictions per kilo-instruction (minimize).
    pub mpki: f64,
    /// Energy-delay product in µJ·cycles (minimize).
    pub edp: f64,
}

/// The three objectives as scaled integers at table precision.
/// Non-finite metrics (a zero-cycle run) are treated as worst-possible.
fn key(r: &DseRow) -> (i128, i128, i128) {
    (
        fixed_scaled(r.ipc, IPC_DECIMALS).unwrap_or(i128::MIN),
        fixed_scaled(r.mpki, MPKI_DECIMALS).unwrap_or(i128::MAX),
        fixed_scaled(r.edp, EDP_DECIMALS).unwrap_or(i128::MAX),
    )
}

/// Whether `a` dominates `b` at table precision.
fn dominates(a: (i128, i128, i128), b: (i128, i128, i128)) -> bool {
    a.0 >= b.0 && a.1 <= b.1 && a.2 <= b.2 && a != b
}

/// Indices of the non-dominated rows, in input order.
pub fn frontier(rows: &[DseRow]) -> Vec<usize> {
    let keys: Vec<_> = rows.iter().map(key).collect();
    (0..rows.len()).filter(|&i| !keys.iter().any(|&k| dominates(k, keys[i]))).collect()
}

/// Renders the full DSE report: every grid point, then the frontier.
///
/// Contains no timing, host, or cache-state information — the bytes are
/// a pure function of the evaluated rows, which is what lets a run at any
/// `--jobs` or cache state `cmp` equal to the checked-in fixture.
pub fn render_report(title: &str, rows: &[DseRow]) -> String {
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max("point".len());
    let front = frontier(rows);
    let mut out = String::with_capacity(rows.len() * 96 + 256);
    out.push_str(&format!("# DSE sweep: {title}, {} points\n", rows.len()));
    let header = format!("{:<label_w$} {:>7} {:>8} {:>12}\n", "point", "ipc", "mpki", "edp");
    out.push_str(&header);
    for r in rows {
        out.push_str(&format!(
            "{:<label_w$} {:>7} {:>8} {:>12}\n",
            r.label,
            fixed(r.ipc, IPC_DECIMALS),
            fixed(r.mpki, MPKI_DECIMALS),
            fixed(r.edp, EDP_DECIMALS)
        ));
    }
    out.push_str(&format!("# Pareto frontier (maximize IPC, minimize MPKI, minimize EDP): {} points\n", front.len()));
    out.push_str(&header);
    for &i in &front {
        let r = &rows[i];
        out.push_str(&format!(
            "{:<label_w$} {:>7} {:>8} {:>12}\n",
            r.label,
            fixed(r.ipc, IPC_DECIMALS),
            fixed(r.mpki, MPKI_DECIMALS),
            fixed(r.edp, EDP_DECIMALS)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, ipc: f64, mpki: f64, edp: f64) -> DseRow {
        DseRow { label: label.to_string(), ipc, mpki, edp }
    }

    /// O(n²) reference: a row survives iff no other row beats it.
    fn brute_force(rows: &[DseRow]) -> Vec<usize> {
        (0..rows.len())
            .filter(|&i| !(0..rows.len()).any(|j| j != i && dominates(key(&rows[j]), key(&rows[i]))))
            .collect()
    }

    #[test]
    fn dominated_points_are_excluded() {
        let rows =
            [row("good", 2.0, 1.0, 10.0), row("worse-everywhere", 1.5, 2.0, 20.0), row("tradeoff", 2.5, 3.0, 8.0)];
        assert_eq!(frontier(&rows), vec![0, 2]);
    }

    #[test]
    fn ties_at_table_precision_both_survive() {
        // Differ only below the rendered precision: neither dominates.
        let rows = [row("a", 2.0001, 1.0, 10.0), row("b", 2.0004, 1.0, 10.0)];
        assert_eq!(frontier(&rows), vec![0, 1]);
        // A visible difference in one objective does dominate.
        let rows = [row("a", 2.0, 1.0, 10.0), row("b", 2.01, 1.0, 10.0)];
        assert_eq!(frontier(&rows), vec![1]);
    }

    #[test]
    fn frontier_matches_brute_force_on_a_grid() {
        // A deterministic pseudo-grid with plenty of dominance structure.
        let mut rows = Vec::new();
        let mut x: u64 = 0x5eed;
        for i in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (x >> 33) % 300;
            let b = (x >> 13) % 300;
            rows.push(row(&format!("p{i}"), a as f64 / 100.0, b as f64 / 10.0, (a + b) as f64 / 3.0));
        }
        let got = frontier(&rows);
        assert_eq!(got, brute_force(&rows));
        assert!(!got.is_empty(), "a finite set always has a non-dominated point");
    }

    #[test]
    fn report_lists_every_point_and_a_nonempty_frontier() {
        let rows = [row("a", 2.0, 1.0, 10.0), row("b", 1.0, 2.0, 20.0)];
        let text = render_report("demo", &rows);
        assert!(text.starts_with("# DSE sweep: demo, 2 points\n"));
        assert!(text.contains("# Pareto frontier (maximize IPC, minimize MPKI, minimize EDP): 1 points\n"));
        assert_eq!(text.matches("\na ").count(), 2, "frontier row repeats the point row");
        assert_eq!(text.matches("2.000").count(), 2);
        assert!(text.contains("1.00"));
        // Deterministic: same input, same bytes.
        assert_eq!(render_report("demo", &rows), text);
    }
}
