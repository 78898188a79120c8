//! Running a sweep end to end: expand, execute on a `cfd-exec` engine,
//! evaluate IPC/MPKI/EDP per point, render the Pareto report.
//!
//! This is the code path behind `experiments dse`.

use crate::pareto::{render_report, DseRow};
use crate::sweep::SweepConfig;
use cfd_energy::{edp_uj_cycles, EnergyModel};
use cfd_exec::Engine;

/// Expands and runs `cfg` on `engine`, returning the rendered report.
///
/// Any failed point (panic, timeout, quarantine) fails the sweep: DSE
/// grids run healthy configurations, so a failure is a bug to surface,
/// not a row to skip silently.
pub fn run_sweep(engine: &Engine, cfg: &SweepConfig) -> Result<String, String> {
    let points = cfg.expand()?;
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    let model = EnergyModel::default();
    let mut rows = Vec::with_capacity(points.len());
    for (point, result) in points.iter().zip(engine.run_all(&jobs)) {
        let report = result.map_err(|e| format!("{}: {e}", point.label))?;
        rows.push(DseRow {
            label: point.label.clone(),
            ipc: report.stats.ipc(),
            mpki: report.stats.mpki(),
            edp: edp_uj_cycles(model.total_pj(&report.events), report.stats.cycles),
        });
    }
    Ok(render_report(&cfg.describe(), &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_exec::ExecConfig;

    fn cacheless(jobs: usize) -> Engine {
        Engine::new(ExecConfig { jobs, use_cache: false, journal: false, ..ExecConfig::default() })
    }

    #[test]
    fn tiny_sweep_event_log_is_byte_identical_across_worker_counts() {
        use cfd_obs::{strip_wall, EventLog, Level};
        use std::sync::Arc;
        let run = |jobs: usize| {
            let engine = cacheless(jobs);
            let log = Arc::new(EventLog::memory(Level::Debug));
            engine.set_log(Some(Arc::clone(&log)));
            run_sweep(&engine, &SweepConfig::preset_tiny()).unwrap();
            log.contents()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(strip_wall(&serial), strip_wall(&parallel), "JSONL event stream must not depend on --jobs");
        // And the stream passes the logcheck schema gate.
        let canonical = crate::logcheck::check_log(&serial).unwrap();
        assert!(canonical.contains("\"event\":\"batch_start\""), "{canonical}");
        assert!(canonical.contains("\"event\":\"batch_done\""), "{canonical}");
    }

    #[test]
    fn tiny_sweep_is_deterministic_across_worker_counts() {
        let cfg = SweepConfig::preset_tiny();
        let serial = run_sweep(&cacheless(1), &cfg).unwrap();
        let parallel = run_sweep(&cacheless(4), &cfg).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.contains("# DSE sweep: soplex_ref_like [cfd] n=120, 8 points"));
        assert!(serial.contains("# Pareto frontier"));
        // Every grid point appears as a row.
        for p in cfg.expand().unwrap() {
            assert!(serial.contains(&p.label), "missing row for {}", p.label);
        }
    }
}
