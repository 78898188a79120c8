//! Declarative DSE sweep configs and their expansion into fingerprinted
//! simulation jobs.
//!
//! A [`SweepConfig`] names one workload/variant/scale and a value list
//! per design axis (predictor, BQ/VQ/TQ depths, fetch/issue widths, L1
//! capacity). [`SweepConfig::expand`] takes the cross product in a fixed
//! axis order, builds one [`SimJob`] per grid point, and drops exact
//! duplicates (repeated axis values), so expansion is deterministic and
//! duplicate-free — the property the Pareto fixtures rest on.

use cfd_core::CoreConfig;
use cfd_exec::{CampaignJob, SimJob};
use cfd_workloads::{by_name, Scale, Variant, Workload};

/// Cycle budget per DSE point. Grid points run small problem sizes
/// (thousands to tens of thousands of cycles); the budget only bounds a
/// runaway configuration. Part of every job fingerprint.
pub const DSE_CYCLE_LIMIT: u64 = 50_000_000;

/// A declarative design-space sweep: one workload, a value list per axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Catalog kernel name (e.g. `"soplex_ref_like"`).
    pub workload: String,
    /// Variant label (e.g. `"cfd"`; see [`Variant::label`]).
    pub variant: String,
    /// Outer trip count of the kernel ([`Scale::n`]; the seed is the
    /// catalog default).
    pub scale_n: usize,
    /// Direction-predictor names.
    pub predictors: Vec<String>,
    /// Branch Queue depths.
    pub bq: Vec<usize>,
    /// Value Queue depths.
    pub vq: Vec<usize>,
    /// Trip-count Queue depths.
    pub tq: Vec<usize>,
    /// `(fetch/retire width, issue width)` pairs.
    pub widths: Vec<(usize, usize)>,
    /// L1D capacities in KB.
    pub l1_kb: Vec<usize>,
}

/// One expanded grid point: the rendering label and the job to run.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// Stable human-readable point label (one table cell).
    pub label: String,
    /// The simulation job for this point.
    pub job: SimJob,
}

/// The variants a sweep config may name, with their report labels.
const VARIANTS: [Variant; 9] = [
    Variant::Base,
    Variant::Cfd,
    Variant::CfdPlus,
    Variant::Dfd,
    Variant::CfdDfd,
    Variant::CfdTq,
    Variant::CfdBq,
    Variant::CfdBqTq,
    Variant::IfConv,
];

fn variant_by_label(label: &str) -> Option<Variant> {
    VARIANTS.into_iter().find(|v| v.label() == label)
}

impl SweepConfig {
    /// The flagship grid: 216 points over the paper's sensitivity axes
    /// (predictor × BQ × VQ × TQ × width × L1) on the `soplex_ref_like`
    /// CFD+ kernel. This is what `experiments dse` renders into the
    /// checked-in Pareto fixture.
    ///
    /// Queue depths start at the kernel's software chunk size (128):
    /// chunked CFD pushes a whole chunk of predicates/values before the
    /// consumer loop drains, so a BQ or VQ shallower than the chunk is
    /// not a runnable software configuration (the push loop wedges) —
    /// the same reason the paper's queue-sensitivity figures saturate at
    /// the chunk size.
    pub fn preset_default() -> SweepConfig {
        SweepConfig {
            workload: "soplex_ref_like".to_string(),
            variant: "cfd+".to_string(),
            scale_n: 400,
            predictors: vec![
                "isl-tage".to_string(),
                "gshare".to_string(),
                "perceptron".to_string(),
                "bimodal".to_string(),
            ],
            bq: vec![128, 192, 256],
            vq: vec![128, 256],
            tq: vec![256],
            widths: vec![(2, 4), (4, 6), (8, 8)],
            l1_kb: vec![4, 8, 32],
        }
    }

    /// A small 8-point grid for tests and the CI event-log gate.
    pub fn preset_tiny() -> SweepConfig {
        SweepConfig {
            workload: "soplex_ref_like".to_string(),
            variant: "cfd".to_string(),
            scale_n: 120,
            predictors: vec!["gshare".to_string(), "bimodal".to_string()],
            bq: vec![128, 256],
            vq: vec![128],
            tq: vec![256],
            widths: vec![(2, 4), (4, 6)],
            l1_kb: vec![32],
        }
    }

    /// Looks up a preset by name (`"default"` or `"tiny"`).
    pub fn preset(name: &str) -> Option<SweepConfig> {
        match name {
            "default" => Some(SweepConfig::preset_default()),
            "tiny" => Some(SweepConfig::preset_tiny()),
            _ => None,
        }
    }

    /// A one-line description for status output.
    pub fn describe(&self) -> String {
        format!("{} [{}] n={}", self.workload, self.variant, self.scale_n)
    }

    /// Expands the grid into fingerprinted jobs.
    ///
    /// The cross product is taken in a fixed axis order (predictor, BQ,
    /// VQ, TQ, widths, L1), so two expansions of the same config produce
    /// the same points in the same order. Exact duplicates (repeated
    /// values within an axis) collapse onto their first occurrence by job
    /// fingerprint. Unknown workload/variant/predictor names fail here —
    /// expansion is the validation point — so a bad sweep is rejected
    /// before anything runs.
    pub fn expand(&self) -> Result<Vec<DsePoint>, String> {
        let entry = by_name(&self.workload).ok_or_else(|| format!("unknown workload {:?}", self.workload))?;
        let variant = variant_by_label(&self.variant).ok_or_else(|| format!("unknown variant {:?}", self.variant))?;
        if !entry.variants.contains(&variant) {
            return Err(format!("{} does not support variant {:?}", self.workload, self.variant));
        }
        for p in &self.predictors {
            if cfd_predictor::predictor_by_name(p).is_none() {
                return Err(format!("unknown predictor {p:?}"));
            }
        }
        for (axis, vals) in [
            ("predictors", self.predictors.len()),
            ("bq", self.bq.len()),
            ("vq", self.vq.len()),
            ("tq", self.tq.len()),
            ("widths", self.widths.len()),
            ("l1_kb", self.l1_kb.len()),
        ] {
            if vals == 0 {
                return Err(format!("empty axis {axis:?}"));
            }
        }
        let scale = Scale { n: self.scale_n.max(1), ..Scale::default() };
        let workload: Workload = entry.build(variant, scale);

        let mut points = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for pred in &self.predictors {
            for &bq in &self.bq {
                for &vq in &self.vq {
                    for &tq in &self.tq {
                        for &(width, issue) in &self.widths {
                            for &l1 in &self.l1_kb {
                                let cfg = CoreConfig::default()
                                    .with_predictor(pred)
                                    .with_queue_depths(bq, vq, tq)
                                    .with_widths(width, issue)
                                    .with_l1_kb(l1);
                                let label = format!("pred={pred} bq={bq} vq={vq} tq={tq} w={width}/{issue} l1={l1}K");
                                let job = SimJob { workload: workload.clone(), cfg, cycle_limit: DSE_CYCLE_LIMIT };
                                if seen.insert(job.fingerprint()) {
                                    points.push(DsePoint { label, job });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preset_has_at_least_200_points() {
        let points = SweepConfig::preset_default().expand().unwrap();
        assert!(points.len() >= 200, "got {}", points.len());
        assert_eq!(points.len(), 216);
    }

    #[test]
    fn tiny_preset_is_small_and_valid() {
        let points = SweepConfig::preset_tiny().expand().unwrap();
        assert_eq!(points.len(), 8);
        assert!(SweepConfig::preset("tiny").is_some());
        assert!(SweepConfig::preset("nope").is_none());
    }

    #[test]
    fn expansion_is_deterministic() {
        let cfg = SweepConfig::preset_tiny();
        let a: Vec<String> = cfg.expand().unwrap().iter().map(|p| p.label.clone()).collect();
        let b: Vec<String> = cfg.expand().unwrap().iter().map(|p| p.label.clone()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_axis_values_collapse_onto_the_same_jobs() {
        let fingerprints =
            |cfg: &SweepConfig| -> Vec<_> { cfg.expand().unwrap().iter().map(|p| p.job.fingerprint()).collect() };
        let mut dup = SweepConfig::preset_tiny();
        dup.bq = vec![128, 256, 128];
        assert_eq!(fingerprints(&dup), fingerprints(&SweepConfig::preset_tiny()));
    }

    #[test]
    fn validation_rejects_unknown_names_and_empty_axes() {
        let mut c = SweepConfig::preset_tiny();
        c.workload = "nope".to_string();
        assert!(c.expand().is_err());
        let mut c = SweepConfig::preset_tiny();
        c.variant = "nope".to_string();
        assert!(c.expand().is_err());
        let mut c = SweepConfig::preset_tiny();
        c.predictors = vec!["nope".to_string()];
        assert!(c.expand().is_err());
        let mut c = SweepConfig::preset_tiny();
        c.l1_kb.clear();
        assert!(c.expand().is_err());
    }
}
