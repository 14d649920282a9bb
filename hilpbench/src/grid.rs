//! `fig7-grid` and `mobile-grid`: full design-space sweeps under the
//! committed configuration, checked point by point against references.

use std::time::Instant;

use hilp_dse::{evaluate_space_with_stats, DesignPoint, ModelKind, SweepConfig};
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::{mobile::mobile_workload, Workload, WorkloadVariant};

use crate::gauge::Gauge;
use crate::reference::{load_bench_sweep, load_jsonl, Reference};
use crate::{committed_config, probe, Bench, Pass, Settings};

/// A design-space sweep of one workload under one or more models.
pub struct Grid {
    workload: Workload,
    socs: Vec<SocSpec>,
    constraints: Constraints,
    models: Vec<(ModelKind, Reference)>,
    config: SweepConfig,
}

impl Grid {
    /// `fig7-grid`: Rodinia Default × every SoC × {MA, Gables, HILP},
    /// checked against `BENCH_sweep.json`.
    ///
    /// # Errors
    ///
    /// When `BENCH_sweep.json` cannot be read or lacks a model.
    pub fn fig7(settings: &Settings) -> Result<Grid, String> {
        let committed = load_bench_sweep(&settings.bench_sweep)?;
        let models = [ModelKind::MultiAmdahl, ModelKind::Gables, ModelKind::Hilp]
            .into_iter()
            .map(|m| Ok((m, committed.model(m.name())?.clone())))
            .collect::<Result<_, String>>()?;
        Ok(Grid {
            workload: Workload::rodinia(WorkloadVariant::Default),
            socs: settings.socs().into_iter().map(|(_, s)| s).collect(),
            constraints: Constraints::paper_default(),
            models,
            config: committed_config(settings.threads),
        })
    }

    /// `mobile-grid`: the mobile workload × every SoC under HILP, checked
    /// against the committed mobile-grid reference.
    ///
    /// # Errors
    ///
    /// When the reference cannot be read.
    pub fn mobile(settings: &Settings) -> Result<Grid, String> {
        Ok(Grid {
            workload: mobile_workload(),
            socs: settings.socs().into_iter().map(|(_, s)| s).collect(),
            constraints: Constraints::paper_default(),
            models: vec![(ModelKind::Hilp, load_jsonl(&settings.mobile_reference)?)],
            config: committed_config(settings.threads),
        })
    }
}

/// Checks the points a `model` sweep over `socs` SoCs returned against
/// `reference`: one failed operation per mismatching point and per SoC
/// left without a point.
pub fn check_sweep(
    pass: &mut Pass,
    model: &str,
    reference: &Reference,
    points: &[DesignPoint],
    socs: usize,
) {
    pass.check_count(&format!("{model} sweep"), points.len(), socs);
    for point in points {
        if let Err(e) = reference.check_point(point) {
            pass.fail(format!("{model}: {e}"));
        }
    }
}

impl Bench for Grid {
    fn pass(&mut self, gauge: &mut Gauge) -> Pass {
        let mut pass = Pass::default();
        let mut sweeps = Vec::new();
        let mut gaps = Vec::new();
        for (i, (model, reference)) in self.models.iter().enumerate() {
            if i > 0 {
                gauge.split(&mut pass);
            }
            let t = Instant::now();
            let result = evaluate_space_with_stats(
                &self.workload,
                &self.socs,
                &self.constraints,
                *model,
                &self.config,
            );
            let seconds = t.elapsed().as_secs_f64();
            pass.attempted += self.socs.len() as u64;
            pass.set(
                match model {
                    ModelKind::MultiAmdahl => "baselines.ma_s",
                    ModelKind::Gables => "baselines.gables_s",
                    ModelKind::Hilp => "dse.hilp_grid_s",
                },
                seconds,
            );
            match result {
                Ok((points, stats)) => {
                    check_sweep(&mut pass, model.name(), reference, &points, self.socs.len());
                    gaps.extend(points.iter().map(|p| p.gap));
                    pass.op_seconds.extend(&stats.point_seconds);
                    sweeps.push(stats);
                }
                Err(e) => pass.fail_many(
                    self.socs.len() as u64,
                    format!("{} sweep failed: {e}", model.name()),
                ),
            }
        }
        pass.record_sweeps(&sweeps);
        pass.record_gaps(&gaps);
        pass
    }

    fn layers(&mut self, _timed: &[Pass], _traced: &Pass) -> Pass {
        let mut probes = Pass {
            attempted: self.socs.len() as u64,
            ..Pass::default()
        };
        match probe::pipeline(&self.workload, &self.socs, &self.constraints, &self.config) {
            Ok(times) => times.record(&mut probes),
            Err(e) => probes.fail_many(self.socs.len() as u64, format!("pipeline probe: {e}")),
        }
        probes
    }
}
