//! `whatif-exact`: the interactive "ask, edit, re-ask" session under
//! `EvaluatePolicy::exact()` — a recorded sweep, a tightened-cap sweep
//! armed with the recording, the identity re-sweep, and the energy-Pareto
//! ladder on every 37th SoC.

use std::collections::HashMap;
use std::sync::Arc;

use hilp_core::EvaluatePolicy;
use hilp_dse::{
    evaluate_space_pareto, evaluate_space_recorded, evaluate_space_with_stats, DesignPoint,
    ModelKind, SweepConfig,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::{Workload, WorkloadVariant};

use crate::gauge::Gauge;
use crate::reference::{close, load_bench_sweep, RefTradeoff, Reference};
use crate::{committed_config, timed, Bench, Pass, Settings};

/// The tightened power cap (W) of the edit, as in `sweep_timing`.
const EDITED_POWER_W: f64 = 560.0;

/// Stride of the Pareto subsample over design-space indices, matching the
/// committed fronts.
const PARETO_STEP: usize = 37;

/// The what-if session's inputs and references.
pub struct WhatIf {
    workload: Workload,
    socs: Vec<SocSpec>,
    pareto_socs: Vec<SocSpec>,
    constraints: Constraints,
    edited: Constraints,
    exact: SweepConfig,
    grid: SweepConfig,
    grid_reference: Reference,
    fronts: HashMap<String, Vec<RefTradeoff>>,
    /// The edited sweep computed from scratch, which the armed edited
    /// sweep must reproduce.
    edited_scratch: Vec<DesignPoint>,
}

impl WhatIf {
    /// Loads the references and computes the scratch edited sweep.
    ///
    /// # Errors
    ///
    /// When `BENCH_sweep.json` cannot be read or the scratch sweep fails.
    pub fn new(settings: &Settings) -> Result<WhatIf, String> {
        let committed = load_bench_sweep(&settings.bench_sweep)?;
        let indexed = settings.socs();
        let grid = committed_config(settings.threads);
        let exact = SweepConfig {
            evaluate: EvaluatePolicy::exact(),
            ..grid.clone()
        };
        let workload = Workload::rodinia(WorkloadVariant::Default);
        let socs: Vec<SocSpec> = indexed.iter().map(|(_, s)| s.clone()).collect();
        let constraints = Constraints::paper_default();
        let edited = constraints.with_power(EDITED_POWER_W);
        let (edited_scratch, _) =
            evaluate_space_with_stats(&workload, &socs, &edited, ModelKind::Hilp, &exact)
                .map_err(|e| format!("scratch edited sweep: {e}"))?;
        Ok(WhatIf {
            pareto_socs: indexed
                .iter()
                .filter(|(i, _)| i % PARETO_STEP == 0)
                .map(|(_, s)| s.clone())
                .collect(),
            workload,
            socs,
            constraints,
            edited,
            exact,
            grid,
            grid_reference: committed.model(ModelKind::Hilp.name())?.clone(),
            fronts: committed.fronts,
            edited_scratch,
        })
    }

    fn check_front(&self, label: &str, front: &[(f64, f64)]) -> Result<(), String> {
        let want = self
            .fronts
            .get(label)
            .ok_or_else(|| format!("{label}: no committed Pareto front"))?;
        let same = want.len() == front.len()
            && want
                .iter()
                .zip(front)
                .all(|(w, &(m, e))| close(m, w.makespan_seconds) && close(e, w.energy_joules));
        if same {
            Ok(())
        } else {
            Err(format!(
                "{label}: Pareto front {front:?} differs from committed {want:?}"
            ))
        }
    }
}

/// Checks that `what` returned exactly `reference`'s points: one failed
/// operation per differing point and per point either list lacks.
pub fn check_same(
    pass: &mut Pass,
    what: &str,
    reference: &str,
    got: &[DesignPoint],
    want: &[DesignPoint],
) {
    pass.check_count(what, got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        if g != w {
            pass.fail(format!("{}: {what} differs from {reference}", g.label));
        }
    }
}

impl Bench for WhatIf {
    fn pass(&mut self, gauge: &mut Gauge) -> Pass {
        let mut pass = Pass::default();
        let n = self.socs.len() as u64;
        pass.attempted = 3 * n + self.pareto_socs.len() as u64;
        let hilp = ModelKind::Hilp;

        let (recorded, seconds) = timed(|| {
            evaluate_space_recorded(
                &self.workload,
                &self.socs,
                &self.constraints,
                hilp,
                &self.exact,
            )
        });
        pass.set("dse.record_s", seconds);
        let Ok((recorded, recorded_stats, baseline)) = recorded else {
            pass.fail_many(pass.attempted, "recorded exact sweep failed".to_string());
            return pass;
        };
        pass.op_seconds.extend(&recorded_stats.point_seconds);
        pass.check_count("recorded exact sweep", recorded.len(), self.socs.len());
        for point in &recorded {
            match self.grid_reference.get(&point.label) {
                Some(grid) if point.makespan_seconds <= grid.makespan_seconds + 1e-9 => {}
                Some(grid) => pass.fail(format!(
                    "{}: exact makespan {} exceeds the grid makespan {}",
                    point.label, point.makespan_seconds, grid.makespan_seconds
                )),
                None => pass.fail(format!("{}: no committed grid point", point.label)),
            }
        }
        let armed = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..self.exact.clone()
        };

        gauge.split(&mut pass);
        let (edited, seconds) = timed(|| {
            evaluate_space_with_stats(&self.workload, &self.socs, &self.edited, hilp, &armed)
        });
        pass.set("dse.edit_armed_s", seconds);
        let mut sweeps = vec![recorded_stats];
        match edited {
            Ok((points, stats)) => {
                pass.op_seconds.extend(&stats.point_seconds);
                check_same(
                    &mut pass,
                    "armed edited sweep",
                    "the scratch edit",
                    &points,
                    &self.edited_scratch,
                );
                pass.set("dse.certified_levels", stats.delta_certified_levels as f64);
                sweeps.push(stats);
            }
            Err(e) => pass.fail_many(n, format!("armed edited sweep failed: {e}")),
        }

        gauge.split(&mut pass);
        let (identity, seconds) = timed(|| {
            evaluate_space_with_stats(&self.workload, &self.socs, &self.constraints, hilp, &armed)
        });
        pass.set("dse.identity_s", seconds);
        match identity {
            Ok((points, stats)) => {
                pass.op_seconds.extend(&stats.point_seconds);
                check_same(
                    &mut pass,
                    "identity re-sweep",
                    "the recording",
                    &points,
                    &recorded,
                );
                if stats.delta_identity_points != points.len() {
                    pass.fail(format!(
                        "identity re-sweep replayed {} of {} points",
                        stats.delta_identity_points,
                        points.len()
                    ));
                }
                pass.set("dse.identity_points", stats.delta_identity_points as f64);
                sweeps.push(stats);
            }
            Err(e) => pass.fail_many(n, format!("identity re-sweep failed: {e}")),
        }

        gauge.split(&mut pass);
        let (pareto, seconds) = timed(|| {
            evaluate_space_pareto(
                &self.workload,
                &self.pareto_socs,
                &self.constraints,
                &self.grid,
            )
        });
        pass.set("dse.pareto_s", seconds);
        match pareto {
            Ok(points) => {
                pass.check_count("Pareto sweep", points.len(), self.pareto_socs.len());
                let mut front_points = 0;
                for p in &points {
                    let front: Vec<(f64, f64)> = p
                        .front
                        .iter()
                        .map(|t| (t.makespan_seconds, t.energy_joules))
                        .collect();
                    front_points += front.len();
                    if let Err(e) = self
                        .grid_reference
                        .check_point(&p.point)
                        .and_then(|()| self.check_front(&p.point.label, &front))
                    {
                        pass.fail(e);
                    }
                }
                pass.set("sched.pareto_front_points", front_points as f64);
            }
            Err(e) => pass.fail_many(
                self.pareto_socs.len() as u64,
                format!("Pareto sweep failed: {e}"),
            ),
        }

        pass.record_sweeps(&sweeps);
        pass.record_gaps(&recorded.iter().map(|p| p.gap).collect::<Vec<_>>());
        pass
    }

    fn layers(&mut self, _timed: &[Pass], _traced: &Pass) -> Pass {
        Pass::default()
    }
}
