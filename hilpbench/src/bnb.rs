//! `bnb-small`: 12-task instances (the Rodinia apps LUD, HS, LMD and NN,
//! exactly at `exact_task_threshold`) solved with the exact
//! branch-and-bound phase: on one worker in the timed passes, on every core
//! in the traced run, which reports the speed-up.
//!
//! Set-up evaluates every SoC at the sweep configuration, encodes the
//! instance at the tick the evaluation settled on, and keeps the instances
//! whose heuristic incumbent misses the lower bound, so that branch and
//! bound runs on them (on the rest the heuristic proves the optimum in
//! microseconds and the exact phase is skipped). Of those it solves the
//! first of each of [`instances`] contiguous design-space strata, so the
//! sample spans the core counts branch-and-bound cost follows. The sample
//! is the same for every seed, which only shuffles the solve order: every
//! run does the same search.

use std::time::Instant;

use hilp_core::{encode, Hilp, SolverConfig};
use hilp_dse::{design_space, SweepConfig};
use hilp_sched::{solve, Instance};
use hilp_soc::{Constraints, SocSpec};
use hilp_workloads::{Workload, WorkloadVariant};

use crate::gauge::Gauge;
use crate::metrics::{quantile, Metric};
use crate::{committed_config, nproc, probe, Bench, Pass, Scale, Settings};

/// The four applications of the subset workload.
pub const APPS: [&str; 4] = ["LUD", "HS", "LMD", "NN"];

/// Branch-and-bound node budget per instance.
pub const NODE_BUDGET: u64 = 25_000;

/// Instances one pass solves.
#[must_use]
pub fn instances(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16,
        Scale::Tiny => 3,
    }
}

/// One instance's deterministic result: makespan and nodes explored.
type Signature = (u32, u64);

/// The picked instances and the solver they are timed under.
pub struct BnbSmall {
    workload: Workload,
    constraints: Constraints,
    socs: Vec<SocSpec>,
    instances: Vec<(String, Instance)>,
    config: SolverConfig,
    sweep: SweepConfig,
    /// Per-instance results of the first pass; every later pass, and the
    /// solve on every core, must reproduce them.
    expected: Option<Vec<Signature>>,
}

impl BnbSmall {
    /// Encodes, classifies and picks the instances.
    ///
    /// # Errors
    ///
    /// When an evaluation or encoding fails.
    pub fn new(settings: &Settings) -> Result<BnbSmall, String> {
        let workload = Workload::rodinia(WorkloadVariant::Default).subset(&APPS);
        let constraints = Constraints::paper_default();
        let sweep = committed_config(settings.threads);
        let config = SolverConfig {
            exact_node_budget: NODE_BUDGET,
            bnb_threads: settings.threads,
            ..SolverConfig::default()
        };
        let heuristic_only = SolverConfig {
            exact_node_budget: 0,
            ..config.clone()
        };
        let step = match settings.scale {
            Scale::Full => 1,
            Scale::Tiny => 6,
        };
        let mut bnb = Vec::new();
        for soc in design_space(4.0).into_iter().step_by(step) {
            let tick = Hilp::new(workload.clone(), soc.clone())
                .with_constraints(constraints)
                .with_policy(sweep.policy)
                .with_solver(sweep.solver.clone())
                .evaluate()
                .map_err(|e| format!("{}: evaluate: {e}", soc.label()))?
                .time_step_seconds;
            let (instance, _) = encode(&workload, &soc, &constraints, tick)
                .map_err(|e| format!("{}: encode: {e}", soc.label()))?;
            let outcome = solve(&instance, &heuristic_only)
                .map_err(|e| format!("{}: heuristic solve: {e}", soc.label()))?;
            if outcome.makespan > outcome.lower_bound {
                bnb.push((soc, instance));
            }
        }
        let k = instances(settings.scale).min(bnb.len());
        let chosen = settings.shuffled((0..k).map(|s| bnb[s * bnb.len() / k].clone()).collect());
        Ok(BnbSmall {
            workload,
            constraints,
            socs: chosen.iter().map(|(s, _)| s.clone()).collect(),
            instances: chosen.into_iter().map(|(s, i)| (s.label(), i)).collect(),
            config,
            sweep,
            expected: None,
        })
    }

    /// Solves every instance under `config`, checking each schedule, and
    /// calls `between` between two solves.
    fn solve_all(
        &self,
        config: &SolverConfig,
        mut between: impl FnMut(&mut Pass),
    ) -> (Pass, Vec<Signature>) {
        let mut pass = Pass::default();
        let mut signatures = Vec::with_capacity(self.instances.len());
        let (mut nodes, mut solves, mut proved, mut capped) = (0u64, 0u64, 0u64, 0u64);
        let mut gaps = Vec::new();
        for (i, (label, instance)) in self.instances.iter().enumerate() {
            if i > 0 {
                between(&mut pass);
            }
            pass.attempted += 1;
            let t = Instant::now();
            let result = solve(instance, config);
            pass.op_seconds.push(t.elapsed().as_secs_f64());
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    pass.fail(format!("{label}: solve failed: {e}"));
                    signatures.push((0, 0));
                    continue;
                }
            };
            let violations = outcome.schedule.verify(instance);
            if !violations.is_empty() {
                pass.fail(format!("{label}: schedule fails verify: {violations:?}"));
            } else if outcome.schedule.makespan(instance) != outcome.makespan {
                pass.fail(format!("{label}: reported makespan is not the schedule's"));
            } else if outcome.makespan < outcome.lower_bound {
                pass.fail(format!(
                    "{label}: makespan {} below the proven bound {}",
                    outcome.makespan, outcome.lower_bound
                ));
            }
            nodes += outcome.stats.bnb_nodes;
            if outcome.stats.exact_phase_ran {
                solves += 1;
                if outcome.proved_optimal {
                    proved += 1;
                } else {
                    capped += 1;
                }
            }
            gaps.push(outcome.gap());
            signatures.push((outcome.makespan, outcome.stats.bnb_nodes));
        }
        pass.set("sched.bnb_nodes", nodes as f64);
        pass.set("sched.bnb_solves", solves as f64);
        pass.set("sched.bnb_proved", proved as f64);
        pass.set("sched.bnb_capped", capped as f64);
        pass.record_gaps(&gaps);
        (pass, signatures)
    }

    /// Fails every instance whose result differs from the first pass's.
    fn check_signatures(&self, pass: &mut Pass, got: &[Signature], what: &str) {
        let Some(expected) = &self.expected else {
            return;
        };
        for ((label, _), (g, e)) in self.instances.iter().zip(got.iter().zip(expected)) {
            if g != e {
                pass.fail(format!(
                    "{label}: {what} gave (makespan, nodes) {g:?}, the first pass {e:?}"
                ));
            }
        }
    }
}

impl Bench for BnbSmall {
    fn pass(&mut self, gauge: &mut Gauge) -> Pass {
        let (mut pass, signatures) = self.solve_all(&self.config, |p| gauge.split(p));
        self.check_signatures(&mut pass, &signatures, "this pass");
        self.expected.get_or_insert(signatures);
        pass
    }

    fn layers(&mut self, timed: &[Pass], traced: &Pass) -> Pass {
        let median_pass = quantile(&timed.iter().map(|p| p.seconds).collect::<Vec<_>>(), 0.5);
        let parallel_config = SolverConfig {
            bnb_threads: nproc(),
            ..self.config.clone()
        };
        let t = Instant::now();
        let (mut probes, signatures) = self.solve_all(&parallel_config, |_| {});
        let parallel_seconds = t.elapsed().as_secs_f64();
        self.check_signatures(&mut probes, &signatures, "every core");
        // The counters are the traced pass's; only the wall time matters here.
        probes.values.clear();

        let solve_s: Vec<f64> = timed
            .iter()
            .flat_map(|p| p.op_seconds.iter().copied())
            .collect();
        probes.attempted += self.socs.len() as u64;
        match probe::pipeline(&self.workload, &self.socs, &self.constraints, &self.sweep) {
            Ok(times) => times.record(&mut probes),
            Err(e) => probes.fail_many(self.socs.len() as u64, format!("pipeline probe: {e}")),
        }
        // The pass solves under the branch-and-bound configuration; those
        // solves, not the probe's sweep-configuration ones, are this
        // workload's scheduler time.
        probes.set_metric(
            "sched.solve_ms_p50",
            Metric::quantile_of(&solve_s, 0.5).scaled(1e3),
        );
        probes.set_metric(
            "sched.solve_ms_p90",
            Metric::quantile_of(&solve_s, 0.9).scaled(1e3),
        );
        probes.set("sched.bnb_parallel_s", parallel_seconds);
        probes.set("sched.bnb_speedup", median_pass / parallel_seconds);
        probes.set(
            "sched.bnb_nodes_per_s",
            traced.value("sched.bnb_nodes") / median_pass,
        );
        probes
    }
}
