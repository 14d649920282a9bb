//! Cross-solver differential oracle over random instances.
//!
//! Property tests drawing from the shared `hilp-testkit` strategies and
//! running the full differential battery: brute-force equality on tiny
//! instances, the bounds sandwich, MILP agreement within the reported gap,
//! online-dispatch domination, and the metamorphic transforms. The
//! `fuzz_smoke` binary runs the same battery at larger budgets.

use proptest::prelude::*;

use hilp_sched::{solve_exact, InstanceBuilder, Mode, SolverConfig};
use hilp_testkit::harness::{
    check_instance, check_pipeline, permute_tasks, relax_caps, scale_time, CheckStats, OracleConfig,
};
use hilp_testkit::strategies::{
    arb_constraints, arb_instance, arb_soc, arb_workload, InstanceParams,
};
use hilp_testkit::{brute_force_makespan, brute_force_schedule};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tiny instances get the full battery: brute-force reference, both
    /// MILP encodings, bounds, online dispatch, and metamorphic transforms.
    #[test]
    fn tiny_instances_agree_across_all_solvers(
        instance in arb_instance(InstanceParams::tiny()),
    ) {
        let mut stats = CheckStats::default();
        let result = check_instance(&instance, &OracleConfig::default(), &mut stats);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Beyond brute-force reach the solver-vs-solver invariants must still
    /// hold: feasibility, the bounds sandwich, heuristic domination.
    #[test]
    fn small_instances_keep_the_bounds_sandwich(
        instance in arb_instance(InstanceParams::small()),
    ) {
        let mut stats = CheckStats::default();
        let result = check_instance(&instance, &OracleConfig::default(), &mut stats);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workload/SoC/constraint triples encode and satisfy the solver
    /// invariants end to end.
    #[test]
    fn encoded_pipelines_stay_consistent(
        workload in arb_workload(),
        soc in arb_soc(),
        constraints in arb_constraints(),
    ) {
        let mut stats = CheckStats::default();
        let result = check_pipeline(&workload, &soc, &constraints, &mut stats);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact solver (not just brute force) is invariant under task
    /// relabeling when it proves optimality on both sides.
    #[test]
    fn exact_solver_is_permutation_invariant(
        instance in arb_instance(InstanceParams::tiny()),
    ) {
        let permuted = permute_tasks(&instance);
        let config = SolverConfig::exact();
        let original = solve_exact(&instance, &config);
        let relabeled = solve_exact(&permuted, &config);
        match (&original, &relabeled) {
            (Ok(a), Ok(b)) => {
                if a.proved_optimal && b.proved_optimal {
                    prop_assert_eq!(a.makespan, b.makespan, "relabeling changed the optimum");
                }
            }
            (Ok(_), Err(_)) | (Err(_), Ok(_)) => {
                prop_assert!(false, "relabeling changed feasibility");
            }
            (Err(_), Err(_)) => {}
        }
    }
}

/// The figure 2 instance pins all transforms to concrete expected numbers.
#[test]
fn figure2_metamorphic_anchor() {
    let instance = hilp_core::example2::figure2_instance();
    let optimum = brute_force_makespan(&instance).expect("figure 2 is feasible");
    assert_eq!(optimum, hilp_core::example2::UNCONSTRAINED_OPTIMUM);

    let scaled = scale_time(&instance, 4);
    assert_eq!(brute_force_makespan(&scaled), Some(optimum * 4));

    let relaxed = relax_caps(&instance);
    let relaxed_optimum = brute_force_makespan(&relaxed).expect("relaxation stays feasible");
    assert!(relaxed_optimum <= optimum);

    let permuted = permute_tasks(&instance);
    assert_eq!(brute_force_makespan(&permuted), Some(optimum));
}

/// An infeasible horizon must be reported identically by brute force, the
/// exact solver, and the differential harness.
#[test]
fn infeasible_horizon_agreement() {
    let mut b = InstanceBuilder::new();
    let cpu = b.add_machine("cpu");
    let a = b.add_task("a", vec![Mode::on(cpu, 4)]);
    let c = b.add_task("c", vec![Mode::on(cpu, 4)]);
    b.add_precedence_lagged(a, c, 2);
    b.set_horizon(9);
    let instance = b.build().expect("valid");
    assert_eq!(brute_force_schedule(&instance), None);
    assert!(solve_exact(&instance, &SolverConfig::exact()).is_err());
    let mut stats = CheckStats::default();
    check_instance(&instance, &OracleConfig::default(), &mut stats)
        .expect("all solvers agree on infeasibility");
    assert_eq!(stats.infeasible_agreed, 1);
}
