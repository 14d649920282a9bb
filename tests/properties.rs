//! Property-based tests over the solver substrates and core invariants.
//!
//! The central properties:
//!
//! 1. Every schedule the engine returns is feasible under independent
//!    re-verification (precedence, machine exclusivity, resource caps).
//! 2. The exact branch-and-bound optimum equals the independent MILP
//!    encoding's optimum on random cap-free instances — the two solver
//!    stacks (dedicated scheduler vs simplex-based branch and bound) agree.
//! 3. Lower bounds never exceed the proven optimum.
//! 4. Pareto fronts are exactly the non-dominated subsets.
//! 5. Power-law fitting recovers exact laws and rejects invalid input.
//! 6. Energy metamorphics: power scaling acts on energies alone, energy-cap
//!    relaxation is monotone in makespan, and an infinite cap is
//!    bit-identical to no cap at all.

use proptest::prelude::*;

use hilp_model::SolveLimits;
use hilp_sched::{
    lower_bound, solve, solve_exact, solve_pareto, Instance, InstanceBuilder, MachineId, Mode,
    SolverConfig,
};
use hilp_soc::powerlaw::{fit_power_law, PowerLaw};
use hilp_testkit::milp_encode::makespan_via_milp;

// ---------------------------------------------------------------------------
// Random instance generation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomInstanceSpec {
    machines: usize,
    /// Per task: list of (machine, duration, power) mode seeds.
    tasks: Vec<Vec<(usize, u32, u8)>>,
    /// Chain structure: tasks are grouped into apps of this size.
    chain_length: usize,
    power_cap: Option<u8>,
    /// Lag applied to every chain edge, and whether edges are
    /// start-to-start (initiation intervals) instead of finish-to-start.
    edge_lag: u32,
    start_to_start: bool,
}

fn arb_spec(max_tasks: usize, with_caps: bool) -> impl Strategy<Value = RandomInstanceSpec> {
    let machines = 1..=3usize;
    machines
        .prop_flat_map(move |machines| {
            let mode = (0..machines, 1..=6u32, 1..=4u8);
            let task = prop::collection::vec(mode, 1..=2);
            let tasks = prop::collection::vec(task, 1..=max_tasks);
            let chain_length = 1..=3usize;
            let cap = if with_caps {
                prop::option::of(3..=8u8).boxed()
            } else {
                Just(None).boxed()
            };
            (
                Just(machines),
                tasks,
                chain_length,
                cap,
                0..=3u32,
                prop::bool::ANY,
            )
        })
        .prop_map(
            |(machines, tasks, chain_length, power_cap, edge_lag, start_to_start)| {
                RandomInstanceSpec {
                    machines,
                    tasks,
                    chain_length,
                    power_cap,
                    edge_lag,
                    start_to_start,
                }
            },
        )
}

fn build_instance(spec: &RandomInstanceSpec) -> Option<Instance> {
    let mut b = InstanceBuilder::new();
    for m in 0..spec.machines {
        b.add_machine(format!("m{m}"));
    }
    let mut ids = Vec::new();
    for (t, modes) in spec.tasks.iter().enumerate() {
        let modes: Vec<Mode> = modes
            .iter()
            .map(|&(m, d, p)| Mode::on(MachineId(m), d).power(f64::from(p)))
            .collect();
        ids.push(b.add_task(format!("t{t}"), modes));
    }
    // Chains of `chain_length` consecutive tasks, with the spec's edge
    // flavor (plain, lagged, or start-to-start).
    for w in ids.chunks(spec.chain_length) {
        for pair in w.windows(2) {
            if spec.start_to_start {
                b.add_initiation_interval(pair[0], pair[1], spec.edge_lag);
            } else {
                b.add_precedence_lagged(pair[0], pair[1], spec.edge_lag);
            }
        }
    }
    if let Some(cap) = spec.power_cap {
        b.set_power_cap(f64::from(cap));
    }
    b.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // -- Property 1: feasibility of returned schedules --------------------

    #[test]
    fn solver_schedules_are_always_feasible(spec in arb_spec(8, true)) {
        if let Some(instance) = build_instance(&spec) {
            let config = SolverConfig {
                heuristic_starts: 40,
                local_search_passes: 1,
                exact_node_budget: 20_000,
                exact_task_threshold: 8,
                ..SolverConfig::default()
            };
            let outcome = solve(&instance, &config).expect("generous horizon");
            prop_assert!(outcome.schedule.verify(&instance).is_empty());
            prop_assert!(outcome.lower_bound <= outcome.makespan);
        }
    }

    // -- Property 2: the two solver stacks agree --------------------------

    #[test]
    fn exact_scheduler_matches_milp(spec in arb_spec(5, false)) {
        if let Some(instance) = build_instance(&spec) {
            let sched = solve_exact(&instance, &SolverConfig::default())
                .expect("generous horizon");
            prop_assume!(sched.proved_optimal);
            let milp = makespan_via_milp(&instance, &SolveLimits::default())
                .expect("cap-free instance");
            prop_assert_eq!(
                sched.makespan, milp,
                "scheduler {} vs MILP {}", sched.makespan, milp
            );
        }
    }

    // -- Property 3: bounds are sound --------------------------------------

    #[test]
    fn lower_bound_never_exceeds_the_optimum(spec in arb_spec(6, true)) {
        if let Some(instance) = build_instance(&spec) {
            let bound = lower_bound(&instance);
            let exact = solve_exact(&instance, &SolverConfig::default())
                .expect("generous horizon");
            prop_assume!(exact.proved_optimal);
            prop_assert!(
                bound <= exact.makespan,
                "bound {} exceeds optimum {}", bound, exact.makespan
            );
        }
    }

    // -- Property 4: Pareto fronts -----------------------------------------

    #[test]
    fn pareto_front_is_exactly_the_nondominated_set(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
    ) {
        let front = hilp_dse::pareto_front(&points);
        // Everything on the front is non-dominated.
        for &i in &front {
            for (j, p) in points.iter().enumerate() {
                if i != j {
                    let dominates = p.0 <= points[i].0 && p.1 >= points[i].1
                        && (p.0 < points[i].0 || p.1 > points[i].1);
                    prop_assert!(!dominates);
                }
            }
        }
        // Everything off the front is dominated or a duplicate of a front
        // member.
        for (i, q) in points.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            let covered = front.iter().any(|&f| {
                let p = &points[f];
                (p.0 <= q.0 && p.1 >= q.1 && (p.0 < q.0 || p.1 > q.1))
                    || (p.0 == q.0 && p.1 == q.1)
            });
            prop_assert!(covered, "point {} neither on front nor dominated", i);
        }
    }

    // -- Property 5: power-law fitting --------------------------------------

    #[test]
    fn exact_power_laws_are_recovered(
        a in 0.1f64..50.0,
        b in -2.0f64..2.0,
        n in 3usize..8
    ) {
        let law = PowerLaw::new(a, b);
        let points: Vec<(f64, f64)> = (1..=n)
            .map(|i| {
                let x = f64::from(u32::try_from(i).expect("small")) * 7.0;
                (x, law.eval(x))
            })
            .collect();
        let fit = fit_power_law(&points).expect("valid points");
        prop_assert!((fit.law.a - a).abs() < 1e-6 * a.max(1.0));
        prop_assert!((fit.law.b - b).abs() < 1e-6);
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn fit_rejects_nonpositive_points(
        x in -10.0f64..=0.0,
        y in 0.1f64..10.0
    ) {
        prop_assert!(fit_power_law(&[(x, y), (1.0, 1.0)]).is_none());
        prop_assert!(fit_power_law(&[(1.0, x), (2.0, y)]).is_none());
    }

    /// Degenerate typed fits: a single sample never fits, and any zero or
    /// negative power/energy reading poisons the whole fit regardless of
    /// how many valid samples surround it.
    #[test]
    fn typed_fits_reject_degenerate_samples(
        x in 0.1f64..100.0,
        y in 0.1f64..100.0,
        bad in -10.0f64..=0.0,
        valid in prop::collection::vec((0.1f64..100.0, 0.1f64..100.0), 1..5)
    ) {
        use hilp_soc::powerlaw::{fit_energy_curve, fit_power_curve, Joules, Watts};
        prop_assert!(fit_power_curve(&[(x, Watts(y))]).is_none());
        prop_assert!(fit_energy_curve(&[(x, Joules(y))]).is_none());
        let mut watts: Vec<(f64, Watts)> =
            valid.iter().map(|&(vx, vy)| (vx, Watts(vy))).collect();
        watts.push((x, Watts(bad)));
        prop_assert!(fit_power_curve(&watts).is_none());
        let mut joules: Vec<(f64, Joules)> =
            valid.iter().map(|&(vx, vy)| (vx, Joules(vy))).collect();
        joules.push((x, Joules(bad)));
        prop_assert!(fit_energy_curve(&joules).is_none());
    }

    // -- LP feasibility ------------------------------------------------------

    #[test]
    fn lp_solutions_satisfy_their_constraints(
        costs in prop::collection::vec(-5.0f64..5.0, 2..4),
        rows in prop::collection::vec(
            (prop::collection::vec(-3.0f64..3.0, 2..4), 0.5f64..20.0),
            1..5
        )
    ) {
        use hilp_lp::{LinearProgram, Objective, Relation, Status};
        let mut lp = LinearProgram::new(Objective::Maximize);
        let vars: Vec<_> = costs.iter().map(|&c| {
            let v = lp.add_variable(c);
            lp.set_bounds(v, 0.0, 10.0).unwrap();
            v
        }).collect();
        for (coeffs, rhs) in &rows {
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, c))
                .collect();
            lp.add_constraint(terms, Relation::Le, *rhs).unwrap();
        }
        let sol = lp.solve().unwrap();
        // Box-bounded: never unbounded, origin-feasible: never infeasible.
        prop_assert_eq!(sol.status(), Status::Optimal);
        for (coeffs, rhs) in &rows {
            let lhs: f64 = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &c)| c * sol.value(v))
                .sum();
            prop_assert!(lhs <= rhs + 1e-6, "row violated: {} > {}", lhs, rhs);
        }
        for &v in &vars {
            prop_assert!(sol.value(v) >= -1e-9 && sol.value(v) <= 10.0 + 1e-9);
        }
        // The optimum is at least as good as a few sampled feasible points.
        let zero_objective = 0.0;
        prop_assert!(sol.objective_value() >= zero_objective - 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Deterministic cross-checks too slow to run per proptest case.
// ---------------------------------------------------------------------------

#[test]
fn milp_and_scheduler_agree_on_a_handcrafted_jssp() {
    // A 3-app, 2-machine job shop with contended machines.
    let mut b = InstanceBuilder::new();
    let m0 = b.add_machine("m0");
    let m1 = b.add_machine("m1");
    let chain = |b: &mut InstanceBuilder, d0: u32, d1: u32| {
        let t0 = b.add_task("x", vec![Mode::on(m0, d0)]);
        let t1 = b.add_task("y", vec![Mode::on(m1, d1)]);
        b.add_precedence(t0, t1);
    };
    chain(&mut b, 3, 2);
    chain(&mut b, 2, 4);
    chain(&mut b, 1, 3);
    b.set_horizon(30);
    let instance = b.build().unwrap();
    let sched = solve_exact(&instance, &SolverConfig::default()).unwrap();
    let milp = makespan_via_milp(&instance, &SolveLimits::default()).unwrap();
    assert!(sched.proved_optimal);
    assert_eq!(sched.makespan, milp);
}

// ---------------------------------------------------------------------------
// MILP versus brute force on small integer programs, and resource-capped
// scheduling instances.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bounded 3-variable integer programs: branch and bound must
    /// match exhaustive enumeration of the integer box.
    #[test]
    fn milp_matches_brute_force_enumeration(
        costs in prop::collection::vec(-4i8..=4, 3),
        rows in prop::collection::vec(
            (prop::collection::vec(-3i8..=3, 3), 0i8..=15),
            1..4
        )
    ) {
        use hilp_milp::{MilpProblem, MilpStatus, SolveLimits};
        use hilp_lp::{Objective, Relation};

        let mut milp = MilpProblem::new(Objective::Maximize);
        let vars: Vec<_> = costs
            .iter()
            .map(|&c| {
                let v = milp.add_integer(f64::from(c));
                milp.set_bounds(v, 0.0, 4.0).unwrap();
                v
            })
            .collect();
        for (coeffs, rhs) in &rows {
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, f64::from(c)))
                .collect();
            milp.add_constraint(terms, Relation::Le, f64::from(*rhs)).unwrap();
        }
        let solution = milp.solve(&SolveLimits::default()).unwrap();

        // Brute force over the 5^3 box.
        let mut best: Option<f64> = None;
        for x in 0..=4i32 {
            for y in 0..=4i32 {
                for z in 0..=4i32 {
                    let point = [x, y, z];
                    let feasible = rows.iter().all(|(coeffs, rhs)| {
                        let lhs: i32 = coeffs
                            .iter()
                            .zip(&point)
                            .map(|(&c, &v)| i32::from(c) * v)
                            .sum();
                        lhs <= i32::from(*rhs)
                    });
                    if feasible {
                        let value: f64 = costs
                            .iter()
                            .zip(&point)
                            .map(|(&c, &v)| f64::from(c) * f64::from(v))
                            .sum();
                        best = Some(best.map_or(value, |b: f64| b.max(value)));
                    }
                }
            }
        }
        // The origin is always feasible... only if every rhs >= 0, which
        // holds by construction (rhs in 0..=15).
        let brute = best.expect("origin is feasible");
        prop_assert_eq!(solution.status(), MilpStatus::Optimal);
        prop_assert!(
            (solution.objective_value() - brute).abs() < 1e-6,
            "milp {} vs brute force {}", solution.objective_value(), brute
        );
    }

    /// Random instances with a user-defined cumulative resource: returned
    /// schedules stay feasible and never beat the volume bound.
    #[test]
    fn resource_capped_schedules_are_feasible(
        durations in prop::collection::vec(1..=5u32, 2..6),
        usages in prop::collection::vec(1..=4u8, 2..6),
        cap in 4..=8u8,
    ) {
        let n = durations.len().min(usages.len());
        let mut b = InstanceBuilder::new();
        let machines: Vec<_> = (0..n).map(|i| b.add_machine(format!("m{i}"))).collect();
        let res = b.add_resource("llc", f64::from(cap));
        for i in 0..n {
            b.add_task(
                format!("t{i}"),
                vec![Mode::on(machines[i], durations[i]).uses(res, f64::from(usages[i]))],
            );
        }
        let inst = b.build().unwrap();
        let outcome = solve(&inst, &SolverConfig::default()).expect("generous horizon");
        prop_assert!(outcome.schedule.verify(&inst).is_empty());
        prop_assert!(outcome.lower_bound <= outcome.makespan);
    }
}

// ---------------------------------------------------------------------------
// Energy metamorphic properties (Property 6).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multiplying every mode's power — and the power cap with it — by an
    /// integer `k` changes no feasibility or priority decision (all seeds
    /// are integers, so the scaled arithmetic stays exact): the solver
    /// returns the identical schedule with its energy scaled by exactly `k`.
    #[test]
    fn power_scaling_scales_energy_in_place(spec in arb_spec(6, true), k in 1u8..=5) {
        if let Some(instance) = build_instance(&spec) {
            let k = f64::from(k);
            let scaled = hilp_testkit::scale_power(&instance, k);
            let config = SolverConfig::exact();
            let a = solve_exact(&instance, &config).expect("generous horizon");
            let b = solve_exact(&scaled, &config).expect("generous horizon");
            prop_assert_eq!(a.makespan, b.makespan);
            prop_assert_eq!(&a.schedule, &b.schedule);
            prop_assert!(
                (b.energy - k * a.energy).abs() <= 1e-9 * (1.0 + a.energy),
                "energy {} should scale by {} to {}, got {}",
                a.energy, k, k * a.energy, b.energy
            );
        }
    }

    /// The Pareto ladder is monotone — makespans strictly ascend while
    /// energies strictly descend — and re-solving with a rung's energy as
    /// the instance's energy cap reproduces that rung's makespan, so
    /// relaxing the cap from
    /// any rung to a cheaper-makespan rung never lengthens the schedule.
    #[test]
    fn energy_cap_relaxation_is_monotone(spec in arb_spec(5, true)) {
        if let Some(instance) = build_instance(&spec) {
            let front = solve_pareto(&instance, &SolverConfig::exact())
                .expect("generous horizon");
            prop_assume!(front.complete);
            for pair in front.points.windows(2) {
                prop_assert!(pair[0].makespan < pair[1].makespan);
                prop_assert!(pair[0].energy > pair[1].energy);
            }
            let mut last = 0;
            for point in &front.points {
                let capped = solve_exact(
                    &hilp_testkit::with_energy_cap(&instance, point.energy),
                    &SolverConfig::exact(),
                ).expect("front points are feasible under their own energy");
                prop_assume!(capped.proved_optimal);
                prop_assert_eq!(capped.makespan, point.makespan);
                prop_assert!(capped.makespan >= last);
                last = capped.makespan;
            }
        }
    }

    /// No energy cap and an infinite instance energy cap are bit-identical:
    /// the energy machinery is transparent when unused.
    #[test]
    fn infinite_energy_cap_is_transparent(spec in arb_spec(6, true)) {
        if let Some(instance) = build_instance(&spec) {
            let plain = solve_exact(&instance, &SolverConfig::exact());
            let capped = solve_exact(
                &hilp_testkit::with_energy_cap(&instance, f64::INFINITY),
                &SolverConfig::exact(),
            );
            match (&plain, &capped) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.makespan, b.makespan);
                    prop_assert_eq!(a.lower_bound, b.lower_bound);
                    prop_assert_eq!(a.proved_optimal, b.proved_optimal);
                    prop_assert_eq!(&a.schedule, &b.schedule);
                    prop_assert!((a.energy - b.energy).abs() <= 1e-12);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "feasibility diverged: plain ok={} capped ok={}", a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Online dispatcher properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Online dispatch (any policy) always yields feasible schedules and
    /// never beats the proven offline optimum.
    #[test]
    fn online_dispatch_is_feasible_and_dominated(spec in arb_spec(6, true)) {
        use hilp_sched::online::{online_greedy, OnlinePolicy};
        if let Some(instance) = build_instance(&spec) {
            let exact = solve_exact(&instance, &SolverConfig::default())
                .expect("generous horizon");
            prop_assume!(exact.proved_optimal);
            for policy in [
                OnlinePolicy::Fifo,
                OnlinePolicy::LongestFirst,
                OnlinePolicy::ShortestFirst,
                OnlinePolicy::HeterogeneityAware,
            ] {
                // The default horizon is generous enough for greedy too
                // (sequential-sum plus lags), but a dispatcher may still
                // fail on pathological cases; feasibility is only asserted
                // for produced schedules.
                if let Some(schedule) = online_greedy(&instance, policy) {
                    prop_assert!(
                        schedule.verify(&instance).is_empty(),
                        "{policy:?} produced an infeasible schedule"
                    );
                    prop_assert!(schedule.makespan(&instance) >= exact.makespan);
                }
            }
        }
    }
}
