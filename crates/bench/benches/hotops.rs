//! Micro-benchmarks for the sweep engine's hot operations: the event
//! timetable's and the dense reference's feasibility probe and place/undo
//! splice (the inner loop of every SGS pass) at the paper's default budget
//! and at Fig. 8a's 20 W, where power binds, one design point's encodings
//! at the five sweep ticks (`encode` per tick against one `tabulate` plus
//! a `discretize` per tick) and its instance key, and the full evaluator
//! under grid refinement vs. the exact policy's extra finest-tick solve on
//! the event timetable, and the SGS heuristic on the flagship instance
//! and its Gables twin with and without local search.
//!
//! Run with `cargo bench -p hilp-bench --bench hotops`. Before timing,
//! the branch-and-bound group asserts that 1, 2, 4 and 8 workers return
//! the same makespan and node count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::hint::black_box;

use hilp_baselines::{gables_constraints, without_dependencies};
use hilp_core::{
    encode, tabulate, Constraints, DsaSpec, EvaluatePolicy, Hilp, SocSpec, TimeStepPolicy,
    Workload, WorkloadVariant,
};
use hilp_dse::experiments::FIG8A_POWERS;
use hilp_dse::SweepConfig;
use hilp_sched::{
    solve_exact, solve_heuristic, Instance, InstanceBuilder, Mode, SolverConfig, TaskId, Timetable,
    TimetableKind,
};

fn timetable_bench(c: &mut Criterion) {
    // The paper's flagship-sized instance at a validation-grade step: ~30
    // tasks over 66 machines, the shape every Fig. 7 sweep level solves.
    // At the paper's 600 W power cannot bind there, so the event timetable
    // leaves it untracked; at Fig. 8a's 20 W budget it binds, which keeps
    // the capped probe and splice paths measured too.
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(64);
    for (budget, constraints) in [
        ("paper_default", Constraints::paper_default()),
        (
            "fig8a_20W",
            Constraints::unconstrained()
                .with_power(FIG8A_POWERS[0])
                .with_bandwidth(800.0),
        ),
    ] {
        let (instance, _) = encode(&workload, &soc, &constraints, 2.0).unwrap();
        timetable_groups(c, budget, &instance);
    }
}

/// `hotops/fits_at` and `hotops/place_unplace` on both representations,
/// over the heuristic schedule of `instance`.
fn timetable_groups(c: &mut Criterion, budget: &str, instance: &Instance) {
    let schedule = solve_heuristic(
        instance,
        &SolverConfig {
            heuristic_starts: 40,
            local_search_passes: 1,
            ..SolverConfig::default()
        },
    )
    .unwrap()
    .schedule;

    for kind in [TimetableKind::Event, TimetableKind::Dense] {
        // A realistically occupied timetable: the full heuristic schedule.
        let mut occupied = Timetable::with_kind(instance, kind);
        for (i, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate() {
            occupied.place(instance.mode(TaskId(i), mode), start);
        }

        let mut group = c.benchmark_group("hotops/fits_at");
        group.bench_with_input(
            BenchmarkId::new(budget, format!("{kind:?}")),
            &occupied,
            |b, timetable| {
                // Probe every task's first mode at a spread of starts: the
                // exact query mix the serial SGS issues while scanning for
                // a slot.
                b.iter(|| {
                    let mut acc = 0u64;
                    for (i, &start) in schedule.starts.iter().enumerate() {
                        let mode = instance.mode(TaskId(i), schedule.modes[i]);
                        for probe in [0, start / 2, start, start + 7] {
                            acc = acc.wrapping_add(match timetable.fits_at(mode, probe) {
                                Ok(()) => 1,
                                Err(next) => u64::from(next),
                            });
                        }
                    }
                    black_box(acc)
                });
            },
        );
        group.finish();

        let mut group = c.benchmark_group("hotops/place_unplace");
        group.bench_with_input(
            BenchmarkId::new(budget, format!("{kind:?}")),
            &(),
            |b, ()| {
                // Splice every task in and back out of an occupied
                // timetable — the undo pattern of local search moves.
                let mut timetable = Timetable::with_kind(instance, kind);
                for (i, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate()
                {
                    timetable.place(instance.mode(TaskId(i), mode), start);
                }
                b.iter(|| {
                    for (i, &start) in schedule.starts.iter().enumerate() {
                        let mode = instance.mode(TaskId(i), schedule.modes[i]);
                        timetable.unplace(mode, start);
                        timetable.place(mode, start);
                    }
                    black_box(timetable.power_at(0))
                });
            },
        );
        group.finish();
    }
}

/// Three pipelined apps on a heterogeneous SoC — small enough to exhaust,
/// big enough (thousands of frontier expansions) that the exact search
/// dominates the one-start heuristic in front of it.
fn bnb_instance() -> Instance {
    let mut b = InstanceBuilder::new();
    let cpu = b.add_machine("cpu");
    let gpu = b.add_machine("gpu");
    let dsa = b.add_machine("dsa");
    for (name, cpu_t, gpu_t, dsa_t) in [("m", 8, 6, 5), ("n", 5, 3, 2), ("p", 7, 4, 6)] {
        let s = b.add_task(format!("{name}0"), vec![Mode::on(cpu, 1)]);
        let c = b.add_task(
            format!("{name}1"),
            vec![
                Mode::on(cpu, cpu_t),
                Mode::on(gpu, gpu_t),
                Mode::on(dsa, dsa_t),
            ],
        );
        let t = b.add_task(format!("{name}2"), vec![Mode::on(cpu, 1)]);
        b.add_precedence(s, c);
        b.add_precedence(c, t);
    }
    b.set_horizon(40);
    b.build().unwrap()
}

fn bnb_bench(c: &mut Criterion) {
    // Branch-and-bound node throughput and worker scaling. Every worker
    // count runs the *same* deterministic search (bit-identical results,
    // checked below), so the group measures pure parallel efficiency of
    // the round engine: ~1.0x on one core, approaching the worker count on
    // a multi-core runner.
    let inst = bnb_instance();
    let solver = |threads: usize| SolverConfig {
        heuristic_starts: 1,
        local_search_passes: 0,
        bound_termination: false,
        bnb_threads: threads,
        ..SolverConfig::default()
    };
    let reference = solve_exact(&inst, &solver(1)).unwrap();
    assert!(reference.proved_optimal);
    let mut group = c.benchmark_group("hotops/bnb_search");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let outcome = solve_exact(&inst, &solver(threads)).unwrap();
        assert_eq!(
            (outcome.makespan, outcome.stats.bnb_nodes),
            (reference.makespan, reference.stats.bnb_nodes),
            "{threads} workers diverged"
        );
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(solve_exact(&inst, &solver(t)).unwrap().makespan));
        });
    }
    group.finish();
}

fn encode_bench(c: &mut Criterion) {
    // One Rodinia design point at the five ticks a sweep can visit:
    // `encode` at every tick against what an evaluation pays (one
    // tabulate, a discretize per level), and a memoizing sweep's instance
    // key (one tabulate plus a keyed hash of the table).
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4)
        .with_gpu(16)
        .with_dsa(DsaSpec::new(16, "LUD"))
        .with_dsa(DsaSpec::new(16, "HS"));
    let constraints = Constraints::paper_default();
    let policy = SweepConfig::default().policy;
    let ticks: Vec<f64> = std::iter::successors(Some(policy.initial_seconds), |tick| {
        Some(tick / policy.refine_factor)
    })
    .take(policy.max_refinements as usize + 1)
    .collect();
    let mut group = c.benchmark_group("hotops/encode");
    group.bench_function("encode_per_tick", |b| {
        b.iter(|| {
            for &tick in &ticks {
                black_box(encode(&workload, &soc, &constraints, tick).unwrap());
            }
        });
    });
    group.bench_function("tabulate_then_discretize", |b| {
        b.iter(|| {
            let table = tabulate(&workload, &soc, &constraints).unwrap();
            for &tick in &ticks {
                black_box(table.discretize(tick).unwrap());
            }
        });
    });
    // The store's key hash: std's keyed SipHash over the table's words.
    let keys = RandomState::new();
    group.bench_function("instance_key", |b| {
        b.iter(|| {
            let table = tabulate(&workload, &soc, &constraints).unwrap();
            let mut key = keys.build_hasher();
            table.key_words(|word| key.write_u64(word));
            black_box(key.finish())
        });
    });
    group.finish();
}

fn heuristic_bench(c: &mut Criterion) {
    // `timetable_bench`'s flagship instance and its Gables twin (the same
    // workload without dependencies, under Gables' constraints), solved by
    // the sweep's heuristic with and without local search: the difference
    // is the local search's share. At the sweep's default both base passes
    // already reach the lower bound here and end the heuristic after one
    // job, so bound termination is off and every phase runs its full
    // allotment, as on a level whose bound is loose.
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(64);
    let constraints = Constraints::paper_default();
    let sweep = SolverConfig {
        bound_termination: false,
        ..SolverConfig::sweep()
    };
    let mut group = c.benchmark_group("hotops/heuristic");
    for (model, workload, constraints) in [
        ("hilp", workload.clone(), constraints),
        (
            "gables",
            without_dependencies(&workload),
            gables_constraints(&constraints),
        ),
    ] {
        let (instance, _) = encode(&workload, &soc, &constraints, 2.0).unwrap();
        for passes in [sweep.local_search_passes, 0] {
            let config = SolverConfig {
                local_search_passes: passes,
                ..sweep.clone()
            };
            group.bench_with_input(
                BenchmarkId::new(model, format!("local_search_passes={passes}")),
                &config,
                |b, config| {
                    b.iter(|| black_box(solve_heuristic(&instance, config).unwrap().makespan))
                },
            );
        }
    }
    group.finish();
}

fn evaluate_policy_bench(c: &mut Criterion) {
    // One full evaluator run on a flagship design point: the paper's grid
    // cascade (a solve per refinement level) against the exact path (the
    // cascade as a pilot plus one finest-tick solve on the event timetable
    // seeded with the lifted pilot schedule).
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(16);
    let solver = SolverConfig {
        heuristic_starts: 60,
        local_search_passes: 1,
        exact_node_budget: 0,
        ..SolverConfig::default()
    };
    let mut group = c.benchmark_group("hotops/evaluate");
    group.sample_size(10);
    for (name, policy) in [
        ("grid_refinement", EvaluatePolicy::grid()),
        ("exact", EvaluatePolicy::exact()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let eval = Hilp::new(workload.clone(), soc.clone())
                    .with_constraints(Constraints::paper_default())
                    .with_policy(TimeStepPolicy::sweep())
                    .with_solver(solver.clone())
                    .with_evaluate_policy(policy)
                    .evaluate()
                    .unwrap();
                black_box(eval.makespan_seconds)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = timetable_bench, bnb_bench, encode_bench, heuristic_bench, evaluate_policy_bench
}
criterion_main!(benches);
