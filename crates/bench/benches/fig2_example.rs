//! Figure 2/3 bench: the worked example, solved to proven optimality by
//! both solver stacks (dedicated scheduler and disjunctive MILP).
//!
//! Regenerates: optimal makespans (7 s unconstrained, 9 s under 3 W),
//! the 2.4x speedup over naive CPU execution, and the WLP triple
//! (MA 1.0 / HILP 1.7 / Gables 2.4).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hilp_bench::print_block;
use hilp_core::{average_wlp, example2, SolverConfig};
use hilp_model::SolveLimits;
use hilp_sched::solve_exact;
use hilp_testkit::milp_encode::makespan_via_milp;

fn report() {
    let (instance, schedule, makespan) = example2::solve_figure2().expect("solvable");
    let (instance3, _, makespan3) = example2::solve_figure3().expect("solvable");
    let body = format!(
        "naive all-on-CPU: {} s\nHILP optimum: {makespan} s (paper: 7 s)\n\
         speedup vs naive: {:.1}x (paper: 2.4x)\n\
         avg WLP: {:.2} (paper: 1.7; MA 1.0, Gables 2.4)\n\
         3 W power-constrained optimum: {makespan3} s (paper figure 3: GPU stays idle)\n{}",
        example2::NAIVE_CPU_SECONDS,
        f64::from(example2::NAIVE_CPU_SECONDS) / f64::from(makespan),
        average_wlp(&schedule, &instance),
        schedule.render(&instance)
    );
    let _ = instance3;
    print_block("Figure 2/3: the worked example", &body);
}

fn bench(c: &mut Criterion) {
    report();
    let instance = example2::figure2_instance();
    let instance3 = example2::figure3_instance();

    c.bench_function("fig2/scheduler_exact", |b| {
        b.iter(|| {
            let out = solve_exact(black_box(&instance), &SolverConfig::default()).unwrap();
            assert_eq!(out.makespan, 7);
            out.makespan
        });
    });
    c.bench_function("fig2/milp_cross_encoding", |b| {
        b.iter(|| {
            let m = makespan_via_milp(black_box(&instance), &SolveLimits::default()).unwrap();
            assert_eq!(m, 7);
            m
        });
    });
    c.bench_function("fig3/power_constrained_exact", |b| {
        b.iter(|| {
            let out = solve_exact(black_box(&instance3), &SolverConfig::default()).unwrap();
            assert_eq!(out.makespan, 9);
            out.makespan
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
