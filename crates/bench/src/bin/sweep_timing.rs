//! Wall-clock timing harness for the Figure 7 design-space sweep.
//!
//! Runs the sweep (all three models, Default workload, paper constraints)
//! three times per model:
//!
//! * *reference* — dense timetable, single-threaded multi-start, no
//!   memoization, no bound termination: the original implementation's hot
//!   path.
//! * *baseline* — event-driven timetable plus instance memoization, no
//!   bound termination: the previously-committed hot path, kept as the
//!   yardstick for bound termination.
//! * *optimized* — baseline plus proven-bound termination.
//!
//! It then writes the timings, both speedups, a per-point correctness
//! check, solver work counters, and the optimized run's per-point
//! makespans (consumed by the Fig. 7 regression test in
//! `tests/fig7_regression.rs`) to `BENCH_sweep.json`.
//!
//! A fourth HILP-only sweep runs the optimized configuration under
//! `EvaluatePolicy::exact()` — the refinement cascade replayed as a pilot,
//! then one finest-tick solve on the event timetable with the pilot's
//! schedule lifted in as a verified incumbent — and records the
//! grid-vs-exact wall-clock speedup.
//!
//! A fifth block measures identity replay: the exact sweep is recorded
//! once ([`evaluate_space_recorded`], which returns a result store), then
//! re-run verbatim armed with the store, which must replay every point
//! without solving and be bit-identical to the recording. The
//! repeat-what-if latency — a one-SoC sweep of a recorded SoC, answered
//! from the store — is measured as a median over 50 queries. Everything
//! lands in the `"delta"` object of `BENCH_sweep.json`.
//!
//! A sixth block sweeps the energy-Pareto frontier: every 37th SoC of
//! the space (the Fig. 7 regression subsample's coprime stride) runs
//! [`evaluate_space_pareto`]'s descending energy-cap ladder. The scalar
//! evaluation of each Pareto point must be bit-identical to the plain
//! optimized HILP run on the same SoC (the ladder rides on, never
//! replaces, the committed evaluation), every front must be well-shaped
//! (makespan strictly ascending, energy strictly descending), and a
//! two-worker re-run must be bit-identical to the first. The fronts land
//! in the `"pareto"` object of `BENCH_sweep.json`, one trade-off per
//! line, and are pinned by `tests/pareto_regression.rs` — as are the
//! per-point `energy_joules` values now committed with every sweep point.
//!
//! The correctness gates run every time: per-point makespans must agree
//! across reference and optimized within the reported optimality gaps;
//! the optimized run must be *bit-identical* to the baseline run — bound
//! termination is pure work-skipping and may never move a result; every
//! exact makespan must be a valid *lower-or-equal* counterpart of the
//! grid makespan on the same point (the exact path has no residual
//! discretization inflation to hide behind); and the identity re-sweep
//! must reproduce the recording bit for bit.
//!
//! Every timing here is a single shot on whatever host runs it, so treat
//! the ratios as indicative only. The repeated, noise-controlled yardstick
//! for performance claims is the `hilpbench` package (`hilpbench/`, run
//! through `bash hilpbench/run.sh`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hilp-bench --bin sweep_timing -- \
//!     [--step N] [--out PATH] [--threads N] [--strict] \
//!     [--trace PATH] [--summary PATH] [--quiet] \
//!     [--deadline SECS] [--per-point-budget N]
//! ```
//!
//! `--step N` subsamples the 372-SoC space (every Nth SoC; default 1 =
//! the full space). `--threads N` fixes the sweep worker count (default:
//! all cores). `--strict` also fails the process when the measured speedup
//! is below 2x (by default only a correctness failure is fatal, since
//! wall-clock ratios depend on the host). `--trace PATH` runs an extra
//! telemetry-enabled HILP sweep, asserts it is bit-identical to the
//! optimized run, writes its search-trace journal (JSONL) to PATH, and
//! reports the measured telemetry overhead. `--summary PATH` writes a
//! markdown health dashboard (for `$GITHUB_STEP_SUMMARY`). `--quiet`
//! silences progress on stderr.
//!
//! `--deadline SECS` and/or `--per-point-budget N` switch the harness
//! into *budgeted* mode: one budgeted sweep per model under the
//! optimized configuration (a whole-sweep wall-clock deadline with fair
//! redistribution across design points, and/or a fresh deterministic
//! node budget per point). Budgeted mode asserts graceful degradation —
//! every design point still reports a result — and writes the timings
//! plus truncated-point counts to `--out` (default
//! `BENCH_sweep_budgeted.json` so the committed unbudgeted
//! `BENCH_sweep.json` is never clobbered) and, with `--summary`, a
//! dashboard section with per-model truncated-point counts. The
//! reference/baseline comparison and its bit-identity gates are skipped:
//! they assert reproducibility that a wall-clock budget deliberately
//! trades away. `--trace` and `--strict` are ignored in budgeted mode.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hilp_core::{EvaluatePolicy, SolverConfig};
use hilp_dse::{
    design_space, evaluate_space_pareto, evaluate_space_recorded, evaluate_space_with_stats,
    DesignPoint, ModelKind, ParetoDesignPoint, SweepBudgets, SweepConfig, SweepStats,
};
use hilp_sched::TimetableKind;
use hilp_soc::Constraints;
use hilp_telemetry::{Counter, Reporter, Telemetry, TraceSummary};
use hilp_workloads::{Workload, WorkloadVariant};

const MODELS: [ModelKind; 3] = [ModelKind::MultiAmdahl, ModelKind::Gables, ModelKind::Hilp];

/// Stride of the energy-Pareto subsample, matching the Fig. 7 regression
/// test's `SUBSAMPLE_STEP` (37 is coprime to the design-space generator
/// strides) so `tests/pareto_regression.rs` can recompute exactly the
/// committed fronts.
const PARETO_STEP: usize = 37;

/// Warns (unconditionally — this is degraded capacity, not progress
/// chatter, so `--quiet` does not silence it) when the sweeps are about
/// to hit the `SweepStats::parallelism_fallback` path: `--threads 0`
/// with an undeterminable core count runs every sweep on
/// `hilp_parallel::FALLBACK_THREADS` workers.
fn warn_on_parallelism_fallback(threads: usize) {
    let (resolved, fell_back) = hilp_parallel::resolve_threads(threads);
    if fell_back {
        eprintln!(
            "warning: could not determine the available core count; \
             sweeps fall back to {resolved} worker threads (pass --threads N to override)"
        );
    }
}

/// The original implementation's configuration: dense per-step timetable,
/// serial multi-start, every design point solved from scratch to
/// completion.
fn reference_config(threads: usize) -> SweepConfig {
    SweepConfig {
        solver: SolverConfig {
            timetable: TimetableKind::Dense,
            heuristic_threads: 1,
            bound_termination: false,
            ..SolverConfig::sweep()
        },
        threads,
        memoize: false,
        ..SweepConfig::default()
    }
}

/// The previously-committed hot path: event-driven timetable plus
/// instance memoization, but no bound-based work skipping. Multi-start
/// stays single-threaded here because the sweep already saturates every
/// core with one design point per worker; the per-point parallelism is
/// for interactive single-SoC evaluations.
fn baseline_config(threads: usize) -> SweepConfig {
    SweepConfig {
        solver: SolverConfig {
            timetable: TimetableKind::Event,
            heuristic_threads: 1,
            bound_termination: false,
            ..SolverConfig::sweep()
        },
        threads,
        memoize: true,
        ..SweepConfig::default()
    }
}

/// The current hot path: baseline plus proven-bound early termination.
fn optimized_config(threads: usize) -> SweepConfig {
    SweepConfig {
        threads,
        ..SweepConfig::default()
    }
}

struct ModelRun {
    model: ModelKind,
    reference_seconds: f64,
    baseline_seconds: f64,
    optimized_seconds: f64,
    stats: SweepStats,
    max_rel_diff: f64,
    max_allowed: f64,
    bit_identical: bool,
    points: Vec<DesignPoint>,
}

fn main() {
    let mut step = 1usize;
    let mut out: Option<String> = None;
    let mut strict = false;
    let mut threads = 0usize;
    let mut trace: Option<String> = None;
    let mut summary: Option<String> = None;
    let mut quiet = false;
    let mut deadline: Option<f64> = None;
    let mut per_point_budget: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--step" => step = args.next().and_then(|v| v.parse().ok()).expect("--step N"),
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
            }
            "--strict" => strict = true,
            "--trace" => trace = Some(args.next().expect("--trace PATH")),
            "--summary" => summary = Some(args.next().expect("--summary PATH")),
            "--quiet" => quiet = true,
            "--deadline" => {
                deadline = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--deadline SECS"),
                );
            }
            "--per-point-budget" => {
                per_point_budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--per-point-budget N"),
                );
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let budgeted = deadline.is_some() || per_point_budget.is_some();
    let out = out.unwrap_or_else(|| {
        String::from(if budgeted {
            "BENCH_sweep_budgeted.json"
        } else {
            "BENCH_sweep.json"
        })
    });
    if budgeted {
        run_budgeted(
            step,
            threads,
            deadline,
            per_point_budget,
            &out,
            summary.as_deref(),
            quiet,
        );
        return;
    }

    // One telemetry sink for the whole process: the three comparison runs
    // use telemetry-disabled configs, so only the traced fourth sweep (and
    // the progress messages) land in the journal.
    let telemetry = if trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let reporter = Reporter::new(quiet, &telemetry);
    warn_on_parallelism_fallback(threads);
    let root_span = telemetry.span("bench.sweep_timing");

    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(step.max(1)).collect();
    reporter.say(&format!(
        "sweep_timing: {} SoCs x {} models",
        socs.len(),
        MODELS.len()
    ));

    let reference = reference_config(threads);
    let baseline = baseline_config(threads);
    let optimized = optimized_config(threads);
    let mut runs = Vec::new();
    for model in MODELS {
        let t0 = Instant::now();
        let (ref_points, _) =
            evaluate_space_with_stats(&workload, &socs, &constraints, model, &reference)
                .expect("reference sweep succeeds");
        let reference_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (base_points, _) =
            evaluate_space_with_stats(&workload, &socs, &constraints, model, &baseline)
                .expect("baseline sweep succeeds");
        let baseline_seconds = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let (opt_points, stats) =
            evaluate_space_with_stats(&workload, &socs, &constraints, model, &optimized)
                .expect("optimized sweep succeeds");
        let optimized_seconds = t2.elapsed().as_secs_f64();

        // Correctness gate 1: reference vs optimized makespans must agree
        // within the solver's reported optimality gap (both paths return
        // near-optimal, not canonical, schedules; the gap bounds how far
        // apart they may be).
        let (max_rel_diff, max_allowed) = compare(&ref_points, &opt_points);
        // Correctness gate 2: bound termination is pure work-skipping —
        // the optimized run must reproduce the baseline run bit for bit.
        let bit_identical = opt_points == base_points;
        reporter.say(&format!(
            "  {:<7} reference {reference_seconds:7.2}s  baseline {baseline_seconds:7.2}s  \
             optimized {optimized_seconds:7.2}s  ({:.2}x vs baseline, {} cache hits, \
             bit-identical: {bit_identical})",
            model.name(),
            baseline_seconds / optimized_seconds.max(1e-9),
            stats.cache_hits,
        ));
        runs.push(ModelRun {
            model,
            reference_seconds,
            baseline_seconds,
            optimized_seconds,
            stats,
            max_rel_diff,
            max_allowed,
            bit_identical,
            points: opt_points,
        });
    }

    let total_ref: f64 = runs.iter().map(|r| r.reference_seconds).sum();
    let total_base: f64 = runs.iter().map(|r| r.baseline_seconds).sum();
    let total_opt: f64 = runs.iter().map(|r| r.optimized_seconds).sum();
    let speedup = total_ref / total_opt.max(1e-9);
    let speedup_vs_baseline = total_base / total_opt.max(1e-9);
    let worst = runs
        .iter()
        .map(|r| r.max_rel_diff - r.max_allowed)
        .fold(f64::NEG_INFINITY, f64::max);
    let points_match = worst <= 1e-9;
    let bit_identical = runs.iter().all(|r| r.bit_identical);

    // Fourth sweep: HILP under `EvaluatePolicy::exact()` — the refinement
    // cascade replayed as a pilot, then one finest-tick solve on the event
    // timetable seeded with the lifted pilot schedule. Correctness gate 3:
    // the grid result carries coarse-step rounding the exact path does
    // not, so the exact makespan must never exceed the grid makespan on
    // any point.
    let exact = {
        let hilp_run = runs
            .iter()
            .find(|r| r.model == ModelKind::Hilp)
            .expect("HILP is in MODELS");
        let mut cfg = optimized_config(threads);
        cfg.evaluate = EvaluatePolicy::exact();
        let t = Instant::now();
        let (points, _) =
            evaluate_space_with_stats(&workload, &socs, &constraints, ModelKind::Hilp, &cfg)
                .expect("exact sweep succeeds");
        let exact_seconds = t.elapsed().as_secs_f64();
        for (g, e) in hilp_run.points.iter().zip(&points) {
            assert!(
                e.makespan_seconds <= g.makespan_seconds + 1e-9,
                "{}: exact makespan {} exceeds the grid makespan {}",
                g.label,
                e.makespan_seconds,
                g.makespan_seconds
            );
        }
        let tightened_points = hilp_run
            .points
            .iter()
            .zip(&points)
            .filter(|(g, e)| e.makespan_seconds < g.makespan_seconds - 1e-9)
            .count();
        let speedup_grid_vs_exact = hilp_run.optimized_seconds / exact_seconds.max(1e-9);
        let speedup_baseline_vs_exact = hilp_run.baseline_seconds / exact_seconds.max(1e-9);
        reporter.say(&format!(
            "  HILP    exact  {exact_seconds:7.2}s  ({speedup_baseline_vs_exact:.2}x vs \
             refinement-loop baseline, {speedup_grid_vs_exact:.2}x vs optimized grid, \
             {tightened_points}/{} points tightened, upper bound verified)",
            points.len(),
        ));
        ExactRun {
            grid_seconds: hilp_run.optimized_seconds,
            baseline_seconds: hilp_run.baseline_seconds,
            exact_seconds,
            speedup_grid_vs_exact,
            speedup_baseline_vs_exact,
            points: points.len(),
            tightened_points,
        }
    };

    // Fifth block: identity replay. Recording computes no instance keys
    // (every distinct SoC is solved), so `recorded_seconds` is the honest
    // scratch cost of the recording pass, not a like-for-like rerun of the
    // fourth sweep. Correctness gate 4: the identity re-sweep must be
    // bit-identical to the recording.
    let delta = {
        let mut cfg = optimized_config(threads);
        cfg.evaluate = EvaluatePolicy::exact();
        let t = Instant::now();
        let (recorded_points, _, recorded) =
            evaluate_space_recorded(&workload, &socs, &constraints, ModelKind::Hilp, &cfg)
                .expect("recorded exact sweep succeeds");
        let recorded_seconds = t.elapsed().as_secs_f64();
        let baseline = Arc::new(recorded);
        let mut armed = cfg.clone();
        armed.baseline = Some(Arc::clone(&baseline));

        // Unchanged inputs: every point is replayed, no solver work at all.
        let t = Instant::now();
        let (identity_points, identity_stats) =
            evaluate_space_with_stats(&workload, &socs, &constraints, ModelKind::Hilp, &armed)
                .expect("identity re-sweep succeeds");
        let identity_seconds = t.elapsed().as_secs_f64();
        assert!(
            identity_points == recorded_points,
            "identity replay changed sweep results"
        );
        assert_eq!(
            identity_stats.delta_identity_points,
            identity_points.len(),
            "an unchanged re-sweep must replay every point verbatim"
        );

        // The interactive single-SoC hot path: re-asking an answered
        // what-if question is a one-SoC sweep, which the store must answer
        // by identity replay.
        let question = [socs[socs.len() / 2].clone()];
        let mut repeats: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                let (_, stats) = evaluate_space_with_stats(
                    &workload,
                    &question,
                    &constraints,
                    ModelKind::Hilp,
                    &armed,
                )
                .expect("repeat what-if succeeds");
                assert_eq!(stats.delta_identity_points, 1);
                t.elapsed().as_secs_f64()
            })
            .collect();
        repeats.sort_by(f64::total_cmp);
        let repeat_median_ms = repeats[repeats.len() / 2] * 1e3;

        let resweep_speedup_vs_exact = exact.exact_seconds / identity_seconds.max(1e-9);
        reporter.say(&format!(
            "  HILP    delta  identity re-sweep {identity_seconds:7.2}s \
             ({resweep_speedup_vs_exact:.0}x vs exact scratch, {} points replayed); \
             repeat what-if median {repeat_median_ms:.3} ms",
            identity_stats.delta_identity_points,
        ));
        DeltaRun {
            recorded_seconds,
            identity_seconds,
            identity_points: identity_stats.delta_identity_points,
            resweep_speedup_vs_exact,
            repeat_median_ms,
        }
    };

    // Sixth block: the energy-Pareto frontier on the Fig. 7 regression
    // subsample (every 37th SoC — the stride is coprime to the space's
    // generator strides, so the subsample crosses CPU counts, GPU sizes,
    // and DSA allocations). Correctness gate 5: the ladder's scalar
    // evaluation must reproduce the plain optimized HILP run bit for bit
    // (the Pareto sweep adds trade-offs, it never moves the committed
    // point), every front must be well-shaped, and a two-worker re-run
    // must be bit-identical (worker count is a pure wall-clock knob).
    let pareto = {
        let hilp_run = runs
            .iter()
            .find(|r| r.model == ModelKind::Hilp)
            .expect("HILP is in MODELS");
        let pareto_socs: Vec<_> = socs.iter().cloned().step_by(PARETO_STEP).collect();
        let cfg = optimized_config(threads);
        let t = Instant::now();
        let points = evaluate_space_pareto(&workload, &pareto_socs, &constraints, &cfg)
            .expect("pareto sweep succeeds");
        let pareto_seconds = t.elapsed().as_secs_f64();
        for (pp, gp) in points
            .iter()
            .zip(hilp_run.points.iter().step_by(PARETO_STEP))
        {
            assert!(
                pp.point == *gp,
                "{}: the Pareto sweep's scalar evaluation diverged from the plain sweep",
                gp.label
            );
            assert!(
                !pp.front.is_empty(),
                "{}: empty Pareto front on a feasible point",
                gp.label
            );
            for w in pp.front.windows(2) {
                assert!(
                    w[0].makespan_seconds < w[1].makespan_seconds
                        && w[0].energy_joules > w[1].energy_joules,
                    "{}: front is not strictly makespan-ascending / energy-descending",
                    gp.label
                );
            }
        }
        let mut two_workers = cfg.clone();
        two_workers.threads = 2;
        let rerun = evaluate_space_pareto(&workload, &pareto_socs, &constraints, &two_workers)
            .expect("two-worker pareto sweep succeeds");
        assert!(
            rerun == points,
            "2 sweep workers changed the Pareto fronts; worker count must be a wall-clock knob"
        );
        let complete_fronts = points.iter().filter(|p| p.complete).count();
        let front_points: usize = points.iter().map(|p| p.front.len()).sum();
        reporter.say(&format!(
            "  HILP    pareto {pareto_seconds:7.2}s  ({} SoCs, {front_points} trade-offs, \
             {complete_fronts} complete fronts, bit-identical across worker counts)",
            points.len(),
        ));
        ParetoRun {
            seconds: pareto_seconds,
            complete_fronts,
            front_points,
            points,
        }
    };

    // Fourth sweep (with --trace): the optimized HILP configuration with
    // telemetry enabled. Telemetry is observational, so the traced sweep
    // must reproduce the optimized run bit for bit; the wall-clock
    // difference is the enabled-path overhead.
    let traced = trace.as_ref().map(|_| {
        let hilp_run = runs
            .iter()
            .find(|r| r.model == ModelKind::Hilp)
            .expect("HILP is in MODELS");
        let mut cfg = optimized_config(threads);
        cfg.solver.telemetry = telemetry.clone();
        let t = Instant::now();
        let (points, _) =
            evaluate_space_with_stats(&workload, &socs, &constraints, ModelKind::Hilp, &cfg)
                .expect("traced sweep succeeds");
        let traced_seconds = t.elapsed().as_secs_f64();
        assert!(
            points == hilp_run.points,
            "telemetry changed sweep results; it must be observational"
        );
        let overhead_pct = (traced_seconds / hilp_run.optimized_seconds.max(1e-9) - 1.0) * 100.0;
        reporter.say(&format!(
            "  HILP    traced {traced_seconds:7.2}s  \
             (telemetry overhead {overhead_pct:+.1}% vs optimized, bit-identical: true)"
        ));
        TracedRun {
            traced_seconds,
            optimized_seconds: hilp_run.optimized_seconds,
            overhead_pct,
        }
    });
    let telemetry_json = traced
        .as_ref()
        .map(|t| render_telemetry_json(t, &telemetry));

    let json = render_json(
        &runs,
        socs.len(),
        total_ref,
        total_base,
        total_opt,
        speedup,
        speedup_vs_baseline,
        points_match,
        bit_identical,
        &exact,
        &delta,
        &pareto,
        telemetry_json.as_deref(),
    );
    std::fs::write(&out, &json).expect("write BENCH_sweep.json");

    // Close the root span before draining the journal so it is included,
    // giving a trace-summary of the journal (near-)full attribution.
    drop(root_span);
    let journal = trace.as_ref().map(|path| {
        let journal = telemetry.journal();
        journal
            .write_jsonl(std::path::Path::new(path))
            .expect("write trace journal");
        reporter.say(&format!("sweep_timing: trace journal -> {path}"));
        journal
    });
    if let Some(summary_path) = &summary {
        let md = render_markdown_summary(
            &runs,
            socs.len(),
            speedup,
            speedup_vs_baseline,
            points_match && bit_identical,
            &exact,
            &delta,
            &pareto,
            traced.as_ref(),
            journal.as_ref(),
            &telemetry,
        );
        std::fs::write(summary_path, md).expect("write markdown summary");
        reporter.say(&format!("sweep_timing: health dashboard -> {summary_path}"));
    }
    reporter.say(&format!(
        "sweep_timing: total {total_ref:.2}s -> {total_base:.2}s -> {total_opt:.2}s \
         ({speedup:.2}x vs reference, {speedup_vs_baseline:.2}x vs baseline) -> {out}"
    ));

    assert!(
        points_match,
        "per-point makespans diverged beyond the reported optimality gap"
    );
    assert!(
        bit_identical,
        "bound termination changed reported results; it must be transparent"
    );
    if strict {
        assert!(speedup >= 2.0, "speedup {speedup:.2}x below the 2x target");
        assert!(
            delta.resweep_speedup_vs_exact >= 2.0,
            "delta re-sweep speedup {:.2}x below the 2x target",
            delta.resweep_speedup_vs_exact
        );
        assert!(
            delta.repeat_median_ms < 1.0,
            "repeat what-if median {:.3} ms at or above 1 ms",
            delta.repeat_median_ms
        );
    } else {
        if speedup < 2.0 {
            reporter.say(&format!(
                "sweep_timing: WARNING speedup {speedup:.2}x below the 2x target"
            ));
        }
        if delta.resweep_speedup_vs_exact < 2.0 {
            reporter.say(&format!(
                "sweep_timing: WARNING delta re-sweep speedup {:.2}x below the 2x target",
                delta.resweep_speedup_vs_exact
            ));
        }
        if delta.repeat_median_ms >= 1.0 {
            reporter.say(&format!(
                "sweep_timing: WARNING repeat what-if median {:.3} ms at or above 1 ms",
                delta.repeat_median_ms
            ));
        }
    }
}

/// Budgeted mode: one anytime sweep per model under the optimized
/// configuration plus the requested budgets. Asserts graceful
/// degradation (every design point reports a result) and records how
/// many points each budget truncated; the unbudgeted harness's
/// correctness gates are skipped because a wall-clock budget
/// deliberately trades away the reproducibility they assert.
fn run_budgeted(
    step: usize,
    threads: usize,
    deadline: Option<f64>,
    per_point_budget: Option<u64>,
    out: &str,
    summary: Option<&str>,
    quiet: bool,
) {
    let telemetry = Telemetry::disabled();
    let reporter = Reporter::new(quiet, &telemetry);
    warn_on_parallelism_fallback(threads);
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(step.max(1)).collect();
    let mut config = optimized_config(threads);
    config.budgets = SweepBudgets {
        per_point_nodes: per_point_budget,
        sweep_deadline: deadline.map(Duration::from_secs_f64),
        cancel: None,
    };
    reporter.say(&format!(
        "sweep_timing (budgeted): {} SoCs x {} models, deadline {:?} s, per-point nodes {:?}",
        socs.len(),
        MODELS.len(),
        deadline,
        per_point_budget,
    ));

    let mut rows = Vec::new();
    for model in MODELS {
        let t0 = Instant::now();
        let (points, stats) =
            evaluate_space_with_stats(&workload, &socs, &constraints, model, &config)
                .expect("budgeted sweep succeeds");
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(
            points.len(),
            socs.len(),
            "{}: a budget must degrade points, never drop them",
            model.name()
        );
        assert!(
            points.iter().all(|p| p.makespan_seconds > 0.0),
            "{}: every truncated point still reports a feasible schedule",
            model.name()
        );
        reporter.say(&format!(
            "  {:<7} {seconds:7.2}s  {} / {} points truncated",
            model.name(),
            stats.truncated_points,
            points.len(),
        ));
        rows.push((model, seconds, stats, points.len()));
    }

    let mut per_model = String::new();
    for (i, (model, seconds, stats, points)) in rows.iter().enumerate() {
        if i > 0 {
            per_model.push_str(",\n");
        }
        per_model.push_str(&format!(
            "    {{\"model\": \"{}\", \"seconds\": {seconds:.4}, \"points\": {points}, \
             \"truncated_points\": {}, \"solves\": {}}}",
            model.name(),
            stats.truncated_points,
            stats.solves,
        ));
    }
    let json = format!(
        "{{\n  \"benchmark\": \"fig7_budgeted_sweep\",\n  \"workload\": \"Default\",\n  \
         \"socs\": {},\n  \"deadline_seconds\": {},\n  \"per_point_nodes\": {},\n  \
         \"per_model\": [\n{per_model}\n  ]\n}}\n",
        socs.len(),
        deadline.map_or_else(|| String::from("null"), |d| format!("{d}")),
        per_point_budget.map_or_else(|| String::from("null"), |n| format!("{n}")),
    );
    std::fs::write(out, &json).expect("write budgeted sweep JSON");

    if let Some(summary_path) = summary {
        let mut md = String::from("## Budgeted sweep dashboard\n\n");
        md.push_str(&format!(
            "{} SoCs/model | deadline: {} | per-point node budget: {} | \
             every point populated ✅\n\n",
            socs.len(),
            deadline.map_or_else(|| String::from("—"), |d| format!("{d} s")),
            per_point_budget.map_or_else(|| String::from("—"), |n| n.to_string()),
        ));
        md.push_str("| model | seconds | truncated points |\n|---|---:|---:|\n");
        for (model, seconds, stats, points) in &rows {
            md.push_str(&format!(
                "| {} | {seconds:.2} | {} / {points} |\n",
                model.name(),
                stats.truncated_points,
            ));
        }
        std::fs::write(summary_path, md).expect("write budgeted markdown summary");
        reporter.say(&format!(
            "sweep_timing (budgeted): dashboard -> {summary_path}"
        ));
    }
    let total: f64 = rows.iter().map(|r| r.1).sum();
    reporter.say(&format!(
        "sweep_timing (budgeted): total {total:.2}s -> {out}"
    ));
}

/// Timing of the exact-policy HILP sweep relative to the grid runs: the
/// optimized run whose committed makespans it must upper-bound-verify,
/// and the refinement-loop baseline it must beat on wall-clock.
struct ExactRun {
    grid_seconds: f64,
    baseline_seconds: f64,
    exact_seconds: f64,
    speedup_grid_vs_exact: f64,
    speedup_baseline_vs_exact: f64,
    points: usize,
    /// Points where the exact makespan is strictly below the grid result
    /// — coarse-step rounding the finest-tick solve eliminated.
    tightened_points: usize,
}

/// Timing of the identity-replay block: the identity re-sweep and the
/// single-SoC repeat-what-if latency.
struct DeltaRun {
    /// Scratch cost of the recording pass (no instance keys).
    recorded_seconds: f64,
    /// Re-sweep of unchanged inputs armed with the recording.
    identity_seconds: f64,
    /// Points answered by identity replay (= all of them).
    identity_points: usize,
    /// Exact scratch sweep seconds / identity re-sweep seconds.
    resweep_speedup_vs_exact: f64,
    /// Median latency of a one-SoC sweep answered by identity replay,
    /// over 50 queries.
    repeat_median_ms: f64,
}

/// The energy-Pareto block: the subsampled cap-ladder sweep, its
/// shape/bit-identity gates already enforced, ready for serialization.
struct ParetoRun {
    seconds: f64,
    /// Fronts where every ladder rung closed its gap (provably exact).
    complete_fronts: usize,
    /// Total trade-offs across all fronts.
    front_points: usize,
    points: Vec<ParetoDesignPoint>,
}

/// Timing of the telemetry-enabled fourth sweep relative to the optimized
/// (telemetry-disabled) HILP run it must reproduce.
struct TracedRun {
    traced_seconds: f64,
    optimized_seconds: f64,
    overhead_pct: f64,
}

/// The `"telemetry"` object of `BENCH_sweep.json`: overhead measurement
/// plus the key solver counters of the traced sweep.
fn render_telemetry_json(t: &TracedRun, tel: &Telemetry) -> String {
    let c = |k: Counter| tel.counter(k);
    format!(
        "{{\"traced_seconds\": {:.4}, \"optimized_seconds\": {:.4}, \"overhead_pct\": {:.2}, \
         \"bit_identical\": true, \"sweep_points\": {}, \"cache_hits\": {}, \"steals\": {}, \
         \"levels_solved\": {}, \"heuristic_jobs_requested\": {}, \
         \"heuristic_jobs_executed\": {}, \"bound_terminations\": {}}}",
        t.traced_seconds,
        t.optimized_seconds,
        t.overhead_pct,
        c(Counter::SweepPoints),
        c(Counter::SweepCacheHits),
        c(Counter::SweepSteals),
        c(Counter::LevelsSolved),
        c(Counter::HeuristicJobsRequested),
        c(Counter::HeuristicJobsExecuted),
        c(Counter::HeuristicBoundTerminations),
    )
}

/// The CI health dashboard: timing and correctness of the sweep, telemetry
/// overhead and key counters, and per-phase trace attribution. Written in
/// GitHub-flavoured markdown for `$GITHUB_STEP_SUMMARY`.
#[allow(clippy::too_many_arguments)]
fn render_markdown_summary(
    runs: &[ModelRun],
    socs: usize,
    speedup: f64,
    speedup_vs_baseline: f64,
    correct: bool,
    exact: &ExactRun,
    delta: &DeltaRun,
    pareto: &ParetoRun,
    traced: Option<&TracedRun>,
    journal: Option<&hilp_telemetry::Journal>,
    tel: &Telemetry,
) -> String {
    let mut md = String::from("## Sweep health dashboard\n\n");
    md.push_str(&format!(
        "{socs} SoCs/model | **{speedup:.2}x** vs reference, \
         **{speedup_vs_baseline:.2}x** vs baseline | results {}\n\n",
        if correct {
            "bit-identical ✅"
        } else {
            "DIVERGED ❌"
        }
    ));
    md.push_str(
        "| model | reference (s) | baseline (s) | optimized (s) | cache hits | truncated points |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );
    for r in runs {
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {} | {} |\n",
            r.model.name(),
            r.reference_seconds,
            r.baseline_seconds,
            r.optimized_seconds,
            r.stats.cache_hits,
            r.stats.truncated_points,
        ));
    }
    md.push_str(&format!(
        "\n### Exact (continuous-time) sweep\n\n\
         HILP under `EvaluatePolicy::exact()`: **{:.2}s** vs the refinement-loop \
         baseline **{:.2}s** (**{:.2}x** faster; optimized grid ran {:.2}s), \
         {} / {} points strictly tightened, exact ≤ grid on every point ✅\n",
        exact.exact_seconds,
        exact.baseline_seconds,
        exact.speedup_baseline_vs_exact,
        exact.grid_seconds,
        exact.tightened_points,
        exact.points,
    ));
    md.push_str(&format!(
        "\n### Identity replay\n\n\
         Recorded exact sweep: **{:.2}s**; identity re-sweep **{:.3}s** \
         ({} points replayed, **{:.0}x** vs exact scratch), results \
         bit-identical ✅. Repeat what-if (identity replay): median \
         **{:.3} ms**.\n",
        delta.recorded_seconds,
        delta.identity_seconds,
        delta.identity_points,
        delta.resweep_speedup_vs_exact,
        delta.repeat_median_ms,
    ));
    md.push_str(&format!(
        "\n### Energy Pareto sweep\n\n\
         Descending energy-cap ladder on {} subsampled SoCs: **{:.2}s**, \
         {} trade-offs, {} / {} fronts provably complete, scalar points \
         bit-identical to the plain sweep and fronts bit-identical across \
         worker counts ✅\n",
        pareto.points.len(),
        pareto.seconds,
        pareto.front_points,
        pareto.complete_fronts,
        pareto.points.len(),
    ));
    if let Some(t) = traced {
        md.push_str(&format!(
            "\n### Telemetry overhead\n\n\
             Traced HILP sweep: **{:.2}s** vs optimized **{:.2}s** \
             (**{:+.1}%** overhead), results bit-identical ✅\n\n\
             | counter | value |\n|---|---:|\n",
            t.traced_seconds, t.optimized_seconds, t.overhead_pct,
        ));
        for (counter, value) in tel.counters() {
            if value > 0 {
                md.push_str(&format!("| `{}` | {value} |\n", counter.name()));
            }
        }
    }
    if let Some(journal) = journal {
        md.push_str("\n### Trace attribution\n\n");
        md.push_str(&TraceSummary::from_journal(journal).render_markdown());
    }
    md
}

/// Maximum relative makespan difference between the two runs, and the
/// maximum difference the reported gaps allow: if the reference makespan
/// is within `gap` of optimal and so is the optimized one, they can be at
/// most a factor `1 + gap` apart (plus one step of discretization slack).
fn compare(reference: &[DesignPoint], optimized: &[DesignPoint]) -> (f64, f64) {
    let mut max_rel_diff: f64 = 0.0;
    let mut max_allowed: f64 = 0.0;
    for (r, o) in reference.iter().zip(optimized) {
        let base = r.makespan_seconds.max(1e-12);
        let rel = (r.makespan_seconds - o.makespan_seconds).abs() / base;
        let allowed = r.gap.max(o.gap);
        max_rel_diff = max_rel_diff.max(rel);
        max_allowed = max_allowed.max(allowed);
        assert!(
            rel <= allowed + 1e-9,
            "{}: reference makespan {} vs optimized {} (rel {rel:.3e} > gap {allowed:.3e})",
            r.label,
            r.makespan_seconds,
            o.makespan_seconds,
        );
    }
    (max_rel_diff, max_allowed)
}

/// Rounds to 12 significant digits before serialization. The shortest
/// round-trip `{}` format otherwise leaks accumulated float noise into the
/// committed file (`353.20000000000005`); 12 significant digits are ~1000x
/// finer than the regression test's 1e-9 tolerance yet far coarser than
/// one ulp, so the committed value is stable and noise-free.
fn clean(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let digits = (11 - x.abs().log10().floor() as i32).clamp(0, 300);
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    runs: &[ModelRun],
    socs: usize,
    total_ref: f64,
    total_base: f64,
    total_opt: f64,
    speedup: f64,
    speedup_vs_baseline: f64,
    points_match: bool,
    bit_identical: bool,
    exact: &ExactRun,
    delta: &DeltaRun,
    pareto: &ParetoRun,
    telemetry_json: Option<&str>,
) -> String {
    // Optional: only present when --trace ran the extra traced sweep, so
    // the committed BENCH_sweep.json (regenerated without --trace) is
    // stable.
    let telemetry_field =
        telemetry_json.map_or_else(String::new, |t| format!("  \"telemetry\": {t},\n"));
    // Keyed without "label"/"model" so the Fig. 7 regression test's
    // line-based parser never mistakes this object for a sweep point.
    let exact_field = format!(
        "  \"exact\": {{\"grid_seconds\": {:.4}, \"baseline_seconds\": {:.4}, \
         \"exact_seconds\": {:.4}, \"speedup_grid_vs_exact\": {:.3}, \
         \"speedup_baseline_vs_exact\": {:.3}, \"points\": {}, \"tightened_points\": {}, \
         \"upper_bound_verified\": true}},\n",
        exact.grid_seconds,
        exact.baseline_seconds,
        exact.exact_seconds,
        exact.speedup_grid_vs_exact,
        exact.speedup_baseline_vs_exact,
        exact.points,
        exact.tightened_points,
    );
    let delta_field = format!(
        "  \"delta\": {{\"recorded_seconds\": {:.4}, \"identity_seconds\": {:.4}, \
         \"identity_points\": {}, \"resweep_speedup_vs_exact\": {:.1}, \
         \"repeat_whatif_median_ms\": {:.4}, \"bit_identical\": true}},\n",
        delta.recorded_seconds,
        delta.identity_seconds,
        delta.identity_points,
        delta.resweep_speedup_vs_exact,
        delta.repeat_median_ms,
    );
    // One trade-off per line, keyed `"soc"` (never `"label"`/`"model"`,
    // which the Fig. 7 regression test's line parser claims), so
    // `tests/pareto_regression.rs` can pin every front with the same
    // line-based parse. Consecutive lines with the same `"soc"` are one
    // front, makespan ascending.
    let mut pareto_points = String::new();
    for (i, p) in pareto.points.iter().enumerate() {
        for (j, t) in p.front.iter().enumerate() {
            let last = i + 1 == pareto.points.len() && j + 1 == p.front.len();
            pareto_points.push_str(&format!(
                "      {{\"soc\": \"{}\", \"makespan_seconds\": {}, \"energy_joules\": {}, \
                 \"proved\": {}, \"complete\": {}}}{}\n",
                p.point.label,
                clean(t.makespan_seconds),
                clean(t.energy_joules),
                t.proved_optimal,
                p.complete,
                if last { "" } else { "," },
            ));
        }
    }
    let pareto_field = format!(
        "  \"pareto\": {{\"step\": {PARETO_STEP}, \"front_socs\": {}, \"seconds\": {:.4}, \
         \"front_points\": {}, \"complete_fronts\": {}, \"scalar_points_bit_identical\": true, \
         \"results_bit_identical\": true, \"fronts\": [\n{pareto_points}    ]}},\n",
        pareto.points.len(),
        pareto.seconds,
        pareto.front_points,
        pareto.complete_fronts,
    );
    let mut per_model = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            per_model.push_str(",\n");
        }
        let s = &r.stats;
        per_model.push_str(&format!(
            "    {{\"model\": \"{}\", \"reference_seconds\": {:.4}, \"baseline_seconds\": {:.4}, \
             \"optimized_seconds\": {:.4}, \"speedup\": {:.3}, \"speedup_vs_baseline\": {:.3}, \
             \"cache_hits\": {}, \"solves\": {}, \"points\": {},\n     \
             \"threads_used\": {}, \"parallelism_fallback\": {}, \"levels_solved\": {}, \
             \"early_terminated_levels\": {}, \"heuristic_jobs_total\": {}, \
             \"heuristic_jobs_executed\": {},\n     \
             \"max_rel_makespan_diff\": {:.6e}, \"max_allowed_gap\": {:.6e},\n     \
             \"slowest_points\": [{}],\n     \"sweep\": [\n",
            r.model.name(),
            r.reference_seconds,
            r.baseline_seconds,
            r.optimized_seconds,
            r.reference_seconds / r.optimized_seconds.max(1e-9),
            r.baseline_seconds / r.optimized_seconds.max(1e-9),
            s.cache_hits,
            s.solves,
            r.points.len(),
            s.threads_used,
            s.parallelism_fallback,
            s.levels_solved,
            s.early_terminated_levels,
            s.heuristic_jobs_total,
            s.heuristic_jobs_executed,
            r.max_rel_diff,
            r.max_allowed,
            slowest(r),
        ));
        // One point per line, noise-rounded `{}`-formatted floats
        // (shortest exact round-trip), so the Fig. 7 and Pareto
        // regression tests can pin every per-point makespan and energy
        // with a line-based parse.
        for (j, p) in r.points.iter().enumerate() {
            per_model.push_str(&format!(
                "      {{\"label\": \"{}\", \"makespan_seconds\": {}, \"energy_joules\": {}, \
                 \"gap\": {}}}{}\n",
                p.label,
                clean(p.makespan_seconds),
                clean(p.energy_joules),
                clean(p.gap),
                if j + 1 < r.points.len() { "," } else { "" },
            ));
        }
        per_model.push_str("    ]}");
    }
    format!(
        "{{\n  \"benchmark\": \"fig7_design_space_sweep\",\n  \"workload\": \"Default\",\n  \
         \"socs\": {socs},\n  \
         \"reference\": \"dense timetable, serial multi-start, no memo, no bound termination\",\n  \
         \"baseline\": \"event timetable, instance memoization\",\n  \
         \"optimized\": \"event timetable, memoization, bound termination\",\n  \
         \"reference_seconds\": {total_ref:.4},\n  \"baseline_seconds\": {total_base:.4},\n  \
         \"optimized_seconds\": {total_opt:.4},\n  \
         \"speedup\": {speedup:.3},\n  \"speedup_vs_baseline\": {speedup_vs_baseline:.3},\n  \
         \"points_match_within_gap\": {points_match},\n  \
         \"results_bit_identical\": {bit_identical},\n\
         {exact_field}{delta_field}{pareto_field}{telemetry_field}  \
         \"per_model\": [\n{per_model}\n  ]\n}}\n"
    )
}

/// The five slowest design points of the optimized run, labelled by SoC
/// (key deliberately not `label`, which the regression test's line parser
/// treats as a sweep point).
fn slowest(r: &ModelRun) -> String {
    let mut indexed: Vec<(usize, f64)> =
        r.stats.point_seconds.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
    indexed
        .iter()
        .take(5)
        .map(|&(i, secs)| {
            format!(
                "{{\"soc\": \"{}\", \"seconds\": {:.4}}}",
                r.points[i].label, secs
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}
