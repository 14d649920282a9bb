//! Regression test pinning the Figure 7 sweep against `BENCH_sweep.json`.
//!
//! The timing harness (`cargo run --release -p hilp-bench --bin
//! sweep_timing`) commits the optimized run's per-point makespans for all
//! 372 SoCs x 3 models. This test re-evaluates a deterministic subsample
//! of that grid with the same configuration and requires the recomputed
//! makespans to match the committed ones, so any change that silently
//! shifts Fig. 7 — a solver regression, an encoding change, a design-space
//! edit — fails CI instead of skewing the reproduced figure.
//!
//! If the shift is *intentional* (e.g. a better heuristic), regenerate the
//! baseline by re-running the harness and commit the new
//! `BENCH_sweep.json` alongside the change.

use std::collections::HashMap;

use hilp_dse::{design_space, evaluate_space, ModelKind, SweepConfig};
use hilp_soc::Constraints;
use hilp_workloads::{Workload, WorkloadVariant};

/// Every Nth SoC of the 372-point space is re-evaluated. 37 is coprime to
/// the space's generator strides, so the subsample crosses CPU counts,
/// GPU sizes, and DSA allocations while keeping debug-mode runtime small.
const SUBSAMPLE_STEP: usize = 37;

const MODELS: [ModelKind; 3] = [ModelKind::MultiAmdahl, ModelKind::Gables, ModelKind::Hilp];

struct Baseline {
    /// `(model name, SoC label)` -> `(makespan_seconds, gap)`.
    points: HashMap<(String, String), (f64, f64)>,
    socs: usize,
}

/// Extracts the value of `"key": "..."` (string) from a JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the value of `"key": <number>` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| i + start);
    line[start..end].trim().parse().ok()
}

/// Line-based parse of `BENCH_sweep.json`: the harness writes one sweep
/// point per line inside each model's `"sweep"` array, so a full JSON
/// parser is unnecessary (and the repo deliberately has no JSON dep).
fn load_baseline() -> Baseline {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run the sweep_timing bench to create it)"));
    let mut points = HashMap::new();
    let mut socs = 0usize;
    let mut model = String::new();
    for line in text.lines() {
        if let Some(m) = str_field(line, "model") {
            model = m;
        } else if line.contains("\"socs\":") {
            socs = num_field(line, "socs").expect("socs count") as usize;
        }
        if let Some(label) = str_field(line, "label") {
            let makespan = num_field(line, "makespan_seconds")
                .unwrap_or_else(|| panic!("makespan missing on: {line}"));
            let gap = num_field(line, "gap").unwrap_or_else(|| panic!("gap missing on: {line}"));
            assert!(!model.is_empty(), "point before any model entry: {line}");
            let key = (model.clone(), label);
            assert!(
                points.insert(key.clone(), (makespan, gap)).is_none(),
                "duplicate baseline point {key:?}"
            );
        }
    }
    Baseline { points, socs }
}

#[test]
fn committed_sweep_covers_the_whole_design_space() {
    let baseline = load_baseline();
    let space = design_space(4.0);
    assert_eq!(baseline.socs, space.len(), "committed SoC count");
    assert_eq!(
        baseline.points.len(),
        space.len() * MODELS.len(),
        "one committed point per SoC per model"
    );
}

#[test]
fn subsampled_sweep_matches_the_committed_baseline() {
    let baseline = load_baseline();
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    // The committed configuration, with memoization and bound termination
    // on: the subsample gates that both leave every committed makespan in
    // place.
    let config = SweepConfig::default();
    let socs: Vec<_> = design_space(4.0)
        .into_iter()
        .step_by(SUBSAMPLE_STEP)
        .collect();
    assert!(socs.len() >= 10, "subsample too thin: {}", socs.len());

    for model in MODELS {
        let points = evaluate_space(&workload, &socs, &constraints, model, &config)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", model.name()));
        assert_eq!(points.len(), socs.len());
        for point in points {
            let key = (model.name().to_string(), point.label.clone());
            let &(makespan, gap) = baseline
                .points
                .get(&key)
                .unwrap_or_else(|| panic!("no committed baseline for {key:?}"));
            // The solver is deterministic for a fixed configuration and the
            // committed floats round-trip exactly, so the recomputed value
            // must agree to rounding noise.
            let rel = (point.makespan_seconds - makespan).abs() / makespan.max(1e-12);
            assert!(
                rel <= 1e-9,
                "{} {}: recomputed makespan {} vs committed {} (rel {rel:.3e})",
                model.name(),
                point.label,
                point.makespan_seconds,
                makespan,
            );
            assert!(
                (point.gap - gap).abs() <= 1e-9,
                "{} {}: recomputed gap {} vs committed {}",
                model.name(),
                point.label,
                point.gap,
                gap,
            );
        }
    }
}
