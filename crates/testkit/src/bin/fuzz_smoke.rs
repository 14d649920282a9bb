//! Budgeted fuzz driver for the cross-solver differential oracle.
//!
//! Draws random scheduling instances and workload/SoC/constraint triples
//! from the shared [`hilp_testkit::strategies`], runs the full differential
//! battery on each, and exits non-zero if any two solver paths disagree.
//! Failing cases are written to `--out-dir` so CI can upload them as
//! artifacts.
//!
//! ```text
//! fuzz_smoke [--cases N] [--seed S] [--time-budget-secs T] [--out-dir DIR] [--quiet] [--bnb-threads N]
//! ```
//!
//! The case mix per 10 cases: 6 tiny instances (full battery including the
//! brute-force reference, both MILP encodings, and the metamorphic
//! transforms), 3 small instances (solver-vs-solver and bounds checks), and
//! 1 encoding-pipeline case. Every tiny case additionally re-solves under a
//! sampled node budget and checks the anytime contract: the truncated
//! incumbent stays feasible and the reported bounds still sandwich the
//! brute-force optimum.
//!
//! `--energy` switches to an energy-only corpus (the gating `energy-oracle`
//! CI job): every case is a tiny instance run through the full energy
//! differential battery — energy accounting, the infinite-cap transparency
//! identity, the Pareto ladder against the exhaustive front, solves under
//! an instance energy cap pinned to the front, and the power-scaling
//! metamorphic round. An `--energy` run that checked no complete front or
//! no capped solve exits non-zero too, so the battery cannot silently stop
//! covering them. The default mix also runs the battery on every tiny case.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::{fnv1a, Strategy, TestRng};

use hilp_telemetry::{Reporter, Telemetry};
use hilp_testkit::harness::{
    check_budgeted, check_energy, check_instance, check_pipeline, CheckStats, OracleConfig,
};
use hilp_testkit::strategies::{
    arb_constraints, arb_instance, arb_soc, arb_workload, InstanceParams,
};

struct Args {
    cases: u64,
    seed: u64,
    time_budget: Option<Duration>,
    out_dir: PathBuf,
    quiet: bool,
    energy_only: bool,
    bnb_threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        cases: 200,
        seed: 0x00C0_FFEE,
        time_budget: None,
        out_dir: PathBuf::from("fuzz-failures"),
        quiet: false,
        energy_only: false,
        bnb_threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--cases" => args.cases = value("--cases").parse().expect("--cases: integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--time-budget-secs" => {
                args.time_budget = Some(Duration::from_secs(
                    value("--time-budget-secs")
                        .parse()
                        .expect("--time-budget-secs: integer"),
                ));
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")),
            "--quiet" => args.quiet = true,
            "--energy" => args.energy_only = true,
            "--bnb-threads" => {
                args.bnb_threads = value("--bnb-threads")
                    .parse()
                    .expect("--bnb-threads: integer");
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: fuzz_smoke [--cases N] [--seed S] \
                     [--time-budget-secs T] [--out-dir DIR] [--quiet] [--energy] [--bnb-threads N]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let reporter = Reporter::new(args.quiet, &Telemetry::disabled());
    let started = Instant::now();
    // `--bnb-threads` sets the worker count for every exact search the
    // oracle runs. Results are bit-identical for any value, and the
    // harness's own parallel differential replays against 4 workers, so a
    // CI matrix over this flag proves determinism end to end.
    let mut config = OracleConfig::default();
    config.solver.bnb_threads = args.bnb_threads;
    let config = config;
    let mut stats = CheckStats::default();
    let mut failures = 0u64;

    let tiny = arb_instance(InstanceParams::tiny());
    let small = arb_instance(InstanceParams::small());
    let workloads = arb_workload();
    let socs = arb_soc();
    let constraints = arb_constraints();
    let hash = fnv1a("hilp-testkit::fuzz_smoke") ^ args.seed;

    for case in 0..args.cases {
        // `case` completed cases so far: the budget is only consulted after
        // at least one case has run.
        if let Some(budget) = args.time_budget {
            if started.elapsed() > budget && case > 0 {
                reporter.say(&format!("time budget exhausted after {case} cases"));
                break;
            }
        }
        let mut rng = TestRng::new(hash, case);
        let result = if args.energy_only {
            // Energy-only corpus: every case is a tiny instance under the
            // full energy differential battery.
            let instance = tiny.generate(&mut rng);
            check_energy(&instance, &config, &mut stats)
        } else {
            match case % 10 {
                0..=5 => {
                    let instance = tiny.generate(&mut rng);
                    // Sampled node budget: usually small enough to truncate
                    // real searches, with every fourth draw generous enough
                    // to finish (covering the untruncated-implies-proved
                    // contract). Derived from the case index (not the RNG)
                    // so the instance stream is unchanged from earlier fuzz
                    // corpora.
                    let node_budget = match case % 4 {
                        3 => 1 << 22,
                        _ => 1 + (case.wrapping_mul(0x9E37_79B9) >> 7) % 96,
                    };
                    check_instance(&instance, &config, &mut stats)
                        .and_then(|()| {
                            check_budgeted(&instance, node_budget, &config.solver, &mut stats)
                        })
                        .and_then(|()| check_energy(&instance, &config, &mut stats))
                }
                6..=8 => {
                    let instance = small.generate(&mut rng);
                    check_instance(&instance, &config, &mut stats)
                }
                _ => check_pipeline(
                    &workloads.generate(&mut rng),
                    &socs.generate(&mut rng),
                    &constraints.generate(&mut rng),
                    &mut stats,
                ),
            }
        };
        if let Err(disagreement) = result {
            failures += 1;
            eprintln!("case {case} (seed {}): {disagreement}", args.seed);
            if let Err(io) = write_failure(&args, case, &disagreement.to_string()) {
                eprintln!("could not record failing case: {io}");
            }
        }
    }

    // The final tally is the program's output, not progress: always printed.
    println!(
        "fuzz_smoke: {} in {:.1}s; {failures} disagreement(s)",
        stats.summary(),
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        eprintln!("failing cases recorded under {}", args.out_dir.display());
        std::process::exit(1);
    }
    if args.energy_only && (stats.pareto_checked == 0 || stats.energy_capped_checked == 0) {
        eprintln!(
            "the energy corpus checked {} complete fronts and {} capped solves; both must be \
             non-zero",
            stats.pareto_checked, stats.energy_capped_checked
        );
        std::process::exit(1);
    }
}

fn write_failure(args: &Args, case: u64, detail: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("case-{}-{case}.txt", args.seed));
    let mut file = std::fs::File::create(&path)?;
    writeln!(
        file,
        "fuzz_smoke failure\nseed: {}\ncase: {case}\nreproduce: fuzz_smoke --seed {} --cases {}\n\n{detail}",
        args.seed,
        args.seed,
        case + 1,
    )
}
