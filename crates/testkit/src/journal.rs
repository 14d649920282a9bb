//! The replay check for a single solve's search-trace journal.

use hilp_telemetry::{BoundSource, Journal, Record};

/// Checks that a journal drained from a *single solve* replays to
/// consistent monotone incumbent/bound sequences:
///
/// 1. incumbent values never increase (each one improves on the last),
/// 2. `combinatorial`/`proved` bound values never decrease (knowledge
///    only tightens; `external` bounds are excluded because a bound the
///    caller hands in may be weaker than this instance's own), and
/// 3. every bound is at most the final incumbent (bounds stay sound).
///
/// Journals covering several independent solves (a sweep) interleave
/// unrelated sequences and cannot be checked this way.
///
/// # Errors
///
/// Returns a description of the first inconsistency.
pub fn check_single_solve_replay(journal: &Journal) -> Result<(), String> {
    let mut last_incumbent: Option<f64> = None;
    let mut last_proved: Option<f64> = None;
    let mut bounds = Vec::new();
    for (i, record) in journal.records.iter().enumerate() {
        match record {
            Record::Incumbent { value, .. } => {
                if last_incumbent.is_some_and(|prev| *value > prev + 1e-9) {
                    return Err(format!(
                        "record {i}: incumbent rose from {} to {value}",
                        last_incumbent.unwrap_or(f64::NAN)
                    ));
                }
                last_incumbent = Some(*value);
            }
            Record::Bound { source, value, .. } => {
                bounds.push(*value);
                if matches!(source, BoundSource::Combinatorial | BoundSource::Proved) {
                    if last_proved.is_some_and(|prev| *value < prev - 1e-9) {
                        return Err(format!(
                            "record {i}: proved bound fell from {} to {value}",
                            last_proved.unwrap_or(f64::NAN)
                        ));
                    }
                    last_proved = Some(*value);
                }
            }
            _ => {}
        }
    }
    if let Some(incumbent) = last_incumbent {
        if let Some(bad) = bounds.iter().find(|b| **b > incumbent + 1e-9) {
            return Err(format!("bound {bad} exceeds final incumbent {incumbent}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_telemetry::{IncumbentSource, PruneReason};

    /// A consistent single-solve journal: a combinatorial bound, two
    /// improving incumbents around a prune, and the proved bound.
    fn sample_journal() -> Journal {
        Journal {
            records: vec![
                Record::Bound {
                    t_us: 1,
                    thread: 0,
                    source: BoundSource::Combinatorial,
                    node: 0,
                    value: 5.0,
                },
                Record::Incumbent {
                    t_us: 2,
                    thread: 0,
                    source: IncumbentSource::Heuristic,
                    node: 0,
                    value: 9.0,
                },
                Record::Prune {
                    t_us: 3,
                    thread: 1,
                    reason: PruneReason::Bound,
                    node: 4,
                    bound: 9.5,
                },
                Record::Incumbent {
                    t_us: 4,
                    thread: 0,
                    source: IncumbentSource::Bnb,
                    node: 7,
                    value: 7.0,
                },
                Record::Bound {
                    t_us: 5,
                    thread: 0,
                    source: BoundSource::Proved,
                    node: 0,
                    value: 7.0,
                },
            ],
        }
    }

    #[test]
    fn replay_check_accepts_consistent_journals() {
        check_single_solve_replay(&sample_journal()).unwrap();
    }

    #[test]
    fn replay_check_rejects_rising_incumbents() {
        let mut journal = sample_journal();
        journal.records.push(Record::Incumbent {
            t_us: 9,
            thread: 0,
            source: IncumbentSource::Bnb,
            node: 9,
            value: 8.0,
        });
        assert!(check_single_solve_replay(&journal)
            .unwrap_err()
            .contains("incumbent rose"));
    }

    #[test]
    fn replay_check_rejects_falling_proved_bounds() {
        let mut journal = sample_journal();
        journal.records.push(Record::Bound {
            t_us: 9,
            thread: 0,
            source: BoundSource::Proved,
            node: 0,
            value: 3.0,
        });
        assert!(check_single_solve_replay(&journal)
            .unwrap_err()
            .contains("proved bound fell"));
    }

    #[test]
    fn replay_check_rejects_unsound_bounds() {
        let mut journal = sample_journal();
        // An external bound above the final incumbent is unsound even
        // though external bounds are exempt from monotonicity.
        journal.records.insert(
            0,
            Record::Bound {
                t_us: 0,
                thread: 0,
                source: BoundSource::External,
                node: 0,
                value: 20.0,
            },
        );
        assert!(check_single_solve_replay(&journal)
            .unwrap_err()
            .contains("exceeds final incumbent"));
    }

    #[test]
    fn external_bounds_are_exempt_from_monotonicity() {
        let journal = Journal {
            records: vec![
                Record::Bound {
                    t_us: 0,
                    thread: 0,
                    source: BoundSource::Combinatorial,
                    node: 0,
                    value: 5.0,
                },
                // Weaker external bound: allowed.
                Record::Bound {
                    t_us: 1,
                    thread: 0,
                    source: BoundSource::External,
                    node: 0,
                    value: 3.0,
                },
                Record::Bound {
                    t_us: 2,
                    thread: 0,
                    source: BoundSource::Proved,
                    node: 0,
                    value: 5.0,
                },
            ],
        };
        check_single_solve_replay(&journal).unwrap();
    }
}
