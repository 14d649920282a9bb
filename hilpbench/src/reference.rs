//! Committed reference results every pass is checked against: the Fig. 7
//! sweep and energy-Pareto fronts in `BENCH_sweep.json`, and the
//! mobile-workload sweep in `hilpbench/reference/mobile-grid.jsonl`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use hilp_dse::DesignPoint;

/// Values agree when they differ by at most 1e-9 relative (1e-9 absolute
/// below 1), the tolerance of the repository's own regression tests.
#[must_use]
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One committed design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    /// Predicted workload execution time (s).
    pub makespan_seconds: f64,
    /// Energy of the predicted schedule (J).
    pub energy_joules: f64,
    /// Reported optimality gap.
    pub gap: f64,
}

/// Committed design points of one sweep, by SoC label.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    points: HashMap<String, RefPoint>,
}

impl Reference {
    /// The committed point for `label`.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<&RefPoint> {
        self.points.get(label)
    }

    /// Checks one computed point against its committed counterpart.
    ///
    /// # Errors
    ///
    /// Names the label and the first field that disagrees, or a label
    /// with no committed point.
    pub fn check(&self, label: &str, got: &RefPoint) -> Result<(), String> {
        let want = self
            .points
            .get(label)
            .ok_or_else(|| format!("{label}: no committed reference point"))?;
        for (field, g, w) in [
            ("makespan", got.makespan_seconds, want.makespan_seconds),
            ("energy", got.energy_joules, want.energy_joules),
            ("gap", got.gap, want.gap),
        ] {
            if !close(g, w) {
                return Err(format!("{label}: {field} {g} differs from committed {w}"));
            }
        }
        Ok(())
    }

    /// [`Reference::check`] for a sweep's design point.
    ///
    /// # Errors
    ///
    /// As [`Reference::check`].
    pub fn check_point(&self, point: &DesignPoint) -> Result<(), String> {
        let got = RefPoint {
            makespan_seconds: point.makespan_seconds,
            energy_joules: point.energy_joules,
            gap: point.gap,
        };
        self.check(&point.label, &got)
    }

    fn insert(&mut self, label: String, point: RefPoint) -> Result<(), String> {
        match self.points.insert(label.clone(), point) {
            None => Ok(()),
            Some(_) => Err(format!("duplicate reference point {label}")),
        }
    }
}

/// One committed makespan×energy trade-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefTradeoff {
    /// Makespan at this trade-off (s).
    pub makespan_seconds: f64,
    /// Energy at this trade-off (J).
    pub energy_joules: f64,
}

/// The contents of `BENCH_sweep.json` the benchmark checks against.
#[derive(Debug, Clone, Default)]
pub struct BenchSweep {
    /// Per-model sweep points, keyed by model name (`MA`, `Gables`,
    /// `HILP`).
    pub models: HashMap<String, Reference>,
    /// Energy-Pareto fronts by SoC label, makespan ascending.
    pub fronts: HashMap<String, Vec<RefTradeoff>>,
}

impl BenchSweep {
    /// The committed sweep of `model`.
    ///
    /// # Errors
    ///
    /// When the file holds no sweep for that model.
    pub fn model(&self, model: &str) -> Result<&Reference, String> {
        self.models
            .get(model)
            .ok_or_else(|| format!("BENCH_sweep.json has no {model} sweep"))
    }
}

/// The raw text of `"key": value` on a JSON line: the contents of a string
/// value, or the literal of a number or boolean.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = line[line.find(&needle)? + needle.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num(line: &str, key: &str) -> Result<f64, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no number {key:?} on line: {line}"))
}

fn point_on(line: &str) -> Result<RefPoint, String> {
    Ok(RefPoint {
        makespan_seconds: num(line, "makespan_seconds")?,
        energy_joules: num(line, "energy_joules")?,
        gap: num(line, "gap")?,
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Parses `BENCH_sweep.json`. Its writer puts one sweep point per line
/// (keyed `"label"`, after its model's `"model"` line) and one Pareto
/// trade-off per line (keyed `"soc"` and carrying `"proved"`), so a
/// line-based parse suffices.
///
/// # Errors
///
/// On an unreadable file, a malformed point line, or a duplicate point.
pub fn load_bench_sweep(path: &Path) -> Result<BenchSweep, String> {
    let mut sweep = BenchSweep::default();
    let mut model: Option<String> = None;
    for line in read(path)?.lines() {
        if line.contains("{\"model\":") {
            model = field(line, "model").map(str::to_string);
        } else if let Some(label) = field(line, "label") {
            let model = model
                .as_ref()
                .ok_or_else(|| format!("sweep point before any model: {line}"))?;
            sweep
                .models
                .entry(model.clone())
                .or_default()
                .insert(label.to_string(), point_on(line)?)?;
        } else if let (Some(soc), true) = (field(line, "soc"), line.contains("\"proved\":")) {
            sweep
                .fronts
                .entry(soc.to_string())
                .or_default()
                .push(RefTradeoff {
                    makespan_seconds: num(line, "makespan_seconds")?,
                    energy_joules: num(line, "energy_joules")?,
                });
        }
    }
    Ok(sweep)
}

/// Parses a JSON-lines reference written by [`render_jsonl`].
///
/// # Errors
///
/// On an unreadable file, a malformed line, or a duplicate point.
pub fn load_jsonl(path: &Path) -> Result<Reference, String> {
    let mut reference = Reference::default();
    for line in read(path)?.lines().filter(|l| !l.trim().is_empty()) {
        let label = field(line, "label").ok_or_else(|| format!("no label on line: {line}"))?;
        reference.insert(label.to_string(), point_on(line)?)?;
    }
    Ok(reference)
}

/// One JSON line per point with label, makespan, energy and gap, floats
/// in shortest round-trip form so [`load_jsonl`] reads them back exactly.
#[must_use]
pub fn render_jsonl(points: &[DesignPoint]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(
            out,
            "{{\"label\": \"{}\", \"makespan_seconds\": {}, \"energy_joules\": {}, \"gap\": {}}}",
            p.label, p.makespan_seconds, p.energy_joules, p.gap
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_strings_numbers_and_booleans() {
        let line = r#"  {"soc": "(c1,g4,d2^16)", "makespan_seconds": 83.2, "proved": true},"#;
        assert_eq!(field(line, "soc"), Some("(c1,g4,d2^16)"));
        assert_eq!(field(line, "makespan_seconds"), Some("83.2"));
        assert_eq!(field(line, "proved"), Some("true"));
        assert_eq!(field(line, "socs"), None);
    }

    #[test]
    fn closeness_is_relative_above_one_and_absolute_below() {
        assert!(close(1e6, 1e6 * (1.0 + 5e-10)));
        assert!(!close(1e6, 1e6 * (1.0 + 5e-9)));
        assert!(close(0.0, 5e-10));
        assert!(!close(0.0, 5e-9));
    }
}
