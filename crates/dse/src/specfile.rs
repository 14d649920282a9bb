//! A minimal line-based spec format for SoCs and constraints, so the CLI
//! (and downstream scripts) can describe design points in plain text:
//!
//! ```text
//! # the paper's flagship SoC
//! cpus = 4
//! gpu_sms = 16
//! dsa = LUD 16        # key, PEs, optional efficiency advantage
//! dsa = HS 16 4.0
//! power_w = 600
//! bandwidth_gbps = 800
//! ```
//!
//! Unknown keys, malformed numbers, and missing mandatory fields are
//! reported with line numbers. `cpus` must lie in `1..=`[`MAX_CPUS`]:
//! the encoder builds one machine per core, so an unbounded count would
//! let one spec exhaust the memory (or the time) of the process that
//! evaluates it.

use std::error::Error;
use std::fmt;

use hilp_soc::{Constraints, DsaSpec, SocSpec};

/// Errors produced while parsing a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line the error was found on (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error on line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

/// The most CPU cores a spec may declare. The paper's largest SoC has 4
/// and this repository's largest 8; 256 cores still evaluate in a fraction
/// of a second, while the encoding cost grows with every core.
pub const MAX_CPUS: u32 = 256;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a spec into an SoC and its constraints.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown keys,
/// malformed values, duplicate scalar keys, a `cpus` count outside
/// `1..=`[`MAX_CPUS`], or a missing `cpus` field.
///
/// # Example
///
/// ```
/// use hilp_dse::specfile::parse_soc;
///
/// let (soc, constraints) = parse_soc(
///     "cpus = 4\ngpu_sms = 16\ndsa = LUD 16\ndsa = HS 16\npower_w = 600\n",
/// )
/// .unwrap();
/// assert_eq!(soc.label(), "(c4,g16,d2^16)");
/// assert_eq!(constraints.power_w, Some(600.0));
/// ```
pub fn parse_soc(text: &str) -> Result<(SocSpec, Constraints), ParseError> {
    let mut cpus: Option<u32> = None;
    let mut gpu_sms: Option<u32> = None;
    let mut dsas: Vec<DsaSpec> = Vec::new();
    let mut constraints = Constraints::unconstrained();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "cpus" => {
                if cpus.is_some() {
                    return Err(err(line_no, "duplicate `cpus`"));
                }
                let parsed: u32 = value
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid CPU count `{value}`")))?;
                if parsed == 0 {
                    return Err(err(line_no, "an SoC needs at least one CPU core"));
                }
                if parsed > MAX_CPUS {
                    return Err(err(
                        line_no,
                        format!("{parsed} CPU cores exceed the limit of {MAX_CPUS}"),
                    ));
                }
                cpus = Some(parsed);
            }
            "gpu_sms" => {
                if gpu_sms.is_some() {
                    return Err(err(line_no, "duplicate `gpu_sms`"));
                }
                gpu_sms = Some(
                    value
                        .parse()
                        .map_err(|_| err(line_no, format!("invalid SM count `{value}`")))?,
                );
            }
            "dsa" => {
                let mut parts = value.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| err(line_no, "dsa needs `<benchmark> <pes> [advantage]`"))?;
                let pes: u32 = parts
                    .next()
                    .ok_or_else(|| err(line_no, "dsa needs a PE count"))?
                    .parse()
                    .map_err(|_| err(line_no, "invalid PE count"))?;
                if pes == 0 {
                    return Err(err(line_no, "a DSA needs at least one PE"));
                }
                let mut dsa = DsaSpec::new(pes, name);
                if let Some(adv) = parts.next() {
                    let advantage: f64 = adv
                        .parse()
                        .map_err(|_| err(line_no, "invalid efficiency advantage"))?;
                    if advantage <= 0.0 || advantage.is_nan() {
                        return Err(err(line_no, "efficiency advantage must be positive"));
                    }
                    dsa = dsa.with_advantage(advantage);
                }
                if parts.next().is_some() {
                    return Err(err(line_no, "too many fields for `dsa`"));
                }
                dsas.push(dsa);
            }
            "power_w" => {
                let watts: f64 = value
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid power budget `{value}`")))?;
                constraints = constraints.with_power(watts);
            }
            "bandwidth_gbps" => {
                let gbps: f64 = value
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid bandwidth budget `{value}`")))?;
                constraints = constraints.with_bandwidth(gbps);
            }
            other => {
                return Err(err(line_no, format!("unknown key `{other}`")));
            }
        }
    }

    let cpus = cpus.ok_or_else(|| err(0, "missing mandatory `cpus` field"))?;
    let mut soc = SocSpec::new(cpus);
    if let Some(sms) = gpu_sms {
        soc = soc.with_gpu(sms);
    }
    for dsa in dsas {
        soc = soc.with_dsa(dsa);
    }
    Ok((soc, constraints))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips() {
        let (soc, constraints) = parse_soc(
            "# flagship\ncpus = 4\ngpu_sms = 16\ndsa = LUD 16\ndsa = HS 16 8.0\n\
             power_w = 600\nbandwidth_gbps = 800\n",
        )
        .unwrap();
        assert_eq!(soc.cpu_cores, 4);
        assert_eq!(soc.gpu_sms, Some(16));
        assert_eq!(soc.dsas.len(), 2);
        assert_eq!(soc.dsas[1].advantage, 8.0);
        assert_eq!(constraints.power_w, Some(600.0));
        assert_eq!(constraints.bandwidth_gbps, Some(800.0));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (soc, _) = parse_soc("\n  # hi\ncpus = 2  # trailing\n\n").unwrap();
        assert_eq!(soc.cpu_cores, 2);
        assert_eq!(soc.gpu_sms, None);
    }

    #[test]
    fn missing_cpus_is_an_error() {
        let e = parse_soc("gpu_sms = 16\n").unwrap_err();
        assert!(e.message.contains("cpus"));
        assert_eq!(e.line, 0);
    }

    #[test]
    fn unknown_keys_name_the_line() {
        let e = parse_soc("cpus = 1\nnpu = 4\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("npu"));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse_soc("cpus = many\n").is_err());
        assert!(parse_soc("cpus = 1\ndsa = LUD\n").is_err());
        assert!(parse_soc("cpus = 1\ndsa = LUD sixteen\n").is_err());
        assert!(parse_soc("cpus = 0\n").is_err());
        assert!(parse_soc("cpus = 1\ndsa = LUD 0\n").is_err());
        assert!(parse_soc("cpus = 1\ndsa = LUD 4 -2\n").is_err());
        assert!(parse_soc("cpus = 1\ndsa = LUD 4 4 4\n").is_err());
        assert!(parse_soc("cpus = 1\ncpus = 2\n").is_err());
        assert!(parse_soc("just words\n").is_err());
    }

    #[test]
    fn cpu_counts_above_the_limit_name_the_line() {
        let (soc, _) = parse_soc(&format!("cpus = {MAX_CPUS}\n")).unwrap();
        assert_eq!(soc.cpu_cores, MAX_CPUS);
        for cpus in [u64::from(MAX_CPUS) + 1, u64::from(u32::MAX)] {
            let e = parse_soc(&format!("gpu_sms = 4\ncpus = {cpus}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("limit"), "{e}");
        }
    }

    #[test]
    fn zero_gpu_means_no_gpu() {
        let (soc, _) = parse_soc("cpus = 1\ngpu_sms = 0\n").unwrap();
        assert_eq!(soc.gpu_sms, None);
    }
}
