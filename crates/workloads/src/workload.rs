//! The workload model consumed by `hilp-core`.

use crate::rodinia;

/// Exponent of the CPU compute-phase strong-scaling model.
///
/// The paper profiles every core count from 1 to 32 on the EPYC 7543 but
/// does not publish the per-core-count times, so the reproduction models
/// multi-core CPU compute time as `t(k) = t(1) * k^-0.8` — a sublinear
/// power law typical of the parallel Rodinia OpenMP kernels. This only
/// affects schedules that fall back to CPU compute, which accelerated SoCs
/// rarely do.
pub const CPU_SCALING_EXPONENT: f64 = -0.8;

/// Nominal memory bandwidth (GB/s) attributed to setup and teardown phases.
///
/// Table II does not report CPU-phase bandwidth; these phases are dominated
/// by input generation and file I/O, so a small nominal figure is used.
pub const SETUP_TEARDOWN_BANDWIDTH_GBPS: f64 = 1.0;

/// The role of a phase within its application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Sequential preparation (argument parsing, input generation,
    /// allocation); CPU-only.
    Setup,
    /// The accelerable kernel.
    Compute,
    /// Sequential result write-back; CPU-only.
    Teardown,
    /// A phase of a custom application (e.g. the SDA workload).
    Custom,
}

/// GPU-side execution profile of a compute phase, normalized to the 14-SM
/// MIG slice at the 765 MHz baseline clock.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuProfile {
    /// Execution time on 14 SMs at 765 MHz (s).
    pub seconds_at_14sm: f64,
    /// Power-law exponent of execution time versus SM count.
    pub time_exponent: f64,
    /// Memory bandwidth on 14 SMs at 765 MHz (GB/s).
    pub bandwidth_at_14sm_gbps: f64,
    /// Power-law exponent of bandwidth versus SM count.
    pub bandwidth_exponent: f64,
}

impl GpuProfile {
    /// Execution time (s) on `sms` SMs at the baseline clock.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `sms` is not positive.
    #[must_use]
    pub fn seconds_at(&self, sms: f64) -> f64 {
        debug_assert!(sms > 0.0);
        self.seconds_at_14sm * (sms / 14.0).powf(self.time_exponent)
    }

    /// Bandwidth (GB/s) on `sms` SMs at the baseline clock.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `sms` is not positive.
    #[must_use]
    pub fn bandwidth_at(&self, sms: f64) -> f64 {
        debug_assert!(sms > 0.0);
        self.bandwidth_at_14sm_gbps * (sms / 14.0).powf(self.bandwidth_exponent)
    }
}

/// One phase of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, unique within the application (e.g. `HS.compute`).
    pub name: String,
    /// Role of the phase.
    pub kind: PhaseKind,
    /// Execution time on a single CPU core (s); `None` means the phase
    /// cannot run on a CPU at all (used by pinned SDA phases).
    pub cpu_seconds: Option<f64>,
    /// Whether the phase may use multiple CPU cores (compute phases).
    pub cpu_parallel: bool,
    /// Accelerator-side profile (shared by the GPU and by DSAs, which are
    /// modeled as GPU slices with an efficiency advantage); `None` means
    /// the phase cannot be accelerated at all.
    pub accel: Option<GpuProfile>,
    /// Whether the SoC's GPU may run this phase (requires `accel`).
    pub gpu_eligible: bool,
    /// DSAs advertising this key (`DsaSpec::accelerates`) may run the
    /// phase; the compatibility matrix `E_cap` for DSAs. `None` means no
    /// DSA can. For Rodinia compute phases this is the benchmark
    /// abbreviation; the SDA workload uses it to pin data-source phases to
    /// dedicated DSAs (Section VII).
    pub dsa_key: Option<String>,
    /// Memory bandwidth consumed when running on one CPU core (GB/s).
    pub cpu_bandwidth_gbps: f64,
}

impl Phase {
    /// Whether this phase can only execute on CPU cores.
    #[must_use]
    pub fn is_cpu_only(&self) -> bool {
        self.accel.is_none()
    }
}

/// A multi-phase application: phases plus a dependency DAG over them.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Application name (the benchmark abbreviation for Rodinia apps).
    pub name: String,
    /// The phases, in declaration order.
    pub phases: Vec<Phase>,
    /// Dependency edges `(before, after)` as indices into `phases`; the
    /// paper's `D_apq` matrix. For Rodinia applications this is the chain
    /// `setup -> compute -> teardown`.
    pub dependencies: Vec<(usize, usize)>,
    /// Initiation intervals (Section VII extension): `(before, after,
    /// seconds)` requires `after` to start at least `seconds` after
    /// `before` *starts*, allowing pipelined overlap.
    pub start_dependencies: Vec<(usize, usize, f64)>,
}

impl Application {
    /// Total single-core CPU time of all phases (s); phases that cannot run
    /// on a CPU contribute their fastest available time instead.
    #[must_use]
    pub fn sequential_cpu_seconds(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| {
                p.cpu_seconds
                    .unwrap_or_else(|| p.accel.as_ref().map_or(0.0, |g| g.seconds_at_14sm))
            })
            .sum()
    }
}

/// The paper's three workload variants (Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadVariant {
    /// The raw Table II measurements.
    Rodinia,
    /// Setup and teardown times reduced 5x — the main evaluation workload.
    Default,
    /// Setup and teardown times reduced 20x.
    Optimized,
}

impl WorkloadVariant {
    /// The divisor applied to setup and teardown times.
    #[must_use]
    pub fn serial_reduction(self) -> f64 {
        match self {
            WorkloadVariant::Rodinia => 1.0,
            WorkloadVariant::Default => 5.0,
            WorkloadVariant::Optimized => 20.0,
        }
    }

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadVariant::Rodinia => "Rodinia",
            WorkloadVariant::Default => "Default",
            WorkloadVariant::Optimized => "Optimized",
        }
    }
}

/// A set of independent applications to schedule together.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    applications: Vec<Application>,
}

impl Workload {
    /// Creates a workload from applications.
    #[must_use]
    pub fn new(name: impl Into<String>, applications: Vec<Application>) -> Self {
        Workload {
            name: name.into(),
            applications,
        }
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The applications.
    #[must_use]
    pub fn applications(&self) -> &[Application] {
        &self.applications
    }

    /// One copy of each Table II benchmark under the given variant.
    #[must_use]
    pub fn rodinia(variant: WorkloadVariant) -> Self {
        let reduction = variant.serial_reduction();
        let applications = rodinia::benchmarks()
            .iter()
            .map(|b| rodinia_application(b, reduction))
            .collect();
        Workload {
            name: variant.name().to_string(),
            applications,
        }
    }

    /// Total single-core CPU time of the whole workload (s): the paper's
    /// fully-sequential speedup baseline (one CPU core executing every
    /// phase of every application back to back).
    #[must_use]
    pub fn sequential_cpu_seconds(&self) -> f64 {
        self.applications
            .iter()
            .map(Application::sequential_cpu_seconds)
            .sum()
    }

    /// Total number of phases across applications.
    #[must_use]
    pub fn num_phases(&self) -> usize {
        self.applications.iter().map(|a| a.phases.len()).sum()
    }

    /// A workload with `copies` instances of every application (names are
    /// suffixed `#k` to stay unique). Models consolidation scenarios with
    /// higher WLP than the paper's single-copy workloads.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is zero.
    #[must_use]
    pub fn with_copies(&self, copies: usize) -> Workload {
        assert!(copies >= 1, "a workload needs at least one copy");
        if copies == 1 {
            return self.clone();
        }
        let applications = (0..copies)
            .flat_map(|k| {
                self.applications.iter().map(move |a| {
                    let mut app = a.clone();
                    app.name = format!("{}#{k}", a.name);
                    for phase in &mut app.phases {
                        phase.name = format!("{}#{k}", phase.name);
                    }
                    app
                })
            })
            .collect();
        Workload::new(format!("{} x{copies}", self.name), applications)
    }

    /// The sub-workload containing only the named applications, in this
    /// workload's order. Unknown names are ignored.
    #[must_use]
    pub fn subset(&self, names: &[&str]) -> Workload {
        let applications = self
            .applications
            .iter()
            .filter(|a| names.iter().any(|n| n.eq_ignore_ascii_case(&a.name)))
            .cloned()
            .collect();
        Workload::new(format!("{} (subset)", self.name), applications)
    }
}

/// Builds the three-phase application of one Table II benchmark.
fn rodinia_application(b: &rodinia::BenchmarkProfile, serial_reduction: f64) -> Application {
    // The compute phase moves the same bytes on CPU and GPU; its CPU
    // bandwidth follows from the GPU volume spread over the CPU time.
    let compute_volume_gb = b.gpu_bandwidth_gbps * b.compute_gpu_seconds;
    let compute_cpu_bw = if b.compute_cpu_seconds > 0.0 {
        compute_volume_gb / b.compute_cpu_seconds
    } else {
        0.0
    };
    let phases = vec![
        Phase {
            name: format!("{}.setup", b.short),
            kind: PhaseKind::Setup,
            cpu_seconds: Some(b.setup_seconds / serial_reduction),
            cpu_parallel: false,
            accel: None,
            gpu_eligible: false,
            dsa_key: None,
            cpu_bandwidth_gbps: SETUP_TEARDOWN_BANDWIDTH_GBPS,
        },
        Phase {
            name: format!("{}.compute", b.short),
            kind: PhaseKind::Compute,
            cpu_seconds: Some(b.compute_cpu_seconds),
            cpu_parallel: true,
            accel: Some(GpuProfile {
                seconds_at_14sm: b.compute_gpu_seconds,
                time_exponent: b.gpu_time_fit.b,
                bandwidth_at_14sm_gbps: b.gpu_bandwidth_gbps,
                bandwidth_exponent: b.gpu_bandwidth_fit.b,
            }),
            gpu_eligible: true,
            dsa_key: Some(b.short.to_string()),
            cpu_bandwidth_gbps: compute_cpu_bw,
        },
        Phase {
            name: format!("{}.teardown", b.short),
            kind: PhaseKind::Teardown,
            cpu_seconds: Some(b.teardown_seconds / serial_reduction),
            cpu_parallel: false,
            accel: None,
            gpu_eligible: false,
            dsa_key: None,
            cpu_bandwidth_gbps: SETUP_TEARDOWN_BANDWIDTH_GBPS,
        },
    ];
    Application {
        name: b.short.to_string(),
        phases,
        dependencies: vec![(0, 1), (1, 2)],
        start_dependencies: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rodinia_workload_has_thirty_phases() {
        let w = Workload::rodinia(WorkloadVariant::Rodinia);
        assert_eq!(w.applications().len(), 10);
        assert_eq!(w.num_phases(), 30);
        for app in w.applications() {
            assert_eq!(app.dependencies, vec![(0, 1), (1, 2)]);
            assert_eq!(app.phases[0].kind, PhaseKind::Setup);
            assert_eq!(app.phases[1].kind, PhaseKind::Compute);
            assert_eq!(app.phases[2].kind, PhaseKind::Teardown);
        }
    }

    #[test]
    fn variants_scale_serial_phases_only() {
        let raw = Workload::rodinia(WorkloadVariant::Rodinia);
        let opt = Workload::rodinia(WorkloadVariant::Optimized);
        let raw_hs = &raw.applications()[3];
        let opt_hs = &opt.applications()[3];
        assert_eq!(raw_hs.name, "HS");
        let ratio = raw_hs.phases[0].cpu_seconds.unwrap() / opt_hs.phases[0].cpu_seconds.unwrap();
        assert!((ratio - 20.0).abs() < 1e-9);
        // Compute phases are untouched.
        assert_eq!(raw_hs.phases[1].cpu_seconds, opt_hs.phases[1].cpu_seconds);
    }

    #[test]
    fn sequential_baselines_match_hand_arithmetic() {
        // Rodinia: sum of all Table II phase times ~ 1709.3 + 249.5 ~ but
        // computed directly from the table.
        let rodinia: f64 = crate::rodinia::benchmarks()
            .iter()
            .map(|b| b.sequential_cpu_seconds())
            .sum();
        let w = Workload::rodinia(WorkloadVariant::Rodinia);
        assert!((w.sequential_cpu_seconds() - rodinia).abs() < 1e-9);

        // Default: serial phases divided by 5.
        let default = Workload::rodinia(WorkloadVariant::Default);
        let expected: f64 = crate::rodinia::benchmarks()
            .iter()
            .map(|b| b.setup_seconds / 5.0 + b.compute_cpu_seconds + b.teardown_seconds / 5.0)
            .sum();
        assert!((default.sequential_cpu_seconds() - expected).abs() < 1e-9);
        assert!((default.sequential_cpu_seconds() - 1632.0).abs() < 5.0);
    }

    #[test]
    fn gpu_profile_scaling_matches_table_accessors() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let hs = &w.applications()[3].phases[1];
        let profile = hs.accel.as_ref().unwrap();
        let table = crate::rodinia::benchmark("HS").unwrap();
        for sms in [4.0, 14.0, 16.0, 64.0, 98.0] {
            assert!((profile.seconds_at(sms) - table.gpu_seconds_at(sms)).abs() < 1e-9);
            assert!((profile.bandwidth_at(sms) - table.gpu_bandwidth_at(sms)).abs() < 1e-9);
        }
    }

    #[test]
    fn compute_cpu_bandwidth_conserves_volume() {
        let w = Workload::rodinia(WorkloadVariant::Rodinia);
        let sc = &w.applications()[9];
        assert_eq!(sc.name, "SC");
        let phase = &sc.phases[1];
        let table = crate::rodinia::benchmark("SC").unwrap();
        let gpu_volume = table.gpu_bandwidth_gbps * table.compute_gpu_seconds;
        let cpu_volume = phase.cpu_bandwidth_gbps * phase.cpu_seconds.unwrap();
        assert!((gpu_volume - cpu_volume).abs() < 1e-9);
    }

    #[test]
    fn setup_phases_are_cpu_only() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        for app in w.applications() {
            assert!(app.phases[0].is_cpu_only());
            assert!(!app.phases[0].cpu_parallel);
            assert!(app.phases[2].is_cpu_only());
            assert_eq!(app.phases[1].dsa_key.as_deref(), Some(app.name.as_str()));
            assert!(app.phases[1].gpu_eligible);
        }
    }

    #[test]
    fn copies_multiply_applications_with_unique_names() {
        let base = Workload::rodinia(WorkloadVariant::Default);
        let tripled = base.with_copies(3);
        assert_eq!(tripled.applications().len(), 30);
        assert_eq!(tripled.num_phases(), 90);
        let mut names: Vec<&str> = tripled
            .applications()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
        // Sequential baseline scales linearly.
        assert!(
            (tripled.sequential_cpu_seconds() - 3.0 * base.sequential_cpu_seconds()).abs() < 1e-6
        );
    }

    #[test]
    fn one_copy_is_identity() {
        let base = Workload::rodinia(WorkloadVariant::Default);
        assert_eq!(base.with_copies(1), base);
    }

    #[test]
    fn subset_filters_case_insensitively() {
        let base = Workload::rodinia(WorkloadVariant::Default);
        let pair = base.subset(&["hs", "LUD", "nonexistent"]);
        assert_eq!(pair.applications().len(), 2);
        assert_eq!(pair.applications()[0].name, "HS");
        assert_eq!(pair.applications()[1].name, "LUD");
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_copies_panics() {
        let _ = Workload::rodinia(WorkloadVariant::Default).with_copies(0);
    }
}
