//! SoC specifications: clusters, areas, labels, and global constraints.

/// Die area per CPU core (mm²), derived in Section IV from the 64-core AMD
/// EPYC 7763's 1,064 mm² total die area including the I/O die (uncore).
pub const CPU_CORE_AREA_MM2: f64 = 16.6;

/// Die area per GPU SM (mm²), derived from the Nvidia GA100's 826 mm² and
/// 128 SMs.
pub const GPU_SM_AREA_MM2: f64 = 6.5;

/// A DSA: `pes` processing elements accelerating the compute phase of one
/// specific benchmark.
///
/// The paper models DSAs at a configurable *efficiency advantage* over the
/// GPU (4x by default): a DSA with `n` PEs delivers the performance and
/// bandwidth of a GPU slice with `advantage * n` SMs, while occupying the
/// area and drawing the power of only `n` SMs. This is the unique reading
/// consistent with the paper's area arithmetic — e.g. the
/// `(c4,g16,d2^16)` SoC is reported at 378.4 mm², which requires DSA PEs at
/// full SM area (4 * 16.6 + 16 * 6.5 + 32 * 6.5 = 378.4).
#[derive(Debug, Clone, PartialEq)]
pub struct DsaSpec {
    /// Number of processing elements.
    pub pes: u32,
    /// Name of the benchmark whose compute phase this DSA accelerates.
    pub accelerates: String,
    /// Efficiency advantage over the GPU (the paper explores 2x, 4x, 8x).
    pub advantage: f64,
}

impl DsaSpec {
    /// A DSA with the paper's default 4x efficiency advantage.
    #[must_use]
    pub fn new(pes: u32, accelerates: impl Into<String>) -> Self {
        DsaSpec {
            pes,
            accelerates: accelerates.into(),
            advantage: 4.0,
        }
    }

    /// Overrides the efficiency advantage, builder style.
    #[must_use]
    pub fn with_advantage(mut self, advantage: f64) -> Self {
        self.advantage = advantage;
        self
    }

    /// The SM count of the GPU slice this DSA performs like.
    #[must_use]
    pub fn equivalent_sms(&self) -> f64 {
        self.advantage * f64::from(self.pes)
    }

    /// Die area of this DSA (mm²).
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        f64::from(self.pes) * GPU_SM_AREA_MM2
    }
}

/// A heterogeneous SoC: CPU cores, an optional GPU, and DSAs
/// (the architecture template of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    /// Number of CPU cores. Each core is modeled as its own core cluster so
    /// independent sequential phases can run in parallel (Section III-C).
    pub cpu_cores: u32,
    /// GPU SM count; `None` means no GPU.
    pub gpu_sms: Option<u32>,
    /// The SoC's DSAs.
    pub dsas: Vec<DsaSpec>,
}

impl SocSpec {
    /// An SoC with the given number of CPU cores and no accelerators.
    ///
    /// # Panics
    ///
    /// Panics when `cpu_cores` is zero: the paper's minimum configuration
    /// is a single CPU core (sequential phases have nowhere else to run).
    #[must_use]
    pub fn new(cpu_cores: u32) -> Self {
        assert!(cpu_cores >= 1, "an SoC needs at least one CPU core");
        SocSpec {
            cpu_cores,
            gpu_sms: None,
            dsas: Vec::new(),
        }
    }

    /// Adds a GPU with the given SM count, builder style.
    #[must_use]
    pub fn with_gpu(mut self, sms: u32) -> Self {
        self.gpu_sms = if sms == 0 { None } else { Some(sms) };
        self
    }

    /// Adds a DSA, builder style.
    #[must_use]
    pub fn with_dsa(mut self, dsa: DsaSpec) -> Self {
        self.dsas.push(dsa);
        self
    }

    /// Total die area (mm²) under the Section IV area model.
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        let cpu = f64::from(self.cpu_cores) * CPU_CORE_AREA_MM2;
        let gpu = f64::from(self.gpu_sms.unwrap_or(0)) * GPU_SM_AREA_MM2;
        let dsa: f64 = self.dsas.iter().map(DsaSpec::area_mm2).sum();
        cpu + gpu + dsa
    }

    /// Area devoted to accelerators (GPU + DSAs), mm².
    #[must_use]
    pub fn accelerator_area_mm2(&self) -> f64 {
        self.area_mm2() - f64::from(self.cpu_cores) * CPU_CORE_AREA_MM2
    }

    /// Fraction of accelerator area devoted to the GPU, in `[0, 1]`;
    /// returns `None` for SoCs without accelerators. Used for the paper's
    /// Figure 7 color coding (green > 75% GPU, blue > 75% DSA).
    #[must_use]
    pub fn gpu_area_fraction(&self) -> Option<f64> {
        let accel = self.accelerator_area_mm2();
        if accel <= 0.0 {
            return None;
        }
        Some(f64::from(self.gpu_sms.unwrap_or(0)) * GPU_SM_AREA_MM2 / accel)
    }

    /// The paper's `(c_i, g_j, d_k^l)` label. All DSAs in a paper SoC share
    /// one PE count; for heterogeneous-PE SoCs the superscript lists the
    /// distinct counts.
    #[must_use]
    pub fn label(&self) -> String {
        let c = self.cpu_cores;
        let g = self.gpu_sms.unwrap_or(0);
        let k = self.dsas.len();
        if k == 0 {
            return format!("(c{c},g{g},d0^0)");
        }
        let mut pes: Vec<u32> = self.dsas.iter().map(|d| d.pes).collect();
        pes.sort_unstable();
        pes.dedup();
        let sup = pes
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        format!("(c{c},g{g},d{k}^{sup})")
    }

    /// Number of core clusters this SoC maps to: one per CPU core, one for
    /// the GPU (if present), one per DSA.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.cpu_cores as usize + usize::from(self.gpu_sms.is_some()) + self.dsas.len()
    }
}

/// Global constraints on a workload evaluation: the paper's `p_max` and
/// `b_max`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraints {
    /// SoC power budget in watts, if constrained.
    pub power_w: Option<f64>,
    /// Memory bandwidth budget in GB/s, if constrained.
    pub bandwidth_gbps: Option<f64>,
}

impl Constraints {
    /// No constraints at all.
    #[must_use]
    pub fn unconstrained() -> Self {
        Constraints::default()
    }

    /// The paper's default evaluation setup: 600 W budget and 800 GB/s of
    /// HBM3 bandwidth (Section IV).
    #[must_use]
    pub fn paper_default() -> Self {
        Constraints {
            power_w: Some(600.0),
            bandwidth_gbps: Some(800.0),
        }
    }

    /// Sets the power budget, builder style.
    #[must_use]
    pub fn with_power(mut self, watts: f64) -> Self {
        self.power_w = Some(watts);
        self
    }

    /// Sets the bandwidth budget, builder style.
    #[must_use]
    pub fn with_bandwidth(mut self, gbps: f64) -> Self {
        self.bandwidth_gbps = Some(gbps);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_area_figures_are_reproduced() {
        // Section VI quotes these areas exactly.
        let ma_best = SocSpec::new(1).with_gpu(64);
        assert!((ma_best.area_mm2() - 432.6).abs() < 0.05);

        let gables_best = SocSpec::new(4)
            .with_gpu(4)
            .with_dsa(DsaSpec::new(4, "LUD"))
            .with_dsa(DsaSpec::new(4, "HS"))
            .with_dsa(DsaSpec::new(4, "LMD"));
        assert!((gables_best.area_mm2() - 170.4).abs() < 0.05);

        let hilp_best = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        assert!((hilp_best.area_mm2() - 378.4).abs() < 0.05);

        let gpu_only = SocSpec::new(4).with_gpu(64);
        assert!((gpu_only.area_mm2() - 482.4).abs() < 0.05);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(SocSpec::new(1).label(), "(c1,g0,d0^0)");
        assert_eq!(SocSpec::new(1).with_gpu(64).label(), "(c1,g64,d0^0)");
        let mixed = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        assert_eq!(mixed.label(), "(c4,g16,d2^16)");
    }

    #[test]
    fn gpu_area_fraction_classifies_accelerator_mixes() {
        let gpu_heavy = SocSpec::new(1).with_gpu(64).with_dsa(DsaSpec::new(1, "HS"));
        assert!(gpu_heavy.gpu_area_fraction().unwrap() > 0.75);

        let dsa_heavy = SocSpec::new(1).with_gpu(4).with_dsa(DsaSpec::new(64, "HS"));
        assert!(dsa_heavy.gpu_area_fraction().unwrap() < 0.25);

        let none = SocSpec::new(2);
        assert!(none.gpu_area_fraction().is_none());
    }

    #[test]
    fn dsa_equivalent_sms_scale_with_advantage() {
        let dsa = DsaSpec::new(16, "HS");
        assert_eq!(dsa.equivalent_sms(), 64.0);
        let dsa8 = dsa.with_advantage(8.0);
        assert_eq!(dsa8.equivalent_sms(), 128.0);
    }

    #[test]
    fn zero_sm_gpu_collapses_to_none() {
        let soc = SocSpec::new(1).with_gpu(0);
        assert_eq!(soc.gpu_sms, None);
        assert_eq!(soc.num_clusters(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one CPU core")]
    fn zero_cpu_cores_panics() {
        let _ = SocSpec::new(0);
    }

    #[test]
    fn cluster_count_covers_all_units() {
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(1, "HS"))
            .with_dsa(DsaSpec::new(1, "LUD"));
        assert_eq!(soc.num_clusters(), 7);
    }

    #[test]
    fn constraints_builders_compose() {
        let c = Constraints::unconstrained()
            .with_power(50.0)
            .with_bandwidth(100.0);
        assert_eq!(c.power_w, Some(50.0));
        assert_eq!(c.bandwidth_gbps, Some(100.0));
        let d = Constraints::paper_default();
        assert_eq!(d.power_w, Some(600.0));
        assert_eq!(d.bandwidth_gbps, Some(800.0));
    }

    #[test]
    fn heterogeneous_pe_labels_list_distinct_counts() {
        let soc = SocSpec::new(2)
            .with_dsa(DsaSpec::new(4, "A"))
            .with_dsa(DsaSpec::new(16, "B"));
        assert_eq!(soc.label(), "(c2,g0,d2^4,16)");
    }
}
