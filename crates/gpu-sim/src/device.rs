//! Hardware profiles of the paper's experimental platforms.
//!
//! Tables 1 and 2 of the paper list the parameters reproduced here; the
//! timing model in [`crate::timing`] converts counted work into modeled
//! milliseconds using nothing but these published figures (plus documented
//! efficiency factors).

use crate::bus::BusModel;

/// A GPU hardware profile (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Release year (the paper's generation axis, Fig. 6).
    pub year: u32,
    /// Architecture family.
    pub architecture: &'static str,
    /// Number of pixel-shader (fragment) processors.
    pub fragment_pipes: usize,
    /// Core clock, MHz.
    pub core_clock_mhz: f64,
    /// Memory clock, MHz (effective).
    pub memory_clock_mhz: f64,
    /// Memory interface width, bits.
    pub memory_bus_bits: usize,
    /// Peak memory bandwidth, GB/s.
    pub memory_bandwidth_gbs: f64,
    /// On-board video memory, MiB.
    pub video_memory_mib: usize,
    /// Texture fill rate, mega-texels per second.
    pub texture_fill_mtexels: f64,
    /// Host bus.
    pub bus: BusModel,
    /// Arithmetic (non-TEX) instructions each fragment pipe can issue per
    /// cycle. NV3x pipes co-issue through their legacy combiner datapaths;
    /// G7x pipes carry two ALUs. Documented calibration constant chosen so
    /// the sustained-throughput ratio between the two generations matches
    /// the paper's observed ~4.4x (Tables 4-5).
    pub alu_issue_per_pipe: f64,
    /// Fraction of peak shader issue the pipeline sustains on real GPGPU
    /// workloads (scheduling bubbles, register pressure). Documented
    /// calibration constant, identical for both GPU generations.
    pub shader_efficiency: f64,
    /// Maximum texture side length, texels.
    pub max_texture_side: usize,
    /// Maximum static instructions per fragment program (fp30 exposed 1024
    /// slots; fp40 raised the ceiling).
    pub max_program_instrs: usize,
    /// Maximum dependent-texture-read chain depth: how many `TEX` results
    /// may feed, transitively, into another `TEX`'s coordinates.
    pub max_tex_indirections: usize,
}

impl GpuProfile {
    /// Bytes of video memory.
    pub fn video_memory_bytes(&self) -> usize {
        self.video_memory_mib * 1024 * 1024
    }

    /// Peak vector (SIMD4) arithmetic instructions per second.
    pub fn peak_instr_per_s(&self) -> f64 {
        self.fragment_pipes as f64 * self.core_clock_mhz * 1e6 * self.alu_issue_per_pipe
    }

    /// Sustained shader instruction rate after the efficiency factor.
    pub fn sustained_instr_per_s(&self) -> f64 {
        self.peak_instr_per_s() * self.shader_efficiency
    }

    /// Peak texel fetch rate per second.
    pub fn peak_texels_per_s(&self) -> f64 {
        self.texture_fill_mtexels * 1e6
    }

    /// Fraction of this profile's fragment pipes kept busy when
    /// `tiles_per_pass` equal-cost shading tiles are dispatched round-robin
    /// across the pipes: full waves run all pipes, the final partial wave
    /// leaves some idle. 1.0 when no tiles were counted (hand-built stats
    /// from older call sites predate the tile counter).
    pub fn pipe_occupancy(&self, tiles_per_pass: f64) -> f64 {
        if tiles_per_pass <= 0.0 {
            return 1.0;
        }
        let pipes = self.fragment_pipes as f64;
        let waves = (tiles_per_pass / pipes).ceil();
        (tiles_per_pass / (waves * pipes)).min(1.0)
    }

    /// GeForce FX5950 Ultra (NV38, 2003) — the paper's "three-years-old"
    /// platform.
    pub fn fx5950_ultra() -> Self {
        Self {
            name: "GeForce FX5950 Ultra",
            year: 2003,
            architecture: "NV38",
            fragment_pipes: 4,
            core_clock_mhz: 475.0,
            memory_clock_mhz: 950.0,
            memory_bus_bits: 256,
            memory_bandwidth_gbs: 30.4,
            video_memory_mib: 256,
            texture_fill_mtexels: 3800.0,
            bus: BusModel::agp8x(),
            alu_issue_per_pipe: 2.5,
            shader_efficiency: 0.55,
            max_texture_side: 4096,
            max_program_instrs: 1024,
            max_tex_indirections: 4,
        }
    }

    /// GeForce 7800GTX (G70, 2005) — the paper's latest-generation platform.
    pub fn geforce_7800gtx() -> Self {
        Self {
            name: "GeForce 7800GTX",
            year: 2005,
            architecture: "G70",
            fragment_pipes: 24,
            core_clock_mhz: 430.0,
            memory_clock_mhz: 1200.0,
            memory_bus_bits: 256,
            memory_bandwidth_gbs: 38.4,
            video_memory_mib: 256,
            texture_fill_mtexels: 10320.0,
            bus: BusModel::pcie16(),
            alu_issue_per_pipe: 2.0,
            shader_efficiency: 0.55,
            max_texture_side: 4096,
            max_program_instrs: 4096,
            max_tex_indirections: 8,
        }
    }

    /// Short CLI names of every known GPU profile, in paper order. These
    /// are the strings a `GPU_SIM_DEVICES` list (the `fleet_classify`
    /// example) accepts and the single source the lookup and
    /// [`Self::paper_gpus`] share.
    pub fn known_device_names() -> &'static [&'static str] {
        &["fx5950", "7800gtx"]
    }

    /// The short CLI name of this profile (inverse of [`Self::by_name`]).
    pub fn short_name(&self) -> &'static str {
        match self.name {
            "GeForce FX5950 Ultra" => "fx5950",
            _ => "7800gtx",
        }
    }

    /// Look up a profile by its short CLI name (case-insensitive).
    pub fn by_name(name: &str) -> Option<GpuProfile> {
        match name.to_ascii_lowercase().as_str() {
            "fx5950" => Some(Self::fx5950_ultra()),
            "7800gtx" => Some(Self::geforce_7800gtx()),
            _ => None,
        }
    }

    /// Both GPU profiles, in paper order — resolved through
    /// [`Self::by_name`] over [`Self::known_device_names`], so the list and
    /// the lookup can never disagree.
    pub fn paper_gpus() -> Vec<GpuProfile> {
        Self::known_device_names()
            .iter()
            .map(|n| Self::by_name(n).expect("known device name resolves"))
            .collect()
    }
}

/// Compiler model for the CPU baselines (the paper compares gcc 4.0 against
/// the autovectorising Intel compiler 9.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// GNU C/C++ 4.0, `-O3 -msse`: scalar x87/SSE-scalar code generation.
    Gcc,
    /// Intel C/C++ 9.0, `-O3 -tpp7 -xP`: autovectorised SSE (4-wide).
    Icc,
}

impl Compiler {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Compiler::Gcc => "gcc-4.0",
            Compiler::Icc => "icc-9.0",
        }
    }
}

/// A CPU hardware profile (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Release year.
    pub year: u32,
    /// Core clock, MHz.
    pub clock_mhz: f64,
    /// Front-side bus bandwidth, GB/s.
    pub fsb_gbs: f64,
    /// L2 cache, KiB.
    pub l2_kib: usize,
    /// Main memory, MiB.
    pub memory_mib: usize,
    /// Sustained scalar floating ops per cycle (gcc-style code). NetBurst
    /// sustained far under 1 flop/cycle on multi-hundred-MB working sets
    /// (x87 code, L2 misses, long replay pipeline); documented calibration
    /// constant.
    pub scalar_flops_per_cycle: f64,
    /// SIMD width the vectorising compiler can use (SSE = 4 x f32).
    pub simd_width: usize,
    /// Fraction of ideal SIMD speedup the autovectoriser achieves (the paper
    /// observes icc ≈ 1.65–1.8× over gcc, not 4×).
    pub simd_efficiency: f64,
}

impl CpuProfile {
    /// Sustained flop rate for the given compiler model, flops/second.
    pub fn sustained_flops(&self, compiler: Compiler) -> f64 {
        let scalar = self.clock_mhz * 1e6 * self.scalar_flops_per_cycle;
        match compiler {
            Compiler::Gcc => scalar,
            Compiler::Icc => scalar * self.simd_width as f64 * self.simd_efficiency,
        }
    }

    /// Pentium 4 Northwood M0, 2.8 GHz (2003).
    pub fn pentium4_northwood() -> Self {
        Self {
            name: "Pentium 4 (Northwood M0)",
            year: 2003,
            clock_mhz: 2800.0,
            fsb_gbs: 6.4,
            l2_kib: 512,
            memory_mib: 1024,
            scalar_flops_per_cycle: 0.25,
            simd_width: 4,
            simd_efficiency: 0.41,
        }
    }

    /// Pentium 4 Prescott 6x2, 3.4 GHz (2005). Higher clock but a longer
    /// pipeline: the paper measures it under 10 % faster than Northwood.
    pub fn pentium4_prescott() -> Self {
        Self {
            name: "Prescott (6x2)",
            year: 2005,
            clock_mhz: 3400.0,
            fsb_gbs: 6.4,
            l2_kib: 2048,
            memory_mib: 2048,
            scalar_flops_per_cycle: 0.225,
            simd_width: 4,
            simd_efficiency: 0.45,
        }
    }

    /// Both CPU profiles, in paper order.
    pub fn paper_cpus() -> Vec<CpuProfile> {
        vec![Self::pentium4_northwood(), Self::pentium4_prescott()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_figures_match_paper() {
        let fx = GpuProfile::fx5950_ultra();
        assert_eq!(fx.year, 2003);
        assert_eq!(fx.fragment_pipes, 4);
        assert_eq!(fx.core_clock_mhz, 475.0);
        assert_eq!(fx.memory_bandwidth_gbs, 30.4);
        assert_eq!(fx.video_memory_mib, 256);

        let g70 = GpuProfile::geforce_7800gtx();
        assert_eq!(g70.year, 2005);
        assert_eq!(g70.fragment_pipes, 24);
        assert_eq!(g70.core_clock_mhz, 430.0);
        assert_eq!(g70.memory_bandwidth_gbs, 38.4);
        assert_eq!(g70.texture_fill_mtexels, 10320.0);
    }

    #[test]
    fn generation_scaling_matches_paper_narrative() {
        // "NVidia GPUs have multiplied by six the number of fragment
        // processors" between the two generations.
        let fx = GpuProfile::fx5950_ultra();
        let g70 = GpuProfile::geforce_7800gtx();
        assert_eq!(g70.fragment_pipes / fx.fragment_pipes, 6);
        // Sustained instruction rate ratio lands in the paper's 4.4–5.5x
        // observed speedup window.
        let ratio = g70.sustained_instr_per_s() / fx.sustained_instr_per_s();
        assert!(ratio > 4.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn table2_figures_match_paper() {
        let p4 = CpuProfile::pentium4_northwood();
        assert_eq!(p4.clock_mhz, 2800.0);
        assert_eq!(p4.l2_kib, 512);
        let pr = CpuProfile::pentium4_prescott();
        assert_eq!(pr.clock_mhz, 3400.0);
        assert_eq!(pr.l2_kib, 2048);
        assert_eq!(pr.memory_mib, 2048);
    }

    #[test]
    fn prescott_gains_under_ten_percent_scalar() {
        // The paper: "only ... marginal performance improvement (below 10%)".
        let p4 = CpuProfile::pentium4_northwood();
        let pr = CpuProfile::pentium4_prescott();
        let gain = pr.sustained_flops(Compiler::Gcc) / p4.sustained_flops(Compiler::Gcc);
        assert!(gain > 1.0 && gain < 1.10, "gain = {gain}");
    }

    #[test]
    fn icc_speedup_matches_paper_window() {
        // Paper Tables 4 vs 5: icc is ~1.65x (Northwood) and ~1.8x (Prescott)
        // faster than gcc.
        let p4 = CpuProfile::pentium4_northwood();
        let r = p4.sustained_flops(Compiler::Icc) / p4.sustained_flops(Compiler::Gcc);
        assert!(r > 1.5 && r < 1.8, "northwood icc ratio = {r}");
        let pr = CpuProfile::pentium4_prescott();
        let r = pr.sustained_flops(Compiler::Icc) / pr.sustained_flops(Compiler::Gcc);
        assert!(r > 1.6 && r < 2.0, "prescott icc ratio = {r}");
    }

    #[test]
    fn pipe_occupancy_quantizes_to_waves() {
        let fx = GpuProfile::fx5950_ultra();
        assert_eq!(fx.pipe_occupancy(0.0), 1.0, "no tile counts: neutral");
        assert_eq!(fx.pipe_occupancy(4.0), 1.0, "one full wave");
        assert_eq!(fx.pipe_occupancy(8.0), 1.0, "two full waves");
        assert_eq!(fx.pipe_occupancy(5.0), 5.0 / 8.0, "partial second wave");
        let g70 = GpuProfile::geforce_7800gtx();
        assert_eq!(g70.pipe_occupancy(7.0), 7.0 / 24.0);
        assert_eq!(g70.pipe_occupancy(24.0), 1.0);
        // Plenty of tiles: occupancy approaches 1 on both generations.
        assert!(g70.pipe_occupancy(1054.0) > 0.95);
        assert!(fx.pipe_occupancy(1054.0) > 0.95);
    }

    #[test]
    fn by_name_round_trips_every_known_device() {
        for &name in GpuProfile::known_device_names() {
            let p = GpuProfile::by_name(name).expect("known name resolves");
            assert_eq!(p.short_name(), name);
        }
        // Case-insensitive, and paper order is preserved through the
        // shared name list.
        assert_eq!(
            GpuProfile::by_name("7800GTX").unwrap(),
            GpuProfile::geforce_7800gtx()
        );
        assert_eq!(
            GpuProfile::by_name("FX5950").unwrap(),
            GpuProfile::fx5950_ultra()
        );
        assert!(GpuProfile::by_name("voodoo2").is_none());
        let gpus = GpuProfile::paper_gpus();
        assert_eq!(gpus[0], GpuProfile::fx5950_ultra());
        assert_eq!(gpus[1], GpuProfile::geforce_7800gtx());
    }

    #[test]
    fn memory_accessors() {
        let fx = GpuProfile::fx5950_ultra();
        assert_eq!(fx.video_memory_bytes(), 256 * 1024 * 1024);
        assert!(fx.peak_texels_per_s() > 3.7e9);
        assert_eq!(Compiler::Gcc.name(), "gcc-4.0");
        assert_eq!(GpuProfile::paper_gpus().len(), 2);
        assert_eq!(CpuProfile::paper_cpus().len(), 2);
    }
}
