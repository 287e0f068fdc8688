//! The roofline timing model.
//!
//! Converts counted work ([`PassStats`]) into modeled execution time on one
//! of the paper's platforms. Kernel time is the maximum of three rates
//! (compute, texture fill, memory traffic) — GPU pipelines overlap the
//! three, so the slowest resource bounds throughput. Host transfer time is
//! modeled separately through the bus so experiments can report the paper's
//! compute-only table entries *and* transfer-inclusive totals.
//!
//! This is a first-order model: absolute milliseconds carry the usual
//! factor-of-small-constant uncertainty, but ratios between platforms follow
//! directly from the published Table 1/2 parameters, which is what the
//! paper's evaluation shape depends on.

use crate::counters::PassStats;
use crate::device::{Compiler, CpuProfile, GpuProfile};
use crate::texcache::BLOCK_BYTES;

/// Per-pipe L1 misses that share one DRAM block fill through the shared L2
/// texture cache: neighbouring pipes walk the same blocks, so DRAM sees
/// roughly one fill per block per pass, not one per L1 miss. Documented
/// model constant (block is 16 texels; ~4 pipes touch each block).
pub const L2_SHARING: f64 = 4.0;

/// How host transfers relate to kernel execution in the modeled total.
///
/// The paper's measured pipeline serializes transfers with shading; a
/// double-buffered uploader (pack and upload chunk N+1 while chunk N shades)
/// hides upload latency behind kernel time, leaving only the epilogue
/// download serial. The chunk executor in `amc-core` implements exactly that
/// overlap, so experiments can report both totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Upload → shade → download in sequence (the paper's setup).
    #[default]
    Serial,
    /// Uploads overlap shading (double-buffered streaming); downloads stay
    /// serial — results only exist once the last pass retires.
    Overlapped,
}

/// Breakdown of one modeled GPU execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTime {
    /// Shader ALU time, seconds.
    pub compute_s: f64,
    /// Texture fill-rate time, seconds.
    pub texture_s: f64,
    /// Memory traffic time (cache misses + framebuffer writes), seconds.
    pub memory_s: f64,
    /// Host → device upload time, seconds.
    pub upload_s: f64,
    /// Device → host download time, seconds.
    pub download_s: f64,
}

impl GpuTime {
    /// Kernel-only time: max of the three overlapped resources.
    pub fn kernel_s(&self) -> f64 {
        self.compute_s.max(self.texture_s).max(self.memory_s)
    }

    /// Kernel time in milliseconds (the paper's table unit).
    pub fn kernel_ms(&self) -> f64 {
        self.kernel_s() * 1e3
    }

    /// End-to-end time including host transfers, seconds.
    pub fn total_s(&self) -> f64 {
        self.kernel_s() + self.upload_s + self.download_s
    }

    /// End-to-end time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_s() * 1e3
    }

    /// End-to-end time under the given transfer model, seconds. With
    /// [`TransferMode::Overlapped`], upload hides behind kernel work (the
    /// slower of the two bounds throughput) and only the download serializes.
    pub fn total_s_mode(&self, mode: TransferMode) -> f64 {
        match mode {
            TransferMode::Serial => self.total_s(),
            TransferMode::Overlapped => self.kernel_s().max(self.upload_s) + self.download_s,
        }
    }

    /// End-to-end time under the given transfer model, milliseconds.
    pub fn total_ms_mode(&self, mode: TransferMode) -> f64 {
        self.total_s_mode(mode) * 1e3
    }

    /// Seconds saved by overlapping uploads with kernel execution.
    pub fn overlap_saving_s(&self) -> f64 {
        self.total_s() - self.total_s_mode(TransferMode::Overlapped)
    }
}

/// Mean shading tiles dispatched per pass — the parallelism the executor
/// actually exposed to the profile's fragment pipes. 0 when the stats
/// carry no tile counts (hand-built stats from older call sites).
fn tiles_per_pass(stats: &PassStats) -> f64 {
    if stats.passes == 0 {
        stats.tiles as f64
    } else {
        stats.tiles as f64 / stats.passes as f64
    }
}

/// Model the execution of counted work on a GPU profile.
///
/// Per-pipe rates (shader issue, texture fill) are derated by
/// [`GpuProfile::pipe_occupancy`] of the executor's mean tiles per pass: a
/// pass that splits into fewer tiles than the device has fragment pipes
/// cannot use them all, which is exactly why narrow chunks favour the
/// 4-pipe FX5950 and wide scenes favour the 24-pipe 7800GTX.
pub fn gpu_time(stats: &PassStats, profile: &GpuProfile) -> GpuTime {
    let occupancy = profile.pipe_occupancy(tiles_per_pass(stats));
    // TEX instructions retire on the texture units (charged to texture_s),
    // so only arithmetic instructions occupy the shader ALUs.
    let alu_instr = stats.instructions.saturating_sub(stats.texel_fetches);
    let compute_s = alu_instr as f64 / (profile.sustained_instr_per_s() * occupancy);
    let texture_s = stats.texel_fetches as f64 / (profile.peak_texels_per_s() * occupancy);
    // Memory side: texture-cache misses pull whole blocks; framebuffer
    // writes always hit DRAM.
    let miss_bytes = stats.cache_misses as f64 * BLOCK_BYTES as f64 / L2_SHARING;
    let mem_bytes = miss_bytes + stats.bytes_written as f64;
    let memory_s = mem_bytes / (profile.memory_bandwidth_gbs * 1e9);
    GpuTime {
        compute_s,
        texture_s,
        memory_s,
        // A stage that moved no bytes issued no transfer, so it owes no
        // per-transfer setup latency — otherwise every zero-work stage
        // models to 2x bus latency and "modeled time is zero" can never
        // happen, which hid a misleading 0.0 skew in a per-stage report.
        upload_s: if stats.bytes_uploaded > 0 {
            profile.bus.upload_time(stats.bytes_uploaded as usize)
        } else {
            0.0
        },
        download_s: if stats.bytes_downloaded > 0 {
            profile.bus.download_time(stats.bytes_downloaded as usize)
        } else {
            0.0
        },
    }
}

/// Model the execution of counted work on one device of a fleet of
/// `bus_sharers` devices streaming concurrently over the shared host link.
///
/// Kernel-side rates are unaffected — each device owns its pipes and video
/// memory — but upload/download bandwidth divides across the sharers
/// ([`crate::bus::BusModel::contended`]). With `bus_sharers <= 1` this is
/// exactly [`gpu_time`]. Combine with
/// [`GpuTime::total_s_mode`]`(TransferMode::Overlapped)` for the fleet
/// executor's double-buffered per-device upload pipeline: each device's
/// uploads hide behind its own shading while the other devices shade their
/// chunks concurrently.
pub fn gpu_time_shared(stats: &PassStats, profile: &GpuProfile, bus_sharers: usize) -> GpuTime {
    let base = gpu_time(stats, profile);
    if bus_sharers <= 1 {
        return base;
    }
    let bus = profile.bus.contended(bus_sharers);
    GpuTime {
        upload_s: if stats.bytes_uploaded > 0 {
            bus.upload_time(stats.bytes_uploaded as usize)
        } else {
            0.0
        },
        download_s: if stats.bytes_downloaded > 0 {
            bus.download_time(stats.bytes_downloaded as usize)
        } else {
            0.0
        },
        ..base
    }
}

/// Counted CPU work for the baseline implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuWork {
    /// Scalar floating-point operations executed.
    pub flops: u64,
    /// Bytes of memory traffic beyond cache (streaming reads of the cube).
    pub bytes: u64,
}

impl CpuWork {
    /// Accumulate.
    pub fn add(&mut self, other: &CpuWork) {
        self.flops += other.flops;
        self.bytes += other.bytes;
    }
}

/// Model CPU execution time: max of flop throughput (per compiler model)
/// and FSB-bound memory streaming.
pub fn cpu_time_s(work: &CpuWork, profile: &CpuProfile, compiler: Compiler) -> f64 {
    let compute_s = work.flops as f64 / profile.sustained_flops(compiler);
    let memory_s = work.bytes as f64 / (profile.fsb_gbs * 1e9);
    compute_s.max(memory_s)
}

/// CPU time in milliseconds.
pub fn cpu_time_ms(work: &CpuWork, profile: &CpuProfile, compiler: Compiler) -> f64 {
    cpu_time_s(work, profile, compiler) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> PassStats {
        PassStats {
            fragments: 1_000_000,
            instructions: 20_000_000,
            texel_fetches: 5_000_000,
            cache_hits: 4_900_000,
            cache_misses: 100_000,
            bytes_written: 16_000_000,
            bytes_uploaded: 64 << 20,
            bytes_downloaded: 4 << 20,
            passes: 10,
            // 256 tiles per pass: whole waves on 4 pipes, a ~97 % partial
            // last wave on 24.
            tiles: 2560,
        }
    }

    #[test]
    fn kernel_time_is_max_of_resources() {
        let t = GpuTime {
            compute_s: 3.0,
            texture_s: 1.0,
            memory_s: 2.0,
            upload_s: 0.5,
            download_s: 0.25,
        };
        assert_eq!(t.kernel_s(), 3.0);
        assert_eq!(t.total_s(), 3.75);
        assert_eq!(t.kernel_ms(), 3000.0);
        assert_eq!(t.total_ms(), 3750.0);
    }

    #[test]
    fn overlapped_mode_hides_uploads_behind_kernel_time() {
        let t = GpuTime {
            compute_s: 3.0,
            texture_s: 1.0,
            memory_s: 2.0,
            upload_s: 0.5,
            download_s: 0.25,
        };
        // Kernel (3.0) dominates upload (0.5): the upload disappears.
        assert_eq!(t.total_s_mode(TransferMode::Serial), 3.75);
        assert_eq!(t.total_s_mode(TransferMode::Overlapped), 3.25);
        assert_eq!(t.overlap_saving_s(), 0.5);
        assert_eq!(t.total_ms_mode(TransferMode::Overlapped), 3250.0);
        // Upload-bound case: the upload becomes the bottleneck instead.
        let slow_bus = GpuTime { upload_s: 5.0, ..t };
        assert_eq!(slow_bus.total_s_mode(TransferMode::Overlapped), 5.25);
        // Overlap never loses to serial.
        assert!(slow_bus.total_s_mode(TransferMode::Overlapped) <= slow_bus.total_s());
        assert_eq!(TransferMode::default(), TransferMode::Serial);
    }

    #[test]
    fn shared_bus_slows_transfers_but_not_kernels() {
        let stats = sample_stats();
        let p = GpuProfile::geforce_7800gtx();
        let solo = gpu_time(&stats, &p);
        let dual = gpu_time_shared(&stats, &p, 2);
        // Kernel resources are per-device.
        assert_eq!(dual.compute_s, solo.compute_s);
        assert_eq!(dual.texture_s, solo.texture_s);
        assert_eq!(dual.memory_s, solo.memory_s);
        // Transfers pay the halved link: twice the byte time, same latency.
        let byte_up = solo.upload_s - p.bus.latency_s;
        assert!((dual.upload_s - (p.bus.latency_s + 2.0 * byte_up)).abs() < 1e-12);
        assert!(dual.download_s > solo.download_s);
        // One sharer (or zero) is the plain model.
        assert_eq!(gpu_time_shared(&stats, &p, 1), solo);
        assert_eq!(gpu_time_shared(&stats, &p, 0), solo);
        // Zero-byte stages still owe no latency under contention.
        let idle = gpu_time_shared(&PassStats::default(), &p, 4);
        assert_eq!(idle.upload_s, 0.0);
        assert_eq!(idle.download_s, 0.0);
    }

    #[test]
    fn newer_gpu_is_faster_on_same_work() {
        let stats = sample_stats();
        let fx = gpu_time(&stats, &GpuProfile::fx5950_ultra());
        let g70 = gpu_time(&stats, &GpuProfile::geforce_7800gtx());
        assert!(g70.kernel_s() < fx.kernel_s());
        let ratio = fx.kernel_s() / g70.kernel_s();
        // Paper's observed generation gap: ~4.4x (plus transfer effects).
        assert!(ratio > 3.0 && ratio < 7.0, "ratio = {ratio}");
        // PCIe uploads beat AGP.
        assert!(g70.upload_s < fx.upload_s);
    }

    #[test]
    fn compute_time_scales_linearly_with_instructions() {
        let mut s1 = sample_stats();
        s1.cache_misses = 0;
        s1.bytes_written = 0;
        s1.texel_fetches = 0;
        let mut s2 = s1;
        s2.instructions *= 2;
        let p = GpuProfile::geforce_7800gtx();
        let t1 = gpu_time(&s1, &p);
        let t2 = gpu_time(&s2, &p);
        assert!((t2.compute_s / t1.compute_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_work_stage_models_to_exactly_zero() {
        // No counted work at all → no modeled time, including bus setup
        // latency (no bytes moved means no transfer was issued).
        // `amc_profile`'s skew column relies on this to print 0 instead of
        // dividing by a phantom latency.
        let t = gpu_time(&PassStats::default(), &GpuProfile::geforce_7800gtx());
        assert_eq!(t.total_ms(), 0.0);
        // But any actual transfer still pays the per-transfer latency.
        let moved = PassStats {
            bytes_uploaded: 1,
            ..PassStats::default()
        };
        let t = gpu_time(&moved, &GpuProfile::geforce_7800gtx());
        assert!(t.upload_s >= GpuProfile::geforce_7800gtx().bus.latency_s);
    }

    #[test]
    fn occupancy_derates_per_pipe_resources() {
        let full = sample_stats();
        let mut sparse = full;
        sparse.tiles = sparse.passes; // one tile per pass
        let p = GpuProfile::geforce_7800gtx();
        let t_full = gpu_time(&full, &p);
        let t_sparse = gpu_time(&sparse, &p);
        // 1 busy pipe of 24: per-pipe resources slow by the occupancy ratio.
        let occ_full = p.pipe_occupancy(256.0);
        let expect = occ_full / p.pipe_occupancy(1.0);
        assert!((t_sparse.compute_s / t_full.compute_s - expect).abs() < 1e-9);
        assert!((t_sparse.texture_s / t_full.texture_s - expect).abs() < 1e-9);
        // Memory and transfer sides are device-wide, not per-pipe.
        assert_eq!(t_sparse.memory_s, t_full.memory_s);
        assert_eq!(t_sparse.upload_s, t_full.upload_s);
        // Legacy stats without tile counts are not derated.
        let mut untiled = full;
        untiled.tiles = 0;
        assert!(gpu_time(&untiled, &p).compute_s <= t_full.compute_s);
    }

    #[test]
    fn single_tile_pass_cannot_use_a_wide_gpu() {
        // One tile per pass keeps 23 of the 7800GTX's 24 pipes idle; the
        // 4-pipe FX5950 wastes only 3, so the newer GPU loses its edge.
        let mut stats = sample_stats();
        stats.tiles = stats.passes;
        let fx = gpu_time(&stats, &GpuProfile::fx5950_ultra());
        let g70 = gpu_time(&stats, &GpuProfile::geforce_7800gtx());
        assert!(
            g70.compute_s > fx.compute_s,
            "g70 {} vs fx {}",
            g70.compute_s,
            fx.compute_s
        );
    }

    #[test]
    fn cpu_model_reproduces_compiler_and_generation_gaps() {
        let work = CpuWork {
            flops: 2_000_000_000,
            bytes: 500_000_000,
        };
        let p4 = CpuProfile::pentium4_northwood();
        let pr = CpuProfile::pentium4_prescott();
        let p4_gcc = cpu_time_s(&work, &p4, Compiler::Gcc);
        let p4_icc = cpu_time_s(&work, &p4, Compiler::Icc);
        let pr_gcc = cpu_time_s(&work, &pr, Compiler::Gcc);
        assert!(p4_icc < p4_gcc);
        let icc_gain = p4_gcc / p4_icc;
        assert!(icc_gain > 1.4 && icc_gain < 1.8, "icc gain {icc_gain}");
        let gen_gain = p4_gcc / pr_gcc;
        assert!(gen_gain > 1.0 && gen_gain < 1.1, "gen gain {gen_gain}");
    }

    #[test]
    fn cpu_memory_bound_when_flops_are_few() {
        let work = CpuWork {
            flops: 1,
            bytes: 6_400_000_000,
        };
        let p4 = CpuProfile::pentium4_northwood();
        // 6.4 GB over a 6.4 GB/s FSB = 1 s.
        assert!((cpu_time_s(&work, &p4, Compiler::Gcc) - 1.0).abs() < 1e-9);
        assert_eq!(cpu_time_ms(&work, &p4, Compiler::Gcc).round(), 1000.0);
    }

    #[test]
    fn cpu_work_accumulates() {
        let mut w = CpuWork::default();
        w.add(&CpuWork {
            flops: 10,
            bytes: 20,
        });
        w.add(&CpuWork { flops: 1, bytes: 2 });
        assert_eq!(
            w,
            CpuWork {
                flops: 11,
                bytes: 22
            }
        );
    }
}
