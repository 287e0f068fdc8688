//! Fragment kernels for every AMC pipeline stage.
//!
//! Each stage is an **ISA program** (fp30-style assembly, assembled once and
//! executed by the `gpu-sim` interpreter) — faithful to what the paper's Cg
//! kernels compiled to, with exact per-fragment instruction counts.
//!
//! The assembly below is written the way the Cg frontend emits it —
//! compiler-temp copies, a separate multiply feeding the reduction `DP4`,
//! results staged through a temp before the final output move. The render
//! graph compiler ([`crate::graph::compile`]) runs every scheduled program
//! through the `gpu_sim::opt` pass pipeline, which recovers the tight forms,
//! and the device shades what it compiled; the `*_COST` constants below are
//! the **optimized** per-fragment instruction counts the device shades (the
//! analytic predictor in [`crate::perf`] charges them), while `*_RAW_COST`
//! are the as-assembled lengths. Every optimizer rewrite is
//! exact-preserving, so the raw programs produce the same bits.
//!
//! [`sid_partial_value`] is the scalar form of one partial-SID step,
//! operation-for-operation equal to [`sid_partial_program`] (`log2(x)·ln2`
//! instead of `ln`, ε-guards via `max`, lane-ordered summation); the SIMD4
//! CPU baseline ([`crate::cpu::run_simd4`]) is built on it.

use gpu_sim::asm::assemble;
use gpu_sim::isa::Program;

/// ε guard inside the SID kernels; equals [`hsi::spectral::SID_EPSILON`].
pub const SID_EPS: f32 = 1e-12;
/// ln(2) as f32, converting `LG2` output to natural log.
pub const LN2: f32 = std::f32::consts::LN_2;

/// Shaded (optimized) instruction cost of the band-sum kernel per fragment.
pub const BAND_SUM_COST: u64 = 4;
/// Shaded (optimized) instruction cost of the normalize kernel.
pub const NORMALIZE_COST: u64 = 5;
/// Shaded (optimized) instruction cost of the partial-SID kernel.
pub const SID_PARTIAL_COST: u64 = 12;
/// Shaded (optimized) instruction cost of the min/max init kernel.
pub const MINMAX_INIT_COST: u64 = 3;
/// Shaded (optimized) instruction cost of the min/max update kernel.
pub const MINMAX_UPDATE_COST: u64 = 8;
/// Shaded (optimized) instruction cost of the MEI partial kernel.
pub const MEI_PARTIAL_COST: u64 = 19;

/// As-assembled length of [`band_sum_program`] before optimization.
pub const BAND_SUM_RAW_COST: u64 = 5;
/// As-assembled length of [`normalize_program`] before optimization.
pub const NORMALIZE_RAW_COST: u64 = 6;
/// As-assembled length of [`sid_partial_program`] before optimization.
pub const SID_PARTIAL_RAW_COST: u64 = 14;
/// As-assembled length of [`minmax_init_program`] before optimization.
pub const MINMAX_INIT_RAW_COST: u64 = 4;
/// As-assembled length of [`minmax_update_program`] before optimization.
pub const MINMAX_UPDATE_RAW_COST: u64 = 9;
/// As-assembled length of [`mei_partial_program`] before optimization.
pub const MEI_PARTIAL_RAW_COST: u64 = 22;

/// Band-sum accumulation: `sum' = sum + dot(bandgroup, 1)`.
///
/// Inputs: `tex0` = band-group plane (coord set `T0`), `tex1` = previous sum.
///
/// The frontend stages the dot product through a compiler temp (`R3`); copy
/// propagation and DCE collapse it to four instructions.
pub fn band_sum_program() -> Program {
    assemble(
        "!!band_sum\n\
         DEF C1, 1, 1, 1, 1\n\
         TEX R0, T0, tex0\n\
         TEX R1, T0, tex1\n\
         DP4 R2, R0, C1\n\
         MOV R3, R2\n\
         ADD OC, R3, R1",
    )
    .expect("band_sum assembles")
}

/// Normalization (eqs. 3–4): `out = bandgroup / sum.x`.
///
/// Inputs: `tex0` = band-group plane, `tex1` = total band sum.
///
/// The frontend lands the quotient in a temp and emits a final output move;
/// output coalescing folds the move into the `MUL`.
pub fn normalize_program() -> Program {
    assemble(
        "!!normalize\n\
         DEF C0, 1e-30, 0, 0, 0\n\
         TEX R0, T0, tex0\n\
         TEX R1, T0, tex1\n\
         MAX R2, R1.x, C0.x\n\
         RCP R3, R2\n\
         MUL R4, R0, R3\n\
         MOV OC, R4",
    )
    .expect("normalize assembles")
}

/// Partial SID accumulation (eq. 2 over one 4-band group):
/// `accum' = accum + Σ_lanes (p − q)·ln(p/q)` with `p` sampled at `T0`
/// (centre) and `q` at `T1` (the δ-shifted coordinate set).
///
/// Inputs: `tex0` = normalized band-group plane, `tex1` = previous accum.
///
/// The frontend copies the difference vector before the lanewise multiply
/// and reduces through an explicit all-ones `DP4`; copy propagation deletes
/// the copy and the `MUL`+`DP4` pair fuses into a direct dot product
/// (exact: `x·1.0` is the identity on every f32 bit pattern).
pub fn sid_partial_program() -> Program {
    assemble(
        "!!sid_partial\n\
         DEF C0, 1e-12, 0.6931472, 0, 0\n\
         DEF C1, 1, 1, 1, 1\n\
         TEX R0, T0, tex0\n\
         TEX R1, T1, tex0\n\
         TEX R4, T0, tex1\n\
         MAX R0, R0, C0.x\n\
         MAX R1, R1, C0.x\n\
         RCP R2, R1\n\
         MUL R2, R0, R2\n\
         LG2 R2, R2\n\
         MUL R2, R2, C0.y\n\
         SUB R3, R0, R1\n\
         MOV R5, R3\n\
         MUL R5, R5, R2\n\
         DP4 R5, R5, C1\n\
         ADD OC, R4, R5",
    )
    .expect("sid_partial assembles")
}

/// Min/max state initialisation from neighbour 0's cumulative distance:
/// `state = (D₀, 0, D₀, 0)`.
///
/// Inputs: `tex0` = cumulative-distance field, sampled through the shifted
/// coordinate set `T0` (= identity + δ₀).
///
/// Output coalescing retargets the two `R1` builds at `OC` directly and
/// drops the final move.
pub fn minmax_init_program() -> Program {
    assemble(
        "!!minmax_init\n\
         DEF C1, 0, 0, 0, 0\n\
         TEX R0, T0, tex0\n\
         MOV R1, R0.x\n\
         MOV R1.yw, C1\n\
         MOV OC, R1",
    )
    .expect("minmax_init assembles")
}

/// Min/max state update with neighbour `k` (paper's Maximum/Minimum stage):
/// strict comparisons keep the first extremum on ties, matching the CPU
/// reference.
///
/// Inputs: `tex0` = previous state (`T0` identity), `tex1` = cumulative
/// field (`T1` shifted by δₖ). Constant `C0` = `(k, k, k, k)`.
///
/// Output coalescing retargets the four lane builds of `R4` at `OC` and
/// drops the final move.
pub fn minmax_update_program() -> Program {
    assemble(
        "!!minmax_update\n\
         TEX R0, T0, tex0\n\
         TEX R1, T1, tex1\n\
         SLT R2, R1.x, R0.x\n\
         SLT R3, R0.z, R1.x\n\
         MIN R4.x, R0, R1.x\n\
         LRP R4.y, R2, C0, R0\n\
         MAX R4.z, R0, R1.x\n\
         LRP R4.w, R3, C0, R0\n\
         MOV OC, R4",
    )
    .expect("minmax_update assembles")
}

/// MEI partial accumulation (paper's SID Compute stage): dependent texture
/// reads fetch the erosion/dilation pixels selected by the min/max state and
/// accumulate their SID over one band group.
///
/// Inputs: `tex0` = normalized band-group plane, `tex1` = min/max state,
/// `tex2` = previous MEI accum, `tex3` = the neighbour-offset lookup texture
/// ([`offset_lut`]). Constant `C2` = `(1/p_B, 0.5/p_B, 0.5, 0)`.
///
/// Three rewrites fire here: the `R3` coordinate copy propagates (with its
/// swizzle) straight into the dependent `TEX`, the staged accumulator copy
/// (`R11`) propagates into the final `ADD`, and the all-ones `DP4` fuses
/// with the preceding `MUL`.
pub fn mei_partial_program() -> Program {
    assemble(
        "!!mei_partial\n\
         DEF C0, 1e-12, 0.6931472, 0, 0\n\
         DEF C1, 1, 1, 1, 1\n\
         TEX R0, T0, tex1\n\
         MAD R1, R0.yyww, C2.x, C2.y\n\
         MOV R1.yw, C2.zzzz\n\
         TEX R2, R1, tex3\n\
         MOV R3, R1.zwzw\n\
         TEX R4, R3, tex3\n\
         ADD R2, R2, T0\n\
         ADD R4, R4, T0\n\
         TEX R5, R2, tex0\n\
         TEX R6, R4, tex0\n\
         MAX R5, R5, C0.x\n\
         MAX R6, R6, C0.x\n\
         RCP R7, R5\n\
         MUL R7, R6, R7\n\
         LG2 R7, R7\n\
         MUL R7, R7, C0.y\n\
         SUB R8, R6, R5\n\
         MUL R8, R8, R7\n\
         DP4 R10, R8, C1\n\
         TEX R9, T0, tex2\n\
         MOV R11, R10\n\
         ADD OC, R9, R11",
    )
    .expect("mei_partial assembles")
}

/// Build the neighbour-offset lookup texture contents: `p_B x 1` texels,
/// texel `k` = `(δxₖ/w, δyₖ/h, 0, 0)` in normalized texture coordinates.
pub fn offset_lut(offsets: &[(i32, i32)], width: usize, height: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(offsets.len() * 4);
    for &(dx, dy) in offsets {
        out.push(dx as f32 / width as f32);
        out.push(dy as f32 / height as f32);
        out.push(0.0);
        out.push(0.0);
    }
    out
}

/// The partial SID of one 4-band group, computed with the exact operation
/// sequence of [`sid_partial_program`] (ε-guard, reciprocal multiply,
/// `log2·ln2`, lane-ordered `DP4` summation).
#[inline]
pub fn sid_partial_value(p: [f32; 4], q: [f32; 4]) -> f32 {
    let mut terms = [0.0f32; 4];
    for lane in 0..4 {
        let pl = p[lane].max(SID_EPS);
        let ql = q[lane].max(SID_EPS);
        let r = 1.0 / ql;
        let ratio = pl * r;
        let l = gpu_sim::interp::lg2(ratio.max(f32::MIN_POSITIVE)) * LN2;
        terms[lane] = (pl - ql) * l;
    }
    // DP4's sum: left to right over the lanes.
    terms[0] + terms[1] + terms[2] + terms[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::stage_cases;

    #[test]
    fn all_programs_assemble_with_expected_costs() {
        assert_eq!(band_sum_program().len() as u64, BAND_SUM_RAW_COST);
        assert_eq!(normalize_program().len() as u64, NORMALIZE_RAW_COST);
        assert_eq!(sid_partial_program().len() as u64, SID_PARTIAL_RAW_COST);
        assert_eq!(minmax_init_program().len() as u64, MINMAX_INIT_RAW_COST);
        assert_eq!(minmax_update_program().len() as u64, MINMAX_UPDATE_RAW_COST);
        assert_eq!(mei_partial_program().len() as u64, MEI_PARTIAL_RAW_COST);
    }

    #[test]
    fn optimizer_recovers_the_shaded_costs() {
        // The `*_COST` constants the analytic predictor charges must equal
        // what the device actually shades: the optimized program lengths.
        let expected = [
            BAND_SUM_COST,
            NORMALIZE_COST,
            SID_PARTIAL_COST,
            MINMAX_INIT_COST,
            MINMAX_UPDATE_COST,
            MEI_PARTIAL_COST,
        ];
        for ((prog, bindings), want) in stage_cases().into_iter().zip(expected) {
            let (opt, report) = gpu_sim::optimize(&prog, &bindings);
            assert_eq!(
                opt.len() as u64,
                want,
                "`{}` optimized to:\n{}",
                prog.name,
                opt.to_asm()
            );
            assert_eq!(report.before, prog.len());
            assert_eq!(report.after, opt.len());
            // No texture fetch may ever be optimized away: texel traffic
            // (and the cache model it feeds) must match the raw program.
            assert_eq!(opt.tex_count(), prog.tex_count(), "`{}`", prog.name);
        }
    }

    #[test]
    fn raw_and_optimized_kernels_shade_identical_bits_and_cache_traffic() {
        // Each kernel, as assembled and as optimized, shades the same inputs
        // under its AMC bindings: the texels must agree bit for bit, and the
        // fetch and cache counters exactly (the optimizer keeps every fetch,
        // in order), while each fragment runs exactly the program it is
        // handed: the raw length, or the `*_COST` that
        // `optimizer_recovers_the_shaded_costs` pins.
        use gpu_sim::interp::lower;
        use gpu_sim::raster::TexCoordSet;
        use gpu_sim::{Gpu, GpuProfile, PassStats};
        let (w, h) = (21, 11);
        let offsets = hsi::morphology::StructuringElement::square(3)
            .unwrap()
            .offsets();
        let p_b = offsets.len() as f32;
        for (prog, bindings) in stage_cases() {
            let mei = prog.name == "mei_partial";
            let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
            let mut inputs = Vec::new();
            for s in 0..bindings.samplers {
                let plane = |f: &dyn Fn(usize) -> f32| (0..w * h * 4).map(f).collect();
                let ((tw, th), data): (_, Vec<f32>) = match (mei, s) {
                    (true, 3) => ((offsets.len(), 1), offset_lut(&offsets, w, h)),
                    // The min/max state: SE offset indices.
                    (true, 1) => ((w, h), plane(&|i| ((i * 7 + i / 4) % 9) as f32)),
                    _ => (
                        (w, h),
                        plane(&|i| 0.05 + ((i * 37 + s * 11) % 97) as f32 * 0.173),
                    ),
                };
                let t = gpu.alloc_texture(tw, th).unwrap();
                gpu.upload(t, &data).unwrap();
                inputs.push(t);
            }
            let sets = [
                TexCoordSet::identity(),
                TexCoordSet::shifted_texels(1, -1, w, h),
            ];
            let sets = &sets[..bindings.texcoord_sets];
            let constants: Vec<(u8, [f32; 4])> = bindings
                .constants
                .iter()
                .map(|&c| match c {
                    0 => (0, [4.0; 4]),
                    2 => (2, [1.0 / p_b, 0.5 / p_b, 0.5, 0.0]),
                    _ => panic!("`{}` binds an unexpected C{c}", prog.name),
                })
                .collect();
            let mut shade = |p: &gpu_sim::isa::Program| -> (Vec<u32>, PassStats) {
                let lowered = lower(p, &constants, &bindings, gpu.profile()).unwrap();
                let out = gpu.alloc_texture(w, h).unwrap();
                let stats = gpu.run_pass(&lowered, &inputs, sets, out).unwrap();
                let texels = gpu.download(out).unwrap();
                (texels.iter().map(|v| v.to_bits()).collect(), stats)
            };
            let (opt, _) = gpu_sim::optimize(&prog, &bindings);
            let (raw_texels, raw) = shade(&prog);
            let (opt_texels, shaded) = shade(&opt);
            let name = &prog.name;
            assert_eq!(raw_texels, opt_texels, "`{name}` texels");
            let traffic = |s: &PassStats| (s.texel_fetches, s.cache_hits, s.cache_misses);
            assert_eq!(traffic(&raw), traffic(&shaded), "`{name}` cache traffic");
            let runs = |p: &gpu_sim::isa::Program| p.len() as u64 * raw.fragments;
            assert_eq!(raw.instructions, runs(&prog), "`{name}` raw");
            assert_eq!(shaded.instructions, runs(&opt), "`{name}`");
        }
    }

    #[test]
    fn program_names_and_tex_counts() {
        assert_eq!(band_sum_program().name, "band_sum");
        assert_eq!(band_sum_program().tex_count(), 2);
        assert_eq!(normalize_program().tex_count(), 2);
        assert_eq!(sid_partial_program().tex_count(), 3);
        assert_eq!(minmax_init_program().tex_count(), 1);
        assert_eq!(minmax_update_program().tex_count(), 2);
        assert_eq!(mei_partial_program().tex_count(), 6);
    }

    #[test]
    fn all_kernels_verify_clean_raw_and_optimized() {
        use gpu_sim::verify::verify;
        use gpu_sim::GpuProfile;
        for profile in GpuProfile::paper_gpus() {
            for (prog, bindings) in &stage_cases() {
                let (opt, _) = gpu_sim::optimize(prog, bindings);
                for p in [prog, &opt] {
                    let d = verify(p, &profile, Some(bindings));
                    assert!(d.is_empty(), "`{}` on {}: {d:?}", p.name, profile.name);
                    let d = verify(p, &profile, None);
                    assert!(d.is_empty(), "lint `{}`: {d:?}", p.name);
                }
            }
        }
    }

    #[test]
    fn kernels_round_trip_through_the_disassembler() {
        // asm → disasm → asm is the identity on every AMC kernel, raw and
        // optimized (instruction/def equality ignores source lines).
        for (prog, bindings) in stage_cases() {
            let again = assemble(&prog.to_string())
                .unwrap_or_else(|e| panic!("`{}` re-assembles: {e}", prog.name));
            assert_eq!(again, prog, "raw `{}`:\n{prog}", prog.name);
            let (opt, _) = gpu_sim::optimize(&prog, &bindings);
            let again = assemble(&opt.to_string())
                .unwrap_or_else(|e| panic!("optimized `{}` re-assembles: {e}", prog.name));
            assert_eq!(again, opt, "optimized `{}`:\n{opt}", prog.name);
        }
    }

    #[test]
    fn sid_partial_value_matches_reference_sid() {
        // Against hsi's ln-based SID (tolerance: log2·ln2 vs ln rounding).
        let p = [0.1f32, 0.2, 0.3, 0.4];
        let q = [0.4f32, 0.3, 0.2, 0.1];
        let kernel = sid_partial_value(p, q);
        let reference = hsi::spectral::sid_normalized(&p, &q);
        assert!(
            (kernel - reference).abs() < 1e-6,
            "kernel {kernel} vs reference {reference}"
        );
    }

    #[test]
    fn sid_partial_value_zero_for_identical() {
        let p = [0.25f32; 4];
        assert_eq!(sid_partial_value(p, p), 0.0);
    }

    #[test]
    fn sid_partial_value_handles_padded_lanes() {
        // Zero-padded lanes (last band group) must contribute nothing.
        let p = [0.5f32, 0.5, 0.0, 0.0];
        let q = [0.5f32, 0.5, 0.0, 0.0];
        assert_eq!(sid_partial_value(p, q), 0.0);
        // And mixed zero lanes stay finite.
        let q = [0.3f32, 0.7, 0.0, 0.0];
        assert!(sid_partial_value(p, q).is_finite());
    }

    #[test]
    fn minmax_update_tracks_extrema_and_ties() {
        use gpu_sim::raster::TexCoordSet;
        // One fragment of the update program: state and candidate field on
        // 1x1 textures, neighbour index `k` as the pass constant.
        let minmax_update_value = |state: [f32; 4], cand: f32, k: f32| {
            let mut gpu = gpu_sim::Gpu::new(gpu_sim::GpuProfile::fx5950_ultra());
            let (st, field, out) = (
                gpu.alloc_texture(1, 1).unwrap(),
                gpu.alloc_texture(1, 1).unwrap(),
                gpu.alloc_texture(1, 1).unwrap(),
            );
            gpu.upload(st, &state).unwrap();
            gpu.upload(field, &[cand; 4]).unwrap();
            let sets = [TexCoordSet::identity(), TexCoordSet::identity()];
            let constants = [(0, [k; 4])];
            let bindings = crate::graph::pass_bindings(2, sets.len(), &constants);
            let prog = gpu_sim::interp::lower(
                &minmax_update_program(),
                &constants,
                &bindings,
                gpu.profile(),
            )
            .unwrap();
            gpu.run_pass(&prog, &[st, field], &sets, out).unwrap();
            let t = gpu.download(out).unwrap();
            [t[0], t[1], t[2], t[3]]
        };
        let s0 = [5.0, 0.0, 5.0, 0.0];
        // Smaller candidate updates the min side.
        let s1 = minmax_update_value(s0, 3.0, 1.0);
        assert_eq!(s1, [3.0, 1.0, 5.0, 0.0]);
        // Larger candidate updates the max side.
        let s2 = minmax_update_value(s1, 7.0, 2.0);
        assert_eq!(s2, [3.0, 1.0, 7.0, 2.0]);
        // Equal candidate keeps the earlier index (strict comparisons).
        let s3 = minmax_update_value(s2, 3.0, 3.0);
        assert_eq!(s3[1], 1.0);
        let s4 = minmax_update_value(s3, 7.0, 4.0);
        assert_eq!(s4[3], 2.0);
    }

    #[test]
    fn offset_lut_encodes_normalized_offsets() {
        let offsets = [(-1, -1), (0, 0), (1, 2)];
        let lut = offset_lut(&offsets, 10, 20);
        assert_eq!(lut.len(), 12);
        assert_eq!(lut[0], -0.1);
        assert_eq!(lut[1], -0.05);
        assert_eq!(lut[4], 0.0);
        assert_eq!(lut[8], 0.1);
        assert_eq!(lut[9], 0.1);
    }
}
