//! Fuzzing the fp30 assembler: outside input must never panic it.
//!
//! Two generators feed [`assemble`]: random bytes (decoded lossily, so
//! multi-byte and replacement characters appear mid-token) and the AMC
//! kernel sources with random edits. Every program that assembles then
//! goes through the rest of the toolchain — verification in lint and pass
//! mode on both paper GPUs, the optimizer, lowering with its straight-line
//! specialization — and, when it verifies, through the tile executor and
//! the scalar interpreter, which must agree bit for bit.

use gpu_sim::asm::assemble;
use gpu_sim::interp::{execute, execute_tile, lower, resolve_constants, LoweredProgram};
use gpu_sim::isa::{Program, NUM_SAMPLERS};
use gpu_sim::raster::{fragment_input, TexCoordSet};
use gpu_sim::texcache::TextureCache;
use gpu_sim::texture::Texture2D;
use gpu_sim::verify::{has_errors, verify, PassBindings};
use gpu_sim::{optimize, GpuProfile};
use hyperspec::amc::pipeline;
use proptest::prelude::*;

/// The stage kernels' source text, the seed corpus for mutation.
fn kernel_sources() -> Vec<String> {
    pipeline::stage_cases()
        .into_iter()
        .map(|(program, _)| program.to_asm())
        .collect()
}

/// Fragments of the assembly language (and near misses) that edits splice
/// into kernel sources.
const TOKENS: [&str; 24] = [
    "", " ", ",", ".", "-", "\n", "#", ";", "!!", "é", "_SAT", "DEF", "TEX", "DP4", "R0", "R16",
    "C31", "T8", "O4", "OC", "tex16", ".xyzw", ".w", "1e-12",
];

/// Apply `edits` to `source`: each `(at, kind, token)` deletes, inserts
/// or replaces at a char position (modulo the current length).
fn mutate(source: &str, edits: &[(usize, u8, usize)]) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    for &(at, kind, token) in edits {
        let at = at % (chars.len() + 1);
        let token: Vec<char> = TOKENS[token % TOKENS.len()].chars().collect();
        match kind % 3 {
            0 => {
                let end = (at + token.len().max(1)).min(chars.len());
                chars.drain(at..end);
            }
            1 => {
                chars.splice(at..at, token);
            }
            _ => {
                let end = (at + 1).min(chars.len());
                chars.splice(at..end, token);
            }
        }
    }
    chars.into_iter().collect()
}

/// Shade a 3-wide, 2-row tile of a 5x4 target through the tile executor
/// and through [`execute`] on the lowering's program and constants, and
/// compare O0 bits, totals and cache hits and misses.
fn executors_agree(lowered: &LoweredProgram, textures: &[&Texture2D]) {
    let sets = [
        TexCoordSet::identity(),
        TexCoordSet::shifted_texels(1, -1, 5, 4),
    ];
    let (mut scalar, mut instr, mut fetches) = (Vec::new(), 0u64, 0u64);
    let mut scalar_cache = TextureCache::per_pipe_default();
    for y in 1..3 {
        for x in 2..5 {
            let fi = fragment_input(&sets, x, y, 5, 4);
            let r = execute(
                lowered.program(),
                &fi,
                lowered.constants(),
                textures,
                Some(&mut scalar_cache),
            );
            scalar.push(r.colors[0].map(f32::to_bits));
            instr += r.instructions;
            fetches += r.texel_fetches;
        }
    }
    let mut out = [[0.0f32; 4]; 6];
    let mut rows: Vec<&mut [[f32; 4]]> = out.chunks_mut(3).collect();
    let mut tile_cache = TextureCache::per_pipe_default();
    let totals = execute_tile(
        lowered,
        &sets,
        2,
        1,
        5,
        4,
        &mut rows,
        textures,
        &mut tile_cache,
        None,
    );
    assert_eq!(totals, (instr, fetches));
    assert_eq!(
        (tile_cache.hits(), tile_cache.misses()),
        (scalar_cache.hits(), scalar_cache.misses())
    );
    let tiled: Vec<[u32; 4]> = out.iter().map(|c| c.map(f32::to_bits)).collect();
    assert_eq!(tiled, scalar);
}

/// Everything downstream of the assembler, on one assembled program.
fn exercise(program: &Program) {
    let permissive = PassBindings::permissive();
    let mut verified = false;
    for profile in GpuProfile::paper_gpus() {
        let _ = verify(program, &profile, None);
        verified |= !has_errors(&verify(program, &profile, Some(&permissive)));
    }
    let (optimized, _) = optimize(program, &permissive);
    let textures: Vec<Texture2D> = (0..NUM_SAMPLERS)
        .map(|i| Texture2D::from_flat(2, 2, &[i as f32 * 0.25 - 1.0; 16]))
        .collect();
    let refs: Vec<&Texture2D> = textures.iter().collect();
    for p in [program, &optimized] {
        let lowered = lower(p, &resolve_constants(p, &[]));
        assert_eq!(lowered.instruction_count(), p.len() as u64);
        assert!(lowered.op_count() >= lowered.tex_count() as usize);
        if verified {
            executors_agree(&lowered, &refs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_the_toolchain(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        if let Ok(program) = assemble(&String::from_utf8_lossy(&bytes)) {
            exercise(&program);
        }
    }

    #[test]
    fn mutated_kernels_never_panic_the_toolchain(
        kernel in 0usize..6,
        edits in prop::collection::vec((0usize..2000, 0u8..3, 0usize..64), 1..5),
    ) {
        let sources = kernel_sources();
        let source = mutate(&sources[kernel % sources.len()], &edits);
        if let Ok(program) = assemble(&source) {
            exercise(&program);
        }
    }
}

#[test]
fn unmutated_kernels_reach_the_executors() {
    // The mutation corpus itself assembles and verifies, so the property
    // above exercises the executors whenever an edit keeps a kernel valid.
    for source in kernel_sources() {
        let program = assemble(&source).unwrap();
        let diags = verify(
            &program,
            &GpuProfile::fx5950_ultra(),
            Some(&PassBindings::permissive()),
        );
        assert!(!has_errors(&diags), "{diags:?}\n{source}");
        exercise(&program);
    }
}

#[test]
fn former_panics_are_assembly_errors() {
    for source in ["MOV R0, ", "MOV R0, é0"] {
        assert!(assemble(source).is_err(), "{source:?}");
    }
}
