//! Property tests for the verifier/interpreter contract.
//!
//! The load-bearing property: any program [`verify`] accepts for a pass
//! context must run through [`interp::execute`] without panicking — the
//! interpreter indexes register files and sampler slots directly, so the
//! verifier's structural and binding errors are exactly what stands
//! between a bad program and an out-of-bounds index.

use gpu_sim::interp::{execute, execute_tile, lower, resolve_constants, FragmentInput};
use gpu_sim::isa::{ConstDef, Dst, Instr, Opcode, Program, Reg, Src, Swizzle};
use gpu_sim::raster::{fragment_input, TexCoordSet};
use gpu_sim::texcache::TextureCache;
use gpu_sim::texture::Texture2D;
use gpu_sim::verify::{has_errors, verify, PassBindings};
use gpu_sim::GpuProfile;
use proptest::prelude::*;

const OPS: [Opcode; 21] = [
    Opcode::Mov,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Mad,
    Opcode::Min,
    Opcode::Max,
    Opcode::Rcp,
    Opcode::Rsq,
    Opcode::Ex2,
    Opcode::Lg2,
    Opcode::Frc,
    Opcode::Flr,
    Opcode::Abs,
    Opcode::Slt,
    Opcode::Sge,
    Opcode::Cmp,
    Opcode::Lrp,
    Opcode::Dp3,
    Opcode::Dp4,
    Opcode::Tex,
];

/// Raw generated form of one instruction; decoded by [`decode_instr`].
type RawInstr = ((usize, u8, u8), (u16, u16, u16), u32, u8, bool);

/// Source register universe: mixes valid and invalid indices so the
/// verifier's rejection paths are exercised alongside its accept path.
fn src_reg(code: u16) -> Reg {
    let idx = code / 4;
    match code % 4 {
        0 => Reg::Temp((idx % 8) as u8),
        1 => Reg::Const((idx % 4) as u8),
        2 => Reg::TexCoord((idx % 4) as u8),
        _ => Reg::Output((idx % 4) as u8),
    }
}

fn decode_instr(raw: &RawInstr) -> Instr {
    let ((op_idx, dst_code, mask), (s0, s1, s2), swz, sampler_code, negate) = *raw;
    let op = OPS[op_idx % OPS.len()];
    let dst_reg = if dst_code < 18 {
        Reg::Temp(dst_code) // 16 and 17 are out of range on purpose
    } else {
        Reg::Output(dst_code - 18) // 22..23 map past O3
    };
    let srcs = [s0, s1, s2][..op.arity()]
        .iter()
        .enumerate()
        .map(|(si, &code)| Src {
            reg: src_reg(code),
            swizzle: Swizzle([
                ((swz >> (8 * si)) & 3) as u8,
                ((swz >> (8 * si + 2)) & 3) as u8,
                ((swz >> (8 * si + 4)) & 3) as u8,
                ((swz >> (8 * si + 6)) & 3) as u8,
            ]),
            negate: negate && si == 0,
        })
        .collect();
    let sampler = if op == Opcode::Tex {
        // 9 encodes a TEX with no sampler at all (malformed).
        (sampler_code != 9).then_some(sampler_code)
    } else {
        None
    };
    Instr {
        op,
        dst: Dst {
            reg: dst_reg,
            mask: [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0],
            saturate: mask == 0,
        },
        srcs,
        sampler,
        line: 0,
    }
}

/// The pass context every generated program is checked and executed under:
/// two textures, two coordinate sets, `C1` pass-bound, `O0` read back.
fn pass() -> PassBindings {
    PassBindings {
        samplers: 2,
        texcoord_sets: 2,
        constants: vec![1],
        outputs_read: [true, false, false, false],
    }
}

fn build_program(body: Vec<Instr>, with_prologue: bool) -> Program {
    let mut instrs = Vec::new();
    if with_prologue {
        // Define R0..R3 and guarantee an output write, so a useful share of
        // generated programs survives verification.
        let prologue = "TEX R0, T0, tex0\nMOV R1, T1\nMOV R2, R0\nMOV R3, T0\n";
        instrs.extend(gpu_sim::asm::assemble(prologue).unwrap().instrs);
    }
    instrs.extend(body);
    if with_prologue {
        instrs.extend(gpu_sim::asm::assemble("MOV OC, R0\n").unwrap().instrs);
    }
    for i in &mut instrs {
        i.line = 0;
    }
    Program {
        name: "prop".into(),
        defs: vec![ConstDef {
            index: 0,
            value: [0.5, 0.25, 1.0, 2.0],
            line: 0,
        }],
        instrs,
    }
}

/// Defines every register the tile property's instructions read — `R0..R7`
/// (two by TEX), `O1..O3` and a first `O0` — so generated programs verify.
const TILE_PROLOGUE: &str = "DEF C0, 0.5, 0.25, 1, 2\n\
    TEX R0, T0, tex0\nMOV R1, T1\nMOV R2, R0\nMOV R3, T0\nTEX R4, T1, tex1\n\
    MUL R5, R0, T1\nMOV R6, -R4.wzyx\nADD R7, R1, C1\n\
    MOV O1, R5\nMOV O2, T0.y\nMOV O3, R2\nMOV OC, R3\n";

/// Raw generated form of one tile-property instruction, decoded by
/// [`decode_tile_instr`]: `(opcode, destination, mask, [source codes],
/// swizzles, flags)`.
type TileInstr = (usize, u8, u8, (u8, u8, u8), u32, u8);

fn tile_instr_strategy() -> impl Strategy<Value = TileInstr> {
    (
        0usize..OPS.len(),
        0u8..12,
        1u8..16,
        (0u8..15, 0u8..15, 0u8..15),
        0u32..(1 << 24),
        0u8..32,
    )
}

/// An instruction over registers [`TILE_PROLOGUE`] defines: sources from
/// `R0..R7`, `C0`, `C1`, `T0`, `T1` and `O1..O3` (a TEX on a temp or an
/// output is a dependent fetch), destinations `R0..R7` and `O0..O3`, any
/// non-empty write mask; `flags` bits 0..3 negate each source, bit 3 sets
/// `_SAT` and bit 4 picks the sampler.
fn decode_tile_instr(&(op, dst, mask, codes, swz, flags): &TileInstr) -> Instr {
    let op = OPS[op];
    let reg = |code: u8| match code {
        0..=7 => Reg::Temp(code),
        8 | 9 => Reg::Const(code - 8),
        10 | 11 => Reg::TexCoord(code - 10),
        _ => Reg::Output(code - 11),
    };
    let srcs = [codes.0, codes.1, codes.2][..op.arity()]
        .iter()
        .enumerate()
        .map(|(k, &code)| Src {
            reg: reg(code),
            swizzle: Swizzle(std::array::from_fn(|l| {
                ((swz >> (8 * k + 2 * l)) & 3) as u8
            })),
            negate: flags & (1 << k) != 0,
        })
        .collect();
    Instr {
        op,
        dst: Dst {
            reg: if dst < 8 {
                Reg::Temp(dst)
            } else {
                Reg::Output(dst - 8)
            },
            mask: std::array::from_fn(|l| mask & (1 << l) != 0),
            saturate: flags & 8 != 0,
        },
        srcs,
        sampler: (op == Opcode::Tex).then_some(flags >> 4),
        line: 0,
    }
}

/// Endings for the tile property's programs: each makes `O0` depend on a
/// different part of the body, through swizzles, negation, a partial mask
/// and `_SAT`.
const EPILOGUES: [&str; 5] = [
    "MOV OC, R0\n",
    "ADD OC, R1, R2.wzyx\n",
    "MAD_SAT OC, R3, R0.yzwx, -R1\n",
    "DP4 OC.xz, R2, R3\n",
    "TEX R5, R2, tex1\nLRP OC, R5.x, R1, -R3\n",
];

/// A small texture with pseudo-random contents (negative values and zeros
/// included) and a random size.
fn texture_strategy() -> impl Strategy<Value = Texture2D> {
    (1usize..10, 1usize..10, 0u32..1000).prop_map(|(w, h, seed)| {
        let data: Vec<f32> = (0..w * h * 4)
            .map(|i| ((i as u32 * 37 + seed) % 23) as f32 * 0.17 - 1.5)
            .collect();
        Texture2D::from_flat(w, h, &data)
    })
}

fn raw_instr_strategy() -> impl Strategy<Value = RawInstr> {
    (
        (0usize..OPS.len(), 0u8..24, 0u8..16),
        (0u16..256, 0u16..256, 0u16..256),
        0u32..(1 << 24),
        0u8..10,
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn verify_accepted_programs_execute_without_panicking(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
    ) {
        let program = build_program(body.iter().map(decode_instr).collect(), true);
        let profile = GpuProfile::fx5950_ultra();
        let bindings = pass();
        let diags = verify(&program, &profile, Some(&bindings));
        if has_errors(&diags) {
            return Ok(()); // rejected before execution, as run_pass would do
        }
        let t0 = Texture2D::from_flat(4, 4, &vec![0.25f32; 64]);
        let t1 = Texture2D::from_flat(4, 4, &vec![0.0f32; 64]);
        let constants = resolve_constants(&program, &[(1, [0.75, 0.5, 0.25, 1.0])]);
        let out = execute(
            &program,
            &FragmentInput::zero(),
            &constants,
            &[&t0, &t1],
            None,
        );
        prop_assert_eq!(out.instructions, program.len() as u64);
    }

    #[test]
    fn optimized_programs_are_bit_identical_and_verify_clean(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
        uv in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 4),
    ) {
        // The whole pass pipeline (constant folding, copy/swizzle
        // propagation, CSE, fusion, DCE, output coalescing) must be
        // exact-preserving on every verifier-accepted program: the
        // optimized program's read-back colors equal the unoptimized
        // interpreter's bit for bit, and the result still verifies with
        // no errors under the same pass context.
        let program = build_program(body.iter().map(decode_instr).collect(), true);
        let bindings = pass();
        let profile = GpuProfile::fx5950_ultra();
        if has_errors(&verify(&program, &profile, Some(&bindings))) {
            return Ok(());
        }
        let (optimized, report) = gpu_sim::optimize(&program, &bindings);
        prop_assert!(optimized.len() <= program.len());
        prop_assert_eq!(report.before, program.len());
        prop_assert_eq!(report.after, optimized.len());
        let diags = verify(&optimized, &profile, Some(&bindings));
        prop_assert!(
            !has_errors(&diags),
            "optimized program fails verify: {:?}\nraw:\n{}\noptimized:\n{}",
            diags, program.to_asm(), optimized.to_asm()
        );
        let t0_data: Vec<f32> = (0..64).map(|i| i as f32 * 0.125 - 2.0).collect();
        let t1_data: Vec<f32> = (0..64).map(|i| (i * 7 % 13) as f32 * 0.5).collect();
        let t0 = Texture2D::from_flat(4, 4, &t0_data);
        let t1 = Texture2D::from_flat(4, 4, &t1_data);
        let pass_consts = [(1, [0.75f32, -0.5, 0.25, 3.0])];
        let raw_consts = resolve_constants(&program, &pass_consts);
        let opt_consts = resolve_constants(&optimized, &pass_consts);
        for &(u, v) in &uv {
            let mut input = FragmentInput::zero();
            input.texcoords[0] = [u, v, 0.0, 1.0];
            input.texcoords[1] = [v, u, 0.0, 1.0];
            let a = execute(&program, &input, &raw_consts, &[&t0, &t1], None);
            let b = execute(&optimized, &input, &opt_consts, &[&t0, &t1], None);
            // Only the colors the pass reads back are contractual — dead
            // outputs are exactly what the optimizer deletes.
            for (o, read) in bindings.outputs_read.iter().enumerate() {
                if *read {
                    prop_assert!(
                        a.colors[o].map(f32::to_bits) == b.colors[o].map(f32::to_bits),
                        "O{} diverges at uv ({}, {})\nraw:\n{}\noptimized:\n{}",
                        o, u, v, program.to_asm(), optimized.to_asm()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_scalar(
        body in prop::collection::vec(tile_instr_strategy(), 0..14),
        epilogue in 0usize..EPILOGUES.len(),
        textures in prop::collection::vec(texture_strategy(), 2),
        sets in prop::collection::vec(
            (-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0), 0..4,
        ),
        origin in (0usize..40, 0usize..40, 0usize..9, 0usize..5),
        widths in prop::collection::vec(1usize..41, 1..5),
    ) {
        // The tile executor runs each program's straight-line
        // specialization; it must reproduce the scalar `fragment_input` +
        // `execute` row loop bit for bit on every verifier-accepted
        // program: O0 colors, instruction and fetch totals, AND the
        // texture-cache hit/miss counters. Programs mix every opcode,
        // swizzles, negation, partial masks and `_SAT`, dependent TEX on
        // computed coordinates, reads of O1..O3 and dead TEX; `sets` may
        // stop short of the bound T1 (reads past `sets.len()` see
        // [0, 0, 0, 1]); rows are ragged; the two textures have random
        // sizes; and a 1-set, 2-way cache makes any replay-order or
        // missing-touch mistake change the counters.
        let mut program = gpu_sim::asm::assemble(TILE_PROLOGUE).unwrap();
        program.instrs.extend(body.iter().map(decode_tile_instr));
        program.instrs.extend(gpu_sim::asm::assemble(EPILOGUES[epilogue]).unwrap().instrs);
        let bindings = pass();
        let diags = verify(&program, &GpuProfile::fx5950_ultra(), Some(&bindings));
        prop_assert!(!has_errors(&diags), "{:?}\n{}", diags, program.to_asm());
        let constants = resolve_constants(&program, &[(1, [0.75, -0.5, 0.25, 3.0])]);
        let lowered = lower(&program, &constants);
        let tex_refs: Vec<&Texture2D> = textures.iter().collect();
        let sets: Vec<TexCoordSet> = sets
            .iter()
            .map(|&(su, sv, ou, ov)| TexCoordSet { scale: [su, sv], offset: [ou, ov] })
            .collect();
        let (x0, y0, extra_w, extra_h) = origin;
        let (tw, th) = (x0 + 40 + extra_w, y0 + widths.len() + extra_h);

        let mut scalar_cache = TextureCache::new(1, 2);
        let (mut scalar_instr, mut scalar_fetches) = (0u64, 0u64);
        let mut scalar_rows: Vec<Vec<[f32; 4]>> = Vec::new();
        for (ri, &w) in widths.iter().enumerate() {
            let mut row = Vec::with_capacity(w);
            for ci in 0..w {
                let fi = fragment_input(&sets, x0 + ci, y0 + ri, tw, th);
                let r = execute(&program, &fi, &constants, &tex_refs, Some(&mut scalar_cache));
                scalar_instr += r.instructions;
                scalar_fetches += r.texel_fetches;
                row.push(r.colors[0]);
            }
            scalar_rows.push(row);
        }

        let mut tile_cache = TextureCache::new(1, 2);
        let mut tile_rows: Vec<Vec<[f32; 4]>> =
            widths.iter().map(|&w| vec![[f32::NAN; 4]; w]).collect();
        let mut segs: Vec<&mut [[f32; 4]]> =
            tile_rows.iter_mut().map(Vec::as_mut_slice).collect();
        let (instr, fetches) = execute_tile(
            &lowered, &sets, x0, y0, tw, th, &mut segs, &tex_refs, &mut tile_cache, None,
        );
        prop_assert_eq!(instr, scalar_instr);
        prop_assert_eq!(fetches, scalar_fetches);
        prop_assert!(
            (tile_cache.hits(), tile_cache.misses())
                == (scalar_cache.hits(), scalar_cache.misses()),
            "cache replay diverged:\n{}", program.to_asm()
        );
        for (a, b) in scalar_rows.iter().zip(&tile_rows) {
            for (ca, cb) in a.iter().zip(b) {
                // Bit equality, so NaN payloads and signed zeros count too.
                prop_assert!(
                    ca.map(f32::to_bits) == cb.map(f32::to_bits),
                    "O0 diverges: {:?} vs {:?}\n{}", ca, cb, program.to_asm()
                );
            }
        }
    }

    #[test]
    fn verify_never_panics_and_is_deterministic(
        body in prop::collection::vec(raw_instr_strategy(), 0..12),
    ) {
        // No prologue: wild programs, including structurally broken ones.
        let program = build_program(body.iter().map(decode_instr).collect(), false);
        for profile in GpuProfile::paper_gpus() {
            let a = verify(&program, &profile, Some(&pass()));
            let b = verify(&program, &profile, Some(&pass()));
            prop_assert_eq!(&a, &b);
            let lint = verify(&program, &profile, None);
            let relint = verify(&program, &profile, None);
            prop_assert_eq!(&lint, &relint);
        }
    }
}

#[test]
fn generated_accept_rate_is_nonzero() {
    // Make sure the main property is not vacuous: the fixed prologue alone
    // (an empty body) must be accepted under the pass context.
    let program = build_program(Vec::new(), true);
    let diags = verify(&program, &GpuProfile::fx5950_ultra(), Some(&pass()));
    assert!(!has_errors(&diags), "{diags:?}");
}
