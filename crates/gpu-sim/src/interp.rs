//! Fragment program interpreter.
//!
//! Executes one [`Program`] per fragment over a SIMD4 register file, exactly
//! as the fragment processors of the modelled GPUs would: no control flow,
//! one instruction per cycle, texture units resolved through the bound
//! samplers. Work counts (instructions, texel fetches, cache hits/misses)
//! are returned with the result so passes can be costed.

use crate::isa::{
    Opcode, Program, Reg, Swizzle, NUM_CONSTS, NUM_OUTPUTS, NUM_TEMPS, NUM_TEXCOORDS,
};
use crate::texcache::TextureCache;
use crate::texture::{AddressMode, Texture2D};

/// Per-fragment inputs.
#[derive(Debug, Clone)]
pub struct FragmentInput {
    /// Interpolated texture-coordinate sets (`T0..T7`); `[u, v, 0, 1]`.
    pub texcoords: [[f32; 4]; NUM_TEXCOORDS],
}

impl FragmentInput {
    /// All coordinate sets zero.
    pub fn zero() -> Self {
        Self {
            texcoords: [[0.0, 0.0, 0.0, 1.0]; NUM_TEXCOORDS],
        }
    }
}

/// Per-fragment outputs and work counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentOutput {
    /// Output colors `O0..O3` (`O0` = `OC`).
    pub colors: [[f32; 4]; NUM_OUTPUTS],
    /// Instructions executed.
    pub instructions: u64,
    /// Texel fetches issued.
    pub texel_fetches: u64,
}

/// Smallest positive f32, used to clamp `LG2` inputs (see module docs of
/// [`crate::isa`]).
const LG2_TINY: f32 = f32::MIN_POSITIVE;

/// The `LG2` opcode's base-2 logarithm, defined by this implementation
/// rather than by the platform's libm.
///
/// Shader hardware of the fp30 era computed `LG2` with its own polynomial
/// special-function unit, not a host libm — and libm `log2f` differs
/// between platforms anyway, so pinning the definition here makes shader
/// results reproducible across hosts. It is also branch-free on the main
/// path, so the batched executor's lane loops autovectorize where a libm
/// call would serialize.
///
/// Method: split `x = 2^e · m` with `m ∈ [1, 2)` by exponent extraction,
/// re-centre to `m ∈ [√2/2, √2)` so the reduced argument
/// `r = (m−1)/(m+1)` satisfies `|r| ≤ 0.1716`, and evaluate the atanh
/// series `log2(m) = 2·log2(e)·(r + r³/3 + r⁵/5 + …)` truncated at `r⁷`
/// (truncation error < 6e-8, ~1 ulp). Exact on powers of two (`r = 0`),
/// and `+inf` maps to `+inf`. Callers clamp to [`f32::MIN_POSITIVE`], so
/// zero/negative/NaN/subnormal inputs never reach this function.
///
/// Every consumer that must stay bit-identical to shaded `LG2` results —
/// the scalar and batched executors, the optimizer's constant folder (via
/// [`alu`]), and the SIMD4 CPU baseline in `amc_core` — goes through
/// this one definition.
#[inline(always)]
pub fn lg2(x: f32) -> f32 {
    let bits = x.to_bits();
    let e = ((bits >> 23) as i32 - 127) as f32;
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    // Re-centre around 1 so the series converges fast on both sides.
    let big = m >= std::f32::consts::SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = if big { e + 1.0 } else { e };
    let r = (m - 1.0) / (m + 1.0);
    let r2 = r * r;
    // 2·log2(e) · (r + r³/3 + r⁵/5 + r⁷/7), Horner over r².
    const C0: f32 = 2.885_39; // 2·log2(e), to f32 precision
    const C1: f32 = C0 / 3.0;
    const C2: f32 = C0 / 5.0;
    const C3: f32 = C0 / 7.0;
    let main = e + r * (C0 + r2 * (C1 + r2 * (C2 + r2 * C3)));
    // +inf stays +inf (NaN is clamped away by callers). A select, not a
    // branch, so lane loops over this function stay vectorizable.
    if bits >= 0x7f80_0000 {
        x
    } else {
        main
    }
}

#[inline(always)]
fn lanewise1(op: impl Fn(f32) -> f32, a: [f32; 4]) -> [f32; 4] {
    [op(a[0]), op(a[1]), op(a[2]), op(a[3])]
}

#[inline(always)]
fn lanewise2(op: impl Fn(f32, f32) -> f32, a: [f32; 4], b: [f32; 4]) -> [f32; 4] {
    [
        op(a[0], b[0]),
        op(a[1], b[1]),
        op(a[2], b[2]),
        op(a[3], b[3]),
    ]
}

/// The arithmetic core shared by [`execute`] and [`execute_lowered`]: both
/// executors funnel every non-`TEX` opcode through this one match so their
/// float operations are the same code and results stay bit-identical.
#[inline(always)]
pub(crate) fn alu(op: Opcode, s: impl Fn(usize) -> [f32; 4]) -> [f32; 4] {
    match op {
        Opcode::Mov => s(0),
        Opcode::Add => lanewise2(|a, b| a + b, s(0), s(1)),
        Opcode::Sub => lanewise2(|a, b| a - b, s(0), s(1)),
        Opcode::Mul => lanewise2(|a, b| a * b, s(0), s(1)),
        Opcode::Mad => {
            let (a, b, c) = (s(0), s(1), s(2));
            [
                a[0] * b[0] + c[0],
                a[1] * b[1] + c[1],
                a[2] * b[2] + c[2],
                a[3] * b[3] + c[3],
            ]
        }
        Opcode::Min => lanewise2(f32::min, s(0), s(1)),
        Opcode::Max => lanewise2(f32::max, s(0), s(1)),
        Opcode::Rcp => lanewise1(|a| 1.0 / a, s(0)),
        Opcode::Rsq => lanewise1(|a| 1.0 / a.sqrt(), s(0)),
        Opcode::Ex2 => lanewise1(f32::exp2, s(0)),
        Opcode::Lg2 => lanewise1(|a| lg2(a.max(LG2_TINY)), s(0)),
        Opcode::Frc => lanewise1(|a| a - a.floor(), s(0)),
        Opcode::Flr => lanewise1(f32::floor, s(0)),
        Opcode::Abs => lanewise1(f32::abs, s(0)),
        Opcode::Slt => lanewise2(|a, b| if a < b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Sge => lanewise2(|a, b| if a >= b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Cmp => {
            let (c, a, b) = (s(0), s(1), s(2));
            [
                if c[0] < 0.0 { a[0] } else { b[0] },
                if c[1] < 0.0 { a[1] } else { b[1] },
                if c[2] < 0.0 { a[2] } else { b[2] },
                if c[3] < 0.0 { a[3] } else { b[3] },
            ]
        }
        Opcode::Lrp => {
            let (t, a, b) = (s(0), s(1), s(2));
            [
                t[0] * a[0] + (1.0 - t[0]) * b[0],
                t[1] * a[1] + (1.0 - t[1]) * b[1],
                t[2] * a[2] + (1.0 - t[2]) * b[2],
                t[3] * a[3] + (1.0 - t[3]) * b[3],
            ]
        }
        Opcode::Dp3 => {
            let (a, b) = (s(0), s(1));
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
            [d; 4]
        }
        Opcode::Dp4 => {
            let (a, b) = (s(0), s(1));
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3];
            [d; 4]
        }
        Opcode::Tex => unreachable!("TEX handled by the executors"),
    }
}

/// The texture path shared by both executors: counts the fetch, tags the
/// cache with the texel the sampler actually touches, and samples.
#[inline(always)]
fn tex_fetch(
    tex: &Texture2D,
    sampler: usize,
    coord: [f32; 4],
    cache: &mut Option<&mut TextureCache>,
    texel_fetches: &mut u64,
) -> [f32; 4] {
    *texel_fetches += 1;
    if let Some(cache) = cache.as_deref_mut() {
        // Tag the cache with the texel the sampler actually touches under
        // its address mode; a border fetch that resolves to no texel
        // generates no cache traffic.
        let x = (coord[0] * tex.width() as f32).floor() as i64;
        let y = (coord[1] * tex.height() as f32).floor() as i64;
        if let Some((cx, cy)) = tex.resolve_coords(x, y) {
            cache.access(sampler as u32, cx, cy);
        }
    }
    tex.sample(coord[0], coord[1])
}

/// Masked, optionally saturating write-back shared by both executors.
#[inline(always)]
fn write_back(target: &mut [f32; 4], value: [f32; 4], mask_bits: u8, saturate: bool) {
    let value = if saturate {
        lanewise1(|a| a.clamp(0.0, 1.0), value)
    } else {
        value
    };
    for lane in 0..4 {
        if mask_bits & (1 << lane) != 0 {
            target[lane] = value[lane];
        }
    }
}

/// Execute `program` for one fragment.
///
/// `constants` are the pass-level constant registers (with `DEF`s already
/// applied — see [`resolve_constants`]); `textures` are the bound samplers.
/// `cache` optionally models the per-pipe texture cache.
pub fn execute(
    program: &Program,
    input: &FragmentInput,
    constants: &[[f32; 4]; NUM_CONSTS],
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> FragmentOutput {
    let mut temps = [[0.0f32; 4]; NUM_TEMPS];
    let mut outputs = [[0.0f32; 4]; NUM_OUTPUTS];
    let mut instructions = 0u64;
    let mut texel_fetches = 0u64;

    for instr in &program.instrs {
        instructions += 1;
        let s = |i: usize| -> [f32; 4] {
            let src = &instr.srcs[i];
            let raw = match src.reg {
                Reg::Temp(r) => temps[r as usize],
                Reg::Const(c) => constants[c as usize],
                Reg::TexCoord(t) => input.texcoords[t as usize],
                Reg::Output(o) => outputs[o as usize],
            };
            let mut v = src.swizzle.apply(raw);
            if src.negate {
                v = [-v[0], -v[1], -v[2], -v[3]];
            }
            v
        };

        let value: [f32; 4] = if instr.op == Opcode::Tex {
            let sampler = instr.sampler.expect("TEX carries a sampler") as usize;
            tex_fetch(
                textures[sampler],
                sampler,
                s(0),
                &mut cache,
                &mut texel_fetches,
            )
        } else {
            alu(instr.op, s)
        };

        let target: &mut [f32; 4] = match instr.dst.reg {
            Reg::Temp(r) => &mut temps[r as usize],
            Reg::Output(o) => &mut outputs[o as usize],
            _ => unreachable!("assembler rejects non-writable destinations"),
        };
        write_back(target, value, instr.dst.mask_bits(), instr.dst.saturate);
    }

    FragmentOutput {
        colors: outputs,
        instructions,
        texel_fetches,
    }
}

/// A source operand pre-resolved at lower time: constants are folded to
/// immediates (swizzle and negation already applied), everything else keeps
/// its register index plus decoded swizzle/negate.
#[derive(Debug, Clone, Copy)]
enum LoweredSrc {
    /// Folded constant operand.
    Imm([f32; 4]),
    /// Temporary register read.
    Temp(u8, Swizzle, bool),
    /// Interpolated texture coordinate read.
    Coord(u8, Swizzle, bool),
    /// Output register read.
    Out(u8, Swizzle, bool),
}

#[inline(always)]
pub(crate) fn swizzle_negate(sw: Swizzle, negate: bool, raw: [f32; 4]) -> [f32; 4] {
    let v = sw.apply(raw);
    if negate {
        [-v[0], -v[1], -v[2], -v[3]]
    } else {
        v
    }
}

impl LoweredSrc {
    #[inline(always)]
    fn read(
        &self,
        temps: &[[f32; 4]; NUM_TEMPS],
        outputs: &[[f32; 4]; NUM_OUTPUTS],
        texcoords: &[[f32; 4]; NUM_TEXCOORDS],
    ) -> [f32; 4] {
        match *self {
            LoweredSrc::Imm(v) => v,
            LoweredSrc::Temp(r, sw, neg) => swizzle_negate(sw, neg, temps[r as usize]),
            LoweredSrc::Coord(t, sw, neg) => swizzle_negate(sw, neg, texcoords[t as usize]),
            LoweredSrc::Out(o, sw, neg) => swizzle_negate(sw, neg, outputs[o as usize]),
        }
    }
}

/// Pre-decoded destination: which register file, which index.
#[derive(Debug, Clone, Copy)]
enum LoweredDst {
    /// Temporary register.
    Temp(u8),
    /// Output register.
    Out(u8),
}

/// One pre-decoded instruction of a [`LoweredProgram`].
#[derive(Debug, Clone, Copy)]
struct LoweredInstr {
    op: Opcode,
    /// `op.arity()` live operands; the rest are zero immediates.
    srcs: [LoweredSrc; 3],
    dst: LoweredDst,
    mask_bits: u8,
    saturate: bool,
    sampler: u8,
}

/// A fragment program lowered for repeated execution: operand registers,
/// swizzles, and write masks are decoded once, and constant operands are
/// folded to immediates against a resolved constant block. Produced by
/// [`lower`], executed by [`execute_lowered`], and cached per
/// (program, constants) on `Gpu`.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    instrs: Vec<LoweredInstr>,
    tex_count: u64,
}

impl LoweredProgram {
    /// Instructions executed per fragment.
    pub fn instruction_count(&self) -> u64 {
        self.instrs.len() as u64
    }

    /// Texel fetches issued per fragment.
    pub fn tex_count(&self) -> u64 {
        self.tex_count
    }
}

/// Lower `program` against a resolved constant block (see
/// [`resolve_constants`]). Constant folding applies the same
/// swizzle-then-negate float ops the interpreter would, so lowered
/// execution is bit-identical to [`execute`].
pub fn lower(program: &Program, constants: &[[f32; 4]; NUM_CONSTS]) -> LoweredProgram {
    let mut instrs = Vec::with_capacity(program.instrs.len());
    let mut tex_count = 0u64;
    for instr in &program.instrs {
        let mut srcs = [LoweredSrc::Imm([0.0; 4]); 3];
        for (slot, src) in srcs.iter_mut().zip(&instr.srcs) {
            *slot = match src.reg {
                Reg::Const(c) => {
                    // Constant folding is owned by the optimizer's lattice
                    // helper so there is exactly one definition of
                    // "swizzle, then negate, a resolved constant".
                    LoweredSrc::Imm(crate::opt::fold_const_src(src, constants[c as usize]))
                }
                Reg::Temp(r) => LoweredSrc::Temp(r, src.swizzle, src.negate),
                Reg::TexCoord(t) => LoweredSrc::Coord(t, src.swizzle, src.negate),
                Reg::Output(o) => LoweredSrc::Out(o, src.swizzle, src.negate),
            };
        }
        if instr.op == Opcode::Tex {
            tex_count += 1;
        }
        instrs.push(LoweredInstr {
            op: instr.op,
            srcs,
            dst: match instr.dst.reg {
                Reg::Temp(r) => LoweredDst::Temp(r),
                Reg::Output(o) => LoweredDst::Out(o),
                _ => unreachable!("assembler rejects non-writable destinations"),
            },
            mask_bits: instr.dst.mask_bits(),
            saturate: instr.dst.saturate,
            sampler: instr.sampler.unwrap_or(0),
        });
    }
    LoweredProgram { instrs, tex_count }
}

/// Execute a [`LoweredProgram`] for one fragment. Constants were folded at
/// lower time, so only textures and the optional cache model are needed.
/// Results (colors and work counts) are bit-identical to [`execute`] on the
/// same program, constants, and fragment input.
pub fn execute_lowered(
    program: &LoweredProgram,
    input: &FragmentInput,
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> FragmentOutput {
    let mut temps = [[0.0f32; 4]; NUM_TEMPS];
    let mut outputs = [[0.0f32; 4]; NUM_OUTPUTS];
    let mut texel_fetches = 0u64;

    for instr in &program.instrs {
        let s = |i: usize| instr.srcs[i].read(&temps, &outputs, &input.texcoords);
        let value: [f32; 4] = if instr.op == Opcode::Tex {
            let sampler = instr.sampler as usize;
            tex_fetch(
                textures[sampler],
                sampler,
                s(0),
                &mut cache,
                &mut texel_fetches,
            )
        } else {
            alu(instr.op, s)
        };
        let target: &mut [f32; 4] = match instr.dst {
            LoweredDst::Temp(r) => &mut temps[r as usize],
            LoweredDst::Out(o) => &mut outputs[o as usize],
        };
        write_back(target, value, instr.mask_bits, instr.saturate);
    }

    FragmentOutput {
        colors: outputs,
        instructions: program.instrs.len() as u64,
        texel_fetches,
    }
}

/// Fragments per SoA chunk of [`execute_lowered_batch`]: eight f32 lanes
/// are one AVX register (and two SSE registers), so the component-major
/// inner loops below autovectorize on the host SIMD units.
pub const BATCH_LANES: usize = 8;

/// One structure-of-arrays register component: a value per batch lane.
type LaneVec = [f32; BATCH_LANES];

#[inline(always)]
fn blanewise1(op: impl Fn(f32) -> f32 + Copy, a: [LaneVec; 4]) -> [LaneVec; 4] {
    a.map(|comp| comp.map(op))
}

#[inline(always)]
fn blanewise2(
    op: impl Fn(f32, f32) -> f32 + Copy,
    a: [LaneVec; 4],
    b: [LaneVec; 4],
) -> [LaneVec; 4] {
    std::array::from_fn(|c| std::array::from_fn(|l| op(a[c][l], b[c][l])))
}

/// The batched arithmetic core: the same match as [`alu`], over
/// structure-of-arrays operands. Every lane evaluates the exact scalar
/// expression [`alu`] evaluates (same operators, same association order, no
/// FMA contraction — Rust never contracts `a * b + c`), so each lane's
/// result is bit-identical to a scalar execution of the same fragment.
#[inline(always)]
fn alu_batch(op: Opcode, s: impl Fn(usize) -> [LaneVec; 4]) -> [LaneVec; 4] {
    use std::array::from_fn;
    match op {
        Opcode::Mov => s(0),
        Opcode::Add => blanewise2(|a, b| a + b, s(0), s(1)),
        Opcode::Sub => blanewise2(|a, b| a - b, s(0), s(1)),
        Opcode::Mul => blanewise2(|a, b| a * b, s(0), s(1)),
        Opcode::Mad => {
            let (a, b, c) = (s(0), s(1), s(2));
            from_fn(|k| from_fn(|l| a[k][l] * b[k][l] + c[k][l]))
        }
        Opcode::Min => blanewise2(f32::min, s(0), s(1)),
        Opcode::Max => blanewise2(f32::max, s(0), s(1)),
        Opcode::Rcp => blanewise1(|a| 1.0 / a, s(0)),
        Opcode::Rsq => blanewise1(|a| 1.0 / a.sqrt(), s(0)),
        Opcode::Ex2 => blanewise1(f32::exp2, s(0)),
        Opcode::Lg2 => blanewise1(|a| lg2(a.max(LG2_TINY)), s(0)),
        Opcode::Frc => blanewise1(|a| a - a.floor(), s(0)),
        Opcode::Flr => blanewise1(f32::floor, s(0)),
        Opcode::Abs => blanewise1(f32::abs, s(0)),
        Opcode::Slt => blanewise2(|a, b| if a < b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Sge => blanewise2(|a, b| if a >= b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Cmp => {
            let (c, a, b) = (s(0), s(1), s(2));
            from_fn(|k| from_fn(|l| if c[k][l] < 0.0 { a[k][l] } else { b[k][l] }))
        }
        Opcode::Lrp => {
            let (t, a, b) = (s(0), s(1), s(2));
            from_fn(|k| from_fn(|l| t[k][l] * a[k][l] + (1.0 - t[k][l]) * b[k][l]))
        }
        Opcode::Dp3 => {
            let (a, b) = (s(0), s(1));
            let d: LaneVec = from_fn(|l| a[0][l] * b[0][l] + a[1][l] * b[1][l] + a[2][l] * b[2][l]);
            [d; 4]
        }
        Opcode::Dp4 => {
            let (a, b) = (s(0), s(1));
            let d: LaneVec = from_fn(|l| {
                a[0][l] * b[0][l] + a[1][l] * b[1][l] + a[2][l] * b[2][l] + a[3][l] * b[3][l]
            });
            [d; 4]
        }
        Opcode::Tex => unreachable!("TEX handled by the batch executor"),
    }
}

/// Swizzle-then-negate over SoA operands: the swizzle is a pure component
/// permutation (lane arrays move wholesale), negation is the same unary
/// `-x` [`swizzle_negate`] applies per scalar lane.
#[inline(always)]
fn swizzle_negate_batch(sw: Swizzle, negate: bool, raw: &[LaneVec; 4]) -> [LaneVec; 4] {
    let v = [
        raw[sw.0[0] as usize],
        raw[sw.0[1] as usize],
        raw[sw.0[2] as usize],
        raw[sw.0[3] as usize],
    ];
    if negate {
        v.map(|comp| comp.map(|x| -x))
    } else {
        v
    }
}

impl LoweredSrc {
    #[inline(always)]
    fn read_batch(
        &self,
        temps: &[[LaneVec; 4]; NUM_TEMPS],
        outputs: &[[LaneVec; 4]; NUM_OUTPUTS],
        texcoords: &[[LaneVec; 4]; NUM_TEXCOORDS],
    ) -> [LaneVec; 4] {
        match *self {
            LoweredSrc::Imm(v) => v.map(|c| [c; BATCH_LANES]),
            LoweredSrc::Temp(r, sw, neg) => swizzle_negate_batch(sw, neg, &temps[r as usize]),
            LoweredSrc::Coord(t, sw, neg) => swizzle_negate_batch(sw, neg, &texcoords[t as usize]),
            LoweredSrc::Out(o, sw, neg) => swizzle_negate_batch(sw, neg, &outputs[o as usize]),
        }
    }
}

/// Masked, optionally saturating SoA write-back: the same clamp and the
/// same per-component write-enable as [`write_back`], applied to whole
/// lane arrays.
#[inline(always)]
fn write_back_batch(target: &mut [LaneVec; 4], value: [LaneVec; 4], mask_bits: u8, saturate: bool) {
    let value = if saturate {
        blanewise1(|a| a.clamp(0.0, 1.0), value)
    } else {
        value
    };
    if mask_bits == 0b1111 {
        *target = value;
        return;
    }
    for (lane, v) in value.into_iter().enumerate() {
        if mask_bits & (1 << lane) != 0 {
            target[lane] = v;
        }
    }
}

/// Execute a [`LoweredProgram`] for a whole batch of fragments at once.
///
/// Fragments are processed in [`BATCH_LANES`]-wide structure-of-arrays
/// chunks: per register component one `[f32; BATCH_LANES]` lane array, so
/// the per-instruction decode-dispatch cost is paid once per chunk instead
/// of once per fragment and the inner lane loops autovectorize. `inputs`
/// must be in the caller's scalar iteration order (the tile's row-major
/// fragment order); `colors[i]` receives fragment `i`'s output registers.
///
/// Bit-exactness contract: colors, the returned `(instructions,
/// texel_fetches)` totals, and the cache's hit/miss counters are identical
/// to running [`execute_lowered`] per fragment in `inputs` order against
/// the same `cache`. Lane arithmetic reuses the scalar expressions (see
/// [`alu_batch`]), and TEX touches are recorded per (instruction, lane)
/// during the chunk sweep and replayed into the cache fragment-major — the
/// exact access sequence the scalar executor would issue.
pub fn execute_lowered_batch(
    program: &LoweredProgram,
    inputs: &[FragmentInput],
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
    colors: &mut [[[f32; 4]; NUM_OUTPUTS]],
) -> (u64, u64) {
    assert_eq!(inputs.len(), colors.len(), "one color slot per fragment");
    let tex_slots = program.tex_count as usize;
    // One resolved touch per (lane, TEX instruction) — lane-major, so the
    // fragment-major replay scans contiguously — packed as
    // `(sampler << 48) | (y << 24) | x`; [`NO_TOUCH`] marks border fetches
    // (no cache traffic) and inactive lanes.
    let mut touches: Vec<u64> = vec![NO_TOUCH; tex_slots * BATCH_LANES];
    let mut texel_fetches = 0u64;
    // Registers a program never names keep their bits from chunk to chunk;
    // zeroing is only observable (and only required for scalar parity) on
    // the registers it can actually read.
    let mut temps_used = 0usize; // zero temps[..temps_used] per chunk
    let mut coord_sets = 0u16; // bitmask of texcoord sets read
    for instr in &program.instrs {
        if let LoweredDst::Temp(r) = instr.dst {
            temps_used = temps_used.max(r as usize + 1);
        }
        for src in &instr.srcs {
            match *src {
                LoweredSrc::Temp(r, ..) => temps_used = temps_used.max(r as usize + 1),
                LoweredSrc::Coord(t, ..) => coord_sets |= 1 << t,
                _ => {}
            }
        }
    }
    let mut temps = [[[0.0f32; BATCH_LANES]; 4]; NUM_TEMPS];
    let mut outputs = [[[0.0f32; BATCH_LANES]; 4]; NUM_OUTPUTS];
    let mut texcoords = [[[0.0f32; BATCH_LANES]; 4]; NUM_TEXCOORDS];
    for (inp, cols) in inputs
        .chunks(BATCH_LANES)
        .zip(colors.chunks_mut(BATCH_LANES))
    {
        let active = inp.len();
        temps[..temps_used].fill([[0.0; BATCH_LANES]; 4]);
        outputs.fill([[0.0; BATCH_LANES]; 4]);
        // Only the sets the program reads are transposed in; lanes past
        // `active` keep stale bits that no observable path ever reads
        // (the TEX loop and the color scatter stop at `active`).
        for (t, soa) in texcoords.iter_mut().enumerate() {
            if coord_sets & (1 << t) != 0 {
                for (l, fi) in inp.iter().enumerate() {
                    for (comp, &x) in soa.iter_mut().zip(&fi.texcoords[t]) {
                        comp[l] = x;
                    }
                }
            }
        }
        if tex_slots > 0 {
            touches.fill(NO_TOUCH);
        }
        shade_chunk(
            program,
            textures,
            &mut temps,
            &mut outputs,
            &texcoords,
            &mut touches,
            active,
            cache.is_some(),
        );
        texel_fetches += (tex_slots * active) as u64;
        if let Some(cache) = cache.as_deref_mut() {
            replay_touches(cache, &touches, tex_slots, active);
        }
        for (l, slot) in cols.iter_mut().enumerate() {
            for (o, out) in slot.iter_mut().zip(&outputs) {
                for (c, comp) in o.iter_mut().zip(out) {
                    *c = comp[l];
                }
            }
        }
    }
    (
        program.instrs.len() as u64 * inputs.len() as u64,
        texel_fetches,
    )
}

/// Run every instruction of `program` once over one SoA chunk whose
/// register state the caller prepared (temps/outputs zeroed, texcoords
/// filled for the sets the program reads, `touches` reset to [`NO_TOUCH`]).
/// When `record` is set, resolved TEX coordinates are packed into
/// `touches` lane-major for a later fragment-major cache replay.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn shade_chunk(
    program: &LoweredProgram,
    textures: &[&Texture2D],
    temps: &mut [[LaneVec; 4]; NUM_TEMPS],
    outputs: &mut [[LaneVec; 4]; NUM_OUTPUTS],
    texcoords: &[[LaneVec; 4]; NUM_TEXCOORDS],
    touches: &mut [u64],
    active: usize,
    record: bool,
) {
    let tex_slots = program.tex_count as usize;
    let mut tex_slot = 0usize;
    for instr in &program.instrs {
        let s = |i: usize| instr.srcs[i].read_batch(temps, outputs, texcoords);
        let value: [LaneVec; 4] = if instr.op == Opcode::Tex {
            let sampler = instr.sampler as usize;
            let tex = textures[sampler];
            let coord = s(0);
            let mut fetched = [[0.0f32; BATCH_LANES]; 4];
            let (wf, hf) = (tex.width() as f32, tex.height() as f32);
            if let AddressMode::ClampToEdge = tex.address_mode() {
                // The GPGPU-default mode, hoisted out of the lane loop;
                // the clamp mirrors `Texture2D`'s own resolution (every
                // coordinate resolves, never a border). i32 truncation
                // is exact here: both i32 and i64 saturation points lie
                // far outside `[0, edge]`, so the clamped texel is the
                // same one the scalar path's i64 floor resolves to.
                let xs: [i32; BATCH_LANES] =
                    std::array::from_fn(|l| floor_to_i32(coord[0][l] * wf));
                let ys: [i32; BATCH_LANES] =
                    std::array::from_fn(|l| floor_to_i32(coord[1][l] * hf));
                let (xmax, ymax) = (tex.width() as i32 - 1, tex.height() as i32 - 1);
                for l in 0..active {
                    let cx = xs[l].clamp(0, xmax) as usize;
                    let cy = ys[l].clamp(0, ymax) as usize;
                    if record {
                        touches[l * tex_slots + tex_slot] = pack_touch(sampler as u32, cx, cy);
                    }
                    let t = tex.texel(cx, cy);
                    for (comp, &x) in fetched.iter_mut().zip(&t) {
                        comp[l] = x;
                    }
                }
            } else {
                // Wrap/mirror/border arithmetic is sensitive to the
                // saturation bound, so these modes keep the scalar
                // path's full i64 coordinates.
                for l in 0..active {
                    let x = floor_to_i64(coord[0][l] * wf);
                    let y = floor_to_i64(coord[1][l] * hf);
                    let t = match tex.resolve_coords(x, y) {
                        Some((cx, cy)) => {
                            if record {
                                touches[l * tex_slots + tex_slot] =
                                    pack_touch(sampler as u32, cx, cy);
                            }
                            tex.texel(cx, cy)
                        }
                        None => tex.border_texel(),
                    };
                    for (comp, &x) in fetched.iter_mut().zip(&t) {
                        comp[l] = x;
                    }
                }
            }
            tex_slot += 1;
            fetched
        } else {
            alu_batch(instr.op, s)
        };
        let target = match instr.dst {
            LoweredDst::Temp(r) => &mut temps[r as usize],
            LoweredDst::Out(o) => &mut outputs[o as usize],
        };
        write_back_batch(target, value, instr.mask_bits, instr.saturate);
    }
}

/// Replay a chunk's recorded touches fragment-major (per fragment, TEX
/// instructions in program order): exactly the sequence the scalar
/// executor feeds the cache, so hit/miss counts match bit for bit at
/// every cache geometry.
#[inline(always)]
fn replay_touches(cache: &mut TextureCache, touches: &[u64], tex_slots: usize, active: usize) {
    for l in 0..active {
        cache.access_all(
            touches[l * tex_slots..(l + 1) * tex_slots]
                .iter()
                .copied()
                .filter(|&t| t != NO_TOUCH)
                .map(unpack_touch),
        );
    }
}

/// Shade one raster tile with [`BATCH_LANES`]-wide SoA chunks, writing
/// output `O0` straight into the tile's row segments.
///
/// This is the zero-copy fast path of [`execute_lowered_batch`]: instead
/// of materialising a [`FragmentInput`] per fragment and transposing it
/// into lane arrays, the affine coordinate-set interpolants are evaluated
/// directly into the SoA registers — the `v` component and the constant
/// `[.., .., 0, 1]` tail once per row/tile, the `u` ramp once per chunk —
/// and `outputs[0]` scatters straight to `rows`. Each row is chunked
/// independently, so `rows` may have ragged lengths.
///
/// Bit-exactness contract: `rows`, the returned `(instructions,
/// texel_fetches)` totals, and the cache's hit/miss counters are identical
/// to the scalar loop
/// `for (ri, seg) { for ci { execute_lowered(prog, fragment_input(sets,
/// x0+ci, y0+ri, target_w, target_h), .. ) } }`: the interpolants are
/// computed with expression-identical arithmetic (`(x + 0.5) / w` then
/// `u * scale + offset`, never fused), lanes reuse the scalar ALU
/// expressions, and TEX touches replay fragment-major in row-major
/// fragment order.
#[allow(clippy::too_many_arguments)]
pub fn execute_lowered_batch_tile(
    program: &LoweredProgram,
    sets: &[crate::raster::TexCoordSet],
    x0: usize,
    y0: usize,
    target_w: usize,
    target_h: usize,
    rows: &mut [&mut [[f32; 4]]],
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> (u64, u64) {
    let tex_slots = program.tex_count as usize;
    let mut touches: Vec<u64> = vec![NO_TOUCH; tex_slots * BATCH_LANES];
    let mut texel_fetches = 0u64;
    let mut fragments = 0u64;
    let mut temps_used = 0usize;
    let mut coord_sets = 0u16;
    for instr in &program.instrs {
        if let LoweredDst::Temp(r) = instr.dst {
            temps_used = temps_used.max(r as usize + 1);
        }
        for src in &instr.srcs {
            match *src {
                LoweredSrc::Temp(r, ..) => temps_used = temps_used.max(r as usize + 1),
                LoweredSrc::Coord(t, ..) => coord_sets |= 1 << t,
                _ => {}
            }
        }
    }
    let mut temps = [[[0.0f32; BATCH_LANES]; 4]; NUM_TEMPS];
    let mut outputs = [[[0.0f32; BATCH_LANES]; 4]; NUM_OUTPUTS];
    let mut texcoords = [[[0.0f32; BATCH_LANES]; 4]; NUM_TEXCOORDS];
    let (twf, thf) = (target_w as f32, target_h as f32);
    // Coordinate sets interpolate `[u, v, 0, 1]`: components 2 and 3 are
    // constant across the tile, and sets past `sets.len()` stay at the
    // `FragmentInput::zero()` default `[0, 0, 0, 1]` everywhere.
    for (t, soa) in texcoords.iter_mut().enumerate() {
        if coord_sets & (1 << t) != 0 {
            *soa = [
                [0.0; BATCH_LANES],
                [0.0; BATCH_LANES],
                [0.0; BATCH_LANES],
                [1.0; BATCH_LANES],
            ];
        }
    }
    for (ri, seg) in rows.iter_mut().enumerate() {
        let y = y0 + ri;
        let v = (y as f32 + 0.5) / thf;
        // The `v` component of every bound set is constant along the row.
        for (t, set) in sets.iter().enumerate() {
            if coord_sets & (1 << t) != 0 {
                texcoords[t][1] = [v * set.scale[1] + set.offset[1]; BATCH_LANES];
            }
        }
        let width = seg.len();
        let mut ci = 0usize;
        while ci < width {
            let active = (width - ci).min(BATCH_LANES);
            // The `u` ramp for this chunk (lanes past `active` compute
            // coordinates no observable path reads).
            let us: LaneVec = std::array::from_fn(|l| ((x0 + ci + l) as f32 + 0.5) / twf);
            for (t, set) in sets.iter().enumerate() {
                if coord_sets & (1 << t) != 0 {
                    let (s0, o0) = (set.scale[0], set.offset[0]);
                    texcoords[t][0] = us.map(|u| u * s0 + o0);
                }
            }
            temps[..temps_used].fill([[0.0; BATCH_LANES]; 4]);
            outputs.fill([[0.0; BATCH_LANES]; 4]);
            if tex_slots > 0 {
                touches.fill(NO_TOUCH);
            }
            shade_chunk(
                program,
                textures,
                &mut temps,
                &mut outputs,
                &texcoords,
                &mut touches,
                active,
                cache.is_some(),
            );
            texel_fetches += (tex_slots * active) as u64;
            if let Some(cache) = cache.as_deref_mut() {
                replay_touches(cache, &touches, tex_slots, active);
            }
            let o0 = &outputs[0];
            for l in 0..active {
                seg[ci + l] = [o0[0][l], o0[1][l], o0[2][l], o0[3][l]];
            }
            fragments += active as u64;
            ci += active;
        }
    }
    (program.instrs.len() as u64 * fragments, texel_fetches)
}

/// `v.floor() as i64` without the libm `floorf` call: truncate toward
/// zero, then step down when truncation rounded up (negative non-integer
/// inputs). Result-identical to the scalar path's `v.floor() as i64` for
/// every f32: NaN → 0 either way, and out-of-range values saturate at the
/// same bounds (the correction term never fires at a saturated truncation
/// except below `i64::MIN`, where `saturating_sub` pins it).
#[inline(always)]
fn floor_to_i64(v: f32) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(t as f32 > v))
}

/// [`floor_to_i64`] truncated to i32 (vectorizable `cvttps2dq` path). Only
/// valid where the caller clamps the result to a range both widths
/// saturate outside of, e.g. `ClampToEdge`'s `[0, size-1]`.
#[inline(always)]
fn floor_to_i32(v: f32) -> i32 {
    let t = v as i32;
    t.saturating_sub(i32::from(t as f32 > v))
}

/// Sentinel for a (TEX, lane) slot that generated no cache traffic.
const NO_TOUCH: u64 = u64::MAX;

/// Pack a resolved cache touch into one word (24 bits per coordinate —
/// far beyond any allocatable texture edge — and the sampler on top).
#[inline(always)]
fn pack_touch(sampler: u32, x: usize, y: usize) -> u64 {
    debug_assert!(x < (1 << 24) && y < (1 << 24) && sampler < (1 << 16));
    ((sampler as u64) << 48) | ((y as u64) << 24) | x as u64
}

#[inline(always)]
fn unpack_touch(t: u64) -> (u32, usize, usize) {
    (
        (t >> 48) as u32,
        (t & 0xff_ffff) as usize,
        ((t >> 24) & 0xff_ffff) as usize,
    )
}

/// Merge a program's `DEF` constants into a pass-level constant block.
pub fn resolve_constants(
    program: &Program,
    pass_constants: &[(u8, [f32; 4])],
) -> [[f32; 4]; NUM_CONSTS] {
    let mut c = [[0.0f32; 4]; NUM_CONSTS];
    for d in &program.defs {
        c[d.index as usize] = d.value;
    }
    for &(idx, v) in pass_constants {
        c[idx as usize] = v;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn lg2_is_exact_on_powers_of_two_and_close_to_libm_elsewhere() {
        for k in -126..=127 {
            let x = (k as f32).exp2();
            assert_eq!(lg2(x), k as f32, "lg2(2^{k})");
        }
        assert_eq!(lg2(1.0), 0.0);
        assert_eq!(lg2(f32::INFINITY), f32::INFINITY);
        // Dense sweep against the platform libm: the vendored polynomial
        // must agree to a few ulp everywhere the LG2 clamp can produce.
        let mut worst = 0.0f64;
        let mut x = f32::MIN_POSITIVE;
        while x.is_finite() {
            let (got, want) = (lg2(x) as f64, (x as f64).log2());
            let err = (got - want).abs();
            // Absolute log2 values span ±126; 1e-5 absolute ≈ 2 f32 ulp
            // at |log2| ≈ 64 and far below SID's ε-tolerances near 1.
            worst = worst.max(err / want.abs().max(1.0));
            x *= 1.618_034; // irrational step: hits varied mantissas
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    fn run(src: &str, textures: &[&Texture2D]) -> FragmentOutput {
        let p = assemble(src).unwrap();
        let constants = resolve_constants(&p, &[]);
        execute(&p, &FragmentInput::zero(), &constants, textures, None)
    }

    fn run_with_input(src: &str, input: &FragmentInput, textures: &[&Texture2D]) -> FragmentOutput {
        let p = assemble(src).unwrap();
        let constants = resolve_constants(&p, &[]);
        execute(&p, input, &constants, textures, None)
    }

    #[test]
    fn arithmetic_opcodes() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nDEF C1, 10, 20, 30, 40\n\
             ADD R0, C0, C1\nSUB R1, C1, C0\nMUL R2, C0, C0\nMAD R3, C0, C1, C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3",
            &[],
        );
        assert_eq!(out.colors[0], [11.0, 22.0, 33.0, 44.0]);
        assert_eq!(out.colors[1], [9.0, 18.0, 27.0, 36.0]);
        assert_eq!(out.colors[2], [1.0, 4.0, 9.0, 16.0]);
        assert_eq!(out.colors[3], [11.0, 42.0, 93.0, 164.0]);
        assert_eq!(out.instructions, 8);
        assert_eq!(out.texel_fetches, 0);
    }

    #[test]
    fn transcendental_opcodes() {
        let out = run(
            "DEF C0, 2, 4, 8, 1\nRCP R0, C0\nRSQ R1, C0\nLG2 R2, C0\nEX2 R3, C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3",
            &[],
        );
        assert_eq!(out.colors[0], [0.5, 0.25, 0.125, 1.0]);
        assert!((out.colors[1][0] - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(out.colors[2], [1.0, 2.0, 3.0, 0.0]);
        assert_eq!(out.colors[3], [4.0, 16.0, 256.0, 2.0]);
    }

    #[test]
    fn lg2_clamps_non_positive() {
        let out = run("DEF C0, 0, -1, 1, 2\nLG2 R0, C0\nMOV OC, R0", &[]);
        assert!(out.colors[0][0].is_finite());
        assert!(out.colors[0][1].is_finite());
        assert_eq!(out.colors[0][2], 0.0);
        assert_eq!(out.colors[0][3], 1.0);
    }

    #[test]
    fn comparison_and_select_opcodes() {
        let out = run(
            "DEF C0, 1, 5, 3, 3\nDEF C1, 2, 2, 3, 4\n\
             SLT R0, C0, C1\nSGE R1, C0, C1\n\
             DEF C2, -1, 1, -0.5, 0\nCMP R2, C2, C0, C1\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2",
            &[],
        );
        assert_eq!(out.colors[0], [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(out.colors[1], [0.0, 1.0, 1.0, 0.0]);
        assert_eq!(out.colors[2], [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn misc_opcodes() {
        let out = run(
            "DEF C0, 1.75, -1.25, 2, -2\n\
             FRC R0, C0\nFLR R1, C0\nABS R2, C0\n\
             MIN R3, C0, -C0\nMAX R4, C0, -C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3\nMOV R5, R4",
            &[],
        );
        assert_eq!(out.colors[0], [0.75, 0.75, 0.0, 0.0]);
        assert_eq!(out.colors[1], [1.0, -2.0, 2.0, -2.0]);
        assert_eq!(out.colors[2], [1.75, 1.25, 2.0, 2.0]);
        assert_eq!(out.colors[3], [-1.75, -1.25, -2.0, -2.0]);
    }

    #[test]
    fn dot_products_broadcast() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nDEF C1, 1, 1, 1, 1\nDP3 R0, C0, C1\nDP4 R1, C0, C1\n\
             MOV OC, R0\nMOV O1, R1",
            &[],
        );
        assert_eq!(out.colors[0], [6.0; 4]);
        assert_eq!(out.colors[1], [10.0; 4]);
    }

    #[test]
    fn lrp_interpolates() {
        let out = run(
            "DEF C0, 0, 1, 0.5, 0.25\nDEF C1, 10, 10, 10, 10\nDEF C2, 20, 20, 20, 20\n\
             LRP R0, C0, C1, C2\nMOV OC, R0",
            &[],
        );
        assert_eq!(out.colors[0], [20.0, 10.0, 15.0, 17.5]);
    }

    #[test]
    fn swizzle_negate_mask_saturate() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nMOV R0, C0.wzyx\nMOV R1.xz, C0\nMOV_SAT R2, -C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2",
            &[],
        );
        assert_eq!(out.colors[0], [4.0, 3.0, 2.0, 1.0]);
        assert_eq!(out.colors[1], [1.0, 0.0, 3.0, 0.0]);
        assert_eq!(out.colors[2], [0.0; 4]); // negatives saturate to 0
    }

    #[test]
    fn texture_sampling_uses_texcoords_and_counts_fetches() {
        let mut tex = Texture2D::new(2, 2);
        tex.set_texel(0, 0, [1.0, 0.0, 0.0, 1.0]);
        tex.set_texel(1, 1, [0.0, 1.0, 0.0, 1.0]);
        let mut input = FragmentInput::zero();
        input.texcoords[0] = [0.25, 0.25, 0.0, 1.0]; // texel (0,0)
        input.texcoords[1] = [0.75, 0.75, 0.0, 1.0]; // texel (1,1)
        let out = run_with_input(
            "TEX R0, T0, tex0\nTEX R1, T1, tex0\nADD OC, R0, R1",
            &input,
            &[&tex],
        );
        assert_eq!(out.colors[0], [1.0, 1.0, 0.0, 2.0]);
        assert_eq!(out.texel_fetches, 2);
        assert_eq!(out.instructions, 3);
    }

    #[test]
    fn dependent_texture_read() {
        // Compute a coordinate in the shader, then sample with it.
        let mut lut = Texture2D::new(2, 1);
        lut.set_texel(0, 0, [11.0; 4]);
        lut.set_texel(1, 0, [22.0; 4]);
        let out = run(
            "DEF C0, 0.75, 0.5, 0, 0\nMOV R0, C0\nTEX R1, R0, tex0\nMOV OC, R1",
            &[&lut],
        );
        assert_eq!(out.colors[0], [22.0; 4]);
    }

    #[test]
    fn cache_is_consulted_per_fetch() {
        let tex = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex0\nMOV OC, R0").unwrap();
        let constants = resolve_constants(&p, &[]);
        let mut cache = TextureCache::new(16, 2);
        let input = FragmentInput::zero();
        execute(&p, &input, &constants, &[&tex], Some(&mut cache));
        assert_eq!(cache.hits() + cache.misses(), 2);
        assert_eq!(cache.hits(), 1); // second fetch hits the same block
    }

    #[test]
    fn lowered_execution_matches_interpreter() {
        let mut tex = Texture2D::new(2, 2);
        tex.set_texel(0, 0, [0.25, 0.5, 0.75, 1.0]);
        tex.set_texel(1, 1, [0.1, 0.2, 0.3, 0.4]);
        let p = assemble(
            "DEF C0, 1.5, -2, 0.25, 4\n\
             TEX R0, T0, tex0\nMAD R1.xz, R0, C0.wzyx, -C0\nLRP R2, C0.x, R0, R1\n\
             RSQ R3, C0.w\nMOV_SAT OC, R2\nDP4 O1, R1, C0\nMOV O2, R3",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[(1, [0.5, 0.5, 0.0, 1.0])]);
        let lowered = lower(&p, &constants);
        assert_eq!(lowered.instruction_count(), p.len() as u64);
        assert_eq!(lowered.tex_count(), p.tex_count() as u64);
        let mut input = FragmentInput::zero();
        input.texcoords[0] = [0.6, 0.7, 0.0, 1.0];
        let a = execute(&p, &input, &constants, &[&tex], None);
        let b = execute_lowered(&lowered, &input, &[&tex], None);
        assert_eq!(a, b);
    }

    #[test]
    fn lowered_cache_traffic_matches_interpreter() {
        let tex = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex0\nMOV OC, R0").unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        let input = FragmentInput::zero();
        let mut ca = TextureCache::new(16, 2);
        let mut cb = TextureCache::new(16, 2);
        execute(&p, &input, &constants, &[&tex], Some(&mut ca));
        execute_lowered(&lowered, &input, &[&tex], Some(&mut cb));
        assert_eq!((ca.hits(), ca.misses()), (cb.hits(), cb.misses()));
    }

    #[test]
    fn batched_execution_matches_scalar_over_ragged_batch() {
        // 11 fragments = one full 8-lane chunk plus a ragged 3-lane tail,
        // over a program mixing TEX, MAD masks, LRP, saturation and DP4.
        let mut tex = Texture2D::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let v = (y * 4 + x) as f32 * 0.125 - 0.5;
                tex.set_texel(x, y, [v, v + 0.25, -v, 1.0]);
            }
        }
        let p = assemble(
            "DEF C0, 1.5, -2, 0.25, 4\n\
             TEX R0, T0, tex0\nMAD R1.xz, R0, C0.wzyx, -C0\nLRP R2, C0.x, R0, R1\n\
             RSQ R3, C0.w\nMOV_SAT OC, R2\nDP4 O1, R1, C0\nMOV O2, R3",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[(1, [0.5, 0.5, 0.0, 1.0])]);
        let lowered = lower(&p, &constants);
        let inputs: Vec<FragmentInput> = (0..11)
            .map(|i| {
                let mut fi = FragmentInput::zero();
                fi.texcoords[0] = [i as f32 * 0.09, 1.0 - i as f32 * 0.07, 0.0, 1.0];
                fi
            })
            .collect();
        let mut scalar_cache = TextureCache::new(16, 2);
        let mut batch_cache = TextureCache::new(16, 2);
        let mut scalar_instr = 0u64;
        let mut scalar_fetches = 0u64;
        let scalar: Vec<_> = inputs
            .iter()
            .map(|fi| {
                let r = execute_lowered(&lowered, fi, &[&tex], Some(&mut scalar_cache));
                scalar_instr += r.instructions;
                scalar_fetches += r.texel_fetches;
                r.colors
            })
            .collect();
        let mut colors = vec![[[0.0f32; 4]; NUM_OUTPUTS]; inputs.len()];
        let (instr, fetches) = execute_lowered_batch(
            &lowered,
            &inputs,
            &[&tex],
            Some(&mut batch_cache),
            &mut colors,
        );
        for (a, b) in scalar.iter().zip(&colors) {
            let bits = |c: &[[f32; 4]; NUM_OUTPUTS]| c.map(|v| v.map(f32::to_bits));
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!((instr, fetches), (scalar_instr, scalar_fetches));
        assert_eq!(
            (batch_cache.hits(), batch_cache.misses()),
            (scalar_cache.hits(), scalar_cache.misses())
        );
    }

    #[test]
    fn batched_cache_replay_preserves_fragment_major_order() {
        // Two TEX instructions against different samplers through a 1-set,
        // 1-way cache: instruction-major accesses would turn the scalar
        // all-miss A,B,A,B... sequence into runs of hits, so equality here
        // proves the batch path replays touches fragment-major.
        let ta = Texture2D::new(4, 4);
        let tb = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex1\nADD OC, R0, R1").unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        let inputs = vec![FragmentInput::zero(); 8];
        let mut scalar_cache = TextureCache::new(1, 1);
        let mut batch_cache = TextureCache::new(1, 1);
        for fi in &inputs {
            execute_lowered(&lowered, fi, &[&ta, &tb], Some(&mut scalar_cache));
        }
        let mut colors = vec![[[0.0f32; 4]; NUM_OUTPUTS]; inputs.len()];
        execute_lowered_batch(
            &lowered,
            &inputs,
            &[&ta, &tb],
            Some(&mut batch_cache),
            &mut colors,
        );
        assert_eq!(scalar_cache.hits(), 0, "scalar sequence must thrash");
        assert_eq!(
            (batch_cache.hits(), batch_cache.misses()),
            (scalar_cache.hits(), scalar_cache.misses())
        );
    }

    #[test]
    fn batch_tile_matches_scalar_row_loop_bit_for_bit() {
        // A ragged 13-wide, 3-row tile (chunks of 8 + 5 per row) with an
        // offset origin, two coordinate sets (one neighbour-shifted so
        // fetches clamp at the border) and a program exercising TEX from
        // both sets, LG2 and saturation. The tile path must reproduce the
        // scalar `fragment_input` + `execute_lowered` loop exactly —
        // colors, counters and cache traffic.
        use crate::raster::{fragment_input, TexCoordSet};
        let (tw, th) = (20, 9);
        let mut tex = Texture2D::new(20, 9);
        for y in 0..9 {
            for x in 0..20 {
                let v = (y * 20 + x) as f32 * 0.011 + 0.125;
                tex.set_texel(x, y, [v, 1.0 - v, v * v, 1.0]);
            }
        }
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(2, -1, 20, 9),
        ];
        let p = assemble(
            "DEF C0, 0.5, 2, -1, 1\n\
             TEX R0, T0, tex0\nTEX R1, T1, tex0\nLG2 R2.xy, R0.x\n\
             MAD R3, R1, C0.yyyy, R2\nMOV_SAT OC, R3\nADD O1, R0, -R1",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        let (x0, y0, width, rows) = (5usize, 3usize, 13usize, 3usize);
        let mut scalar_cache = TextureCache::new(4, 2);
        let mut scalar_out = vec![[0.0f32; 4]; width * rows];
        let mut scalar_instr = 0u64;
        let mut scalar_fetches = 0u64;
        for ri in 0..rows {
            for ci in 0..width {
                let fi = fragment_input(&sets, x0 + ci, y0 + ri, tw, th);
                let r = execute_lowered(&lowered, &fi, &[&tex], Some(&mut scalar_cache));
                scalar_instr += r.instructions;
                scalar_fetches += r.texel_fetches;
                scalar_out[ri * width + ci] = r.colors[0];
            }
        }
        let mut tile_out = vec![[0.0f32; 4]; width * rows];
        let mut segs: Vec<&mut [[f32; 4]]> = tile_out.chunks_mut(width).collect();
        let mut tile_cache = TextureCache::new(4, 2);
        let (instr, fetches) = execute_lowered_batch_tile(
            &lowered,
            &sets,
            x0,
            y0,
            tw,
            th,
            &mut segs,
            &[&tex],
            Some(&mut tile_cache),
        );
        let bits = |v: &[[f32; 4]]| v.iter().map(|t| t.map(f32::to_bits)).collect::<Vec<_>>();
        assert_eq!(bits(&scalar_out), bits(&tile_out));
        assert_eq!((instr, fetches), (scalar_instr, scalar_fetches));
        assert_eq!(
            (tile_cache.hits(), tile_cache.misses()),
            (scalar_cache.hits(), scalar_cache.misses())
        );
    }

    #[test]
    fn pass_constants_override_defs() {
        let p = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        let constants = resolve_constants(&p, &[(0, [9.0, 8.0, 7.0, 6.0])]);
        let out = execute(&p, &FragmentInput::zero(), &constants, &[], None);
        assert_eq!(out.colors[0], [9.0, 8.0, 7.0, 6.0]);
    }
}
