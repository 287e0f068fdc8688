//! Fragment program interpreter.
//!
//! Executes one [`Program`] per fragment over a SIMD4 register file, exactly
//! as the fragment processors of the modelled GPUs would: no control flow,
//! one instruction per cycle, texture units resolved through the bound
//! samplers. Work counts (instructions, texel fetches, cache hits/misses)
//! are returned with the result so passes can be costed.
//!
//! Two executors share one definition of every opcode's arithmetic:
//!
//! * [`execute`] decodes the program per fragment — the scalar oracle;
//! * [`execute_tile`] runs a [`LoweredProgram`]'s straight-line
//!   specialization over whole raster tiles, [`LANES`] fragments per op:
//!   per-component ops over numbered slots, with swizzles, negation, write
//!   masks, `_SAT` and constants resolved when the program is lowered,
//!   each component computed once (value numbering), components that never
//!   reach `O0` dropped, and slots reused by liveness. It is bit-identical
//!   to the oracle — colors, work counts and texture-cache traffic (see
//!   DESIGN.md §14).

use crate::counters::ShadeLedger;
use crate::isa::{
    Opcode, Program, Reg, Src, Swizzle, NUM_CONSTS, NUM_OUTPUTS, NUM_TEMPS, NUM_TEXCOORDS,
};
use crate::texcache::TextureCache;
use crate::texture::Texture2D;
use std::collections::HashMap;
use std::time::Instant;

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
/// path, so the tile executor's lane loops autovectorize where a libm
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
/// the scalar and tile executors, the specializer's folder, the
/// optimizer's constant folder (via `alu`), and the SIMD4 CPU baseline in
/// `amc_core` — goes through this one definition.
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

// The per-component arithmetic of every ALU opcode. Both executors, the
// specializer's constant folder and (through [`alu`]) the optimizer's folder
// evaluate these functions, so each op has exactly one definition: one
// association order, and no FMA contraction (Rust never contracts
// `a * b + c`).

#[inline(always)]
fn neg(a: f32) -> f32 {
    -a
}
#[inline(always)]
fn sat(a: f32) -> f32 {
    a.clamp(0.0, 1.0)
}
#[inline(always)]
fn rcp(a: f32) -> f32 {
    1.0 / a
}
#[inline(always)]
fn rsq(a: f32) -> f32 {
    1.0 / a.sqrt()
}
#[inline(always)]
fn lg2_op(a: f32) -> f32 {
    lg2(a.max(LG2_TINY))
}
#[inline(always)]
fn frc(a: f32) -> f32 {
    a - a.floor()
}
#[inline(always)]
fn add(a: f32, b: f32) -> f32 {
    a + b
}
#[inline(always)]
fn sub(a: f32, b: f32) -> f32 {
    a - b
}
#[inline(always)]
fn mul(a: f32, b: f32) -> f32 {
    a * b
}
#[inline(always)]
fn slt(a: f32, b: f32) -> f32 {
    if a < b {
        1.0
    } else {
        0.0
    }
}
#[inline(always)]
fn sge(a: f32, b: f32) -> f32 {
    if a >= b {
        1.0
    } else {
        0.0
    }
}
#[inline(always)]
fn mad(a: f32, b: f32, c: f32) -> f32 {
    a * b + c
}
#[inline(always)]
fn cmp(c: f32, a: f32, b: f32) -> f32 {
    if c < 0.0 {
        a
    } else {
        b
    }
}
#[inline(always)]
fn lrp(t: f32, a: f32, b: f32) -> f32 {
    t * a + (1.0 - t) * b
}
#[inline(always)]
fn dp3(a: [f32; 3], b: [f32; 3]) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}
#[inline(always)]
fn dp4(a: [f32; 4], b: [f32; 4]) -> f32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
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

#[inline(always)]
fn lanewise3(op: impl Fn(f32, f32, f32) -> f32, a: [f32; 4], b: [f32; 4], c: [f32; 4]) -> [f32; 4] {
    [
        op(a[0], b[0], c[0]),
        op(a[1], b[1], c[1]),
        op(a[2], b[2], c[2]),
        op(a[3], b[3], c[3]),
    ]
}

/// The SIMD4 arithmetic core of the scalar executor: every non-`TEX`
/// opcode of [`execute`] goes through this one match over the
/// per-component functions above.
#[inline(always)]
pub(crate) fn alu(op: Opcode, s: impl Fn(usize) -> [f32; 4]) -> [f32; 4] {
    match op {
        Opcode::Mov => s(0),
        Opcode::Add => lanewise2(add, s(0), s(1)),
        Opcode::Sub => lanewise2(sub, s(0), s(1)),
        Opcode::Mul => lanewise2(mul, s(0), s(1)),
        Opcode::Mad => lanewise3(mad, s(0), s(1), s(2)),
        Opcode::Min => lanewise2(f32::min, s(0), s(1)),
        Opcode::Max => lanewise2(f32::max, s(0), s(1)),
        Opcode::Rcp => lanewise1(rcp, s(0)),
        Opcode::Rsq => lanewise1(rsq, s(0)),
        Opcode::Ex2 => lanewise1(f32::exp2, s(0)),
        Opcode::Lg2 => lanewise1(lg2_op, s(0)),
        Opcode::Frc => lanewise1(frc, s(0)),
        Opcode::Flr => lanewise1(f32::floor, s(0)),
        Opcode::Abs => lanewise1(f32::abs, s(0)),
        Opcode::Slt => lanewise2(slt, s(0), s(1)),
        Opcode::Sge => lanewise2(sge, s(0), s(1)),
        Opcode::Cmp => lanewise3(cmp, s(0), s(1), s(2)),
        Opcode::Lrp => lanewise3(lrp, s(0), s(1), s(2)),
        Opcode::Dp3 => {
            let (a, b) = (s(0), s(1));
            [dp3([a[0], a[1], a[2]], [b[0], b[1], b[2]]); 4]
        }
        Opcode::Dp4 => [dp4(s(0), s(1)); 4],
        Opcode::Tex => unreachable!("TEX handled by the executor"),
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
            swizzle_negate(src.swizzle, src.negate, raw)
        };

        let value: [f32; 4] = if instr.op == Opcode::Tex {
            // Count the fetch, tag the cache with the texel the sampler
            // reads, and sample it.
            let sampler = instr.sampler.expect("TEX carries a sampler") as usize;
            let coord = s(0);
            let tex = textures[sampler];
            texel_fetches += 1;
            let (x, y) = tex.nearest(coord[0], coord[1]);
            if let Some(cache) = cache.as_deref_mut() {
                cache.access(sampler as u32, x, y);
            }
            tex.texel(x, y)
        } else {
            alu(instr.op, s)
        };
        let value = if instr.dst.saturate {
            lanewise1(sat, value)
        } else {
            value
        };

        let target: &mut [f32; 4] = match instr.dst.reg {
            Reg::Temp(r) => &mut temps[r as usize],
            Reg::Output(o) => &mut outputs[o as usize],
            _ => unreachable!("assembler rejects non-writable destinations"),
        };
        let mask_bits = instr.dst.mask_bits();
        for (lane, t) in target.iter_mut().enumerate() {
            if mask_bits & (1 << lane) != 0 {
                *t = value[lane];
            }
        }
    }

    FragmentOutput {
        colors: outputs,
        instructions,
        texel_fetches,
    }
}

#[inline(always)]
pub(crate) fn swizzle_negate(sw: Swizzle, negate: bool, raw: [f32; 4]) -> [f32; 4] {
    let v = sw.apply(raw);
    if negate {
        lanewise1(neg, v)
    } else {
        v
    }
}

/// A fragment program lowered for repeated execution, built by [`lower`]
/// and cached per (program, constants) on `Gpu`: the program and resolved
/// constants it was built from, which [`execute`] runs one fragment at a
/// time (the scalar oracle), next to their straight-line specialization,
/// per-component ops over numbered [`LANES`]-wide slots, which
/// [`execute_tile`] runs over whole tiles.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    program: Program,
    constants: [[f32; 4]; NUM_CONSTS],
    tile: TileProgram,
}

impl LoweredProgram {
    /// The program this lowering was built from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The resolved constant block this lowering folded.
    pub fn constants(&self) -> &[[f32; 4]; NUM_CONSTS] {
        &self.constants
    }

    /// Instructions executed per fragment.
    pub fn instruction_count(&self) -> u64 {
        self.program.len() as u64
    }

    /// Texel fetches issued per fragment.
    pub fn tex_count(&self) -> u64 {
        self.program.tex_count() as u64
    }

    /// Straight-line ops [`execute_tile`] runs per lane group of
    /// [`LANES`] fragments (one per TEX instruction, the rest one
    /// component of arithmetic each).
    pub fn op_count(&self) -> usize {
        self.tile.ops.len()
    }

    /// Lane-vector slots the specialized form addresses: folded constants,
    /// interpolated coordinates and live values, reused by liveness.
    pub fn slot_count(&self) -> usize {
        self.tile.slots
    }
}

/// Lower `program` against a resolved constant block (see
/// [`resolve_constants`]) and specialize it for [`execute_tile`].
/// Constant folding applies the same swizzle-then-negate float ops the
/// interpreter would, so tile execution is bit-identical to [`execute`].
pub fn lower(program: &Program, constants: &[[f32; 4]; NUM_CONSTS]) -> LoweredProgram {
    LoweredProgram {
        program: program.clone(),
        constants: *constants,
        tile: specialize(program, constants),
    }
}

/// Fragments per lane vector of the tile executor ([`execute_tile`]): each
/// slot holds one component for this many fragments, so every op's lane
/// loop autovectorizes on the host SIMD units (four SSE registers, or two
/// AVX2 ones in [`execute_tile`]'s AVX2 copy).
///
/// Measured by shading the fused distance and MEI passes of the AMC graph
/// at 160×128 on one thread, minimum of 15 reps in each of 4 rounds, on a
/// 2-vCPU Xeon: distance 11.4–20.6 ms at 8 lanes, 9.5–10.8 ms at 16,
/// 9.5–16.7 ms at 32 and 10.8–11.1 ms at 64; MEI 2.85–4.47, 2.37–2.46,
/// 2.45–2.89 and 2.65–2.80 ms. Sixteen was at least as fast as every
/// other width.
pub const LANES: usize = 16;

/// One component of a slot: a value per lane.
type Lane = [f32; LANES];

/// Index of a slot in a specialized program's scratch.
type Slot = u16;

/// The destination of a TEX component nothing reads.
const DEAD: Slot = Slot::MAX;

/// One straight-line op of a [`TileProgram`]: a single component over
/// numbered slots, written `(destination, operands…)`. Every arithmetic
/// op evaluates the per-component function of its opcode (the same one
/// [`alu`] evaluates) once per lane.
#[derive(Debug, Clone, Copy)]
enum Op {
    Neg(Slot, Slot),
    Sat(Slot, Slot),
    Rcp(Slot, Slot),
    Rsq(Slot, Slot),
    Ex2(Slot, Slot),
    Lg2(Slot, Slot),
    Frc(Slot, Slot),
    Flr(Slot, Slot),
    Abs(Slot, Slot),
    Add(Slot, Slot, Slot),
    Sub(Slot, Slot, Slot),
    Mul(Slot, Slot, Slot),
    Min(Slot, Slot, Slot),
    Max(Slot, Slot, Slot),
    Slt(Slot, Slot, Slot),
    Sge(Slot, Slot, Slot),
    Mad(Slot, Slot, Slot, Slot),
    Cmp(Slot, Slot, Slot, Slot),
    Lrp(Slot, Slot, Slot, Slot),
    Dp3(Slot, [Slot; 3], [Slot; 3]),
    Dp4(Slot, [Slot; 4], [Slot; 4]),
    Tex(TexOp),
}

/// One TEX instruction of a [`TileProgram`], kept in program order.
#[derive(Debug, Clone, Copy)]
struct TexOp {
    sampler: u8,
    /// Position among the program's TEX instructions: the touch column
    /// this fetch records into.
    ordinal: u16,
    /// Slots of the coordinate's `x` and `y`, the only components a fetch
    /// reads.
    u: Slot,
    v: Slot,
    /// Slot of each fetched component, [`DEAD`] where nothing reads it.
    dst: [Slot; 4],
}

/// A program specialized by [`specialize`] into straight-line
/// per-component ops over numbered [`Lane`] slots.
#[derive(Debug, Clone)]
struct TileProgram {
    ops: Vec<Op>,
    /// Slots the ops address.
    slots: usize,
    /// Slots holding folded constants, filled once per tile.
    consts: Vec<(Slot, f32)>,
    /// `(slot, set, component)` of every interpolated coordinate the ops
    /// read (component 0 = u, 1 = v), filled per lane group.
    coords: Vec<(Slot, u8, u8)>,
    /// Slots holding `O0`'s components after the last op.
    out: [Slot; 4],
}

/// A scalar component while specializing: a folded constant (by bit
/// pattern, so equal constants number equal) or a node of the value graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val {
    Const(u32),
    Node(u32),
}

/// `0.0`, the value of every register a program has not written.
const ZERO: Val = Val::Const(0);
/// `1.0`, the `w` of every interpolated coordinate set.
const ONE: Val = Val::Const(0x3f80_0000);

/// The arithmetic of one value-numbered component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Neg,
    Sat,
    Rcp,
    Rsq,
    Ex2,
    Lg2,
    Frc,
    Flr,
    Abs,
    Add,
    Sub,
    Mul,
    Min,
    Max,
    Slt,
    Sge,
    Mad,
    Cmp,
    Lrp,
    Dp3,
    Dp4,
}

impl Kind {
    /// The kind of a componentwise ALU opcode (`MOV`, `TEX` and the dot
    /// products are resolved by [`specialize`] itself).
    fn componentwise(op: Opcode) -> Kind {
        match op {
            Opcode::Add => Kind::Add,
            Opcode::Sub => Kind::Sub,
            Opcode::Mul => Kind::Mul,
            Opcode::Mad => Kind::Mad,
            Opcode::Min => Kind::Min,
            Opcode::Max => Kind::Max,
            Opcode::Rcp => Kind::Rcp,
            Opcode::Rsq => Kind::Rsq,
            Opcode::Ex2 => Kind::Ex2,
            Opcode::Lg2 => Kind::Lg2,
            Opcode::Frc => Kind::Frc,
            Opcode::Flr => Kind::Flr,
            Opcode::Abs => Kind::Abs,
            Opcode::Slt => Kind::Slt,
            Opcode::Sge => Kind::Sge,
            Opcode::Cmp => Kind::Cmp,
            Opcode::Lrp => Kind::Lrp,
            Opcode::Mov | Opcode::Tex | Opcode::Dp3 | Opcode::Dp4 => {
                unreachable!("{op:?} is not componentwise")
            }
        }
    }

    /// Evaluate on constant operands, through the executors' functions.
    fn eval(self, a: &[f32]) -> f32 {
        match self {
            Kind::Neg => neg(a[0]),
            Kind::Sat => sat(a[0]),
            Kind::Rcp => rcp(a[0]),
            Kind::Rsq => rsq(a[0]),
            Kind::Ex2 => f32::exp2(a[0]),
            Kind::Lg2 => lg2_op(a[0]),
            Kind::Frc => frc(a[0]),
            Kind::Flr => f32::floor(a[0]),
            Kind::Abs => f32::abs(a[0]),
            Kind::Add => add(a[0], a[1]),
            Kind::Sub => sub(a[0], a[1]),
            Kind::Mul => mul(a[0], a[1]),
            Kind::Min => f32::min(a[0], a[1]),
            Kind::Max => f32::max(a[0], a[1]),
            Kind::Slt => slt(a[0], a[1]),
            Kind::Sge => sge(a[0], a[1]),
            Kind::Mad => mad(a[0], a[1], a[2]),
            Kind::Cmp => cmp(a[0], a[1], a[2]),
            Kind::Lrp => lrp(a[0], a[1], a[2]),
            Kind::Dp3 => dp3([a[0], a[1], a[2]], [a[3], a[4], a[5]]),
            Kind::Dp4 => dp4([a[0], a[1], a[2], a[3]], [a[4], a[5], a[6], a[7]]),
        }
    }

    /// The op computing this kind into `d` from operand slots `a`.
    fn op(self, d: Slot, a: &[Slot]) -> Op {
        match self {
            Kind::Neg => Op::Neg(d, a[0]),
            Kind::Sat => Op::Sat(d, a[0]),
            Kind::Rcp => Op::Rcp(d, a[0]),
            Kind::Rsq => Op::Rsq(d, a[0]),
            Kind::Ex2 => Op::Ex2(d, a[0]),
            Kind::Lg2 => Op::Lg2(d, a[0]),
            Kind::Frc => Op::Frc(d, a[0]),
            Kind::Flr => Op::Flr(d, a[0]),
            Kind::Abs => Op::Abs(d, a[0]),
            Kind::Add => Op::Add(d, a[0], a[1]),
            Kind::Sub => Op::Sub(d, a[0], a[1]),
            Kind::Mul => Op::Mul(d, a[0], a[1]),
            Kind::Min => Op::Min(d, a[0], a[1]),
            Kind::Max => Op::Max(d, a[0], a[1]),
            Kind::Slt => Op::Slt(d, a[0], a[1]),
            Kind::Sge => Op::Sge(d, a[0], a[1]),
            Kind::Mad => Op::Mad(d, a[0], a[1], a[2]),
            Kind::Cmp => Op::Cmp(d, a[0], a[1], a[2]),
            Kind::Lrp => Op::Lrp(d, a[0], a[1], a[2]),
            Kind::Dp3 => Op::Dp3(d, [a[0], a[1], a[2]], [a[3], a[4], a[5]]),
            Kind::Dp4 => Op::Dp4(d, [a[0], a[1], a[2], a[3]], [a[4], a[5], a[6], a[7]]),
        }
    }
}

/// A node of the value graph.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// Component (0 = u, 1 = v) of an interpolated coordinate set.
    Coord { set: u8, comp: u8 },
    /// One component of a TEX result.
    Texel,
    /// `kind` over its first `arity` operands.
    Alu {
        kind: Kind,
        args: [Val; 8],
        arity: u8,
    },
}

/// The value graph in program order: arithmetic nodes where they are
/// first computed, and every TEX.
#[derive(Debug, Clone, Copy)]
enum Step {
    Alu(u32),
    Tex {
        sampler: u8,
        u: Val,
        v: Val,
        texels: [u32; 4],
    },
}

/// A multiplicative hasher for the specializer's tables: their keys are
/// small integers, so SipHash's flooding resistance only costs build time.
#[derive(Default)]
struct SmallKeyHasher(u64);

impl std::hash::Hasher for SmallKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

type SmallKeyMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<SmallKeyHasher>>;

/// The specializer's value graph with its value-numbering table.
#[derive(Default)]
struct Graph {
    nodes: Vec<Node>,
    steps: Vec<Step>,
    numbered: SmallKeyMap<(Kind, [Val; 8]), Val>,
}

impl Graph {
    fn node(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Value-number `kind(args)`: a component already computed from the
    /// same operands in the same order is reused, one over constants folds
    /// to a constant, and `-(-x)` is `x` (negation flips the sign bit
    /// only). No other algebra is applied, so every value keeps its bits.
    fn alu(&mut self, kind: Kind, args: &[Val]) -> Val {
        let mut key = [ZERO; 8];
        key[..args.len()].copy_from_slice(args);
        if let Some(&v) = self.numbered.get(&(kind, key)) {
            return v;
        }
        let mut consts = [0.0f32; 8];
        let folds = args.iter().zip(&mut consts).all(|(a, c)| match *a {
            Val::Const(bits) => {
                *c = f32::from_bits(bits);
                true
            }
            Val::Node(_) => false,
        });
        let v = match (folds, kind, args[0]) {
            (true, ..) => Val::Const(kind.eval(&consts[..args.len()]).to_bits()),
            (false, Kind::Neg, Val::Node(n)) => match self.nodes[n as usize] {
                Node::Alu {
                    kind: Kind::Neg,
                    args: inner,
                    ..
                } => inner[0],
                _ => self.push_alu(kind, key, args.len()),
            },
            _ => self.push_alu(kind, key, args.len()),
        };
        self.numbered.insert((kind, key), v);
        v
    }

    fn push_alu(&mut self, kind: Kind, args: [Val; 8], arity: usize) -> Val {
        let id = self.node(Node::Alu {
            kind,
            args,
            arity: arity as u8,
        });
        self.steps.push(Step::Alu(id));
        Val::Node(id)
    }

    /// A source operand's four components: a constant operand folds to
    /// constants, otherwise the swizzle picks register components and
    /// negation becomes a value-numbered `Neg`.
    fn read(&mut self, src: &Src, constants: &[[f32; 4]; NUM_CONSTS], regs: &Regs) -> [Val; 4] {
        let raw = match src.reg {
            Reg::Const(c) => {
                // Constant folding is owned by the optimizer's lattice
                // helper so there is exactly one definition of "swizzle,
                // then negate, a resolved constant".
                let v = crate::opt::fold_const_src(src, constants[c as usize]);
                return v.map(|x| Val::Const(x.to_bits()));
            }
            Reg::Temp(r) => regs.temps[r as usize],
            Reg::TexCoord(t) => regs.coords[t as usize],
            Reg::Output(o) => regs.outputs[o as usize],
        };
        let v = src.swizzle.0.map(|c| raw[c as usize]);
        if src.negate {
            v.map(|x| self.alu(Kind::Neg, &[x]))
        } else {
            v
        }
    }
}

/// The register file while specializing: the value each component holds.
struct Regs {
    temps: [[Val; 4]; NUM_TEMPS],
    outputs: [[Val; 4]; NUM_OUTPUTS],
    coords: [[Val; 4]; NUM_TEXCOORDS],
}

/// Specialize `program` under a resolved constant block into a
/// [`TileProgram`].
///
/// The instructions are walked once over a register file of component
/// values, which resolves swizzles, negation, write masks, `_SAT` and
/// folded constants at build time: `MOV` and swizzles only re-point
/// components (no op), each written component of an arithmetic
/// instruction becomes one value-numbered op, and a dot product becomes a
/// single op whose result every written component shares. TEX stays one op
/// per instruction in program order. Components that never reach `O0` are
/// dropped (a TEX always stays, for its fetch and cache touch), and the
/// remaining values are packed into slots reused by liveness.
fn specialize(program: &Program, constants: &[[f32; 4]; NUM_CONSTS]) -> TileProgram {
    let mut g = Graph::default();
    let coords = std::array::from_fn(|t| {
        let (u, v) = (
            g.node(Node::Coord {
                set: t as u8,
                comp: 0,
            }),
            g.node(Node::Coord {
                set: t as u8,
                comp: 1,
            }),
        );
        [Val::Node(u), Val::Node(v), ZERO, ONE]
    });
    let mut regs = Regs {
        temps: [[ZERO; 4]; NUM_TEMPS],
        outputs: [[ZERO; 4]; NUM_OUTPUTS],
        coords,
    };
    for instr in &program.instrs {
        let mask = instr.dst.mask_bits();
        let arity = instr.op.arity();
        let mut srcs = [[ZERO; 4]; 3];
        for (read, src) in srcs.iter_mut().zip(instr.srcs.iter().take(arity)) {
            *read = g.read(src, constants, &regs);
        }
        let mut value = [ZERO; 4];
        match instr.op {
            Opcode::Tex => {
                let texels = [(); 4].map(|()| g.node(Node::Texel));
                g.steps.push(Step::Tex {
                    sampler: instr.sampler.unwrap_or(0),
                    u: srcs[0][0],
                    v: srcs[0][1],
                    texels,
                });
                value = texels.map(Val::Node);
            }
            Opcode::Mov => value = srcs[0],
            Opcode::Dp3 | Opcode::Dp4 if mask != 0 => {
                let (kind, n) = if instr.op == Opcode::Dp3 {
                    (Kind::Dp3, 3)
                } else {
                    (Kind::Dp4, 4)
                };
                let mut args = [ZERO; 8];
                args[..n].copy_from_slice(&srcs[0][..n]);
                args[n..2 * n].copy_from_slice(&srcs[1][..n]);
                value = [g.alu(kind, &args[..2 * n]); 4];
            }
            Opcode::Dp3 | Opcode::Dp4 => {}
            op => {
                let kind = Kind::componentwise(op);
                for (c, slot) in value.iter_mut().enumerate() {
                    if mask & (1 << c) != 0 {
                        let args = srcs.map(|s| s[c]);
                        *slot = g.alu(kind, &args[..arity]);
                    }
                }
            }
        }
        let target = match instr.dst.reg {
            Reg::Temp(r) => &mut regs.temps[r as usize],
            Reg::Output(o) => &mut regs.outputs[o as usize],
            _ => unreachable!("assembler rejects non-writable destinations"),
        };
        for (c, &v) in value.iter().enumerate() {
            if mask & (1 << c) != 0 {
                target[c] = if instr.dst.saturate {
                    g.alu(Kind::Sat, &[v])
                } else {
                    v
                };
            }
        }
    }
    allocate(&g, regs.outputs[0])
}

/// Drop what never reaches `out` (TEX ops excepted), then emit the ops
/// with slots assigned by liveness: a value's slot is freed after its last
/// reader, and a freed slot is reused first. An op may write a slot it
/// reads, since every op reads all its operands before it writes.
fn allocate(g: &Graph, out: [Val; 4]) -> TileProgram {
    let node_of = |v: Val| match v {
        Val::Node(n) => Some(n as usize),
        Val::Const(_) => None,
    };
    // A step's operands: the first `.1` entries of `.0`.
    let operands = |step: &Step| -> ([Val; 8], usize) {
        match *step {
            Step::Alu(id) => match g.nodes[id as usize] {
                Node::Alu { args, arity, .. } => (args, arity as usize),
                _ => unreachable!("steps name ALU nodes"),
            },
            Step::Tex { u, v, .. } => ([u, v, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO], 2),
        }
    };
    // Backward liveness from `O0` and every TEX coordinate.
    let mut live = vec![false; g.nodes.len()];
    for n in out.iter().filter_map(|&v| node_of(v)) {
        live[n] = true;
    }
    let kept = |live: &[bool], step: &Step| match *step {
        Step::Alu(id) => live[id as usize],
        Step::Tex { .. } => true,
    };
    for step in g.steps.iter().rev() {
        if kept(&live, step) {
            let (args, arity) = operands(step);
            for n in args[..arity].iter().filter_map(|&v| node_of(v)) {
                live[n] = true;
            }
        }
    }
    let steps: Vec<Step> = g
        .steps
        .iter()
        .copied()
        .filter(|step| kept(&live, step))
        .collect();
    // Last reader of every value; `O0`'s components live past the end.
    let mut last = vec![0usize; g.nodes.len()];
    for (i, step) in steps.iter().enumerate() {
        let (args, arity) = operands(step);
        for n in args[..arity].iter().filter_map(|&v| node_of(v)) {
            last[n] = i;
        }
    }
    for n in out.iter().filter_map(|&v| node_of(v)) {
        last[n] = usize::MAX;
    }

    let mut next: usize = 0;
    let mut fresh = || {
        next += 1;
        Slot::try_from(next - 1)
            .ok()
            .filter(|&s| s != DEAD)
            .expect("specialized program exceeds the slot space")
    };
    // Constants keep their slots for the whole tile.
    let mut consts: Vec<(Slot, f32)> = Vec::new();
    let mut const_slot: SmallKeyMap<u32, Slot> = SmallKeyMap::default();
    let used = steps.iter().flat_map(|step| {
        let (args, arity) = operands(step);
        args.into_iter().take(arity)
    });
    for v in used.chain(out) {
        if let Val::Const(bits) = v {
            const_slot.entry(bits).or_insert_with(|| {
                let s = fresh();
                consts.push((s, f32::from_bits(bits)));
                s
            });
        }
    }
    let mut slot_of = vec![DEAD; g.nodes.len()];
    let mut free: Vec<Slot> = Vec::new();
    let mut take = |free: &mut Vec<Slot>| free.pop().unwrap_or_else(&mut fresh);
    let mut coords = Vec::new();
    for (n, node) in g.nodes.iter().enumerate() {
        if let (true, Node::Coord { set, comp }) = (live[n], *node) {
            slot_of[n] = take(&mut free);
            coords.push((slot_of[n], set, comp));
        }
    }
    let slot = |slot_of: &[Slot], v: Val| match v {
        Val::Const(bits) => const_slot[&bits],
        Val::Node(n) => slot_of[n as usize],
    };
    let mut ops = Vec::with_capacity(steps.len());
    let mut ordinal = 0u16;
    for (i, step) in steps.iter().enumerate() {
        let (args, arity) = operands(step);
        let args = &args[..arity];
        let mut arg_slots = [0; 8];
        for (a, &v) in arg_slots.iter_mut().zip(args) {
            *a = slot(&slot_of, v);
        }
        for (k, n) in args
            .iter()
            .enumerate()
            .filter_map(|(k, &v)| Some((k, node_of(v)?)))
        {
            // Free each operand once, at its last reader.
            if last[n] == i && !args[..k].contains(&args[k]) {
                free.push(slot_of[n]);
            }
        }
        match *step {
            Step::Alu(id) => {
                let Node::Alu { kind, .. } = g.nodes[id as usize] else {
                    unreachable!("steps name ALU nodes")
                };
                slot_of[id as usize] = take(&mut free);
                ops.push(kind.op(slot_of[id as usize], &arg_slots));
            }
            Step::Tex {
                sampler, texels, ..
            } => {
                let dst = texels.map(|t| {
                    if live[t as usize] {
                        slot_of[t as usize] = take(&mut free);
                        slot_of[t as usize]
                    } else {
                        DEAD
                    }
                });
                ops.push(Op::Tex(TexOp {
                    sampler,
                    ordinal,
                    u: arg_slots[0],
                    v: arg_slots[1],
                    dst,
                }));
                ordinal += 1;
            }
        }
    }
    TileProgram {
        ops,
        slots: next,
        consts,
        coords,
        out: out.map(|v| slot(&slot_of, v)),
    }
}

#[inline(always)]
fn un(s: &mut [Lane], d: Slot, a: Slot, f: impl Fn(f32) -> f32) {
    let a = s[a as usize];
    s[d as usize] = std::array::from_fn(|l| f(a[l]));
}

#[inline(always)]
fn bin(s: &mut [Lane], d: Slot, a: Slot, b: Slot, f: impl Fn(f32, f32) -> f32) {
    let (a, b) = (s[a as usize], s[b as usize]);
    s[d as usize] = std::array::from_fn(|l| f(a[l], b[l]));
}

#[inline(always)]
fn tri(s: &mut [Lane], d: Slot, [a, b, c]: [Slot; 3], f: impl Fn(f32, f32, f32) -> f32) {
    let (a, b, c) = (s[a as usize], s[b as usize], s[c as usize]);
    s[d as usize] = std::array::from_fn(|l| f(a[l], b[l], c[l]));
}

/// Run every op of `tp` over one lane group whose coordinate and constant
/// slots are filled. Lanes past `active` compute on stale slots but fetch
/// nothing and are never stored. TEX touches go to
/// `touches[lane * tex_slots + ordinal]`.
#[inline(always)]
fn sweep(
    tp: &TileProgram,
    s: &mut [Lane],
    textures: &[&Texture2D],
    touches: &mut [u64],
    tex_slots: usize,
    active: usize,
) {
    for op in &tp.ops {
        match *op {
            Op::Neg(d, a) => un(s, d, a, neg),
            Op::Sat(d, a) => un(s, d, a, sat),
            Op::Rcp(d, a) => un(s, d, a, rcp),
            Op::Rsq(d, a) => un(s, d, a, rsq),
            Op::Ex2(d, a) => un(s, d, a, f32::exp2),
            Op::Lg2(d, a) => un(s, d, a, lg2_op),
            Op::Frc(d, a) => un(s, d, a, frc),
            Op::Flr(d, a) => un(s, d, a, f32::floor),
            Op::Abs(d, a) => un(s, d, a, f32::abs),
            Op::Add(d, a, b) => bin(s, d, a, b, add),
            Op::Sub(d, a, b) => bin(s, d, a, b, sub),
            Op::Mul(d, a, b) => bin(s, d, a, b, mul),
            Op::Min(d, a, b) => bin(s, d, a, b, f32::min),
            Op::Max(d, a, b) => bin(s, d, a, b, f32::max),
            Op::Slt(d, a, b) => bin(s, d, a, b, slt),
            Op::Sge(d, a, b) => bin(s, d, a, b, sge),
            Op::Mad(d, a, b, c) => tri(s, d, [a, b, c], mad),
            Op::Cmp(d, a, b, c) => tri(s, d, [a, b, c], cmp),
            Op::Lrp(d, a, b, c) => tri(s, d, [a, b, c], lrp),
            Op::Dp3(d, a, b) => {
                let (a, b) = (a.map(|i| s[i as usize]), b.map(|i| s[i as usize]));
                s[d as usize] = std::array::from_fn(|l| {
                    dp3([a[0][l], a[1][l], a[2][l]], [b[0][l], b[1][l], b[2][l]])
                });
            }
            Op::Dp4(d, a, b) => {
                let (a, b) = (a.map(|i| s[i as usize]), b.map(|i| s[i as usize]));
                s[d as usize] = std::array::from_fn(|l| {
                    dp4(
                        [a[0][l], a[1][l], a[2][l], a[3][l]],
                        [b[0][l], b[1][l], b[2][l], b[3][l]],
                    )
                });
            }
            Op::Tex(t) => gather(s, &t, textures, touches, tex_slots, active),
        }
    }
}

/// One TEX op over a lane group: resolve each active lane's texel exactly
/// as [`execute`] does, record its cache touch, and scatter the live
/// components into their slots.
#[inline(always)]
fn gather(
    s: &mut [Lane],
    t: &TexOp,
    textures: &[&Texture2D],
    touches: &mut [u64],
    tex_slots: usize,
    active: usize,
) {
    let tex = textures[t.sampler as usize];
    let (us, vs) = (s[t.u as usize], s[t.v as usize]);
    let (wf, hf) = (tex.width() as f32, tex.height() as f32);
    let sampler = u32::from(t.sampler);
    let mut texels = [[0.0f32; 4]; LANES];
    // `Texture2D::resolve_coords`'s clamp to the edge, lane by lane. i32
    // truncation is exact here: both i32 and i64 saturation points lie far
    // outside `[0, edge]`, so the clamped texel is the same one the scalar
    // path's i64 floor resolves to.
    let xs: [i32; LANES] = std::array::from_fn(|l| floor_to_i32(us[l] * wf));
    let ys: [i32; LANES] = std::array::from_fn(|l| floor_to_i32(vs[l] * hf));
    let (xmax, ymax) = (tex.width() as i32 - 1, tex.height() as i32 - 1);
    for (l, texel) in texels.iter_mut().enumerate().take(active) {
        let cx = xs[l].clamp(0, xmax) as usize;
        let cy = ys[l].clamp(0, ymax) as usize;
        touches[l * tex_slots + t.ordinal as usize] = pack_touch(sampler, cx, cy);
        *texel = tex.texel(cx, cy);
    }
    for (c, &d) in t.dst.iter().enumerate() {
        if d != DEAD {
            s[d as usize] = std::array::from_fn(|l| texels[l][c]);
        }
    }
}

/// Shade one raster tile through the program's specialized form, writing
/// output `O0` straight into the tile's row segments.
///
/// The tile runs in three phases, which `ledger` (when given) times:
///
/// 1. **Op sweep.** Each row is cut into lane groups of [`LANES`]
///    fragments (the last one ragged). Per group, the coordinate slots are
///    interpolated with `fragment_input`'s exact expressions (`(x + 0.5) /
///    w`, then `u * scale + offset`, never fused; sets past `sets.len()`
///    read `[0, 0, 0, 1]`), every op runs once, and `O0`'s slots are kept.
///    Each TEX records its resolved cache touch.
/// 2. **Cache replay.** The touches go through `cache` fragment by
///    fragment in row-major order, each fragment's TEX in program order —
///    the exact sequence the scalar executor issues.
/// 3. **Tile resolve.** The kept `O0` components are stored into `rows`.
///
/// Bit-exactness contract: `rows`, the returned `(instructions,
/// texel_fetches)` totals and the cache's hit/miss counters are identical
/// to the scalar loop `for (ri, seg) { for ci { execute(prog.program(),
/// fragment_input(sets, x0+ci, y0+ri, target_w, target_h),
/// prog.constants(), ..) } }`.
///
/// On a CPU with AVX2 the tile runs through a copy of the same code
/// compiled with AVX2 enabled (eight `f32` per vector instead of four);
/// both copies keep the contract (DESIGN.md §14).
#[allow(clippy::too_many_arguments)]
pub fn execute_tile(
    program: &LoweredProgram,
    sets: &[crate::raster::TexCoordSet],
    x0: usize,
    y0: usize,
    target_w: usize,
    target_h: usize,
    rows: &mut [&mut [[f32; 4]]],
    textures: &[&Texture2D],
    cache: &mut TextureCache,
    ledger: Option<&mut ShadeLedger>,
) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `shade_tile_avx2` requires AVX2, and
        // `is_x86_feature_detected!("avx2")` just found it on this CPU.
        return unsafe {
            shade_tile_avx2(
                program, sets, x0, y0, target_w, target_h, rows, textures, cache, ledger,
            )
        };
    }
    shade_tile(
        program, sets, x0, y0, target_w, target_h, rows, textures, cache, ledger,
    )
}

/// [`shade_tile`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn shade_tile_avx2(
    program: &LoweredProgram,
    sets: &[crate::raster::TexCoordSet],
    x0: usize,
    y0: usize,
    target_w: usize,
    target_h: usize,
    rows: &mut [&mut [[f32; 4]]],
    textures: &[&Texture2D],
    cache: &mut TextureCache,
    ledger: Option<&mut ShadeLedger>,
) -> (u64, u64) {
    shade_tile(
        program, sets, x0, y0, target_w, target_h, rows, textures, cache, ledger,
    )
}

/// The body of [`execute_tile`], inlined into both of its copies.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn shade_tile(
    program: &LoweredProgram,
    sets: &[crate::raster::TexCoordSet],
    x0: usize,
    y0: usize,
    target_w: usize,
    target_h: usize,
    rows: &mut [&mut [[f32; 4]]],
    textures: &[&Texture2D],
    cache: &mut TextureCache,
    ledger: Option<&mut ShadeLedger>,
) -> (u64, u64) {
    let tp = &program.tile;
    let tex_slots = program.program.tex_count();
    let fragments: usize = rows.iter().map(|r| r.len()).sum();
    let mut touches = vec![0; fragments * tex_slots];
    let mut s: Vec<Lane> = vec![[0.0; LANES]; tp.slots];
    for &(slot, c) in &tp.consts {
        s[slot as usize] = [c; LANES];
    }
    let mut o0: Vec<[Lane; 4]> = Vec::with_capacity(fragments.div_ceil(LANES) + rows.len());
    let clock = ledger.is_some().then(Instant::now);
    let (twf, thf) = (target_w as f32, target_h as f32);
    let mut frag = 0usize;
    for (ri, seg) in rows.iter().enumerate() {
        let v = ((y0 + ri) as f32 + 0.5) / thf;
        for ci in (0..seg.len()).step_by(LANES) {
            let active = (seg.len() - ci).min(LANES);
            let us: Lane = std::array::from_fn(|l| ((x0 + ci + l) as f32 + 0.5) / twf);
            for &(slot, set, comp) in &tp.coords {
                s[slot as usize] = match sets.get(set as usize) {
                    None => [0.0; LANES],
                    Some(t) if comp == 0 => us.map(|u| u * t.scale[0] + t.offset[0]),
                    Some(t) => [v * t.scale[1] + t.offset[1]; LANES],
                };
            }
            let group_touches = &mut touches[frag * tex_slots..];
            sweep(tp, &mut s, textures, group_touches, tex_slots, active);
            o0.push(tp.out.map(|slot| s[slot as usize]));
            frag += active;
        }
    }
    let swept = clock.map(|t| t.elapsed());
    cache.access_all(touches.iter().map(|&t| unpack_touch(t)));
    let replayed = clock.map(|t| t.elapsed());
    let mut groups = o0.iter();
    for seg in rows.iter_mut() {
        for (chunk, o) in seg.chunks_mut(LANES).zip(&mut groups) {
            for (l, texel) in chunk.iter_mut().enumerate() {
                *texel = [o[0][l], o[1][l], o[2][l], o[3][l]];
            }
        }
    }
    if let (Some(ledger), Some(start), Some(swept), Some(replayed)) =
        (ledger, clock, swept, replayed)
    {
        let resolved = start.elapsed();
        ledger.add(&ShadeLedger {
            sweep_ns: swept.as_nanos() as u64,
            ops: (tp.ops.len() * o0.len()) as u64,
            replay_ns: (replayed - swept).as_nanos() as u64,
            resolve_ns: (resolved - replayed).as_nanos() as u64,
        });
    }
    let fragments = fragments as u64;
    (
        program.instruction_count() * fragments,
        tex_slots as u64 * fragments,
    )
}

/// `v.floor() as i32` without the libm `floorf` call (vectorizable
/// `cvttps2dq` path): truncate toward zero, then step down when truncation
/// rounded up (negative non-integer inputs). NaN maps to 0, as
/// `v.floor() as i64` does, and out-of-range values saturate at the i32
/// bounds (the correction term never fires at a saturated truncation
/// except below `i32::MIN`, where `saturating_sub` pins it). Only valid
/// where the caller clamps the result to a texture's `[0, size-1]`, which
/// both widths saturate outside of.
#[inline(always)]
fn floor_to_i32(v: f32) -> i32 {
    let t = v as i32;
    t.saturating_sub(i32::from(t as f32 > v))
}

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

    /// Shade a `rows`-row, `width`-wide tile at `(x0, y0)` of a `tw x th`
    /// target through the scalar `fragment_input` + [`execute`] row loop on
    /// the lowering's program and constants, through [`execute_tile`] and
    /// through its baseline body
    /// [`shade_tile`] (on an AVX2 host `execute_tile` runs the AVX2 copy),
    /// each against its own `cache`, and assert O0 bits, totals and cache
    /// counters agree.
    #[allow(clippy::too_many_arguments)]
    fn assert_tile_matches_row_loop(
        lowered: &LoweredProgram,
        sets: &[crate::raster::TexCoordSet],
        (x0, y0, width, rows): (usize, usize, usize, usize),
        (tw, th): (usize, usize),
        textures: &[&Texture2D],
        mut scalar_cache: TextureCache,
        mut tile_cache: TextureCache,
    ) -> (TextureCache, TextureCache) {
        use crate::raster::fragment_input;
        let mut scalar_out = vec![[0.0f32; 4]; width * rows];
        let (mut scalar_instr, mut scalar_fetches) = (0u64, 0u64);
        for ri in 0..rows {
            for ci in 0..width {
                let fi = fragment_input(sets, x0 + ci, y0 + ri, tw, th);
                let r = execute(
                    lowered.program(),
                    &fi,
                    lowered.constants(),
                    textures,
                    Some(&mut scalar_cache),
                );
                scalar_instr += r.instructions;
                scalar_fetches += r.texel_fetches;
                scalar_out[ri * width + ci] = r.colors[0];
            }
        }
        let bits = |v: &[[f32; 4]]| v.iter().map(|t| t.map(f32::to_bits)).collect::<Vec<_>>();
        let mut base_cache = tile_cache.clone();
        for (copy, cache) in [
            ("dispatched", &mut tile_cache),
            ("baseline", &mut base_cache),
        ] {
            let mut tile_out = vec![[0.0f32; 4]; width * rows];
            let mut segs: Vec<&mut [[f32; 4]]> = tile_out.chunks_mut(width).collect();
            let shade = if copy == "baseline" {
                shade_tile
            } else {
                execute_tile
            };
            let (instr, fetches) = shade(
                lowered, sets, x0, y0, tw, th, &mut segs, textures, cache, None,
            );
            assert_eq!(bits(&scalar_out), bits(&tile_out), "{copy}");
            assert_eq!((instr, fetches), (scalar_instr, scalar_fetches), "{copy}");
            assert_eq!(
                (cache.hits(), cache.misses()),
                (scalar_cache.hits(), scalar_cache.misses()),
                "{copy}"
            );
        }
        (scalar_cache, tile_cache)
    }

    #[test]
    fn batched_execution_matches_scalar_over_ragged_batch() {
        // One 21-fragment row = a full 16-lane group plus a ragged 5-lane
        // tail, over a program mixing TEX, MAD masks, LRP, saturation and
        // DP4 (whose result feeds O0 through a swizzle).
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
             RSQ R3, C0.w\nDP4 R4, R1, C0\nADD_SAT OC, R2, R4.yxzw",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[(1, [0.5, 0.5, 0.0, 1.0])]);
        let lowered = lower(&p, &constants);
        let sets = [crate::raster::TexCoordSet {
            scale: [0.9, -0.7],
            offset: [0.05, 1.0],
        }];
        assert_tile_matches_row_loop(
            &lowered,
            &sets,
            (0, 2, 21, 1),
            (21, 5),
            &[&tex],
            TextureCache::new(16, 2),
            TextureCache::new(16, 2),
        );
    }

    #[test]
    fn batched_cache_replay_preserves_fragment_major_order() {
        // Two TEX instructions against different samplers through a 1-set,
        // 1-way cache: instruction-major accesses would turn the scalar
        // all-miss A,B,A,B... sequence into runs of hits, so equality here
        // proves the tile executor replays touches fragment-major.
        let ta = Texture2D::new(4, 4);
        let tb = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex1\nADD OC, R0, R1").unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        let (scalar_cache, _) = assert_tile_matches_row_loop(
            &lowered,
            &[crate::raster::TexCoordSet::identity()],
            (0, 0, 8, 1),
            (8, 1),
            &[&ta, &tb],
            TextureCache::new(1, 1),
            TextureCache::new(1, 1),
        );
        assert_eq!(scalar_cache.hits(), 0, "scalar sequence must thrash");
    }

    #[test]
    fn batch_tile_matches_scalar_row_loop_bit_for_bit() {
        // A ragged 21-wide, 3-row tile (groups of 16 + 5 per row) with an
        // offset origin, two coordinate sets (one neighbour-shifted so
        // fetches clamp at the border) and a program exercising TEX from
        // both sets, LG2 and saturation. The tile path must reproduce the
        // scalar `fragment_input` + `execute` loop exactly —
        // colors, counters and cache traffic.
        use crate::raster::TexCoordSet;
        let (tw, th) = (28, 9);
        let mut tex = Texture2D::new(28, 9);
        for y in 0..9 {
            for x in 0..28 {
                let v = (y * 28 + x) as f32 * 0.011 + 0.125;
                tex.set_texel(x, y, [v, 1.0 - v, v * v, 1.0]);
            }
        }
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(2, -1, 28, 9),
        ];
        let p = assemble(
            "DEF C0, 0.5, 2, -1, 1\n\
             TEX R0, T0, tex0\nTEX R1, T1, tex0\nLG2 R2.xy, R0.x\n\
             MAD R3, R1, C0.yyyy, R2\nMOV_SAT OC, R3\nADD O1, R0, -R1",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        assert_tile_matches_row_loop(
            &lowered,
            &sets,
            (5, 3, 21, 3),
            (tw, th),
            &[&tex],
            TextureCache::new(4, 2),
            TextureCache::new(4, 2),
        );
    }

    #[test]
    fn tile_gather_clamps_extreme_coordinates_like_the_scalar_path() {
        // The tile gather floors to i32 and the scalar path to i64; after
        // the clamp to the edge both must pick the same texel for NaN,
        // ±inf, ±3e9 (past i32), ±1e19 (past i64), -0.5 and exactly 1.0.
        // `T0.w` is 1, so `MUL R0, T0.w, Cn` loads pass constant `Cn`
        // exactly; the last TEX scales `T0` so its lanes straddle both
        // edges. The 5x3 texture is bound to two samplers, so a 1-set,
        // 2-way cache sees four block tags (column 4 is a block of its
        // own) and any other texel choice changes its hits and misses.
        let mut tex = Texture2D::new(5, 3);
        for y in 0..3 {
            for x in 0..5 {
                let v = (y * 5 + x) as f32;
                tex.set_texel(x, y, [v, 0.5 * v + 1.0, -v, 0.25 * v]);
            }
        }
        let p = assemble(
            "MUL R0, T0.w, C0\nTEX R1, R0, tex0\nTEX R2, R0.zwzw, tex1\n\
             MUL R0, T0.w, C1\nTEX R3, R0, tex1\nTEX R4, R0.zwzw, tex0\n\
             MUL R0, T0.w, C2\nTEX R5, R0, tex0\nTEX R6, R0.zwzw, tex1\n\
             MAD R0, T0, C3, C4\nTEX R7, R0, tex1\n\
             ADD R1, R1, R2\nADD R1, R1, R3\nADD R1, R1, R4\n\
             ADD R1, R1, R5\nADD R1, R1, R6\nADD OC, R1, R7",
        )
        .unwrap();
        let constants = resolve_constants(
            &p,
            &[
                (0, [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e9]),
                (1, [-3e9, 1e19, -1e19, -0.5]),
                (2, [1.0, -0.5, -0.5, 1.0]),
                (3, [3.0, 2.0, 0.0, 0.0]),
                (4, [-1.0, -0.5, 0.0, 0.0]),
            ],
        );
        let lowered = lower(&p, &constants);
        assert_tile_matches_row_loop(
            &lowered,
            &[crate::raster::TexCoordSet::identity()],
            (0, 0, 21, 3),
            (21, 3),
            &[&tex, &tex],
            TextureCache::new(1, 2),
            TextureCache::new(1, 2),
        );
    }

    #[test]
    fn specialization_aliases_moves_and_numbers_values_once() {
        // `MOV` and swizzles are aliases (no op); the reciprocal both MULs
        // read is computed once per component; O1 never reaches O0, so its
        // ops are dropped; the masked-off lanes of R2 cost nothing.
        let p = assemble(
            "TEX R0, T0, tex0\nMOV R1, R0.xxxx\nRCP R2.xy, R1\n\
             MUL R3, R0, R2.xxxx\nMUL R4, R0.yxzw, R2.y\nADD O1, R3, R4\nMOV OC, R3",
        )
        .unwrap();
        let lowered = lower(&p, &resolve_constants(&p, &[]));
        // TEX + one RCP (x and y read the same broadcast component) + four
        // MULs for R3; R4's MULs and the ADD feed only O1.
        assert_eq!(lowered.op_count(), 1 + 1 + 4, "{:?}", lowered.tile.ops);
        // Slots: the coordinate's u and v, four texel components and the
        // reciprocal, all freed and reused as the MULs retire them.
        assert!(lowered.slot_count() <= 7, "{}", lowered.slot_count());
    }

    #[test]
    fn pass_constants_override_defs() {
        let p = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        let constants = resolve_constants(&p, &[(0, [9.0, 8.0, 7.0, 6.0])]);
        let out = execute(&p, &FragmentInput::zero(), &constants, &[], None);
        assert_eq!(out.colors[0], [9.0, 8.0, 7.0, 6.0]);
    }
}
