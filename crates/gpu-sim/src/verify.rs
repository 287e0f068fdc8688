//! Static verification and linting of fragment programs.
//!
//! [`verify`] runs a dataflow analysis over a [`Program`] *before* any
//! fragment executes, catching the mistakes the real fp30 toolchain caught
//! at compile/bind time (and a few it did not):
//!
//! * **Use-before-def**, lane-precise: `MOV R0.xy, …` followed by
//!   `ADD R1, R0.zzzz, …` reads lanes no instruction wrote. The interpreter
//!   zero-fills temporaries so this is silent garbage at runtime; here it is
//!   a hard error.
//! * **Binding validation**: every sampler, texture-coordinate set and
//!   constant register the program reads must be supplied by the pass (or by
//!   a `DEF`), and every output the pass reads back must be written.
//! * **Profile limits**: static instruction count and dependent
//!   texture-read chain depth against the [`GpuProfile`]'s published limits,
//!   plus register-file bounds for programs built in code rather than
//!   assembled.
//! * **Lints** (warnings): dead writes, `LG2`/`RCP`/`RSQ` inputs with no
//!   epsilon guard on their definition chain, `DEF` constants nothing reads,
//!   and `DEF`s shadowed by pass-bound constants.
//!
//! Call it with `Some(&PassBindings)` for the exact pass context (what
//! [`crate::interp::lower`] does) or `None` for standalone lint mode,
//! which assumes the most permissive bindings so only intrinsic program
//! defects are reported.

use crate::device::GpuProfile;
use crate::isa::{
    Instr, Opcode, Program, Reg, NUM_CONSTS, NUM_OUTPUTS, NUM_SAMPLERS, NUM_TEMPS, NUM_TEXCOORDS,
};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The pass would compute garbage or panic; execution is refused.
    Error,
    /// Suspicious but executable; reported by the linter.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Machine-readable diagnostic categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagKind {
    /// A temp-register lane is read before any instruction writes it.
    UseBeforeDef,
    /// A `TEX` references a sampler the pass does not bind.
    UnboundSampler,
    /// A `T` register the pass does not supply a coordinate set for.
    UnboundTexCoord,
    /// A constant register neither `DEF`ed nor bound by the pass.
    UndefinedConst,
    /// An output the pass reads back is never written.
    OutputNotWritten,
    /// Static instruction count exceeds the profile limit.
    TooManyInstructions,
    /// Dependent texture-read chain deeper than the profile allows.
    TexChainTooDeep,
    /// A register index outside its file (only possible for programs built
    /// in code; the assembler rejects these at parse time).
    RegisterOutOfRange,
    /// An instruction whose operand shape does not match its opcode.
    MalformedInstr,
    /// A write whose result no later instruction observes.
    DeadWrite,
    /// `LG2`/`RCP`/`RSQ` input with no epsilon guard on its def chain.
    UnguardedMathInput,
    /// A `DEF` constant no instruction reads.
    UnusedConst,
    /// A `DEF` constant also bound by the pass (the pass value wins).
    ConstConflict,
}

impl DiagKind {
    /// Stable kebab-case name, used by `shader-lint` output.
    pub fn name(&self) -> &'static str {
        match self {
            DiagKind::UseBeforeDef => "use-before-def",
            DiagKind::UnboundSampler => "unbound-sampler",
            DiagKind::UnboundTexCoord => "unbound-texcoord",
            DiagKind::UndefinedConst => "undefined-const",
            DiagKind::OutputNotWritten => "output-not-written",
            DiagKind::TooManyInstructions => "too-many-instructions",
            DiagKind::TexChainTooDeep => "tex-chain-too-deep",
            DiagKind::RegisterOutOfRange => "register-out-of-range",
            DiagKind::MalformedInstr => "malformed-instr",
            DiagKind::DeadWrite => "dead-write",
            DiagKind::UnguardedMathInput => "unguarded-math-input",
            DiagKind::UnusedConst => "unused-const",
            DiagKind::ConstConflict => "const-conflict",
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Category.
    pub kind: DiagKind,
    /// Error or warning.
    pub severity: Severity,
    /// 1-based source line (0 when the program was built in code).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] line {}: {}",
            self.severity,
            self.kind.name(),
            self.line,
            self.message
        )
    }
}

/// What a render pass supplies to the program.
///
/// Bound constant *values* are deliberately absent: verification depends
/// only on which registers are supplied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassBindings {
    /// Number of textures bound (`tex0..texN-1`).
    pub samplers: usize,
    /// Number of texture-coordinate sets supplied (`T0..TN-1`).
    pub texcoord_sets: usize,
    /// Constant registers bound by the pass (in addition to `DEF`s).
    pub constants: Vec<u8>,
    /// Which outputs the pass resolves/reads back.
    pub outputs_read: [bool; NUM_OUTPUTS],
}

impl PassBindings {
    /// The most permissive context: everything bound, only `O0` read back.
    /// Standalone lint mode (`bindings: None`) behaves like this except that
    /// *no* output is asserted read, so any written output satisfies the
    /// output check.
    pub fn permissive() -> Self {
        PassBindings {
            samplers: NUM_SAMPLERS,
            texcoord_sets: NUM_TEXCOORDS,
            constants: (0..NUM_CONSTS as u8).collect(),
            outputs_read: [true, false, false, false],
        }
    }
}

/// True if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Lanes of `src` that instruction `instr` actually reads, as a 4-bit mask.
///
/// Shared with [`crate::opt`]: the optimizer's liveness and propagation
/// passes must agree exactly with the verifier about which lanes an
/// instruction consumes.
pub(crate) fn read_lanes(instr: &Instr, src_index: usize) -> u8 {
    let swz = instr.srcs[src_index].swizzle.0;
    let mut lanes = 0u8;
    match instr.op {
        // Dot products consume a fixed lane count regardless of write mask.
        Opcode::Dp3 => {
            for &l in &swz[..3] {
                lanes |= 1 << l;
            }
        }
        Opcode::Dp4 => {
            for &l in &swz {
                lanes |= 1 << l;
            }
        }
        // TEX reads a 2-component coordinate.
        Opcode::Tex => {
            lanes |= 1 << swz[0];
            lanes |= 1 << swz[1];
        }
        // Componentwise ops read the source lane feeding each written lane.
        _ => {
            for (l, &m) in instr.dst.mask.iter().enumerate() {
                if m {
                    lanes |= 1 << swz[l];
                }
            }
        }
    }
    lanes
}

/// Written lanes of `instr`'s destination as a 4-bit mask (shared with
/// [`crate::opt`]).
pub(crate) fn dst_mask(instr: &Instr) -> u8 {
    instr
        .dst
        .mask
        .iter()
        .enumerate()
        .fold(0u8, |acc, (l, &m)| if m { acc | 1 << l } else { acc })
}

fn lane_names(mask: u8) -> String {
    const LANES: [char; 4] = ['x', 'y', 'z', 'w'];
    (0..4)
        .filter(|l| mask & (1 << l) != 0)
        .map(|l| LANES[l])
        .collect()
}

fn reg_in_range(reg: Reg) -> bool {
    match reg {
        Reg::Temp(i) => (i as usize) < NUM_TEMPS,
        Reg::Const(i) => (i as usize) < NUM_CONSTS,
        Reg::TexCoord(i) => (i as usize) < NUM_TEXCOORDS,
        Reg::Output(i) => (i as usize) < NUM_OUTPUTS,
    }
}

/// Statically verify `program` against a hardware `profile` and, optionally,
/// the exact `bindings` of the pass about to run it.
///
/// Returns every diagnostic found, errors first, then by source line.
/// Execution must be refused when [`has_errors`] holds on the result.
pub fn verify(
    program: &Program,
    profile: &GpuProfile,
    bindings: Option<&PassBindings>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let permissive;
    let (ctx, lint_mode) = match bindings {
        Some(b) => (b, false),
        None => {
            permissive = PassBindings::permissive();
            (&permissive, true)
        }
    };

    structural_checks(program, profile, &mut diags);
    // Dataflow over malformed instructions would index past operand arrays;
    // report the structural errors alone.
    if has_errors(&diags) {
        return finish(diags);
    }

    use_before_def(program, &mut diags);
    binding_checks(program, ctx, lint_mode, &mut diags);
    tex_chain_depth(program, profile, &mut diags);
    dead_writes(program, ctx, lint_mode, &mut diags);
    unguarded_math(program, ctx, &mut diags);
    const_lints(program, ctx, lint_mode, &mut diags);

    finish(diags)
}

fn finish(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by_key(|d| (d.severity, d.line, d.kind));
    diags
}

/// Operand shapes, register-file bounds, and the instruction-count limit.
fn structural_checks(program: &Program, profile: &GpuProfile, diags: &mut Vec<Diagnostic>) {
    if program.len() > profile.max_program_instrs {
        diags.push(Diagnostic {
            kind: DiagKind::TooManyInstructions,
            severity: Severity::Error,
            line: 0,
            message: format!(
                "program `{}` has {} instructions; {} allows {}",
                program.name,
                program.len(),
                profile.name,
                profile.max_program_instrs
            ),
        });
    }
    for d in &program.defs {
        if (d.index as usize) >= NUM_CONSTS {
            diags.push(Diagnostic {
                kind: DiagKind::RegisterOutOfRange,
                severity: Severity::Error,
                line: d.line,
                message: format!("DEF target C{} outside the constant file", d.index),
            });
        }
    }
    for instr in &program.instrs {
        if instr.srcs.len() != instr.op.arity() {
            diags.push(Diagnostic {
                kind: DiagKind::MalformedInstr,
                severity: Severity::Error,
                line: instr.line,
                message: format!(
                    "{} takes {} source(s), found {}",
                    instr.op.mnemonic(),
                    instr.op.arity(),
                    instr.srcs.len()
                ),
            });
            continue;
        }
        if instr.op == Opcode::Tex && instr.sampler.is_none() {
            diags.push(Diagnostic {
                kind: DiagKind::MalformedInstr,
                severity: Severity::Error,
                line: instr.line,
                message: "TEX without a sampler".into(),
            });
        }
        if !matches!(instr.dst.reg, Reg::Temp(_) | Reg::Output(_)) {
            diags.push(Diagnostic {
                kind: DiagKind::MalformedInstr,
                severity: Severity::Error,
                line: instr.line,
                message: format!("destination {} is not writable", instr.dst.reg),
            });
        } else if !reg_in_range(instr.dst.reg) {
            diags.push(Diagnostic {
                kind: DiagKind::RegisterOutOfRange,
                severity: Severity::Error,
                line: instr.line,
                message: format!("destination {} outside its register file", instr.dst.reg),
            });
        }
        for src in &instr.srcs {
            if !reg_in_range(src.reg) {
                diags.push(Diagnostic {
                    kind: DiagKind::RegisterOutOfRange,
                    severity: Severity::Error,
                    line: instr.line,
                    message: format!("source {} outside its register file", src.reg),
                });
            }
            if src.swizzle.0.iter().any(|&l| l > 3) {
                diags.push(Diagnostic {
                    kind: DiagKind::MalformedInstr,
                    severity: Severity::Error,
                    line: instr.line,
                    message: format!("swizzle on {} selects a lane above w", src.reg),
                });
            }
        }
        if let Some(s) = instr.sampler {
            if (s as usize) >= NUM_SAMPLERS {
                diags.push(Diagnostic {
                    kind: DiagKind::RegisterOutOfRange,
                    severity: Severity::Error,
                    line: instr.line,
                    message: format!("sampler tex{s} outside the sampler file"),
                });
            }
        }
    }
}

/// Forward lane-precise reaching-definitions over the temp file.
fn use_before_def(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut defined = [0u8; NUM_TEMPS];
    for instr in &program.instrs {
        for (si, src) in instr.srcs.iter().enumerate() {
            if let Reg::Temp(t) = src.reg {
                let missing = read_lanes(instr, si) & !defined[t as usize];
                if missing != 0 {
                    diags.push(Diagnostic {
                        kind: DiagKind::UseBeforeDef,
                        severity: Severity::Error,
                        line: instr.line,
                        message: format!(
                            "{} reads R{t}.{} before any write to those lanes",
                            instr.op.mnemonic(),
                            lane_names(missing)
                        ),
                    });
                }
            }
        }
        if let Reg::Temp(t) = instr.dst.reg {
            defined[t as usize] |= dst_mask(instr);
        }
    }
}

/// Samplers, texcoord sets, constants, and read-back outputs.
fn binding_checks(
    program: &Program,
    ctx: &PassBindings,
    lint_mode: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let mut const_defined = [false; NUM_CONSTS];
    for d in &program.defs {
        const_defined[d.index as usize] = true;
    }
    for &c in &ctx.constants {
        if (c as usize) < NUM_CONSTS {
            const_defined[c as usize] = true;
        }
    }

    let mut outputs_written = [false; NUM_OUTPUTS];
    for instr in &program.instrs {
        if let Some(s) = instr.sampler {
            if (s as usize) >= ctx.samplers {
                diags.push(Diagnostic {
                    kind: DiagKind::UnboundSampler,
                    severity: Severity::Error,
                    line: instr.line,
                    message: format!(
                        "TEX samples tex{s} but the pass binds {} texture(s)",
                        ctx.samplers
                    ),
                });
            }
        }
        for src in &instr.srcs {
            match src.reg {
                Reg::TexCoord(t) if (t as usize) >= ctx.texcoord_sets => {
                    diags.push(Diagnostic {
                        kind: DiagKind::UnboundTexCoord,
                        severity: Severity::Error,
                        line: instr.line,
                        message: format!(
                            "reads T{t} but the pass supplies {} coordinate set(s)",
                            ctx.texcoord_sets
                        ),
                    });
                }
                Reg::Const(c) if !const_defined[c as usize] => {
                    diags.push(Diagnostic {
                        kind: DiagKind::UndefinedConst,
                        severity: Severity::Error,
                        line: instr.line,
                        message: format!("reads C{c}, which is neither DEFed nor pass-bound"),
                    });
                }
                _ => {}
            }
        }
        if let Reg::Output(o) = instr.dst.reg {
            outputs_written[o as usize] = true;
        }
    }

    if lint_mode {
        // Without pass context, only require that the program produces
        // something at all.
        if !outputs_written.iter().any(|&w| w) {
            diags.push(Diagnostic {
                kind: DiagKind::OutputNotWritten,
                severity: Severity::Error,
                line: 0,
                message: format!("program `{}` writes no output register", program.name),
            });
        }
    } else {
        for (o, (&read, &written)) in ctx.outputs_read.iter().zip(&outputs_written).enumerate() {
            if read && !written {
                diags.push(Diagnostic {
                    kind: DiagKind::OutputNotWritten,
                    severity: Severity::Error,
                    line: 0,
                    message: format!(
                        "the pass reads back {} but program `{}` never writes it",
                        Reg::Output(o as u8),
                        program.name
                    ),
                });
            }
        }
    }
}

/// Depth of dependent texture reads via per-lane def-use chains.
///
/// A `TEX` whose coordinates come straight from an interpolated `T` register
/// has depth 1; a `TEX` whose coordinates depend (through any arithmetic) on
/// another `TEX`'s result is one level deeper.
fn tex_chain_depth(program: &Program, profile: &GpuProfile, diags: &mut Vec<Diagnostic>) {
    // depth[t][lane]: deepest TEX chain feeding that temp lane.
    let mut depth = [[0u32; 4]; NUM_TEMPS];
    for instr in &program.instrs {
        let mut src_depth = 0u32;
        for (si, src) in instr.srcs.iter().enumerate() {
            if let Reg::Temp(t) = src.reg {
                let lanes = read_lanes(instr, si);
                for (l, &d) in depth[t as usize].iter().enumerate() {
                    if lanes & (1 << l) != 0 {
                        src_depth = src_depth.max(d);
                    }
                }
            }
        }
        let out_depth = if instr.op == Opcode::Tex {
            let d = src_depth + 1;
            if d as usize > profile.max_tex_indirections {
                diags.push(Diagnostic {
                    kind: DiagKind::TexChainTooDeep,
                    severity: Severity::Error,
                    line: instr.line,
                    message: format!(
                        "dependent texture read at depth {d}; {} allows {}",
                        profile.name, profile.max_tex_indirections
                    ),
                });
            }
            d
        } else {
            src_depth
        };
        if let Reg::Temp(t) = instr.dst.reg {
            for (l, &m) in instr.dst.mask.iter().enumerate() {
                if m {
                    depth[t as usize][l] = out_depth;
                }
            }
        }
    }
}

/// Backward lane-precise liveness: flag writes no later instruction reads.
fn dead_writes(
    program: &Program,
    ctx: &PassBindings,
    lint_mode: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let mut live = [0u8; NUM_TEMPS];
    for instr in program.instrs.iter().rev() {
        match instr.dst.reg {
            Reg::Temp(t) => {
                let written = dst_mask(instr);
                if written & live[t as usize] == 0 {
                    diags.push(Diagnostic {
                        kind: DiagKind::DeadWrite,
                        severity: Severity::Warning,
                        line: instr.line,
                        message: format!(
                            "{} writes R{t}.{} but nothing reads those lanes afterwards",
                            instr.op.mnemonic(),
                            lane_names(written)
                        ),
                    });
                }
                live[t as usize] &= !written;
            }
            // Writing an output the pass never resolves is dead too; in
            // lint mode any output counts as observed.
            Reg::Output(o) if !lint_mode && !ctx.outputs_read[o as usize] => {
                diags.push(Diagnostic {
                    kind: DiagKind::DeadWrite,
                    severity: Severity::Warning,
                    line: instr.line,
                    message: format!(
                        "{} writes {} but the pass never reads it back",
                        instr.op.mnemonic(),
                        instr.dst.reg
                    ),
                });
            }
            _ => {}
        }
        for (si, src) in instr.srcs.iter().enumerate() {
            if let Reg::Temp(t) = src.reg {
                live[t as usize] |= read_lanes(instr, si);
            }
        }
    }
}

/// Warn on `RCP`/`RSQ`/`LG2` whose input lanes carry no epsilon guard.
///
/// Guardedness is a structural approximation of "provably positive":
/// `MAX`/`ADD` results count as guarded (the idiomatic `MAX R, R, C.eps`
/// and `ADD R, R, C.eps` guards), `EX2` is positive by construction, `DEF`
/// constants are guarded where their lane value is positive, `MOV`/`ABS`
/// and products of guarded values propagate, and everything else —
/// texture fetches, interpolants, pass-bound constants, subtractions —
/// is unguarded.
fn unguarded_math(program: &Program, _ctx: &PassBindings, diags: &mut Vec<Diagnostic>) {
    let mut const_guarded = [0u8; NUM_CONSTS];
    for d in &program.defs {
        for (l, &v) in d.value.iter().enumerate() {
            if v > 0.0 {
                const_guarded[d.index as usize] |= 1 << l;
            }
        }
    }
    let mut guarded = [0u8; NUM_TEMPS];

    // Lanes of `src` (post-swizzle, per written dst lane) that are guarded.
    let src_guarded = |instr: &Instr, si: usize, guarded: &[u8; NUM_TEMPS]| -> u8 {
        let src = &instr.srcs[si];
        if src.negate {
            return 0; // negation flips sign; never guarded
        }
        let reg_mask = match src.reg {
            Reg::Temp(t) => guarded[t as usize],
            Reg::Const(c) => const_guarded[c as usize],
            _ => 0,
        };
        let swz = src.swizzle.0;
        (0..4).fold(0u8, |acc, l| {
            if reg_mask & (1 << swz[l]) != 0 {
                acc | 1 << l
            } else {
                acc
            }
        })
    };

    for instr in &program.instrs {
        let written = dst_mask(instr);
        // Check the check-worthy ops against their input guardedness.
        if matches!(instr.op, Opcode::Rcp | Opcode::Rsq | Opcode::Lg2) {
            let unguarded = written & !src_guarded(instr, 0, &guarded);
            if unguarded != 0 {
                diags.push(Diagnostic {
                    kind: DiagKind::UnguardedMathInput,
                    severity: Severity::Warning,
                    line: instr.line,
                    message: format!(
                        "{} input {} lane(s) {} may be zero or negative; guard with MAX/ADD \
                         against an epsilon constant",
                        instr.op.mnemonic(),
                        instr.srcs[0].reg,
                        lane_names(unguarded)
                    ),
                });
            }
        }
        // Transfer function: which written lanes become guarded.
        let out_guarded = match instr.op {
            Opcode::Max | Opcode::Add | Opcode::Ex2 => written,
            Opcode::Mov | Opcode::Abs => written & src_guarded(instr, 0, &guarded),
            Opcode::Mul | Opcode::Rcp | Opcode::Rsq => {
                instr.srcs.iter().enumerate().fold(written, |acc, (si, _)| {
                    acc & src_guarded(instr, si, &guarded)
                })
            }
            Opcode::Mad | Opcode::Min => {
                instr.srcs.iter().enumerate().fold(written, |acc, (si, _)| {
                    acc & src_guarded(instr, si, &guarded)
                })
            }
            _ => 0,
        };
        if let Reg::Temp(t) = instr.dst.reg {
            guarded[t as usize] = (guarded[t as usize] & !written) | out_guarded;
        }
    }
}

/// `DEF`s nothing reads, and `DEF`s the pass overrides.
fn const_lints(
    program: &Program,
    ctx: &PassBindings,
    lint_mode: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let mut const_read = [false; NUM_CONSTS];
    for instr in &program.instrs {
        for src in &instr.srcs {
            if let Reg::Const(c) = src.reg {
                const_read[c as usize] = true;
            }
        }
    }
    for d in &program.defs {
        if !const_read[d.index as usize] {
            diags.push(Diagnostic {
                kind: DiagKind::UnusedConst,
                severity: Severity::Warning,
                line: d.line,
                message: format!("DEF C{} is never read", d.index),
            });
        }
        // In lint mode "all constants bound" is an assumption, not a real
        // conflict.
        if !lint_mode && ctx.constants.contains(&d.index) {
            diags.push(Diagnostic {
                kind: DiagKind::ConstConflict,
                severity: Severity::Warning,
                line: d.line,
                message: format!(
                    "DEF C{} is shadowed by a pass-bound constant (the pass value wins)",
                    d.index
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn profile() -> GpuProfile {
        GpuProfile::fx5950_ultra()
    }

    fn lint(src: &str) -> Vec<Diagnostic> {
        verify(&assemble(src).unwrap(), &profile(), None)
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let d = lint(
            "!!ok\nDEF C0, 1e-6, 0, 0, 0\nTEX R0, T0, tex0\nMAX R0, R0, C0.x\n\
             RCP R1, R0\nMOV OC, R1\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lane_precise_use_before_def() {
        // R0.xy written, R0.zz read: flagged.
        let d = lint("MOV R0.xy, T0\nADD OC, R0.zzzz, T0\n");
        assert!(kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
        assert!(d[0].message.contains("R0.z"), "{}", d[0].message);
        assert_eq!(d[0].line, 2);
        // Reading exactly the written lanes is fine.
        let d = lint("MOV R0.xy, T0\nADD OC.xy, R0.xyxy, T0\n");
        assert!(!kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
    }

    #[test]
    fn dot_products_read_all_their_lanes() {
        // DP4 reads all four lanes even though the dst mask is .x.
        let d = lint("MOV R0.xyz, T0\nDP4 R1.x, R0, T0\nMOV OC, R1.x\n");
        assert!(kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
        // DP3 only needs xyz.
        let d = lint("MOV R0.xyz, T0\nDP3 R1, R0, T0\nMOV OC, R1\n");
        assert!(!kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
    }

    #[test]
    fn tex_reads_two_coordinate_lanes() {
        let d = lint("MOV R0.x, T0\nTEX R1, R0, tex0\nMOV OC, R1\n");
        assert!(kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
    }

    #[test]
    fn binding_errors_with_pass_context() {
        let p = assemble("TEX R0, T1, tex2\nADD OC, R0, C5\n").unwrap();
        let ctx = PassBindings {
            samplers: 1,
            texcoord_sets: 1,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let d = verify(&p, &profile(), Some(&ctx));
        let k = kinds(&d);
        assert!(k.contains(&DiagKind::UnboundSampler), "{d:?}");
        assert!(k.contains(&DiagKind::UnboundTexCoord), "{d:?}");
        assert!(k.contains(&DiagKind::UndefinedConst), "{d:?}");
    }

    #[test]
    fn output_must_be_written_when_read_back() {
        let p = assemble("MOV O1, T0\n").unwrap();
        let ctx = PassBindings {
            samplers: 0,
            texcoord_sets: 1,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let d = verify(&p, &profile(), Some(&ctx));
        assert!(kinds(&d).contains(&DiagKind::OutputNotWritten), "{d:?}");
        // Lint mode: writing any output is enough.
        let d = verify(&p, &profile(), None);
        assert!(!kinds(&d).contains(&DiagKind::OutputNotWritten), "{d:?}");
        // But a program writing nothing is flagged even in lint mode.
        let d = lint("MOV R0, T0\n");
        assert!(kinds(&d).contains(&DiagKind::OutputNotWritten), "{d:?}");
    }

    #[test]
    fn instruction_limit_enforced() {
        let mut src = String::new();
        for _ in 0..1025 {
            src.push_str("MOV OC, T0\n");
        }
        let d = lint(&src);
        assert!(kinds(&d).contains(&DiagKind::TooManyInstructions), "{d:?}");
        assert!(has_errors(&d));
    }

    #[test]
    fn dependent_tex_chain_depth() {
        // Depth 5 chain on a profile allowing 4.
        let src = "TEX R0, T0, tex0\nTEX R1, R0, tex0\nTEX R2, R1, tex0\n\
                   TEX R3, R2, tex0\nTEX R4, R3, tex0\nMOV OC, R4\n";
        let d = lint(src);
        assert!(kinds(&d).contains(&DiagKind::TexChainTooDeep), "{d:?}");
        // Same chain is fine on the deeper-limit profile.
        let p = assemble(src).unwrap();
        let d = verify(&p, &GpuProfile::geforce_7800gtx(), None);
        assert!(!kinds(&d).contains(&DiagKind::TexChainTooDeep), "{d:?}");
        // Arithmetic between fetches still counts as dependence.
        let src = "TEX R0, T0, tex0\nMUL R0, R0, R0\nTEX R1, R0, tex0\nMOV OC, R1\n";
        let d = lint(src);
        assert!(!has_errors(&d), "{d:?}");
    }

    #[test]
    fn register_bounds_for_programs_built_in_code() {
        use crate::isa::{Dst, Instr, Src, NUM_TEMPS};
        let p = Program {
            name: "bad".into(),
            instrs: vec![Instr {
                op: Opcode::Mov,
                dst: Dst::new(Reg::Output(0)),
                srcs: vec![Src::new(Reg::Temp(NUM_TEMPS as u8))],
                sampler: None,
                line: 0,
            }],
            defs: vec![],
        };
        let d = verify(&p, &profile(), None);
        assert!(kinds(&d).contains(&DiagKind::RegisterOutOfRange), "{d:?}");
        // Wrong arity is malformed.
        let p = Program {
            name: "bad2".into(),
            instrs: vec![Instr {
                op: Opcode::Add,
                dst: Dst::new(Reg::Output(0)),
                srcs: vec![Src::new(Reg::TexCoord(0))],
                sampler: None,
                line: 0,
            }],
            defs: vec![],
        };
        let d = verify(&p, &profile(), None);
        assert!(kinds(&d).contains(&DiagKind::MalformedInstr), "{d:?}");
    }

    #[test]
    fn dead_write_lint() {
        // R1 is never read.
        let d = lint("MOV R1, T0\nMOV OC, T0\n");
        assert!(kinds(&d).contains(&DiagKind::DeadWrite), "{d:?}");
        // Overwritten before any read.
        let d = lint("TEX R0, T0, tex0\nMOV R0, T0\nMOV OC, R0\n");
        assert!(kinds(&d).contains(&DiagKind::DeadWrite), "{d:?}");
        // Partially-live writes are not flagged.
        let d = lint("MOV R0, T0\nMOV OC, R0.x\n");
        assert!(!kinds(&d).contains(&DiagKind::DeadWrite), "{d:?}");
    }

    #[test]
    fn unguarded_math_lint() {
        // Raw texture fetch into RCP: flagged.
        let d = lint("TEX R0, T0, tex0\nRCP R1, R0\nMOV OC, R1\n");
        assert!(kinds(&d).contains(&DiagKind::UnguardedMathInput), "{d:?}");
        // MAX-guarded: clean.
        let d = lint(
            "DEF C0, 1e-6, 0, 0, 0\nTEX R0, T0, tex0\nMAX R0, R0, C0.x\n\
             LG2 R1, R0\nMOV OC, R1\n",
        );
        assert!(!kinds(&d).contains(&DiagKind::UnguardedMathInput), "{d:?}");
        // Guardedness survives multiplication of guarded values.
        let d = lint(
            "DEF C0, 1e-6, 0, 0, 0\nTEX R0, T0, tex0\nTEX R1, T0, tex1\n\
             MAX R0, R0, C0.x\nMAX R1, R1, C0.x\nRCP R2, R1\nMUL R2, R0, R2\n\
             LG2 R2, R2\nMOV OC, R2\n",
        );
        assert!(!kinds(&d).contains(&DiagKind::UnguardedMathInput), "{d:?}");
        // Negation defeats the guard.
        let d = lint(
            "DEF C0, 1e-6, 0, 0, 0\nTEX R0, T0, tex0\nMAX R0, R0, C0.x\n\
             RCP R1, -R0\nMOV OC, R1\n",
        );
        assert!(kinds(&d).contains(&DiagKind::UnguardedMathInput), "{d:?}");
    }

    #[test]
    fn const_lints_fire() {
        // Unused DEF.
        let d = lint("DEF C7, 1, 2, 3, 4\nMOV OC, T0\n");
        assert!(kinds(&d).contains(&DiagKind::UnusedConst), "{d:?}");
        assert_eq!(
            d.iter()
                .find(|x| x.kind == DiagKind::UnusedConst)
                .unwrap()
                .line,
            1
        );
        // DEF shadowed by a pass binding.
        let p = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0\n").unwrap();
        let ctx = PassBindings {
            samplers: 0,
            texcoord_sets: 0,
            constants: vec![0],
            outputs_read: [true, false, false, false],
        };
        let d = verify(&p, &profile(), Some(&ctx));
        assert!(kinds(&d).contains(&DiagKind::ConstConflict), "{d:?}");
    }

    #[test]
    fn diagnostics_sort_errors_first() {
        let d = lint("DEF C7, 1, 2, 3, 4\nMOV R1, T0\nADD OC, R0, T0\n");
        assert!(has_errors(&d));
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d.windows(2).all(|w| w[0].severity <= w[1].severity));
    }

    #[test]
    fn diagnostic_display_is_rustc_like() {
        let d = Diagnostic {
            kind: DiagKind::UseBeforeDef,
            severity: Severity::Error,
            line: 7,
            message: "reads R0.z before any write".into(),
        };
        let s = d.to_string();
        assert!(s.contains("error[use-before-def]"));
        assert!(s.contains("line 7"));
    }
}
