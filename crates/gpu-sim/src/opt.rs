//! Lane-precise optimizing dataflow framework for the straight-line fp30 IR.
//!
//! The verifier ([`mod@crate::verify`]) already computes lane-precise use/def
//! facts to diagnose programs; this module reuses the same per-lane machinery
//! (`verify::read_lanes`, `verify::dst_mask`) to *transform* them. The
//! framework provides the classic straight-line analyses — backward
//! [`liveness`], forward [`reaching_defs`], and (internally) copy/constant
//! lattices and texture-fetch availability — plus a fixpoint pipeline of
//! **exact-preserving** rewrites driven by [`optimize`]:
//!
//! * constant folding/propagation into fresh `DEF`s,
//! * copy + swizzle propagation through non-saturating `MOV`s,
//! * common-subexpression elimination, including redundant `TEX` fetches
//!   with identical coordinate and unit,
//! * `MUL`+`ADD`→`MAD` and `MUL`+`DP4`(ones)→`DP4` fusion where
//!   bit-exactness is provable,
//! * dead-write-lane narrowing and dead-instruction elimination,
//! * coalescing a trailing `MOV O, R` by renaming `R`'s def range onto `O`,
//! * pruning `DEF`s left unread.
//!
//! Every rewrite preserves results *bit for bit* on the interpreter in
//! [`crate::interp`]: folding evaluates through the interpreter's own
//! `interp::alu`; `MAD` fusion is exact because the interpreter's `MAD` is
//! the unfused two-rounding `a*b + c`; dot fusion only fires against a
//! provable all-ones constant, and `x * 1.0` is the identity for every
//! finite, infinite, and NaN input the interpreter produces. Rewrites that
//! would *not* be exact (e.g. `x + 0.0`, which breaks `-0.0`) are never
//! attempted. See DESIGN.md §13 for the full exactness argument.

use crate::interp;
use crate::isa::{
    ConstDef, Dst, Instr, Opcode, Program, Reg, Src, Swizzle, NUM_CONSTS, NUM_OUTPUTS, NUM_TEMPS,
    NUM_TEXCOORDS,
};
use crate::verify::{self, PassBindings};
use std::fmt;

/// Fold a constant source operand against its resolved register value:
/// apply the swizzle, then the negate — exactly the order the interpreter
/// uses at runtime, so folded immediates are bit-identical to a live read.
///
/// This is the single definition of constant folding in the crate;
/// [`crate::interp::lower`] routes its `DEF`+pass-constant folding through
/// it as well.
pub fn fold_const_src(src: &Src, value: [f32; 4]) -> [f32; 4] {
    interp::swizzle_negate(src.swizzle, src.negate, value)
}

/// Positions (indices into each operand's swizzle) that `instr` reads, as a
/// 4-bit mask. Dot products and `TEX` read fixed positions; componentwise
/// ops read position `l` exactly when destination lane `l` is written.
fn read_position_mask(instr: &Instr) -> u8 {
    match instr.op {
        Opcode::Dp3 => 0b0111,
        Opcode::Dp4 => 0b1111,
        Opcode::Tex => 0b0011,
        _ => verify::dst_mask(instr),
    }
}

fn reg_in_range(reg: Reg) -> bool {
    match reg {
        Reg::Temp(i) => (i as usize) < NUM_TEMPS,
        Reg::Const(i) => (i as usize) < NUM_CONSTS,
        Reg::TexCoord(i) => (i as usize) < NUM_TEXCOORDS,
        Reg::Output(i) => (i as usize) < NUM_OUTPUTS,
    }
}

/// True when the program violates a structural invariant the passes assume
/// (operand arity, register ranges, writable destinations, `TEX` samplers).
/// [`optimize`] returns such programs unchanged; [`crate::verify`] reports
/// the actual errors.
fn malformed(program: &Program) -> bool {
    program.instrs.iter().any(|i| {
        i.srcs.len() != i.op.arity()
            || !matches!(i.dst.reg, Reg::Temp(_) | Reg::Output(_))
            || !reg_in_range(i.dst.reg)
            || i.srcs.iter().any(|s| !reg_in_range(s.reg))
            || i.srcs.iter().any(|s| s.swizzle.0.iter().any(|&l| l > 3))
            || (i.op == Opcode::Tex && i.sampler.is_none())
    }) || program
        .defs
        .iter()
        .any(|d| (d.index as usize) >= NUM_CONSTS)
}

// ---------------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------------

/// Lane-precise liveness facts for a straight-line program, computed
/// backward from the pass's read-back outputs by [`liveness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// `temps_after[i][r]` = 4-bit mask of `Rr` lanes live *after* instr `i`.
    pub temps_after: Vec<[u8; NUM_TEMPS]>,
    /// `outputs_after[i][o]` = 4-bit mask of `Oo` lanes live after instr `i`.
    pub outputs_after: Vec<[u8; NUM_OUTPUTS]>,
}

/// Backward lane-precise liveness. A lane is live when some later
/// instruction (or the pass read-back, per `outputs_read`) observes it
/// before it is overwritten. Read lanes come from `verify::read_lanes`,
/// so the optimizer and verifier can never disagree about what is dead.
pub fn liveness(instrs: &[Instr], outputs_read: [bool; NUM_OUTPUTS]) -> Liveness {
    let n = instrs.len();
    let mut temps_after = vec![[0u8; NUM_TEMPS]; n];
    let mut outputs_after = vec![[0u8; NUM_OUTPUTS]; n];
    let mut live_t = [0u8; NUM_TEMPS];
    let mut live_o = [0u8; NUM_OUTPUTS];
    for (o, lanes) in live_o.iter_mut().zip(outputs_read) {
        *o = if lanes { 0b1111 } else { 0 };
    }
    for i in (0..n).rev() {
        temps_after[i] = live_t;
        outputs_after[i] = live_o;
        let instr = &instrs[i];
        let written = verify::dst_mask(instr);
        match instr.dst.reg {
            Reg::Temp(r) => live_t[r as usize] &= !written,
            Reg::Output(o) => live_o[o as usize] &= !written,
            _ => {}
        }
        for si in 0..instr.srcs.len() {
            let lanes = verify::read_lanes(instr, si);
            match instr.srcs[si].reg {
                Reg::Temp(r) => live_t[r as usize] |= lanes,
                Reg::Output(o) => live_o[o as usize] |= lanes,
                _ => {}
            }
        }
    }
    Liveness {
        temps_after,
        outputs_after,
    }
}

/// Forward reaching definitions: for each instruction `i` and each temp
/// lane, the index of the instruction whose write reaches the *start* of
/// `i`, or `None` when the lane still holds its zero initialisation.
pub fn reaching_defs(instrs: &[Instr]) -> Vec<[[Option<usize>; 4]; NUM_TEMPS]> {
    let mut cur = [[None; 4]; NUM_TEMPS];
    let mut out = Vec::with_capacity(instrs.len());
    for (i, instr) in instrs.iter().enumerate() {
        out.push(cur);
        if let Reg::Temp(r) = instr.dst.reg {
            for (lane, slot) in cur[r as usize].iter_mut().enumerate() {
                if instr.dst.mask[lane] {
                    *slot = Some(i);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Counters and report
// ---------------------------------------------------------------------------

/// Per-pass elimination counters accumulated by one [`optimize`] run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptCounters {
    /// Instructions whose result was computed at optimize time and replaced
    /// with a `MOV` from a materialised `DEF`.
    pub consts_folded: u64,
    /// Source operands rewritten through a copy (`MOV`) definition.
    pub copies_propagated: u64,
    /// ALU instructions replaced by a `MOV` from an identical earlier result.
    pub cse_replaced: u64,
    /// Redundant `TEX` fetches (same coordinate operand and unit) replaced.
    pub tex_cse_replaced: u64,
    /// `MUL`+`ADD` pairs fused into a single `MAD`.
    pub mads_fused: u64,
    /// `MUL`+`DP4`(all-ones) pairs fused into a single `DP4`.
    pub dots_fused: u64,
    /// Instructions removed because no written lane was live.
    pub dead_instructions: u64,
    /// Individual write lanes cleared from surviving instructions.
    pub dead_lanes: u64,
    /// Trailing `MOV O, R` copies removed by renaming `R` onto `O`.
    pub outputs_coalesced: u64,
    /// `DEF`s removed because no instruction reads the constant.
    pub defs_removed: u64,
}

impl OptCounters {
    /// Accumulate another run's counters into this one.
    pub fn add(&mut self, other: &OptCounters) {
        self.consts_folded += other.consts_folded;
        self.copies_propagated += other.copies_propagated;
        self.cse_replaced += other.cse_replaced;
        self.tex_cse_replaced += other.tex_cse_replaced;
        self.mads_fused += other.mads_fused;
        self.dots_fused += other.dots_fused;
        self.dead_instructions += other.dead_instructions;
        self.dead_lanes += other.dead_lanes;
        self.outputs_coalesced += other.outputs_coalesced;
        self.defs_removed += other.defs_removed;
    }

    /// `(label, count)` pairs in a stable order, for reports and JSON.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("consts_folded", self.consts_folded),
            ("copies_propagated", self.copies_propagated),
            ("cse_replaced", self.cse_replaced),
            ("tex_cse_replaced", self.tex_cse_replaced),
            ("mads_fused", self.mads_fused),
            ("dots_fused", self.dots_fused),
            ("dead_instructions", self.dead_instructions),
            ("dead_lanes", self.dead_lanes),
            ("outputs_coalesced", self.outputs_coalesced),
            ("defs_removed", self.defs_removed),
        ]
    }
}

/// Before/after summary of one [`optimize`] run on one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// Program name (`Program::name`).
    pub name: String,
    /// Instruction count before optimization.
    pub before: usize,
    /// Instruction count after optimization.
    pub after: usize,
    /// What each pass eliminated.
    pub counters: OptCounters,
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} instructions",
            self.name, self.before, self.after
        )?;
        let mut any = false;
        for (label, count) in self.counters.entries() {
            if count > 0 {
                write!(f, "{} {label} {count}", if any { "," } else { " (" })?;
                any = true;
            }
        }
        if any {
            write!(f, ")")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The optimizer
// ---------------------------------------------------------------------------

/// Upper bound on fixpoint rounds; each round either changes the program or
/// terminates the loop, and every rewrite strictly reduces instructions,
/// operand indirections, or unknown lattice entries, so this is never hit
/// in practice.
const MAX_ROUNDS: usize = 8;

/// Optimize `program` for execution under `bindings`, preserving results
/// bit for bit.
///
/// `bindings` matters twice: pass-bound constant registers have unknown
/// values (never folded), and `outputs_read` seeds liveness for dead-code
/// elimination. Returns the optimized program and an [`OptReport`].
/// Structurally malformed programs (which [`fn@crate::verify`] rejects) are
/// returned unchanged.
pub fn optimize(program: &Program, bindings: &PassBindings) -> (Program, OptReport) {
    let mut p = program.clone();
    let mut counters = OptCounters::default();
    let before = p.instrs.len();
    if !malformed(&p) {
        for _ in 0..MAX_ROUNDS {
            let mut changed = false;
            changed |= propagate(&mut p, bindings, &mut counters);
            changed |= dedup_invariant_tex(&mut p, &mut counters);
            changed |= cse(&mut p, &mut counters);
            changed |= fuse(&mut p, bindings, &mut counters);
            changed |= dce(&mut p, bindings, &mut counters);
            changed |= coalesce_output(&mut p, &mut counters);
            if !changed {
                break;
            }
        }
        prune_defs(&mut p, &mut counters);
    }
    let report = OptReport {
        name: p.name.clone(),
        before,
        after: p.instrs.len(),
        counters,
    };
    (p, report)
}

/// One lane of the copy lattice: "this lane currently equals
/// `±source_reg.lane`".
#[derive(Debug, Clone, Copy, PartialEq)]
struct CopyLane {
    reg: Reg,
    lane: u8,
    negate: bool,
}

/// Combined forward copy/constant propagation and constant folding.
///
/// A single in-order scan maintains, per temp lane, (a) a copy fact from
/// the latest non-saturating `MOV`, used to rewrite later reads through the
/// copy, and (b) a constant value when one is statically known, used to
/// evaluate instructions whose read lanes are all known. Folded results are
/// materialised as fresh `DEF`s (reusing a bit-identical existing `DEF` or
/// a free constant register) and replaced with a `MOV`; copy propagation
/// then forwards them and DCE removes the `MOV` when it dies.
fn propagate(p: &mut Program, bindings: &PassBindings, counters: &mut OptCounters) -> bool {
    let mut defv = [None::<[f32; 4]>; NUM_CONSTS];
    for d in &p.defs {
        defv[d.index as usize] = Some(d.value);
    }
    for &c in &bindings.constants {
        if (c as usize) < NUM_CONSTS {
            defv[c as usize] = None; // pass-bound: value unknown at optimize time
        }
    }
    let mut copy = [[None::<CopyLane>; 4]; NUM_TEMPS];
    let mut konst = [[None::<f32>; 4]; NUM_TEMPS];
    let mut new_defs: Vec<ConstDef> = Vec::new();
    let mut changed = false;

    for instr in &mut p.instrs {
        let positions = read_position_mask(instr);

        // --- Copy propagation: rewrite each operand through the lattice.
        for src in &mut instr.srcs {
            let Reg::Temp(r) = src.reg else { continue };
            let mut target: Option<(Reg, bool)> = None;
            let mut new_lanes = [0u8; 4];
            let mut ok = true;
            for pos in 0..4 {
                if positions & (1 << pos) == 0 {
                    continue;
                }
                match copy[r as usize][src.swizzle.0[pos] as usize] {
                    Some(fact) => {
                        if let Some((reg, neg)) = target {
                            if reg != fact.reg || neg != fact.negate {
                                ok = false;
                                break;
                            }
                        } else {
                            target = Some((fact.reg, fact.negate));
                        }
                        new_lanes[pos] = fact.lane;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            let Some((reg, neg)) = target else { continue };
            if !ok {
                continue;
            }
            // Fill unread positions with the first read position's lane so
            // the swizzle stays well-formed without widening what is read.
            let fill = (0..4)
                .find(|pos| positions & (1 << pos) != 0)
                .map(|pos| new_lanes[pos])
                .unwrap_or(0);
            for (pos, lane) in new_lanes.iter_mut().enumerate() {
                if positions & (1 << pos) == 0 {
                    *lane = fill;
                }
            }
            let rewritten = Src {
                reg,
                swizzle: Swizzle(new_lanes),
                negate: src.negate ^ neg,
            };
            if rewritten != *src {
                *src = rewritten;
                counters.copies_propagated += 1;
                changed = true;
            }
        }

        // --- Constant folding: evaluate when every read lane is known.
        let already_folded = instr.op == Opcode::Mov && matches!(instr.srcs[0].reg, Reg::Const(_));
        if instr.op != Opcode::Tex && !already_folded {
            let all_known = instr.srcs.iter().all(|src| {
                (0..4).all(|pos| {
                    positions & (1 << pos) == 0 || known_pos(&defv, &konst, src, pos).is_some()
                })
            });
            if all_known {
                let vecs: Vec<[f32; 4]> = instr
                    .srcs
                    .iter()
                    .map(|src| {
                        let mut v = [0.0f32; 4];
                        for (pos, slot) in v.iter_mut().enumerate() {
                            if positions & (1 << pos) != 0 {
                                *slot = known_pos(&defv, &konst, src, pos).unwrap();
                            }
                        }
                        v
                    })
                    .collect();
                let mut result = interp::alu(instr.op, |i| vecs[i]);
                if instr.dst.saturate {
                    result = result.map(|v| v.clamp(0.0, 1.0));
                }
                let mut stored = [0.0f32; 4];
                for (lane, slot) in stored.iter_mut().enumerate() {
                    if instr.dst.mask[lane] {
                        *slot = result[lane];
                    }
                }
                if let Some(index) = materialize(&p.defs, &mut new_defs, bindings, stored) {
                    instr.op = Opcode::Mov;
                    instr.srcs = vec![Src {
                        reg: Reg::Const(index),
                        swizzle: Swizzle::IDENTITY,
                        negate: false,
                    }];
                    instr.sampler = None;
                    instr.dst.saturate = false;
                    defv[index as usize] = Some(stored);
                    counters.consts_folded += 1;
                    changed = true;
                }
            }
        }

        // --- Lattice update for this (possibly rewritten) instruction.
        let written = verify::dst_mask(instr);
        if let Reg::Temp(d) = instr.dst.reg {
            // Kill copies whose source lanes are being overwritten.
            for lanes in copy.iter_mut() {
                for slot in lanes.iter_mut() {
                    if let Some(fact) = slot {
                        if fact.reg == Reg::Temp(d) && written & (1 << fact.lane) != 0 {
                            *slot = None;
                        }
                    }
                }
            }
            let is_copy = instr.op == Opcode::Mov
                && !instr.dst.saturate
                && instr.srcs[0].reg != Reg::Temp(d)
                && matches!(
                    instr.srcs[0].reg,
                    Reg::Temp(_) | Reg::TexCoord(_) | Reg::Const(_)
                );
            for lane in 0..4 {
                if written & (1 << lane) == 0 {
                    continue;
                }
                let src = &instr.srcs[0];
                copy[d as usize][lane] = if is_copy {
                    Some(CopyLane {
                        reg: src.reg,
                        lane: src.swizzle.0[lane],
                        negate: src.negate,
                    })
                } else {
                    None
                };
                konst[d as usize][lane] = if instr.op == Opcode::Mov {
                    known_pos(&defv, &konst, src, lane).map(|v| {
                        if instr.dst.saturate {
                            v.clamp(0.0, 1.0)
                        } else {
                            v
                        }
                    })
                } else {
                    None
                };
            }
        }
    }
    p.defs.extend(new_defs);
    changed
}

/// Resolve one operand position of `src` to a statically known value, if
/// any: constants through the `DEF` environment, temps through the constant
/// lattice, with the operand's negate applied after the swizzle.
fn known_pos(
    defv: &[Option<[f32; 4]>; NUM_CONSTS],
    konst: &[[Option<f32>; 4]; NUM_TEMPS],
    src: &Src,
    pos: usize,
) -> Option<f32> {
    let lane = src.swizzle.0[pos] as usize;
    let v = match src.reg {
        Reg::Const(c) => defv[c as usize].map(|v| v[lane]),
        Reg::Temp(r) => konst[r as usize][lane],
        _ => None,
    }?;
    Some(if src.negate { -v } else { v })
}

/// Find a constant register holding exactly `value` (bit-compared), or
/// allocate a free one. Returns `None` when every register is taken.
fn materialize(
    defs: &[ConstDef],
    new_defs: &mut Vec<ConstDef>,
    bindings: &PassBindings,
    value: [f32; 4],
) -> Option<u8> {
    let bits = value.map(f32::to_bits);
    for d in defs.iter().chain(new_defs.iter()) {
        if d.value.map(f32::to_bits) == bits {
            return Some(d.index);
        }
    }
    let mut taken = [false; NUM_CONSTS];
    for d in defs.iter().chain(new_defs.iter()) {
        taken[d.index as usize] = true;
    }
    for &c in &bindings.constants {
        if (c as usize) < NUM_CONSTS {
            taken[c as usize] = true;
        }
    }
    let free = taken.iter().position(|t| !t)? as u8;
    new_defs.push(ConstDef {
        index: free,
        value,
        line: 0,
    });
    Some(free)
}

/// Common-subexpression elimination, including redundant `TEX` fetches.
///
/// A forward scan keeps an availability table of full-mask, non-saturating
/// temp-destination computations keyed on `(op, operands, sampler)`; a later
/// instruction with an identical key is replaced by a `MOV` from the holder
/// (which recovers the identical 4-lane value bit for bit). Entries are
/// invalidated when any operand register or the holder is overwritten.
/// Global dedup of position-pure `TEX` fetches. Two `TEX` instructions on
/// the same sampler whose coordinate operand reads a register the program
/// never writes (an interpolated coordinate set, a constant, or an
/// untouched zero-initialized temp) fetch the same texel no matter where
/// they sit — unlike [`cse`], which must forget an available fetch as soon
/// as its holder register is reused. Each such family is canonicalized into
/// one full-mask fetch of a fresh temp inserted at the first occurrence,
/// and every member is demoted to a `MOV` from it (mask, saturate, and
/// destination preserved, so the rewrite is exact); copy propagation and
/// DCE then dissolve the `MOV`s. Families are processed first-come and the
/// pass stops allocating when the temp file runs out.
fn dedup_invariant_tex(p: &mut Program, counters: &mut OptCounters) -> bool {
    let mut written = [false; NUM_TEMPS];
    for instr in &p.instrs {
        if let Reg::Temp(t) = instr.dst.reg {
            written[t as usize] = true;
        }
    }
    let invariant = |s: &Src| match s.reg {
        Reg::TexCoord(_) | Reg::Const(_) => true,
        Reg::Temp(t) => !written[t as usize],
        _ => false,
    };
    type Key = (Option<u8>, Reg, [u8; 4], bool);
    let mut families: Vec<(Key, Vec<usize>)> = Vec::new();
    for (i, instr) in p.instrs.iter().enumerate() {
        if instr.op != Opcode::Tex {
            continue;
        }
        let s = &instr.srcs[0];
        if !invariant(s) {
            continue;
        }
        let key: Key = (instr.sampler, s.reg, s.swizzle.0, s.negate);
        match families.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => families.push((key, vec![i])),
        }
    }
    families.retain(|(_, v)| v.len() > 1);
    if families.is_empty() {
        return false;
    }
    // Holders live above every temp the program touches (written or
    // zero-init-read); `compact_temps` repacks afterwards.
    let mut next = 0usize;
    for instr in &p.instrs {
        for reg in std::iter::once(instr.dst.reg).chain(instr.srcs.iter().map(|s| s.reg)) {
            if let Reg::Temp(t) = reg {
                next = next.max(t as usize + 1);
            }
        }
    }
    let mut inserts: Vec<(usize, Instr)> = Vec::new();
    let mut changed = false;
    for (key, members) in families {
        if next >= NUM_TEMPS {
            break;
        }
        let holder = next as u8;
        next += 1;
        let first = members[0];
        inserts.push((
            first,
            Instr {
                op: Opcode::Tex,
                dst: Dst {
                    reg: Reg::Temp(holder),
                    mask: [true; 4],
                    saturate: false,
                },
                srcs: vec![Src {
                    reg: key.1,
                    swizzle: Swizzle(key.2),
                    negate: key.3,
                }],
                sampler: key.0,
                line: p.instrs[first].line,
            },
        ));
        for &i in &members {
            let instr = &mut p.instrs[i];
            instr.op = Opcode::Mov;
            instr.srcs = vec![Src {
                reg: Reg::Temp(holder),
                swizzle: Swizzle::IDENTITY,
                negate: false,
            }];
            instr.sampler = None;
        }
        counters.tex_cse_replaced += members.len() as u64 - 1;
        changed = true;
    }
    for (at, instr) in inserts.into_iter().rev() {
        p.instrs.insert(at, instr);
    }
    changed
}

fn cse(p: &mut Program, counters: &mut OptCounters) -> bool {
    type Key = (Opcode, Vec<(Reg, [u8; 4], bool)>, Option<u8>);
    let mut avail: Vec<(Key, u8)> = Vec::new();
    let mut changed = false;
    for instr in &mut p.instrs {
        let key: Key = (
            instr.op,
            instr
                .srcs
                .iter()
                .map(|s| (s.reg, s.swizzle.0, s.negate))
                .collect(),
            instr.sampler,
        );
        if instr.op != Opcode::Mov {
            if let Some((_, holder)) = avail.iter().find(|(k, _)| *k == key) {
                let replacement = Src {
                    reg: Reg::Temp(*holder),
                    swizzle: Swizzle::IDENTITY,
                    negate: false,
                };
                if instr.dst.reg != Reg::Temp(*holder) {
                    if instr.op == Opcode::Tex {
                        counters.tex_cse_replaced += 1;
                    } else {
                        counters.cse_replaced += 1;
                    }
                    instr.op = Opcode::Mov;
                    instr.srcs = vec![replacement];
                    instr.sampler = None;
                    changed = true;
                }
            }
        }
        // Invalidate everything the write clobbers, then register the
        // instruction as a provider when it computes all four lanes.
        let dst = instr.dst.reg;
        avail.retain(|(k, holder)| {
            Reg::Temp(*holder) != dst && k.1.iter().all(|(reg, _, _)| *reg != dst)
        });
        if let Reg::Temp(holder) = instr.dst.reg {
            let full = instr.dst.mask == [true; 4];
            let self_ref = instr.srcs.iter().any(|s| s.reg == Reg::Temp(holder));
            if full && !instr.dst.saturate && !self_ref && instr.op != Opcode::Mov {
                let key: Key = (
                    instr.op,
                    instr
                        .srcs
                        .iter()
                        .map(|s| (s.reg, s.swizzle.0, s.negate))
                        .collect(),
                    instr.sampler,
                );
                avail.push((key, holder));
            }
        }
    }
    changed
}

/// Compose `base`'s swizzle with an outer read swizzle: position `p` of the
/// fused operand reads what `outer[p]` read of `base`.
fn compose(base: &Src, outer: Swizzle) -> Src {
    Src {
        reg: base.reg,
        swizzle: Swizzle(outer.0.map(|l| base.swizzle.0[l as usize])),
        negate: base.negate,
    }
}

/// `MUL`+`ADD`→`MAD` and `MUL`+`DP4`(all-ones)→`DP4` fusion.
///
/// Both rewrites are exact: the interpreter's `MAD` is the unfused
/// two-rounding `a*b + c`, so `MAD` recomputes the identical product and
/// sum; dot fusion drops a `* 1.0` per term, which is the identity on every
/// value. Fusion requires the `MUL` result to be consumed *only* by the
/// fused instruction (no reads in between, dead after), its operands to be
/// unmodified in between, and no negation on the consumed operand (negating
/// before vs. after a multiply can differ in NaN sign propagation).
fn fuse(p: &mut Program, bindings: &PassBindings, counters: &mut OptCounters) -> bool {
    let mut defv = [None::<[f32; 4]>; NUM_CONSTS];
    for d in &p.defs {
        defv[d.index as usize] = Some(d.value);
    }
    for &c in &bindings.constants {
        if (c as usize) < NUM_CONSTS {
            defv[c as usize] = None;
        }
    }
    let mut any = false;
    // One fusion per iteration: indices shift after the removal, so rebuild
    // the reaching-defs table and rescan until no pair fuses.
    loop {
        let rd = reaching_defs(&p.instrs);
        let mut action: Option<(usize, usize, Instr)> = None;
        for (i, instr) in p.instrs.iter().enumerate() {
            let is_add = instr.op == Opcode::Add;
            let is_dot = instr.op == Opcode::Dp4;
            if !is_add && !is_dot {
                continue;
            }
            let Reg::Temp(r) = instr.srcs[0].reg else {
                continue;
            };
            if instr.srcs[0].negate || instr.srcs[1].reg == Reg::Temp(r) {
                continue;
            }
            if is_dot {
                // The second operand must be a provable all-ones constant.
                let s1 = &instr.srcs[1];
                let Reg::Const(c) = s1.reg else { continue };
                let Some(v) = defv[c as usize] else { continue };
                if s1.negate
                    || !s1
                        .swizzle
                        .0
                        .iter()
                        .all(|&l| v[l as usize].to_bits() == 1.0f32.to_bits())
                {
                    continue;
                }
            }
            // All four lanes of r must be defined by one full MUL.
            let lanes = rd[i][r as usize];
            let Some(j) = lanes[0] else { continue };
            if lanes.iter().any(|&l| l != Some(j)) {
                continue;
            }
            let mul = &p.instrs[j];
            if mul.op != Opcode::Mul || mul.dst.saturate || mul.dst.mask != [true; 4] {
                continue;
            }
            // Between the MUL and here: r unread, MUL operands unmodified.
            let clobbered = p.instrs[j + 1..i].iter().any(|b| {
                b.srcs.iter().any(|s| s.reg == Reg::Temp(r))
                    || mul.srcs.iter().any(|s| s.reg == b.dst.reg)
            });
            // The MUL result must be unobservable once `i` executes. A full
            // write-back into `r` itself (the common accumulator shape
            // `MUL R, a, b; DP4 R, R, ones`) buries it immediately.
            let r_buried = instr.dst.reg == Reg::Temp(r) && instr.dst.mask == [true; 4];
            if clobbered || !(r_buried || reg_dead_after(&p.instrs, i, r)) {
                continue;
            }
            let outer = instr.srcs[0].swizzle;
            let mut fused = instr.clone();
            if is_add {
                fused.op = Opcode::Mad;
                fused.srcs = vec![
                    compose(&mul.srcs[0], outer),
                    compose(&mul.srcs[1], outer),
                    instr.srcs[1],
                ];
            } else {
                fused.srcs = vec![compose(&mul.srcs[0], outer), compose(&mul.srcs[1], outer)];
            }
            action = Some((i, j, fused));
            break;
        }
        let Some((i, j, fused)) = action else {
            return any;
        };
        let fused_to_mad = fused.op == Opcode::Mad;
        p.instrs[i] = fused;
        p.instrs.remove(j);
        if fused_to_mad {
            counters.mads_fused += 1;
        } else {
            counters.dots_fused += 1;
        }
        any = true;
    }
}

/// True when no later instruction can observe `Rr` as written at `i`:
/// either nothing mentions it again, or the next mention is a full
/// overwrite. Partial overwrites are conservatively treated as live.
fn reg_dead_after(instrs: &[Instr], i: usize, r: u8) -> bool {
    for instr in &instrs[i + 1..] {
        if instr.srcs.iter().any(|s| s.reg == Reg::Temp(r)) {
            return false;
        }
        if instr.dst.reg == Reg::Temp(r) {
            return instr.dst.mask == [true; 4];
        }
    }
    true
}

/// Dead-instruction elimination and dead-write-lane narrowing, in one
/// backward walk seeded from `bindings.outputs_read`.
fn dce(p: &mut Program, bindings: &PassBindings, counters: &mut OptCounters) -> bool {
    let mut live_t = [0u8; NUM_TEMPS];
    let mut live_o = [0u8; NUM_OUTPUTS];
    for (o, read) in live_o.iter_mut().zip(bindings.outputs_read) {
        *o = if read { 0b1111 } else { 0 };
    }
    let mut changed = false;
    let mut keep: Vec<Instr> = Vec::with_capacity(p.instrs.len());
    for mut instr in p.instrs.drain(..).rev() {
        let written = verify::dst_mask(&instr);
        let live = match instr.dst.reg {
            Reg::Temp(r) => live_t[r as usize],
            Reg::Output(o) => live_o[o as usize],
            _ => 0b1111,
        };
        if written & live == 0 {
            counters.dead_instructions += 1;
            changed = true;
            continue;
        }
        if written & !live != 0 {
            counters.dead_lanes += u64::from((written & !live).count_ones());
            for (lane, m) in instr.dst.mask.iter_mut().enumerate() {
                *m = *m && live & (1 << lane) != 0;
            }
            changed = true;
        }
        match instr.dst.reg {
            Reg::Temp(r) => live_t[r as usize] &= !verify::dst_mask(&instr),
            Reg::Output(o) => live_o[o as usize] &= !verify::dst_mask(&instr),
            _ => {}
        }
        for si in 0..instr.srcs.len() {
            let lanes = verify::read_lanes(&instr, si);
            match instr.srcs[si].reg {
                Reg::Temp(r) => live_t[r as usize] |= lanes,
                Reg::Output(o) => live_o[o as usize] |= lanes,
                _ => {}
            }
        }
        keep.push(instr);
    }
    keep.reverse();
    p.instrs = keep;
    changed
}

/// Coalesce a `MOV O, R` (full mask, identity, no negate/saturate) whose
/// temp `R` is mentioned nowhere after it and whose output `O` is mentioned
/// nowhere else: rename `R` to `O` throughout the def range and drop the
/// `MOV`. Exact because temps and outputs share identical zero-initialised
/// storage semantics in the interpreter.
fn coalesce_output(p: &mut Program, counters: &mut OptCounters) -> bool {
    let mut target: Option<(usize, u8, u8)> = None;
    for (i, instr) in p.instrs.iter().enumerate() {
        let Reg::Output(o) = instr.dst.reg else {
            continue;
        };
        if instr.op != Opcode::Mov
            || instr.dst.mask != [true; 4]
            || instr.dst.saturate
            || instr.srcs[0].negate
            || !instr.srcs[0].swizzle.is_identity()
        {
            continue;
        }
        let Reg::Temp(r) = instr.srcs[0].reg else {
            continue;
        };
        let r_escapes = p.instrs.iter().enumerate().any(|(k, b)| {
            k > i && (b.dst.reg == Reg::Temp(r) || b.srcs.iter().any(|s| s.reg == Reg::Temp(r)))
        });
        let o_elsewhere = p.instrs.iter().enumerate().any(|(k, b)| {
            k != i
                && (b.dst.reg == Reg::Output(o) || b.srcs.iter().any(|s| s.reg == Reg::Output(o)))
        });
        let r_written = p.instrs[..i].iter().any(|b| b.dst.reg == Reg::Temp(r));
        if !r_escapes && !o_elsewhere && r_written {
            target = Some((i, r, o));
            break;
        }
    }
    let Some((i, r, o)) = target else {
        return false;
    };
    for instr in &mut p.instrs[..i] {
        if instr.dst.reg == Reg::Temp(r) {
            instr.dst.reg = Reg::Output(o);
        }
        for src in &mut instr.srcs {
            if src.reg == Reg::Temp(r) {
                src.reg = Reg::Output(o);
            }
        }
    }
    p.instrs.remove(i);
    counters.outputs_coalesced += 1;
    true
}

/// Remove `DEF`s whose constant register is never read, so optimized
/// programs stay free of `unused-const` lint warnings.
fn prune_defs(p: &mut Program, counters: &mut OptCounters) {
    let mut read = [false; NUM_CONSTS];
    for instr in &p.instrs {
        for src in &instr.srcs {
            if let Reg::Const(c) = src.reg {
                read[c as usize] = true;
            }
        }
    }
    let before = p.defs.len();
    p.defs.retain(|d| read[d.index as usize]);
    counters.defs_removed += (before - p.defs.len()) as u64;
}

// ---------------------------------------------------------------------------
// Producer inlining for render-graph pass fusion
// ---------------------------------------------------------------------------

/// Rename temporaries with a linear-scan allocator so the program uses the
/// fewest registers, returning how many remain in use.
///
/// Two temps may share a register only when their mention intervals are
/// disjoint *and* the later web's first action is a full four-lane write
/// (so no stale lane from the previous occupant is observable). Webs whose
/// first mention is a read, or a partial write, rely on the register file's
/// zero initialisation and are only ever placed in a register nothing used
/// before — which reads the same zeros. Renaming is therefore exact.
///
/// The fusion path calls this between inline steps: each inlined producer
/// body takes fresh temps, and without compaction a collapsed chain of
/// bodies would exhaust the 16-register file long before it exhausts the
/// instruction limit. Malformed programs (see [`optimize`]) are left
/// unchanged.
pub fn compact_temps(p: &mut Program) -> usize {
    let used = |p: &Program| {
        let mut seen = [false; NUM_TEMPS];
        for i in &p.instrs {
            if let Reg::Temp(r) = i.dst.reg {
                seen[r as usize] = true;
            }
            for s in &i.srcs {
                if let Reg::Temp(r) = s.reg {
                    seen[r as usize] = true;
                }
            }
        }
        seen.iter().filter(|&&b| b).count()
    };
    if malformed(p) {
        return used(p);
    }
    // Mention interval per temp; reads are scanned before the destination so
    // a `first` that is a write really is a write of a fresh value.
    let mut first = [usize::MAX; NUM_TEMPS];
    let mut last = [0usize; NUM_TEMPS];
    let mut full_write_first = [false; NUM_TEMPS];
    for (i, instr) in p.instrs.iter().enumerate() {
        for s in &instr.srcs {
            if let Reg::Temp(r) = s.reg {
                let r = r as usize;
                if first[r] == usize::MAX {
                    first[r] = i;
                }
                last[r] = i;
            }
        }
        if let Reg::Temp(r) = instr.dst.reg {
            let r = r as usize;
            if first[r] == usize::MAX {
                first[r] = i;
                full_write_first[r] = instr.dst.mask == [true; 4];
            }
            last[r] = i;
        }
    }
    let mut webs: Vec<usize> = (0..NUM_TEMPS).filter(|&r| first[r] != usize::MAX).collect();
    webs.sort_by_key(|&r| (first[r], r));
    // Per physical register: `None` = never used, `Some(end)` = last mention
    // of its current occupant.
    let mut phys: [Option<usize>; NUM_TEMPS] = [None; NUM_TEMPS];
    let mut map = [0u8; NUM_TEMPS];
    for &r in &webs {
        let slot = (0..NUM_TEMPS)
            .find(|&q| match phys[q] {
                None => true,
                Some(end) => full_write_first[r] && end < first[r],
            })
            .expect("webs never outnumber registers");
        phys[slot] = Some(last[r]);
        map[r] = slot as u8;
    }
    for instr in &mut p.instrs {
        if let Reg::Temp(r) = instr.dst.reg {
            instr.dst.reg = Reg::Temp(map[r as usize]);
        }
        for s in &mut instr.srcs {
            if let Reg::Temp(r) = s.reg {
                s.reg = Reg::Temp(map[r as usize]);
            }
        }
    }
    used(p)
}

/// How a producer's interpolated coordinates are reconciled with the
/// consumer's when its body is inlined at a `TEX` site by
/// [`inline_producer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineMode {
    /// Replace every producer `TEX` coordinate operand with the consuming
    /// site's coordinate operand. Exact when the producer rendered with
    /// identity coordinate sets only: its texel `(x, y)` is then a pure
    /// function of the sampling position, so recomputing the body at the
    /// site's coordinate reproduces the texel the site would have fetched
    /// — provided the caller's textures share the producer target's size
    /// (every texture clamps to the edge), which is the graph compiler's
    /// side of the contract.
    SubstituteSiteCoord,
    /// Keep producer coordinate operands, remapped through
    /// `texcoord_map`. Exact when the consuming site's own coordinate set
    /// is the identity (the consumer fetched the producer's texel at its
    /// own position) and the mapped fused coordinate sets are bound
    /// bit-identically to the producer's own bindings.
    KeepProducerCoords,
}

impl InlineMode {
    /// Stable kebab-case name, as reported in JSON dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            InlineMode::SubstituteSiteCoord => "substitute-site-coord",
            InlineMode::KeepProducerCoords => "keep-producer-coords",
        }
    }
}

/// One producer→consumer fusion request for [`inline_producer`].
#[derive(Debug)]
pub struct InlineRequest<'a> {
    /// The producer pass's program; its `O0` result is the texture the
    /// consumer samples.
    pub producer: &'a Program,
    /// Consumer sampler index whose fetches are replaced by the body.
    pub sampler: u8,
    /// Producer sampler index → fused-program sampler index. Entries must
    /// avoid `sampler` (the dying slot) so inlined fetches are never
    /// mistaken for further sites.
    pub sampler_map: &'a [u8],
    /// Producer coordinate-set index → fused-program coordinate-set index
    /// ([`InlineMode::KeepProducerCoords`] only).
    pub texcoord_map: &'a [u8],
    /// Coordinate reconciliation mode.
    pub mode: InlineMode,
}

/// Inline `req.producer`'s body at every `TEX` site of `consumer` that
/// samples `req.sampler`, returning the fused program and the number of
/// sites inlined.
///
/// Each site's fetch becomes a `MOV` from a fresh temp holding the
/// producer's recomputed `O0`; the body is placed at the top of the program
/// when the site coordinate is an interpolated register (so repeated bodies
/// sit adjacent and [`optimize`]'s CSE can share their common fetches), and
/// immediately before the site when the coordinate is computed (a dependent
/// fetch). Producer temps are renamed into registers the consumer does not
/// use — running [`optimize`] + [`compact_temps`] to make room when needed
/// — and producer `DEF`s are merged by bit-identical value reuse.
///
/// `bindings` must describe the *fused* pass (its pass-bound constants
/// reserve registers from `DEF` merging; `outputs_read` seeds the interim
/// optimize). The transform is exact per fragment by construction: every
/// rewrite is a rename into unobservable registers, and the coordinate
/// handling is justified per [`InlineMode`]. Errors — resource exhaustion
/// or an illegal producer shape — leave fusion to fall back to the
/// materialized two-pass form.
pub fn inline_producer(
    consumer: &Program,
    bindings: &PassBindings,
    req: &InlineRequest<'_>,
) -> Result<(Program, usize), String> {
    if malformed(consumer) || malformed(req.producer) {
        return Err("malformed program".into());
    }
    if req.sampler_map.contains(&req.sampler) {
        return Err("sampler_map reuses the dying sampler slot".into());
    }
    if req
        .sampler_map
        .iter()
        .any(|&s| (s as usize) >= crate::isa::NUM_SAMPLERS)
    {
        return Err("sampler_map exceeds the sampler file".into());
    }
    // Producer shape checks.
    let mut defined = [false; NUM_CONSTS];
    for d in &req.producer.defs {
        defined[d.index as usize] = true;
    }
    for instr in &req.producer.instrs {
        match instr.dst.reg {
            Reg::Temp(_) | Reg::Output(0) => {}
            _ => return Err("producer writes an output other than O0".into()),
        }
        if let Some(s) = instr.sampler {
            if (s as usize) >= req.sampler_map.len() {
                return Err(format!("producer sampler tex{s} missing from sampler_map"));
            }
        }
        for (si, s) in instr.srcs.iter().enumerate() {
            match s.reg {
                Reg::Output(_) => return Err("producer reads an output register".into()),
                Reg::Const(c) if !defined[c as usize] => {
                    return Err(format!(
                        "producer reads pass-bound constant C{c} (value unknown at fuse time)"
                    ));
                }
                Reg::TexCoord(t) => match req.mode {
                    InlineMode::SubstituteSiteCoord => {
                        let is_site_coord = instr.op == Opcode::Tex
                            && si == 0
                            && s.swizzle.0[0] == 0
                            && s.swizzle.0[1] == 1
                            && !s.negate;
                        if !is_site_coord {
                            return Err(format!(
                                "producer reads T{t} outside a plain TEX coordinate; \
                                 cannot substitute the site coordinate"
                            ));
                        }
                    }
                    InlineMode::KeepProducerCoords => {
                        if (t as usize) >= req.texcoord_map.len() {
                            return Err(format!(
                                "producer coordinate T{t} missing from texcoord_map"
                            ));
                        }
                    }
                },
                _ => {}
            }
        }
    }
    let producer_temps: Vec<u8> = {
        let mut seen = [false; NUM_TEMPS];
        for i in &req.producer.instrs {
            if let Reg::Temp(r) = i.dst.reg {
                seen[r as usize] = true;
            }
            for s in &i.srcs {
                if let Reg::Temp(r) = s.reg {
                    seen[r as usize] = true;
                }
            }
        }
        (0..NUM_TEMPS as u8).filter(|&r| seen[r as usize]).collect()
    };
    let needed = producer_temps.len() + 1; // body temps + the O0 holder

    let mut cur = consumer.clone();
    let mut sites = 0usize;
    let has_site = |p: &Program| {
        p.instrs
            .iter()
            .any(|i| i.op == Opcode::Tex && i.sampler == Some(req.sampler))
    };
    loop {
        if !has_site(&cur) {
            return Ok((cur, sites));
        }
        // Make room for the body's fresh temps, shrinking the program first
        // when the file is short.
        let free_temps = |p: &Program| -> Vec<u8> {
            let mut seen = [false; NUM_TEMPS];
            for i in &p.instrs {
                if let Reg::Temp(r) = i.dst.reg {
                    seen[r as usize] = true;
                }
                for s in &i.srcs {
                    if let Reg::Temp(r) = s.reg {
                        seen[r as usize] = true;
                    }
                }
            }
            (0..NUM_TEMPS as u8)
                .filter(|&r| !seen[r as usize])
                .collect()
        };
        let mut free = free_temps(&cur);
        if free.len() < needed {
            let (optimized, _) = optimize(&cur, bindings);
            cur = optimized;
            compact_temps(&mut cur);
            free = free_temps(&cur);
            if free.len() < needed {
                return Err("temp registers exhausted by inlining".into());
            }
        }
        // The optimize above may have moved or removed sites; re-find.
        let Some(site_idx) = cur
            .instrs
            .iter()
            .position(|i| i.op == Opcode::Tex && i.sampler == Some(req.sampler))
        else {
            return Ok((cur, sites));
        };
        let site = cur.instrs[site_idx].clone();
        let site_coord = site.srcs[0];

        let mut temp_map = [0u8; NUM_TEMPS];
        for (k, &r) in producer_temps.iter().enumerate() {
            temp_map[r as usize] = free[k];
        }
        let result_temp = free[producer_temps.len()];

        // Merge the producer's DEFs by bit-identical value, after any
        // interim optimize may have pruned earlier copies.
        let mut new_defs: Vec<ConstDef> = Vec::new();
        let mut const_map = [0u8; NUM_CONSTS];
        for d in &req.producer.defs {
            let idx = materialize(&cur.defs, &mut new_defs, bindings, d.value)
                .ok_or_else(|| "constant registers exhausted by inlining".to_string())?;
            const_map[d.index as usize] = idx;
        }
        cur.defs.extend(new_defs);

        let map_src = |s: &Src| -> Src {
            let reg = match s.reg {
                Reg::Temp(r) => Reg::Temp(temp_map[r as usize]),
                Reg::Const(c) => Reg::Const(const_map[c as usize]),
                Reg::TexCoord(t) => match req.mode {
                    InlineMode::KeepProducerCoords => Reg::TexCoord(req.texcoord_map[t as usize]),
                    // Non-TEX TexCoord reads were rejected above; TEX
                    // coordinates are substituted wholesale below.
                    InlineMode::SubstituteSiteCoord => Reg::TexCoord(t),
                },
                other => other,
            };
            Src { reg, ..*s }
        };
        let mut body: Vec<Instr> = Vec::with_capacity(req.producer.instrs.len());
        for instr in &req.producer.instrs {
            let mut out = instr.clone();
            out.dst.reg = match out.dst.reg {
                Reg::Temp(r) => Reg::Temp(temp_map[r as usize]),
                Reg::Output(0) => Reg::Temp(result_temp),
                other => other,
            };
            for s in &mut out.srcs {
                *s = map_src(s);
            }
            if out.op == Opcode::Tex {
                out.sampler = Some(req.sampler_map[out.sampler.unwrap() as usize]);
                if req.mode == InlineMode::SubstituteSiteCoord {
                    out.srcs[0] = site_coord;
                }
            }
            body.push(out);
        }
        // The fetch becomes a register move from the recomputed result.
        let mut replacement = site;
        replacement.op = Opcode::Mov;
        replacement.sampler = None;
        replacement.srcs = vec![Src {
            reg: Reg::Temp(result_temp),
            swizzle: Swizzle::IDENTITY,
            negate: false,
        }];
        cur.instrs[site_idx] = replacement;
        // Interpolated coordinates are program invariants, so bodies that
        // only depend on them can sit at the top — adjacent to bodies from
        // other sites, where CSE shares their common fetches. A computed
        // (dependent) coordinate pins the body to its site.
        let insert_at = match req.mode {
            InlineMode::KeepProducerCoords => 0,
            InlineMode::SubstituteSiteCoord => match site_coord.reg {
                Reg::TexCoord(_) => 0,
                _ => site_idx,
            },
        };
        cur.instrs.splice(insert_at..insert_at, body);
        sites += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::interp::{execute, resolve_constants, FragmentInput};
    use crate::texture::Texture2D;
    use crate::verify::has_errors;
    use crate::GpuProfile;

    fn bindings() -> PassBindings {
        PassBindings {
            samplers: 2,
            texcoord_sets: 2,
            constants: vec![],
            outputs_read: [true, false, false, false],
        }
    }

    /// Optimize under `b` and assert bit-identical O0 on a spread of inputs.
    fn assert_exact(src: &str, b: &PassBindings) -> (Program, OptReport) {
        let program = assemble(src).unwrap();
        let (opt, report) = optimize(&program, b);
        let t0 = Texture2D::from_flat(
            4,
            4,
            &(0..64).map(|i| i as f32 * 0.3 - 3.0).collect::<Vec<_>>(),
        );
        let t1 = Texture2D::from_flat(
            4,
            4,
            &(0..64)
                .map(|i| (i * 5 % 11) as f32 * 0.7)
                .collect::<Vec<_>>(),
        );
        let ca = resolve_constants(&program, &[]);
        let cb = resolve_constants(&opt, &[]);
        for &(u, v) in &[(0.1f32, 0.9f32), (0.6, 0.2), (0.95, 0.55)] {
            let mut input = FragmentInput::zero();
            input.texcoords[0] = [u, v, 0.0, 1.0];
            input.texcoords[1] = [v, u, 0.0, 1.0];
            let a = execute(&program, &input, &ca, &[&t0, &t1], None);
            let o = execute(&opt, &input, &cb, &[&t0, &t1], None);
            assert_eq!(
                a.colors[0].map(f32::to_bits),
                o.colors[0].map(f32::to_bits),
                "results diverged for {}",
                program.name
            );
        }
        assert!(
            !has_errors(&verify::verify(&opt, &GpuProfile::fx5950_ultra(), Some(b))),
            "optimized program fails verification"
        );
        (opt, report)
    }

    #[test]
    fn copy_propagation_removes_the_copy() {
        let (opt, report) = assert_exact(
            "TEX R0, T0, tex0\nMOV R1, R0\nADD OC, R1, R1.x",
            &bindings(),
        );
        assert_eq!(opt.len(), 2, "{}", opt.to_asm());
        assert!(report.counters.copies_propagated >= 1);
        assert_eq!(report.counters.dead_instructions, 1);
    }

    #[test]
    fn swizzle_and_negate_compose_through_copies() {
        let (opt, _) = assert_exact(
            "TEX R0, T0, tex0\nMOV R1, -R0.yzwx\nSUB OC, T1, -R1.wxyz",
            &bindings(),
        );
        assert_eq!(opt.len(), 2, "{}", opt.to_asm());
        // -(-R0.yzwx).wxyz == R0.xyzw read through the composed swizzle.
        assert_eq!(opt.instrs[1].srcs[1].reg, Reg::Temp(0));
        assert!(!opt.instrs[1].srcs[1].negate);
    }

    #[test]
    fn constant_folding_materialises_a_def() {
        let (opt, report) = assert_exact(
            "DEF C0, 2, 3, 4, 5\nADD R0, C0, C0\nMUL OC, T0, R0",
            &bindings(),
        );
        assert_eq!(report.counters.consts_folded, 1);
        assert_eq!(opt.len(), 1, "{}", opt.to_asm());
        // The folded vector reaches the MUL directly from a DEF.
        assert!(matches!(opt.instrs[0].srcs[1].reg, Reg::Const(_)));
        let c = match opt.instrs[0].srcs[1].reg {
            Reg::Const(c) => c,
            _ => unreachable!(),
        };
        let def = opt.defs.iter().find(|d| d.index == c).unwrap();
        assert_eq!(def.value, [4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn pass_bound_constants_are_never_folded() {
        let mut b = bindings();
        b.constants = vec![0];
        let (opt, report) = assert_exact("ADD R0, C0, C0\nMUL OC, T0, R0", &b);
        assert_eq!(report.counters.consts_folded, 0);
        assert_eq!(opt.len(), 2);
    }

    #[test]
    fn tex_cse_removes_the_duplicate_fetch() {
        let (opt, report) = assert_exact(
            "TEX R0, T0, tex0\nTEX R1, T0, tex0\nADD OC, R0, R1",
            &bindings(),
        );
        assert_eq!(report.counters.tex_cse_replaced, 1);
        assert_eq!(opt.tex_count(), 1, "{}", opt.to_asm());
    }

    #[test]
    fn mul_add_fuses_to_mad() {
        let (opt, report) = assert_exact(
            "TEX R0, T0, tex0\nTEX R1, T1, tex1\nMUL R2, R0, R1\nADD OC, R2, R1",
            &bindings(),
        );
        assert_eq!(report.counters.mads_fused, 1);
        assert_eq!(opt.len(), 3, "{}", opt.to_asm());
        assert_eq!(opt.instrs[2].op, Opcode::Mad);
    }

    #[test]
    fn mul_dp4_ones_fuses_to_dp4() {
        let (opt, report) = assert_exact(
            "DEF C1, 1, 1, 1, 1\nTEX R0, T0, tex0\nTEX R1, T1, tex1\n\
             MUL R2, R0, R1\nDP4 R3, R2, C1\nADD OC, R3, R0",
            &bindings(),
        );
        assert_eq!(report.counters.dots_fused, 1);
        assert_eq!(opt.len(), 4, "{}", opt.to_asm());
        // The all-ones DEF dies with the fusion.
        assert_eq!(report.counters.defs_removed, 1);
    }

    #[test]
    fn accumulator_shaped_dot_fuses_despite_later_reads() {
        // `MUL R2, a, b; DP4 R2, R2, ones` fully buries the MUL result in
        // the DP4's own write-back, so the later read of R2 observes the
        // dot product, never the product vector — fusion is legal.
        let (opt, report) = assert_exact(
            "DEF C1, 1, 1, 1, 1\nTEX R0, T0, tex0\nTEX R1, T1, tex1\n\
             MUL R2, R0, R1\nDP4 R2, R2, C1\nADD OC, R2, R0",
            &bindings(),
        );
        assert_eq!(report.counters.dots_fused, 1, "{}", opt.to_asm());
        assert_eq!(opt.len(), 4, "{}", opt.to_asm());
    }

    #[test]
    fn fusion_refuses_when_the_mul_result_is_still_read() {
        let (opt, report) = assert_exact(
            "TEX R0, T0, tex0\nTEX R1, T1, tex1\nMUL R2, R0, R1\n\
             ADD R3, R2, R1\nADD OC, R3, R2",
            &bindings(),
        );
        assert_eq!(report.counters.mads_fused, 0);
        assert_eq!(opt.len(), 5);
    }

    #[test]
    fn dead_lanes_and_instructions_are_eliminated() {
        let b = bindings();
        let program = assemble("TEX R0, T0, tex0\nADD R1, R0, R0\nMOV OC.x, R0").unwrap();
        let (opt, report) = optimize(&program, &b);
        // ADD R1 is never read; OC.x only needs lane x of the TEX.
        assert_eq!(report.counters.dead_instructions, 1);
        assert!(opt.len() <= 2, "{}", opt.to_asm());
    }

    #[test]
    fn output_coalescing_renames_the_def_range() {
        let (opt, report) = assert_exact(
            "DEF C0, 0, 0, 0, 0\nTEX R0, T0, tex0\nMOV R1, R0.x\nMOV R1.yw, C0\nMOV OC, R1",
            &bindings(),
        );
        assert_eq!(report.counters.outputs_coalesced, 1);
        assert_eq!(opt.len(), 3, "{}", opt.to_asm());
        assert!(opt
            .instrs
            .iter()
            .any(|i| i.dst.reg == Reg::Output(0) && i.dst.mask != [true; 4]));
    }

    #[test]
    fn malformed_programs_are_returned_unchanged() {
        let mut program = assemble("TEX R0, T0, tex0\nMOV OC, R0").unwrap();
        program.instrs[0].sampler = None; // structurally broken TEX
        let (opt, report) = optimize(&program, &bindings());
        assert_eq!(opt, program);
        assert_eq!(report.before, report.after);
        assert_eq!(report.counters, OptCounters::default());
    }

    #[test]
    fn liveness_and_reaching_defs_agree_with_the_verifier_helpers() {
        let p = assemble("TEX R0, T0, tex0\nMOV R1, R0\nADD OC, R1, R0").unwrap();
        let live = liveness(&p.instrs, [true, false, false, false]);
        // After the TEX, both R0 (read twice) and nothing else is live.
        assert_eq!(live.temps_after[0][0], 0b1111);
        assert_eq!(live.temps_after[1][1], 0b1111);
        assert_eq!(live.temps_after[2][0], 0);
        let rd = reaching_defs(&p.instrs);
        assert_eq!(rd[1][0], [Some(0); 4]);
        assert_eq!(rd[2][1], [Some(1); 4]);
    }

    /// Shade `p` per pixel of a `w x h` target under `sets`, sampling
    /// `textures`, exactly as the rasterizer would — the reference for the
    /// compaction and inlining exactness tests.
    fn shade(
        p: &Program,
        sets: &[crate::raster::TexCoordSet],
        textures: &[&Texture2D],
        w: usize,
        h: usize,
    ) -> Vec<[u32; 4]> {
        let consts = resolve_constants(p, &[]);
        let mut out = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let input = crate::raster::fragment_input(sets, x, y, w, h);
                let r = execute(p, &input, &consts, textures, None);
                out.push(r.colors[0].map(f32::to_bits));
            }
        }
        out
    }

    fn checker_tex(seed: u64) -> Texture2D {
        let mut t = Texture2D::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let base = (seed * 37 + (y * 4 + x) as u64 * 13) % 101;
                t.set_texel(
                    x,
                    y,
                    [
                        base as f32 * 0.11 - 3.0,
                        base as f32 * 0.07 + 0.5,
                        base as f32 * 0.03,
                        1.0,
                    ],
                );
            }
        }
        t
    }

    #[test]
    fn compact_temps_reuses_dead_registers_exactly() {
        let mut p =
            assemble("TEX R3, T0, tex0\nMOV R7, R3\nTEX R12, T1, tex1\nADD OC, R12, R7").unwrap();
        let orig = p.clone();
        // R3 dies at the MOV, so R12 can reuse its register: 3 webs, 2 regs.
        assert_eq!(compact_temps(&mut p), 2);
        let sets = [
            crate::raster::TexCoordSet::identity(),
            crate::raster::TexCoordSet::shifted_texels(1, -1, 4, 4),
        ];
        let a = checker_tex(1);
        let b = checker_tex(2);
        assert_eq!(
            shade(&orig, &sets, &[&a, &b], 4, 4),
            shade(&p, &sets, &[&a, &b], 4, 4)
        );
    }

    #[test]
    fn compact_temps_preserves_zero_init_reads() {
        // R5 is read before any write (observing the zero-initialised file)
        // and must land in a register no other web used first.
        let mut p = assemble("MOV R9, T0\nADD R8, R9, R5\nMOV OC, R8").unwrap();
        let orig = p.clone();
        assert_eq!(compact_temps(&mut p), 3);
        let sets = [crate::raster::TexCoordSet::identity()];
        let a = checker_tex(3);
        assert_eq!(
            shade(&orig, &sets, &[&a], 4, 4),
            shade(&p, &sets, &[&a], 4, 4)
        );
    }

    /// A normalize-shaped producer: two identity fetches combined into O0.
    fn norm_like_producer() -> Program {
        assemble(
            "!!prod\nDEF C0, 0.5, 0.25, 1, 1\nTEX R0, T0, tex0\nTEX R1, T0, tex1\n\
             ADD R2, R0, R1\nMUL OC, R2, C0.x",
        )
        .unwrap()
    }

    #[test]
    fn inline_substitutes_the_site_coordinate_exactly() {
        // Consumer samples the producer's output at its own position (T0)
        // and one texel shifted (T1) — the normalize→distance shape.
        let producer = norm_like_producer();
        let consumer =
            assemble("!!cons\nTEX R0, T0, tex0\nTEX R1, T1, tex0\nSUB OC, R0, R1").unwrap();
        let a = checker_tex(4);
        let b = checker_tex(5);
        // Materialize the producer's target texel for texel.
        let mut prod_tex = Texture2D::new(4, 4);
        let id = [crate::raster::TexCoordSet::identity()];
        for (i, bits) in shade(&producer, &id, &[&a, &b], 4, 4).iter().enumerate() {
            prod_tex.set_texel(i % 4, i / 4, bits.map(f32::from_bits));
        }
        let sets = [
            crate::raster::TexCoordSet::identity(),
            crate::raster::TexCoordSet::shifted_texels(1, -1, 4, 4),
        ];
        let reference = shade(&consumer, &sets, &[&prod_tex], 4, 4);
        let fused_bindings = PassBindings {
            samplers: 3,
            texcoord_sets: 2,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let (fused, sites) = inline_producer(
            &consumer,
            &fused_bindings,
            &InlineRequest {
                producer: &producer,
                sampler: 0,
                sampler_map: &[1, 2],
                texcoord_map: &[],
                mode: InlineMode::SubstituteSiteCoord,
            },
        )
        .unwrap();
        assert_eq!(sites, 2);
        let dummy = Texture2D::new(4, 4);
        let got = shade(&fused, &sets, &[&dummy, &a, &b], 4, 4);
        assert_eq!(reference, got, "fused:\n{}", fused.to_asm());
        // The optimized fused program still matches and verifies clean.
        let (opt, _) = optimize(&fused, &fused_bindings);
        assert_eq!(reference, shade(&opt, &sets, &[&dummy, &a, &b], 4, 4));
        assert!(!has_errors(&verify::verify(
            &opt,
            &GpuProfile::fx5950_ultra(),
            Some(&fused_bindings)
        )));
    }

    #[test]
    fn inline_keep_coords_collapses_an_accumulator_chain() {
        // Accumulator shape: each link adds a term of `src` (centre and
        // shifted) onto the running total fetched from the previous link.
        let link = "TEX R0, T0, tex0\nTEX R1, T1, tex0\nADD R2, R0, R1\n\
                    TEX R3, T0, tex1\nADD OC, R2, R3";
        let producer = assemble(&format!("!!p\n{link}")).unwrap();
        let consumer = assemble(&format!("!!c\n{link}")).unwrap();
        let src = checker_tex(6);
        let seed = checker_tex(7);
        let sets = [
            crate::raster::TexCoordSet::identity(),
            crate::raster::TexCoordSet::shifted_texels(-1, 1, 4, 4),
        ];
        let mut prod_tex = Texture2D::new(4, 4);
        for (i, bits) in shade(&producer, &sets, &[&src, &seed], 4, 4)
            .iter()
            .enumerate()
        {
            prod_tex.set_texel(i % 4, i / 4, bits.map(f32::from_bits));
        }
        let reference = shade(&consumer, &sets, &[&src, &prod_tex], 4, 4);
        let fused_bindings = PassBindings {
            samplers: 3,
            texcoord_sets: 2,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let (fused, sites) = inline_producer(
            &consumer,
            &fused_bindings,
            &InlineRequest {
                producer: &producer,
                sampler: 1,
                // The producer's src texture is already bound at slot 0;
                // its seed goes to a fresh slot.
                sampler_map: &[0, 2],
                texcoord_map: &[0, 1],
                mode: InlineMode::KeepProducerCoords,
            },
        )
        .unwrap();
        assert_eq!(sites, 1);
        let dummy = Texture2D::new(4, 4);
        assert_eq!(
            reference,
            shade(&fused, &sets, &[&src, &dummy, &seed], 4, 4)
        );
        // CSE shares the centre and shifted `src` fetches between the body
        // and the consumer's own fetches: 5 naive fetches become 3.
        let (opt, _) = optimize(&fused, &fused_bindings);
        assert_eq!(reference, shade(&opt, &sets, &[&src, &dummy, &seed], 4, 4));
        assert_eq!(opt.tex_count(), 3, "{}", opt.to_asm());
    }

    #[test]
    fn inline_at_a_dependent_site_stays_in_place() {
        // The site coordinate is computed (a dependent fetch), so the body
        // must execute at the site, after the coordinate exists.
        let producer = norm_like_producer();
        let consumer = assemble(
            "!!c\nDEF C0, 0.25, 0.25, 0, 0\nTEX R0, T0, tex1\nMAD R1, R0, C0.x, C0.y\n\
             TEX R2, R1, tex0\nADD OC, R2, R0",
        )
        .unwrap();
        let a = checker_tex(8);
        let b = checker_tex(9);
        let guide = checker_tex(10);
        let id = [crate::raster::TexCoordSet::identity()];
        let mut prod_tex = Texture2D::new(4, 4);
        for (i, bits) in shade(&producer, &id, &[&a, &b], 4, 4).iter().enumerate() {
            prod_tex.set_texel(i % 4, i / 4, bits.map(f32::from_bits));
        }
        let reference = shade(&consumer, &id, &[&prod_tex, &guide], 4, 4);
        let fused_bindings = PassBindings {
            samplers: 4,
            texcoord_sets: 1,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let (fused, sites) = inline_producer(
            &consumer,
            &fused_bindings,
            &InlineRequest {
                producer: &producer,
                sampler: 0,
                sampler_map: &[2, 3],
                texcoord_map: &[],
                mode: InlineMode::SubstituteSiteCoord,
            },
        )
        .unwrap();
        assert_eq!(sites, 1);
        let dummy = Texture2D::new(4, 4);
        assert_eq!(
            reference,
            shade(&fused, &id, &[&dummy, &guide, &a, &b], 4, 4),
            "{}",
            fused.to_asm()
        );
    }

    #[test]
    fn inline_rejects_illegal_producers() {
        let consumer = assemble("!!c\nTEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let b = PassBindings {
            samplers: 2,
            texcoord_sets: 1,
            constants: vec![],
            outputs_read: [true, false, false, false],
        };
        let req = |producer: &Program| -> Result<(Program, usize), String> {
            inline_producer(
                &consumer,
                &b,
                &InlineRequest {
                    producer,
                    sampler: 0,
                    sampler_map: &[1],
                    texcoord_map: &[],
                    mode: InlineMode::SubstituteSiteCoord,
                },
            )
        };
        // A coordinate register read outside a TEX cannot be substituted.
        let p = assemble("!!p\nTEX R0, T0, tex0\nADD OC, R0, T0").unwrap();
        assert!(req(&p).unwrap_err().contains("outside a plain TEX"));
        // Pass-bound constants have no value at fuse time.
        let p = assemble("!!p\nTEX R0, T0, tex0\nMUL OC, R0, C5").unwrap();
        assert!(req(&p).unwrap_err().contains("pass-bound"));
        // The dying sampler slot must not be reused by the map.
        let p = assemble("!!p\nTEX R0, T0, tex0\nMOV OC, R0").unwrap();
        let err = inline_producer(
            &consumer,
            &b,
            &InlineRequest {
                producer: &p,
                sampler: 0,
                sampler_map: &[0],
                texcoord_map: &[],
                mode: InlineMode::SubstituteSiteCoord,
            },
        )
        .unwrap_err();
        assert!(err.contains("dying sampler"), "{err}");
    }
}
