//! Textual assembler for fragment programs.
//!
//! The syntax follows the ARB/NV assembly the paper's Cg kernels compiled
//! down to:
//!
//! ```text
//! !!sid_partial                       # program name
//! DEF C0, 1e-12, 0.69314718, 1, 0    # constant definition
//! TEX R0, T0, tex0                   # sample texture unit 0 at coord set 0
//! MAX R0, R0, C0.x                   # epsilon guard (swizzle broadcast)
//! MAD_SAT OC.xy, R0, C0.y, -R1      # saturation, write mask, negation
//! # '#' and ';' start comments; blank lines are ignored
//! ```
//!
//! Errors report the 1-based source line and a description.

use crate::error::{GpuError, Result};
use crate::isa::{
    ConstDef, Dst, Instr, Opcode, Program, Reg, Src, Swizzle, NUM_CONSTS, NUM_OUTPUTS,
    NUM_SAMPLERS, NUM_TEMPS, NUM_TEXCOORDS,
};
use std::fmt;

/// The disassembler: a [`Program`] displays as assemblable source text —
/// `!!name`, `DEF`s, then one instruction per line (each via the existing
/// [`Instr`] `Display`). `assemble(&program.to_string())` reproduces the
/// program exactly (modulo source line numbers, which `Program` equality
/// ignores), so optimized kernels can be dumped, diffed, and re-assembled.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_asm())
    }
}

/// Assemble a source string into a [`Program`].
///
/// Every instruction and `DEF` remembers its 1-based source line, so
/// downstream diagnostics (the verifier, `shader-lint`) can point back into
/// the text. A second `!!name` directive and a `DEF` that redefines an
/// already-`DEF`ed constant register are rejected here — both are always
/// authoring mistakes and the later value would silently win.
pub fn assemble(source: &str) -> Result<Program> {
    let mut program = Program::default();
    let mut named_on: Option<usize> = None;
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        if let Some(name) = text.strip_prefix("!!") {
            if let Some(prev) = named_on {
                return Err(err(
                    line,
                    format!("duplicate `!!` name directive (program already named on line {prev})"),
                ));
            }
            named_on = Some(line);
            program.name = name.trim().to_string();
            continue;
        }
        let (mnemonic, rest) = text
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(line, "instruction needs operands"))?;
        if mnemonic.eq_ignore_ascii_case("DEF") {
            let def = parse_def(line, rest)?;
            if let Some(prev) = program.defs.iter().find(|d| d.index == def.index) {
                return Err(err(
                    line,
                    format!(
                        "duplicate DEF for C{} (first defined on line {})",
                        def.index, prev.line
                    ),
                ));
            }
            program.defs.push(def);
            continue;
        }
        program.instrs.push(parse_instr(line, mnemonic, rest)?);
    }
    Ok(program)
}

fn err(line: usize, message: impl Into<String>) -> GpuError {
    GpuError::AssemblyError {
        line,
        message: message.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    let cut = line
        .find('#')
        .into_iter()
        .chain(line.find(';'))
        .min()
        .unwrap_or(line.len());
    &line[..cut]
}

fn parse_def(line: usize, rest: &str) -> Result<ConstDef> {
    let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
    if parts.len() != 5 {
        return Err(err(line, "DEF needs: DEF Cn, x, y, z, w"));
    }
    let reg = parse_reg(line, parts[0])?;
    let idx = match reg {
        Reg::Const(i) => i,
        _ => return Err(err(line, "DEF target must be a constant register")),
    };
    let mut vals = [0.0f32; 4];
    for (slot, p) in vals.iter_mut().zip(&parts[1..]) {
        *slot = p
            .parse::<f32>()
            .map_err(|_| err(line, format!("bad float literal `{p}`")))?;
    }
    Ok(ConstDef {
        index: idx,
        value: vals,
        line,
    })
}

fn parse_instr(line: usize, mnemonic: &str, rest: &str) -> Result<Instr> {
    let upper = mnemonic.to_ascii_uppercase();
    let (op_name, saturate) = match upper.strip_suffix("_SAT") {
        Some(base) => (base.to_string(), true),
        None => (upper, false),
    };
    let op = Opcode::from_mnemonic(&op_name)
        .ok_or_else(|| err(line, format!("unknown opcode `{mnemonic}`")))?;
    let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
    let expected = 1 + op.arity() + usize::from(op == Opcode::Tex);
    if parts.len() != expected {
        return Err(err(
            line,
            format!(
                "{} expects {} operands, found {}",
                op.mnemonic(),
                expected,
                parts.len()
            ),
        ));
    }
    let mut dst = parse_dst(line, parts[0])?;
    dst.saturate = saturate;
    match dst.reg {
        Reg::Temp(_) | Reg::Output(_) => {}
        _ => return Err(err(line, "destination must be a temp or output register")),
    }
    let mut srcs = Vec::with_capacity(op.arity());
    for p in &parts[1..1 + op.arity()] {
        srcs.push(parse_src(line, p)?);
    }
    let sampler = if op == Opcode::Tex {
        Some(parse_sampler(line, parts[expected - 1])?)
    } else {
        None
    };
    Ok(Instr {
        op,
        dst,
        srcs,
        sampler,
        line,
    })
}

fn parse_sampler(line: usize, text: &str) -> Result<u8> {
    let lower = text.to_ascii_lowercase();
    let idx = lower
        .strip_prefix("tex")
        .and_then(|n| n.parse::<u8>().ok())
        .ok_or_else(|| err(line, format!("bad sampler `{text}` (expected texN)")))?;
    if (idx as usize) >= NUM_SAMPLERS {
        return Err(err(line, format!("sampler index {idx} out of range")));
    }
    Ok(idx)
}

fn parse_reg(line: usize, text: &str) -> Result<Reg> {
    let t = text.trim();
    if t.eq_ignore_ascii_case("OC") {
        return Ok(Reg::Output(0));
    }
    // Split off the first *character*, not byte: operand text is arbitrary
    // input and may be empty or start with a multi-byte character.
    let mut chars = t.chars();
    let kind = chars
        .next()
        .ok_or_else(|| err(line, "missing register operand"))?;
    let idx: u8 = chars
        .as_str()
        .parse()
        .map_err(|_| err(line, format!("bad register `{text}`")))?;
    let reg = match kind.to_ascii_uppercase() {
        'R' if (idx as usize) < NUM_TEMPS => Reg::Temp(idx),
        'C' if (idx as usize) < NUM_CONSTS => Reg::Const(idx),
        'T' if (idx as usize) < NUM_TEXCOORDS => Reg::TexCoord(idx),
        'O' if (idx as usize) < NUM_OUTPUTS => Reg::Output(idx),
        'R' | 'C' | 'T' | 'O' => {
            return Err(err(line, format!("register index out of range `{text}`")))
        }
        _ => return Err(err(line, format!("bad register `{text}`"))),
    };
    Ok(reg)
}

fn lane_of(line: usize, c: char) -> Result<u8> {
    Ok(match c.to_ascii_lowercase() {
        'x' | 'r' => 0,
        'y' | 'g' => 1,
        'z' | 'b' => 2,
        'w' | 'a' => 3,
        _ => return Err(err(line, format!("bad swizzle lane `{c}`"))),
    })
}

fn parse_src(line: usize, text: &str) -> Result<Src> {
    let mut t = text.trim();
    let negate = t.starts_with('-');
    if negate {
        t = t[1..].trim_start();
    }
    let (reg_text, swz_text) = match t.split_once('.') {
        Some((r, s)) => (r, Some(s)),
        None => (t, None),
    };
    let reg = parse_reg(line, reg_text)?;
    let swizzle = match swz_text {
        None => Swizzle::IDENTITY,
        Some(s) => {
            let chars: Vec<char> = s.chars().collect();
            match chars.len() {
                1 => Swizzle::splat(lane_of(line, chars[0])?),
                4 => {
                    let mut lanes = [0u8; 4];
                    for (slot, &c) in lanes.iter_mut().zip(&chars) {
                        *slot = lane_of(line, c)?;
                    }
                    Swizzle(lanes)
                }
                n => {
                    return Err(err(
                        line,
                        format!("swizzle must have 1 or 4 lanes, found {n}"),
                    ))
                }
            }
        }
    };
    Ok(Src {
        reg,
        swizzle,
        negate,
    })
}

fn parse_dst(line: usize, text: &str) -> Result<Dst> {
    let (reg_text, mask_text) = match text.split_once('.') {
        Some((r, m)) => (r, Some(m)),
        None => (text, None),
    };
    let reg = parse_reg(line, reg_text)?;
    let mask = match mask_text {
        None => [true; 4],
        Some(m) => {
            let mut mask = [false; 4];
            let mut last = -1i32;
            for c in m.chars() {
                let lane = lane_of(line, c)? as i32;
                if lane <= last {
                    return Err(err(line, "write mask lanes must be in xyzw order"));
                }
                mask[lane as usize] = true;
                last = lane;
            }
            mask
        }
    };
    Ok(Dst {
        reg,
        mask,
        saturate: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_representative_program() {
        let src = r#"
            !!sid_partial
            # epsilon / ln2 constants
            DEF C0, 1e-12, 0.69314718, 1, 0
            TEX R0, T0, tex0
            TEX R1, T1, tex0       ; neighbour
            MAX R0, R0, C0.x
            MAX R1, R1, C0.x
            RCP R2, R1
            MUL R2, R0, R2
            LG2 R2, R2
            MUL R2, R2, C0.y
            SUB R3, R0, R1
            MUL R3, R3, R2
            DP4 R3, R3, C1
            TEX R4, T0, tex1
            ADD OC, R4, R3
        "#;
        let p = assemble(src).unwrap();
        assert_eq!(p.name, "sid_partial");
        assert_eq!(p.defs.len(), 1);
        assert_eq!(p.defs[0].index, 0);
        assert_eq!(p.defs[0].value, [1e-12, std::f32::consts::LN_2, 1.0, 0.0]);
        assert_eq!(p.defs[0].line, 4);
        assert_eq!(p.len(), 13);
        assert_eq!(p.tex_count(), 3);
        assert_eq!(p.max_sampler(), Some(1));
        assert_eq!(p.instrs[12].dst.reg, Reg::Output(0));
        // Instructions carry their 1-based source line.
        assert_eq!(p.instrs[0].line, 5);
        assert_eq!(p.instrs[12].line, 17);
    }

    #[test]
    fn malformed_register_operands_are_errors_not_panics() {
        // An empty operand and one starting with a multi-byte character
        // once panicked in `split_at(1)`.
        for src in ["MOV R0, ", "MOV R0, é0", "MOV é, R0", "DEF é1, 1, 2, 3, 4"] {
            match assemble(src) {
                Err(GpuError::AssemblyError { line: 1, .. }) => {}
                other => panic!("{src:?}: expected an assembly error, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trips_through_to_asm() {
        let src = "!!rt\nDEF C2, 1, 2, 3, 4\nMAD_SAT R0.xy, R1.x, -C2, T0\nTEX OC, R0, tex5\n";
        let p1 = assemble(src).unwrap();
        let p2 = assemble(&p1.to_asm()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn saturation_and_negation() {
        let p = assemble("MOV_SAT R0, -R1.w").unwrap();
        assert!(p.instrs[0].dst.saturate);
        assert!(p.instrs[0].srcs[0].negate);
        assert_eq!(p.instrs[0].srcs[0].swizzle, Swizzle::splat(3));
    }

    #[test]
    fn rgba_lane_aliases() {
        let p = assemble("MOV R0, R1.rgba").unwrap();
        assert!(p.instrs[0].srcs[0].swizzle.is_identity());
        let p = assemble("MOV R0.x, R1.a").unwrap();
        assert_eq!(p.instrs[0].dst.mask, [true, false, false, false]);
        assert_eq!(p.instrs[0].srcs[0].swizzle, Swizzle::splat(3));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("MOV R0, R1\nBOGUS R0, R1").unwrap_err();
        match e {
            GpuError::AssemblyError { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("BOGUS"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_is_enforced() {
        assert!(assemble("ADD R0, R1").is_err());
        assert!(assemble("ADD R0, R1, R2, R3").is_err());
        assert!(assemble("MAD R0, R1, R2, R3").is_ok());
        assert!(assemble("TEX R0, T0").is_err()); // missing sampler
    }

    #[test]
    fn destination_must_be_writable() {
        assert!(assemble("MOV C0, R1").is_err());
        assert!(assemble("MOV T0, R1").is_err());
        assert!(assemble("MOV OC, R1").is_ok());
        assert!(assemble("MOV O3, R1").is_ok());
    }

    #[test]
    fn register_ranges_checked() {
        assert!(assemble("MOV R16, R0").is_err());
        assert!(assemble("MOV R0, C32").is_err());
        assert!(assemble("MOV R0, T8").is_err());
        assert!(assemble("TEX R0, T0, tex15").is_ok());
        assert!(assemble("TEX R0, T0, tex16").is_err());
        assert!(assemble("MOV R0, X1").is_err());
    }

    #[test]
    fn def_validation() {
        assert!(assemble("DEF C0, 1, 2, 3").is_err());
        assert!(assemble("DEF R0, 1, 2, 3, 4").is_err());
        assert!(assemble("DEF C0, a, 2, 3, 4").is_err());
        assert!(assemble("DEF C31, 1, 2, 3, 4").is_ok());
    }

    #[test]
    fn duplicate_name_directive_rejected() {
        let e = assemble("!!first\nMOV R0, R1\n!!second\n").unwrap_err();
        match e {
            GpuError::AssemblyError { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("line 1"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_def_rejected() {
        let e = assemble("DEF C3, 1, 2, 3, 4\nMOV R0, C3\nDEF C3, 5, 6, 7, 8\n").unwrap_err();
        match e {
            GpuError::AssemblyError { line, message } => {
                assert_eq!(line, 3);
                assert!(
                    message.contains("C3") && message.contains("line 1"),
                    "{message}"
                );
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Different registers are fine.
        assert!(assemble("DEF C3, 1, 2, 3, 4\nDEF C4, 1, 2, 3, 4\n").is_ok());
    }

    #[test]
    fn bad_swizzles_rejected() {
        assert!(assemble("MOV R0, R1.xy").is_err()); // 2-lane swizzle unsupported
        assert!(assemble("MOV R0, R1.q").is_err());
        assert!(assemble("MOV R0.yx, R1").is_err()); // out-of-order mask
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let p = assemble("\n  # nothing\n ; nothing either\nMOV R0, R1 # tail\n").unwrap();
        assert_eq!(p.len(), 1);
    }
}
