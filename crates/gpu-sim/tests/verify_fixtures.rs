//! One triggering fixture per verifier diagnostic kind, plus smoke tests
//! for the `shader_lint` binary.
//!
//! The `.fp` fixtures under `tests/fixtures/` are assembled and fed to
//! [`gpu_sim::verify::verify`]; the two kinds the assembler makes
//! unrepresentable (`RegisterOutOfRange`, `MalformedInstr`) are built as
//! in-code [`Program`]s the way callers of the `Gpu` API could.

use gpu_sim::asm::assemble;
use gpu_sim::isa::{Dst, Instr, Opcode, Program, Reg, Src};
use gpu_sim::verify::{has_errors, verify, DiagKind, PassBindings, Severity};
use gpu_sim::GpuProfile;

fn fixture(name: &str) -> Program {
    let path = format!("{}/tests/fixtures/{name}.fp", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assemble(&source).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn kinds(diags: &[gpu_sim::verify::Diagnostic]) -> Vec<DiagKind> {
    diags.iter().map(|d| d.kind).collect()
}

/// Minimal pass: one texture, one coordinate set, no constants, O0 read.
fn tight_pass() -> PassBindings {
    PassBindings {
        samplers: 1,
        texcoord_sets: 1,
        constants: Vec::new(),
        outputs_read: [true, false, false, false],
    }
}

#[test]
fn clean_fixture_has_no_diagnostics() {
    let p = fixture("clean");
    let profile = GpuProfile::fx5950_ultra();
    assert!(verify(&p, &profile, None).is_empty());
    assert!(verify(&p, &profile, Some(&tight_pass())).is_empty());
}

#[test]
fn use_before_def_fixture() {
    let d = verify(
        &fixture("use-before-def"),
        &GpuProfile::fx5950_ultra(),
        None,
    );
    assert!(kinds(&d).contains(&DiagKind::UseBeforeDef), "{d:?}");
    assert!(has_errors(&d));
    // The offending ADD sits on source line 4 of the fixture.
    let ubd = d.iter().find(|d| d.kind == DiagKind::UseBeforeDef).unwrap();
    assert_eq!(ubd.line, 4);
    assert!(ubd.message.contains("R2"), "{}", ubd.message);
}

#[test]
fn unbound_sampler_fixture() {
    let p = fixture("unbound-sampler");
    let profile = GpuProfile::fx5950_ultra();
    // Lint mode assumes all samplers bound; only the pass context trips it.
    assert!(verify(&p, &profile, None).is_empty());
    let d = verify(&p, &profile, Some(&tight_pass()));
    assert_eq!(kinds(&d), vec![DiagKind::UnboundSampler]);
}

#[test]
fn unbound_texcoord_fixture() {
    let d = verify(
        &fixture("unbound-texcoord"),
        &GpuProfile::fx5950_ultra(),
        Some(&tight_pass()),
    );
    assert_eq!(kinds(&d), vec![DiagKind::UnboundTexCoord]);
}

#[test]
fn undefined_const_fixture() {
    let d = verify(
        &fixture("undefined-const"),
        &GpuProfile::fx5950_ultra(),
        Some(&tight_pass()),
    );
    assert_eq!(kinds(&d), vec![DiagKind::UndefinedConst]);
}

#[test]
fn output_not_written_fixture() {
    let d = verify(
        &fixture("output-not-written"),
        &GpuProfile::fx5950_ultra(),
        None,
    );
    assert!(kinds(&d).contains(&DiagKind::OutputNotWritten), "{d:?}");
    assert!(has_errors(&d));
}

#[test]
fn too_many_instructions_fixture() {
    let p = fixture("too-many-instructions");
    let mut tiny = GpuProfile::fx5950_ultra();
    tiny.max_program_instrs = 4;
    let d = verify(&p, &tiny, None);
    assert_eq!(kinds(&d), vec![DiagKind::TooManyInstructions]);
    // The real profiles accept it.
    assert!(verify(&p, &GpuProfile::fx5950_ultra(), None).is_empty());
}

#[test]
fn tex_chain_too_deep_fixture() {
    let p = fixture("tex-chain-too-deep");
    let d = verify(&p, &GpuProfile::fx5950_ultra(), None);
    assert_eq!(kinds(&d), vec![DiagKind::TexChainTooDeep]);
    // The 7800 GTX allows chains of eight.
    assert!(verify(&p, &GpuProfile::geforce_7800gtx(), None).is_empty());
}

#[test]
fn dead_write_fixture() {
    let d = verify(&fixture("dead-write"), &GpuProfile::fx5950_ultra(), None);
    assert_eq!(kinds(&d), vec![DiagKind::DeadWrite]);
    assert_eq!(d[0].severity, Severity::Warning);
    assert!(!has_errors(&d));
}

#[test]
fn unguarded_math_input_fixture() {
    let d = verify(
        &fixture("unguarded-math-input"),
        &GpuProfile::fx5950_ultra(),
        None,
    );
    assert_eq!(kinds(&d), vec![DiagKind::UnguardedMathInput]);
    assert_eq!(d[0].severity, Severity::Warning);
}

#[test]
fn unused_const_fixture() {
    let d = verify(&fixture("unused-const"), &GpuProfile::fx5950_ultra(), None);
    assert_eq!(kinds(&d), vec![DiagKind::UnusedConst]);
    assert_eq!(d[0].line, 2);
}

#[test]
fn const_conflict_fixture() {
    let p = fixture("const-conflict");
    let profile = GpuProfile::fx5950_ultra();
    // Lint mode treats "all constants bound" as an assumption, not a clash.
    assert!(verify(&p, &profile, None).is_empty());
    let mut pass = tight_pass();
    pass.constants = vec![0];
    let d = verify(&p, &profile, Some(&pass));
    assert_eq!(kinds(&d), vec![DiagKind::ConstConflict]);
}

#[test]
fn register_out_of_range_program() {
    // The assembler rejects `R20`, so build the program directly.
    let p = Program {
        name: "fix-register-out-of-range".into(),
        defs: Vec::new(),
        instrs: vec![
            Instr {
                op: Opcode::Mov,
                dst: Dst::new(Reg::Temp(20)),
                srcs: vec![Src::new(Reg::TexCoord(0))],
                sampler: None,
                line: 0,
            },
            Instr {
                op: Opcode::Mov,
                dst: Dst::new(Reg::Output(0)),
                srcs: vec![Src::new(Reg::TexCoord(0))],
                sampler: None,
                line: 0,
            },
        ],
    };
    let d = verify(&p, &GpuProfile::fx5950_ultra(), None);
    assert_eq!(kinds(&d), vec![DiagKind::RegisterOutOfRange]);
}

#[test]
fn malformed_instr_program() {
    // ADD with a single operand: impossible to assemble, caught here.
    let p = Program {
        name: "fix-malformed-instr".into(),
        defs: Vec::new(),
        instrs: vec![
            Instr {
                op: Opcode::Add,
                dst: Dst::new(Reg::Temp(0)),
                srcs: vec![Src::new(Reg::TexCoord(0))],
                sampler: None,
                line: 0,
            },
            Instr {
                op: Opcode::Mov,
                dst: Dst::new(Reg::Output(0)),
                srcs: vec![Src::new(Reg::TexCoord(0))],
                sampler: None,
                line: 0,
            },
        ],
    };
    let d = verify(&p, &GpuProfile::fx5950_ultra(), None);
    assert_eq!(kinds(&d), vec![DiagKind::MalformedInstr]);
}

// --- shader_lint CLI smoke tests -------------------------------------------

fn run_lint(args: &[&str]) -> (String, i32) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_shader_lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("shader_lint runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn cli_clean_program_exits_zero() {
    let (stdout, code) = run_lint(&["tests/fixtures/clean.fp"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn cli_reports_errors_rustc_style() {
    let (stdout, code) = run_lint(&["tests/fixtures/use-before-def.fp"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("error[use-before-def]"), "{stdout}");
    assert!(stdout.contains("use-before-def.fp:4"), "{stdout}");
    assert!(stdout.contains("ADD R1, R0, R2"), "{stdout}");
}

#[test]
fn cli_warnings_gate_on_deny_warnings() {
    let (stdout, code) = run_lint(&["tests/fixtures/dead-write.fp"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("warning[dead-write]"), "{stdout}");
    let (_, code) = run_lint(&["--deny-warnings", "tests/fixtures/dead-write.fp"]);
    assert_eq!(code, 1);
}

#[test]
fn cli_binding_flags_enable_pass_mode() {
    let (stdout, code) = run_lint(&["--samplers", "1", "tests/fixtures/unbound-sampler.fp"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("error[unbound-sampler]"), "{stdout}");
    // With enough samplers the same file is clean.
    let (_, code) = run_lint(&["--samplers", "4", "tests/fixtures/unbound-sampler.fp"]);
    assert_eq!(code, 0);
}

#[test]
fn cli_rejects_unknown_flags() {
    let (_, code) = run_lint(&["--frobnicate"]);
    assert_eq!(code, 2);
}
