//! CLI smoke tests for the `shader_lint` binary, exercising the `--opt`
//! and `--emit` flags added alongside the optimizer.

use std::io::Write;
use std::process::{Command, Stdio};

/// A tiny program with an obvious copy to eliminate: the optimizer folds
/// `MOV R1, R0` into the ADD and coalesces the result straight into OC.
const COPY_HEAVY: &str = "!!copy_heavy
TEX R0, T0, tex0
MOV R1, R0
ADD R2, R1, R0
MOV OC, R2
";

/// A program with a genuine lint error (unwritten register read).
const BROKEN: &str = "!!broken
ADD OC, R0, R7
";

fn run_lint(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_shader_lint"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shader_lint");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait shader_lint");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code(),
    )
}

#[test]
fn opt_flag_reports_counters_and_counts() {
    let (stdout, _, code) = run_lint(&["--opt"], COPY_HEAVY);
    assert_eq!(code, Some(0), "clean program must keep exit 0\n{stdout}");
    assert!(
        stdout.contains("opt[<stdin>] copy_heavy: 4 -> 2 instructions"),
        "expected before/after counts in report, got:\n{stdout}"
    );
    assert!(
        stdout.contains("copies_propagated"),
        "expected per-pass counters, got:\n{stdout}"
    );
}

#[test]
fn emit_flag_prints_optimized_disassembly() {
    let (stdout, _, code) = run_lint(&["--emit"], COPY_HEAVY);
    assert_eq!(code, Some(0));
    // The emitted text is the optimized program: the copy is gone and the
    // sum lands directly in OC.
    assert!(stdout.contains("!!copy_heavy"), "missing header:\n{stdout}");
    assert!(
        stdout.contains("ADD OC, R0, R0"),
        "expected coalesced ADD into OC, got:\n{stdout}"
    );
    assert!(
        !stdout.contains("MOV R1, R0"),
        "copy should have been eliminated:\n{stdout}"
    );
}

#[test]
fn emitted_disassembly_reassembles_and_lints_clean() {
    let (stdout, _, _) = run_lint(&["--emit"], COPY_HEAVY);
    // Round-trip the emitted text through the linter again: it must be a
    // fixed point (already optimal) and verify-clean.
    let (second, _, code) = run_lint(&["--emit", "--deny-warnings"], &stdout);
    assert_eq!(
        code,
        Some(0),
        "optimized program must lint clean:\n{second}"
    );
    assert_eq!(second, stdout, "optimization should be idempotent");
}

#[test]
fn exit_code_stays_lint_driven_with_opt_flags() {
    let (stdout, _, code) = run_lint(&["--opt", "--emit"], BROKEN);
    assert_eq!(code, Some(1), "errors must still fail the lint:\n{stdout}");
    // Broken programs are not optimized: no report, no emitted program.
    assert!(
        !stdout.contains("opt[<stdin>]"),
        "unexpected report:\n{stdout}"
    );
    assert!(
        !stdout.contains("!!broken\nADD"),
        "unexpected emit:\n{stdout}"
    );
}

#[test]
fn malformed_operands_exit_with_an_error_not_a_panic() {
    // Both inputs once panicked inside the assembler (exit 101).
    for src in ["MOV R0, ", "MOV R0, \u{e9}0"] {
        let (_, stderr, code) = run_lint(&[], src);
        assert_eq!(code, Some(1), "{src:?}: {stderr}");
    }
}

#[test]
fn arbitrary_stdin_never_crashes_the_cli() {
    // Random bytes, invalid UTF-8 included, and random splices of a valid
    // program: the exit status is always 0, 1 or 2, never a panic's 101.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let seed = COPY_HEAVY.as_bytes();
    for case in 0..48 {
        let input: Vec<u8> = if case % 2 == 0 {
            (0..next() % 80).map(|_| next() as u8).collect()
        } else {
            let mut bytes = seed.to_vec();
            for _ in 0..1 + next() % 4 {
                let at = (next() as usize) % (bytes.len() + 1);
                let splice = b"\xc3\xa9,.-R9TO#\n\xff ";
                bytes.insert(at, splice[next() as usize % splice.len()]);
            }
            bytes
        };
        let mut child = Command::new(env!("CARGO_BIN_EXE_shader_lint"))
            .args(["--opt", "--emit"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn shader_lint");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(&input)
            .expect("write stdin");
        let code = child.wait().expect("wait shader_lint").code();
        assert!(
            matches!(code, Some(0..=2)),
            "exit {code:?} on input {:?}",
            String::from_utf8_lossy(&input)
        );
    }
}
