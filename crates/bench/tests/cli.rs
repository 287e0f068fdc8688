//! The `tables` exit-code contract on malformed input or a missing
//! argument: exit 2 with a message, never an abort.

use std::process::Command;

#[test]
fn deeply_nested_documents_exit_2() {
    let path = std::env::temp_dir().join(format!("tables-nested-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(50_000)).expect("write the input");
    let p = path.to_str().expect("a UTF-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["analyze", "--trace", p])
        .output()
        .expect("run tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "tables analyze --trace: {stderr}"
    );
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_without_a_trace_prints_its_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("analyze")
        .output()
        .expect("run tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables analyze: {stderr}");
    assert!(
        stderr.contains("usage: tables analyze --trace <trace.json>"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn fig5_into_an_uncreatable_directory_exits_2_before_rendering() {
    // A directory under a regular file cannot be created, even by root.
    let file = std::env::temp_dir().join(format!("tables-fig5-{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write the blocker");
    let dir = file.join("figures");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["fig5", dir.to_str().expect("a UTF-8 temp path")])
        .output()
        .expect("run tables");
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "tables fig5: {stderr}");
    assert!(stderr.contains("error: cannot write"), "{stderr}");
    assert!(!stderr.contains("[fig5] rendering"), "{stderr}");
    assert!(out.stdout.is_empty());
}
