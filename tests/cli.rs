//! The `sllt` binary resolves design names through the shared
//! `design_by_name`: suite designs and synthetic `grid<N>` alike.

use std::process::Command;

#[test]
fn run_accepts_grid_designs() {
    let tree = std::env::temp_dir().join(format!("sllt_cli_grid48_{}.sllt", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .args(["run", "--design", "grid48", "--tree"])
        .arg(&tree)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("grid48 / ours:"));
    let text = std::fs::read_to_string(&tree).unwrap();
    assert!(text.starts_with("sllt-tree v1"));
    std::fs::remove_file(&tree).ok();
}

#[test]
fn run_names_both_design_forms_for_an_unknown_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .args(["run", "--design", "grid0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown design \"grid0\"") && err.contains("grid<N>"),
        "{err}"
    );
}
