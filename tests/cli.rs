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

/// A fresh scratch directory for one test; `--trace` writes its
/// `results/` relative to the working directory, so each run gets its
/// own.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sllt_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sllt run --design grid48 <extra> --tree <dir>/<tree>` in `dir`
/// and returns the written tree's bytes.
fn run_grid48(dir: &std::path::Path, extra: &[&str], tree: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .current_dir(dir)
        .args(["run", "--design", "grid48", "--workers", "2"])
        .args(extra)
        .args(["--tree", tree])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(dir.join(tree)).unwrap()
}

#[test]
fn traced_checkpointed_run_matches_untraced_and_resumes() {
    let dir = scratch("trace_ckpt");
    let untraced = run_grid48(&dir, &[], "untraced.sllt");
    let traced = run_grid48(
        &dir,
        &["--trace", "--checkpoint", "run.ckpt"],
        "traced.sllt",
    );
    assert_eq!(traced, untraced, "tracing a journaled run changed the tree");
    assert!(dir.join("results/trace_grid48.json").exists());
    assert!(
        dir.join("run.ckpt").exists(),
        "the traced run must write its journal"
    );

    // Resume the complete journal, then a copy torn mid-record (a crash
    // mid-append): both rebuild the same tree.
    let resumed = run_grid48(
        &dir,
        &["--checkpoint", "run.ckpt", "--resume"],
        "resumed.sllt",
    );
    assert_eq!(resumed, untraced, "resuming the full journal diverged");
    let journal = std::fs::read(dir.join("run.ckpt")).unwrap();
    std::fs::write(dir.join("torn.ckpt"), &journal[..journal.len() / 2]).unwrap();
    let rebuilt = run_grid48(
        &dir,
        &["--checkpoint", "torn.ckpt", "--resume"],
        "torn.sllt",
    );
    assert_eq!(rebuilt, untraced, "resuming a torn journal diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `sllt run` with `args` and returns its stderr, asserting it
/// failed.
fn run_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sllt"))
        .arg("run")
        .args(args)
        .output()
        .unwrap();
    assert!(!out.status.success(), "{args:?} must be refused");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn resume_without_checkpoint_is_refused() {
    let err = run_fails(&["--design", "grid48", "--resume"]);
    assert!(err.contains("--resume needs --checkpoint"), "{err}");
}

#[test]
fn checkpoint_on_the_openroad_flow_is_refused() {
    let dir = scratch("openroad_ckpt");
    let journal = dir.join("run.ckpt");
    let path = journal.to_str().unwrap();
    for extra in [
        &["--checkpoint", path][..],
        &["--resume", "--checkpoint", path][..],
    ] {
        let mut args = vec!["--design", "grid48", "--flow", "openroad"];
        args.extend_from_slice(extra);
        let err = run_fails(&args);
        assert!(
            err.contains("--checkpoint/--resume need an engine flow"),
            "{err}"
        );
    }
    assert!(!journal.exists(), "a refused run must not create a journal");
    std::fs::remove_dir_all(&dir).ok();
}
