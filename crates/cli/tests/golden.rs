//! Byte-for-byte golden outputs at hundreds of ports.
//!
//! A 64-lane Hotspot declares 576 memory objects, streams and ports, so
//! these files pin the Manage-IR resolution (validation, arena build,
//! resource, bandwidth and analysis passes) where a lookup change would
//! show. The files under `tests/golden/` are `tybec` stdout captured
//! before the resolution moved to a name index; regenerate one only for
//! an intended output change, with the command in its test below.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Run `tybec args` from the workspace root and compare its stdout with
/// `tests/golden/<golden>`.
fn assert_golden(args: &[&str], golden: &str) {
    let root = workspace_root();
    let o = Command::new(env!("CARGO_BIN_EXE_tybec"))
        .args(args)
        .current_dir(&root)
        .output()
        .expect("tybec runs");
    assert!(o.status.success(), "tybec {args:?}: {}", String::from_utf8_lossy(&o.stderr));
    let want = std::fs::read(root.join("tests/golden").join(golden)).expect("golden file");
    assert!(
        o.stdout == want,
        "tybec {args:?} differs from tests/golden/{golden}:\n{}",
        String::from_utf8_lossy(&o.stdout)
    );
}

const LANES: &str = "1,2,4,8,16,32,64";

#[test]
fn dse_hotspot_up_to_64_lanes() {
    assert_golden(&["dse", "hotspot", "--lanes", LANES], "dse_hotspot_l64.txt");
    assert_golden(
        &["dse", "hotspot", "--lanes", LANES, "--exhaustive"],
        "dse_hotspot_l64_exhaustive.txt",
    );
}

#[test]
fn dse_lavamd_up_to_64_lanes() {
    assert_golden(&["dse", "lavamd", "--lanes", LANES], "dse_lavamd_l64.txt");
    assert_golden(
        &["dse", "lavamd", "--lanes", LANES, "--exhaustive"],
        "dse_lavamd_l64_exhaustive.txt",
    );
}

#[test]
fn hotspot_64_lane_lowering_prints_the_golden_text() {
    use tytra_kernels::{EvalKernel, Hotspot};
    let variant = tytra_transform::Variant { lanes: 64, ..tytra_transform::Variant::baseline() };
    let m = Hotspot::default().lower_variant(&variant).expect("64 lanes lower");
    let want = std::fs::read_to_string(workspace_root().join("tests/golden/hotspot_l64.tirl"))
        .expect("golden file");
    assert!(tytra_ir::print(&m) == want, "hotspot_l64.tirl no longer matches the lowering");
}

#[test]
fn cost_lint_analyze_of_the_64_lane_hotspot() {
    let tirl = "tests/golden/hotspot_l64.tirl";
    assert_golden(&["cost", tirl], "hotspot_l64.cost.txt");
    assert_golden(&["lint", tirl, "--json"], "hotspot_l64.lint.json");
    assert_golden(&["analyze", tirl, "--json"], "hotspot_l64.analyze.json");
}
