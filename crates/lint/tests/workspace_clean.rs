//! The gate the CI `lint` job enforces, as a test: the workspace itself
//! must be clean under `--deny-all`, and every suppression in the tree
//! must carry a reason.

use std::path::Path;

use wsync_lint::lint_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

/// The serving/fabric layers' suppression audit: the only rule they are
/// allowed to suppress is `wall-clock`, and those markers must live in
/// the two designated boundary modules (lease staleness needs file
/// mtimes; the throughput metric needs request timing). Anywhere else, a
/// wall-clock read could leak into simulated state — so a marker drifting
/// out of these files fails this test even while the suppression itself
/// would keep `--deny-all` green.
#[test]
fn serve_and_fabric_confine_wall_clock_to_boundary_modules() {
    let boundary_files = [
        "crates/serve/src/clock.rs",
        "crates/core/src/fabric.rs", // its private `clock` boundary module
    ];
    let audited_roots = ["crates/serve/src", "crates/core/src/fabric.rs"];
    let mut markers = 0usize;
    for root in audited_roots {
        let root = workspace_root().join(root);
        let files: Vec<std::path::PathBuf> = if root.is_file() {
            vec![root]
        } else {
            std::fs::read_dir(&root)
                .expect("audited directory exists")
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .collect()
        };
        for path in files {
            let rel = path
                .strip_prefix(workspace_root())
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&path).unwrap();
            for (i, line) in source.lines().enumerate() {
                let Some(rest) = line.split("lint:allow(").nth(1) else {
                    continue;
                };
                markers += 1;
                let rule = rest.split(')').next().unwrap_or("");
                assert_eq!(
                    rule,
                    "wall-clock",
                    "{rel}:{}: the serve/fabric layers may only suppress wall-clock, found {rule}",
                    i + 1
                );
                assert!(
                    boundary_files.contains(&rel.as_str()),
                    "{rel}:{}: wall-clock suppression outside the designated boundary modules",
                    i + 1
                );
            }
        }
    }
    assert!(
        markers >= 2,
        "the boundary modules carry reasoned wall-clock markers; found {markers} — \
         did the suppressions stop matching?"
    );
}

#[test]
fn workspace_is_clean_under_deny_all() {
    let report = lint_workspace(workspace_root(), &[]).expect("workspace walk failed");
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings:\n{}",
        report.render_human(true)
    );
    assert_eq!(report.exit_code(true), 0);
    assert!(
        report.files_scanned > 50,
        "suspiciously small walk: {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.suppressed > 0,
        "the tree carries reasoned lint:allow markers; zero suppressions means they stopped matching"
    );
}
