//! The whole reproduction at quick effort, pinned byte for byte.
//!
//! `all_quick.txt` beside this file is exactly what
//! `run_experiments all quick` prints to stdout: every experiment's
//! plain-text report, each followed by a newline. Any change to a number,
//! a row, a note or the table layout of any experiment fails this test, so
//! a change that moves an artefact shows every moved number in its own
//! diff.
//!
//! To re-record after an *intentional* change, run
//!
//! ```sh
//! cargo test -p wsync-experiments --test all_quick_golden -- --ignored
//! ```
//!
//! which rewrites `all_quick.txt` in place.

use wsync_experiments::output::Effort;
use wsync_experiments::run_all;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/all_quick.txt");

const GOLDEN: &str = include_str!("all_quick.txt");

/// What `run_experiments all quick` prints to stdout.
fn render() -> String {
    run_all(Effort::Quick)
        .iter()
        .map(|report| format!("{}\n", report.to_plain_text()))
        .collect()
}

#[test]
fn all_quick_output_matches_the_golden_file() {
    let produced = render();
    if produced == GOLDEN {
        return;
    }
    let first_diff = produced
        .lines()
        .zip(GOLDEN.lines())
        .position(|(p, g)| p != g)
        .unwrap_or_else(|| produced.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "`all quick` output moved from tests/all_quick.txt at line {}:\n  golden:   {:?}\n  produced: {:?}\n\
         ({} golden lines, {} produced)",
        first_diff + 1,
        GOLDEN.lines().nth(first_diff),
        produced.lines().nth(first_diff),
        GOLDEN.lines().count(),
        produced.lines().count(),
    );
}

/// Re-recording helper: rewrites `all_quick.txt` from the current code.
#[test]
#[ignore = "run with --ignored to re-record tests/all_quick.txt"]
fn rerecord_all_quick_golden() {
    std::fs::write(GOLDEN_PATH, render()).expect("write the golden file");
    println!("re-recorded {GOLDEN_PATH}");
}
