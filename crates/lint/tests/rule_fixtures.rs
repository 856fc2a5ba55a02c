//! Per-rule fixtures driven through `lint_source`: for every rule a
//! positive hit, a negative (out-of-scope or clean) case, a reasoned
//! suppression, and a reasonless marker that must itself be reported.
//! Fixtures are inline strings on purpose — files on disk would be
//! scanned by the workspace-wide pass and have to be clean themselves.

use wsync_lint::lint_source;
use wsync_lint::rules::{FileScope, RuleRegistry};

fn scope(rel_path: &str, crate_name: &str) -> FileScope {
    FileScope {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        is_compat: rel_path.starts_with("crates/compat/"),
        is_bench: rel_path.contains("/benches/"),
        is_crate_root: rel_path.ends_with("src/lib.rs"),
    }
}

fn rules_fired(scope: &FileScope, src: &str) -> Vec<String> {
    lint_source(scope, src, &RuleRegistry::with_defaults())
        .findings
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---------------------------------------------------------------- nondeterministic-iteration

#[test]
fn nondeterministic_iteration_positive() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
    let fired = rules_fired(&sc, src);
    assert_eq!(
        fired
            .iter()
            .filter(|r| *r == "nondeterministic-iteration")
            .count(),
        3,
        "{fired:?}"
    );
}

#[test]
fn nondeterministic_iteration_covers_umbrella_tests_dir() {
    let sc = scope("tests/engine_golden.rs", "wireless-sync");
    let src = "use std::collections::HashSet;";
    assert!(rules_fired(&sc, src).contains(&"nondeterministic-iteration".to_string()));
}

#[test]
fn nondeterministic_iteration_negative_out_of_scope_crate() {
    // wsync-cli does not feed digests; HashMap there is fine.
    let sc = scope("crates/cli/src/main.rs", "wsync-cli");
    let src = "use std::collections::HashMap;";
    assert!(!rules_fired(&sc, src).contains(&"nondeterministic-iteration".to_string()));
}

#[test]
fn nondeterministic_iteration_negative_btreemap_is_clean() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src =
        "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u8, u8> = BTreeMap::new(); }";
    assert!(rules_fired(&sc, src).is_empty());
}

#[test]
fn nondeterministic_iteration_suppressed_with_reason() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src =
        "// lint:allow(nondeterministic-iteration): drained by keyed remove, order unobserved\n\
               use std::collections::HashMap;";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn nondeterministic_iteration_reasonless_marker_suppresses_nothing() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "// lint:allow(nondeterministic-iteration)\nuse std::collections::HashMap;";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(fired.contains(&"nondeterministic-iteration"), "{fired:?}");
    assert!(fired.contains(&"unexplained-suppression"), "{fired:?}");
    assert_eq!(report.suppressed, 0);
}

// ---------------------------------------------------------------- ambient-rng

#[test]
fn ambient_rng_positive() {
    let sc = scope("crates/radio/src/engine.rs", "wsync-radio");
    let src = "fn f() { let mut rng = rand::thread_rng(); }";
    assert!(rules_fired(&sc, src).contains(&"ambient-rng".to_string()));
}

#[test]
fn ambient_rng_negative_inside_compat() {
    let sc = scope("crates/compat/rand/src/lib.rs", "rand");
    let src = "pub fn thread_rng() -> ThreadRng { ThreadRng }";
    assert!(!rules_fired(&sc, src).contains(&"ambient-rng".to_string()));
}

#[test]
fn ambient_rng_in_string_is_not_a_hit() {
    let sc = scope("crates/radio/src/engine.rs", "wsync-radio");
    let src = r#"fn f() { let s = "thread_rng is banned"; }"#;
    assert!(!rules_fired(&sc, src).contains(&"ambient-rng".to_string()));
}

#[test]
fn ambient_rng_suppressed_with_reason() {
    let sc = scope("crates/radio/src/engine.rs", "wsync-radio");
    let src = "// lint:allow(ambient-rng): doc example naming the banned symbol\n\
               fn f() { let _ = stringify!(thread_rng); }";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn ambient_rng_reasonless_marker_is_a_finding() {
    let sc = scope("crates/radio/src/engine.rs", "wsync-radio");
    let src = "// lint:allow(ambient-rng):\nfn f() { let mut rng = rand::thread_rng(); }";
    let fired = rules_fired(&sc, src);
    assert!(fired.contains(&"ambient-rng".to_string()), "{fired:?}");
    assert!(
        fired.contains(&"unexplained-suppression".to_string()),
        "{fired:?}"
    );
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_positive() {
    let sc = scope("crates/core/src/sim.rs", "wsync-core");
    let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
    let fired = rules_fired(&sc, src);
    assert_eq!(fired.iter().filter(|r| *r == "wall-clock").count(), 2);
}

#[test]
fn wall_clock_negative_in_bench_crate() {
    let sc = scope("perfbench/benches/trial.rs", "wsync-perfbench");
    let src = "use std::time::Instant;";
    assert!(rules_fired(&sc, src).is_empty());
}

#[test]
fn wall_clock_positive_in_compat() {
    let sc = scope("crates/compat/proptest/src/lib.rs", "proptest");
    let src = "use std::time::{Instant, SystemTime};";
    let fired = rules_fired(&sc, src);
    assert_eq!(fired.iter().filter(|r| *r == "wall-clock").count(), 2);
}

#[test]
fn wall_clock_suppressed_with_reason() {
    let sc = scope("crates/core/src/sim.rs", "wsync-core");
    let src = "// lint:allow(wall-clock): progress display only, never feeds results\n\
               use std::time::Instant;";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn wall_clock_reasonless_marker_is_a_finding() {
    let sc = scope("crates/core/src/sim.rs", "wsync-core");
    let src = "use std::time::SystemTime; // lint:allow(wall-clock)";
    let fired = rules_fired(&sc, src);
    assert!(fired.contains(&"wall-clock".to_string()), "{fired:?}");
    assert!(
        fired.contains(&"unexplained-suppression".to_string()),
        "{fired:?}"
    );
}

// ---------------------------------------------------------------- unsafe-code

#[test]
fn unsafe_code_positive_unsafe_block() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
    assert!(rules_fired(&sc, src).contains(&"unsafe-code".to_string()));
}

#[test]
fn unsafe_code_positive_missing_forbid_at_crate_root() {
    let sc = scope("crates/core/src/lib.rs", "wsync-core");
    let src = "//! A crate root without the forbid attribute.\npub fn f() {}";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "unsafe-code")
        .expect("missing-forbid finding");
    assert_eq!(hit.line, 1);
    assert!(
        hit.message.contains("forbid(unsafe_code)"),
        "{}",
        hit.message
    );
}

#[test]
fn unsafe_code_negative_forbidding_root_is_clean() {
    let sc = scope("crates/core/src/lib.rs", "wsync-core");
    let src = "#![forbid(unsafe_code)]\npub fn f() {}";
    assert!(rules_fired(&sc, src).is_empty());
}

#[test]
fn unsafe_code_negative_unsafe_in_string_or_comment() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "// unsafe is mentioned here\nfn f() { let s = \"unsafe\"; }";
    assert!(rules_fired(&sc, src).is_empty());
}

#[test]
fn unsafe_code_negative_compat_is_exempt() {
    let sc = scope("crates/compat/rand/src/lib.rs", "rand");
    let src = "fn f() { unsafe { core::mem::transmute::<u8, i8>(0) }; }";
    assert!(rules_fired(&sc, src).is_empty());
}

#[test]
fn unsafe_code_suppressed_with_reason() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "// lint:allow(unsafe-code): doc prose about the policy, not an unsafe block\n\
               fn unsafe_audit_notes() {}";
    // `unsafe_audit_notes` is not the token `unsafe`; nothing fires and the
    // unused (but reasoned) marker is not itself an error.
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn unsafe_code_reasonless_marker_is_a_finding() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "// lint:allow(unsafe-code)\nfn f() { unsafe {} }";
    let fired = rules_fired(&sc, src);
    assert!(fired.contains(&"unsafe-code".to_string()), "{fired:?}");
    assert!(
        fired.contains(&"unexplained-suppression".to_string()),
        "{fired:?}"
    );
}

// ---------------------------------------------------------------- panicky-library

#[test]
fn panicky_library_positive_and_advisory_by_default() {
    let sc = scope("crates/core/src/batch.rs", "wsync-core");
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "panicky-library")
        .expect("panicky-library should fire");
    assert!(!hit.deny, "advisory by default");
    assert_eq!(report.exit_code(false), 0, "warns do not fail the build");
    assert_eq!(report.exit_code(true), 1, "--deny-all promotes them");
}

#[test]
fn panicky_library_negative_outside_hot_paths() {
    let sc = scope("crates/core/src/report.rs", "wsync-core");
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    assert!(!rules_fired(&sc, src).contains(&"panicky-library".to_string()));
}

#[test]
fn panicky_library_negative_in_cfg_test() {
    let sc = scope("crates/core/src/store.rs", "wsync-core");
    let src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}";
    assert!(!rules_fired(&sc, src).contains(&"panicky-library".to_string()));
}

#[test]
fn panicky_library_negative_bare_expect_identifier() {
    // `expect` not preceded by `.` (e.g. a local named expect) is not a call.
    let sc = scope("crates/core/src/store.rs", "wsync-core");
    let src = "fn f() { let expect = 1; let _ = expect; }";
    assert!(!rules_fired(&sc, src).contains(&"panicky-library".to_string()));
}

#[test]
fn panicky_library_suppressed_with_reason() {
    let sc = scope("crates/core/src/store.rs", "wsync-core");
    let src = "fn f(x: Option<u8>) -> u8 {\n\
               x\n\
               // lint:allow(panicky-library): checked non-None two lines up\n\
               .unwrap()\n\
               }";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn panicky_library_reasonless_marker_is_a_finding() {
    let sc = scope("crates/core/src/store.rs", "wsync-core");
    let src = "// lint:allow(panicky-library)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
    let fired = rules_fired(&sc, src);
    assert!(fired.contains(&"panicky-library".to_string()), "{fired:?}");
    assert!(
        fired.contains(&"unexplained-suppression".to_string()),
        "{fired:?}"
    );
}

// ---------------------------------------------------------------- suppression scoping + meta

#[test]
fn suppression_does_not_reach_two_lines_down() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "// lint:allow(nondeterministic-iteration): close but not close enough\n\
               \n\
               use std::collections::HashMap;";
    let fired = rules_fired(&sc, src);
    assert!(
        fired.contains(&"nondeterministic-iteration".to_string()),
        "{fired:?}"
    );
}

#[test]
fn suppression_only_covers_the_named_rule() {
    let sc = scope("crates/core/src/lib.rs", "wsync-core");
    let src = "#![forbid(unsafe_code)]\n\
               // lint:allow(wall-clock): wrong rule named on purpose\n\
               use std::collections::HashMap;";
    let fired = rules_fired(&sc, src);
    assert!(
        fired.contains(&"nondeterministic-iteration".to_string()),
        "{fired:?}"
    );
}

#[test]
fn unknown_rule_in_marker_is_denied() {
    let sc = scope("crates/cli/src/main.rs", "wsync-cli");
    let src = "// lint:allow(no-such-rule): the rule name has a typo\nfn f() {}";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "unknown-rule")
        .expect("unknown-rule should fire");
    assert!(hit.deny);
    assert!(hit.message.contains("no-such-rule"), "{}", hit.message);
}

#[test]
fn findings_sort_by_path_line_rule() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "use std::time::Instant;\nuse std::collections::HashMap;\nfn f() { unsafe {} }";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
}

// ---------------------------------------------------------------- registry semantics

#[test]
fn registry_latest_registration_wins() {
    use wsync_lint::rules::Rule;
    let mut reg = RuleRegistry::with_defaults();
    let before = reg.rules().len();
    reg.register(Rule::new(
        "wall-clock",
        "replacement that never fires",
        false,
        |_, _, _| {},
    ));
    assert_eq!(reg.rules().len(), before, "replacement, not addition");
    let sc = scope("crates/core/src/sim.rs", "wsync-core");
    let report = lint_source(&sc, "use std::time::Instant;", &reg);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn registry_knows_meta_finding_names() {
    let reg = RuleRegistry::with_defaults();
    assert!(reg.is_known_name("unexplained-suppression"));
    assert!(reg.is_known_name("unknown-rule"));
    assert!(!reg.is_known_name("made-up"));
}

// ---------------------------------------------------------------- JSON golden

#[test]
fn json_output_is_byte_stable() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let src = "use std::collections::HashMap;";
    let report = lint_source(&sc, src, &RuleRegistry::with_defaults());
    let expected = r#"{
  "files_scanned": 1,
  "findings": [
    {
      "rule": "nondeterministic-iteration",
      "path": "crates/core/src/thing.rs",
      "line": 1,
      "severity": "deny",
      "message": "`HashMap` has randomized iteration order; in a digest-feeding crate use `BTreeMap`, sort before iterating, or justify with `// lint:allow(nondeterministic-iteration): <reason>`"
    }
  ],
  "denied": 1,
  "suppressed": 0
}"#;
    assert_eq!(report.render_json(false), expected);
}

#[test]
fn json_output_clean_file() {
    let sc = scope("crates/cli/src/main.rs", "wsync-cli");
    let report = lint_source(&sc, "fn main() {}", &RuleRegistry::with_defaults());
    let expected = r#"{
  "files_scanned": 1,
  "findings": [],
  "denied": 0,
  "suppressed": 0
}"#;
    assert_eq!(report.render_json(true), expected);
}

#[test]
fn human_output_format() {
    let sc = scope("crates/core/src/thing.rs", "wsync-core");
    let report = lint_source(
        &sc,
        "use std::collections::HashSet;",
        &RuleRegistry::with_defaults(),
    );
    let human = report.render_human(false);
    assert!(
        human.starts_with("crates/core/src/thing.rs:1: [nondeterministic-iteration] (deny) "),
        "{human}"
    );
    assert!(
        human.ends_with(
            "1 files scanned: 1 finding(s) (1 denied), 0 suppressed by reasoned markers\n"
        ),
        "{human}"
    );
}
