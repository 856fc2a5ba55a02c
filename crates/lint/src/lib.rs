//! `wsync-lint` — the workspace determinism auditor.
//!
//! Every claim this reproduction makes — golden FNV digests, bit-identical
//! `--resume`, parallel == serial outcomes — rests on a determinism
//! contract that ordinary tests cannot enforce: a single `HashMap`
//! iteration leaking into a fold, an ambient RNG, or a wall-clock read in
//! simulation logic breaks reproducibility *silently*. This crate is the
//! static-analysis gate that makes aggressive refactors of the hottest
//! code safe to attempt: a hand-rolled comment/string-aware lexer
//! ([`lexer`]) feeds a closed, static rule table ([`rules`]) over every
//! source file in the workspace ([`walk`]).
//!
//! # Rules
//!
//! | rule | scope | what it catches |
//! |------|-------|-----------------|
//! | `nondeterministic-iteration` | `wsync-core`, `wsync-radio`, `tests/` | `HashMap`/`HashSet` tokens |
//! | `ambient-rng` | everything except `crates/compat` | `thread_rng`, `from_entropy`, `OsRng`, … |
//! | `wall-clock` | everything except bench code | `Instant`, `SystemTime` |
//! | `unsafe-code` | every non-compat crate | missing `#![forbid(unsafe_code)]`, any `unsafe` token |
//! | `panicky-library` | engine/store/sweep hot paths | `.unwrap()` / `.expect()` (advisory unless `--deny-all`) |
//! | `unused-pub` | non-compat `src/` trees | a `pub fn` no other workspace file names outside a `use` item (advisory unless `--deny-all`) |
//!
//! # Suppressions
//!
//! A finding is scoped out with an inline marker on the offending line or
//! the line directly above it:
//!
//! ```text
//! // lint:allow(nondeterministic-iteration): drained by keyed remove in seed order
//! ```
//!
//! The reason after `):` is **mandatory** — a marker without one
//! suppresses nothing and is itself reported (`unexplained-suppression`),
//! as is a marker naming a rule that does not exist (`unknown-rule`).
//!
//! # Exit codes
//!
//! `0` — clean (denied findings: none); `1` — findings; `2` — usage or
//! I/O error. CI runs `wsync-lint --deny-all`, which promotes advisory
//! rules to errors.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

use wsync_core::json::Value;

use lexer::{lex, test_regions, LexedFile, Suppression};
use rules::{
    FileContext, FileScope, Finding, NameIndex, Rule, UNEXPLAINED_SUPPRESSION, UNKNOWN_RULE,
};

/// The outcome of linting a set of files.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings scoped out by reasoned `lint:allow` markers.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings that fail the build under `deny_all`.
    fn denied(&self, deny_all: bool) -> usize {
        self.findings.iter().filter(|f| f.deny || deny_all).count()
    }

    /// The process exit code this report maps to: `0` when no finding is
    /// denied (advisory findings may remain unless `deny_all`), else `1`.
    pub fn exit_code(&self, deny_all: bool) -> i32 {
        if self.denied(deny_all) == 0 {
            0
        } else {
            1
        }
    }

    /// Renders the human `file:line: [rule] message` form, one finding
    /// per line, followed by a one-line summary.
    pub fn render_human(&self, deny_all: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let sev = if f.deny || deny_all { "deny" } else { "warn" };
            out.push_str(&format!(
                "{}:{}: [{}] ({}) {}\n",
                f.path, f.line, f.rule, sev, f.message
            ));
        }
        out.push_str(&format!(
            "{} files scanned: {} finding(s) ({} denied), {} suppressed by reasoned markers\n",
            self.files_scanned,
            self.findings.len(),
            self.denied(deny_all),
            self.suppressed
        ));
        out
    }

    /// Renders the report as a JSON document via the in-repo writer —
    /// byte-stable for golden tests and machine consumers.
    pub fn render_json(&self, deny_all: bool) -> String {
        let findings: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("rule".to_string(), Value::Str(f.rule.clone())),
                    ("path".to_string(), Value::Str(f.path.clone())),
                    ("line".to_string(), Value::Int(i64::from(f.line))),
                    ("severity".to_string(), {
                        let sev = if f.deny || deny_all { "deny" } else { "warn" };
                        Value::Str(sev.to_string())
                    }),
                    ("message".to_string(), Value::Str(f.message.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "files_scanned".to_string(),
                Value::Int(self.files_scanned as i64),
            ),
            ("findings".to_string(), Value::Array(findings)),
            (
                "denied".to_string(),
                Value::Int(self.denied(deny_all) as i64),
            ),
            ("suppressed".to_string(), Value::Int(self.suppressed as i64)),
        ])
        .to_json()
    }
}

/// Lints a set of in-memory source files as one workspace, applying each
/// file's `lint:allow` suppressions. `only` selects rules by name; empty
/// runs every rule. `unused-pub` counts mentions across exactly these
/// files. This is the unit the fixture tests drive; [`lint_workspace`]
/// feeds it every file [`walk::discover`] finds.
pub fn lint_sources(files: &[(FileScope, String)], only: &[String]) -> LintReport {
    let lexed: Vec<LexedFile> = files.iter().map(|(_, source)| lex(source)).collect();
    let mut names = NameIndex::new();
    for file in &lexed {
        rules::index_names(&file.tokens, &mut names);
    }
    let selected: Vec<&Rule> = rules::all()
        .iter()
        .filter(|r| only.is_empty() || only.iter().any(|n| n == r.name))
        .collect();
    let mut report = LintReport::default();
    for ((scope, _), file) in files.iter().zip(&lexed) {
        lint_file(scope, file, &names, &selected, &mut report);
    }
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    report
}

/// Lints one lexed file and folds its findings into `report`.
fn lint_file(
    scope: &FileScope,
    lexed: &LexedFile,
    names: &NameIndex,
    selected: &[&Rule],
    report: &mut LintReport,
) {
    let in_test = test_regions(&lexed.tokens);
    let ctx = FileContext {
        scope,
        lexed,
        in_test: &in_test,
        names,
    };

    let mut raw: Vec<Finding> = Vec::new();
    for rule in selected {
        rule.check(&ctx, &mut raw);
    }

    // Apply suppressions: a reasoned marker covers its own line and the
    // line directly below, for the rules it names.
    for f in raw {
        let covered = lexed.suppressions.iter().any(|s: &Suppression| {
            s.reason.is_some()
                && s.rules.iter().any(|r| r == &f.rule)
                && (s.line == f.line || s.line + 1 == f.line)
        });
        if covered {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }

    // Meta findings: reasonless markers and unknown rule names always
    // deny — an unexplained suppression is itself a violation of the
    // contract.
    for s in &lexed.suppressions {
        if s.reason.is_none() {
            report.findings.push(Finding {
                rule: UNEXPLAINED_SUPPRESSION.to_string(),
                path: scope.rel_path.clone(),
                line: s.line,
                message: format!(
                    "suppression `lint:allow({})` carries no reason; write \
                     `// lint:allow(<rule>): <why this is sound>`",
                    s.rules.join(", ")
                ),
                deny: true,
            });
        }
        for r in &s.rules {
            if !rules::is_known_name(r) {
                report.findings.push(Finding {
                    rule: UNKNOWN_RULE.to_string(),
                    path: scope.rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "suppression names unknown rule `{r}`; known rules: {}",
                        rules::all()
                            .iter()
                            .map(|r| r.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    deny: true,
                });
            }
        }
    }
    report.files_scanned += 1;
}

/// Lints every Rust source file under `root` with the rules `only` names
/// (every rule when empty).
pub fn lint_workspace(root: &Path, only: &[String]) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for (scope, abs_path) in walk::discover(root)? {
        files.push((scope, std::fs::read_to_string(&abs_path)?));
    }
    Ok(lint_sources(&files, only))
}
