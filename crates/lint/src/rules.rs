//! The determinism rule set: one closed, static table of rules.
//!
//! Every rule audits one way a change could silently break the
//! reproducibility contract the golden-digest tests and `--resume`
//! equality rest on, or one way the public surface can outgrow its
//! callers. Rules see one file at a time as a lexed token stream plus a
//! [`FileScope`] describing where the file sits in the workspace and a
//! workspace-wide count of the files naming each identifier; they emit
//! [`Finding`]s, which the driver then filters against the file's
//! `lint:allow` suppressions.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{LexedFile, Token};

/// Where a source file sits in the workspace — the inputs rule scoping
/// decisions are made from.
#[derive(Debug, Clone, Default)]
pub struct FileScope {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/core/src/batch.rs`.
    pub rel_path: String,
    /// The owning crate's package name (`wsync-core`, `wireless-sync`,
    /// `compat/rand`, …).
    pub crate_name: String,
    /// Whether the file belongs to a vendored compat crate
    /// (`crates/compat/*`) — the designated home for entropy and time.
    pub is_compat: bool,
    /// Whether the file is benchmark code (any `benches/` directory) —
    /// wall-clock reads are its job.
    pub is_bench: bool,
    /// Whether the file is a crate root (`src/lib.rs`), where
    /// `#![forbid(unsafe_code)]` must live.
    pub is_crate_root: bool,
}

/// A single diagnostic: one rule firing at one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: String,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Whether this finding fails the build under the default policy
    /// (advisory rules are promoted by `--deny-all`).
    pub deny: bool,
}

/// Everything a rule can look at for one file.
pub(crate) struct FileContext<'a> {
    /// The file's workspace scope.
    pub(crate) scope: &'a FileScope,
    /// The lexed token stream and suppression markers.
    pub(crate) lexed: &'a LexedFile,
    /// Per-token flag: `true` for tokens inside `#[cfg(test)]` items.
    pub(crate) in_test: &'a [bool],
    /// How many workspace files name each identifier.
    pub(crate) names: &'a NameIndex,
}

impl FileContext<'_> {
    fn finding(&self, rule: &Rule, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.name.to_string(),
            path: self.scope.rel_path.clone(),
            line,
            message,
            deny: rule.deny_by_default,
        }
    }
}

/// The workspace-wide view rules that look past one file need: for every
/// identifier, the number of files that name it outside `use` items
/// (comments and string literals never reach the token stream). Built
/// once per run from every file the run lints.
pub(crate) type NameIndex = BTreeMap<String, usize>;

/// Adds one file's identifiers to `index`, counting each name once per
/// file. Tokens from a `use` keyword through its `;` are skipped: a
/// re-export or import names an item without using it.
pub(crate) fn index_names(tokens: &[Token], index: &mut NameIndex) {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut in_use = false;
    for t in tokens {
        if in_use {
            in_use = !t.is_punct(";");
        } else if t.is_ident("use") {
            in_use = true;
        } else if t.ident {
            seen.insert(&t.text);
        }
    }
    for name in seen {
        *index.entry(name.to_string()).or_insert(0) += 1;
    }
}

/// One rule: a name, its documentation, its default policy, and the
/// check itself.
pub struct Rule {
    /// The rule's name, as written in `lint:allow(…)` markers and
    /// `--rule`.
    pub name: &'static str,
    /// One-line description shown by `--list-rules`.
    pub description: &'static str,
    /// `true` for rules that fail the build by default; advisory rules
    /// only fail under `--deny-all`.
    pub deny_by_default: bool,
    check: fn(&Rule, &FileContext<'_>, &mut Vec<Finding>),
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("deny_by_default", &self.deny_by_default)
            .finish()
    }
}

impl Rule {
    /// Runs this rule over one file.
    pub(crate) fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
        (self.check)(self, ctx, out)
    }
}

/// Every rule, in `--list-rules` order. The set is closed: a new check is
/// a new entry here.
static RULES: &[Rule] = &[
    NONDETERMINISTIC_ITERATION,
    AMBIENT_RNG,
    WALL_CLOCK,
    UNSAFE_CODE,
    PANICKY_LIBRARY,
    UNUSED_PUB,
];

/// Every rule, in `--list-rules` order.
pub fn all() -> &'static [Rule] {
    RULES
}

/// Whether `name` names a rule *or* one of the meta findings the driver
/// itself emits (valid in `lint:allow` markers).
pub fn is_known_name(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name) || name == UNEXPLAINED_SUPPRESSION || name == UNKNOWN_RULE
}

/// Meta finding: a `lint:allow` marker with no reason after the `):`.
pub const UNEXPLAINED_SUPPRESSION: &str = "unexplained-suppression";
/// Meta finding: a `lint:allow` marker naming a rule that does not exist.
pub const UNKNOWN_RULE: &str = "unknown-rule";

/// The crates whose state feeds golden digests and store records — a
/// nondeterministically ordered collection reaching any fold here can
/// silently change pinned results.
const DIGEST_FEEDING_CRATES: &[&str] = &["wsync-core", "wsync-radio"];

/// Hot-path files where a stray `unwrap`/`expect` aborts a whole sweep
/// instead of surfacing as a per-trial error.
const HOT_PATH_FILES: &[&str] = &[
    "crates/radio/src/engine.rs",
    "crates/core/src/store.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/batch.rs",
];

fn idents<'a>(ctx: &'a FileContext<'_>) -> impl Iterator<Item = (usize, &'a Token)> {
    ctx.lexed.tokens.iter().enumerate().filter(|(_, t)| t.ident)
}

/// `nondeterministic-iteration`: `HashMap`/`HashSet` in digest-feeding
/// code. Also covers the umbrella `tests/` directory, because that is
/// where the golden FNV digests are computed.
const NONDETERMINISTIC_ITERATION: Rule = Rule {
    name: "nondeterministic-iteration",
    description: "HashMap/HashSet in digest-feeding code (wsync-core, wsync-radio, tests/): \
                  iteration order is randomized per process; use BTreeMap/BTreeSet or sort \
                  before iterating",
    deny_by_default: true,
    check: |rule, ctx, out| {
        let in_scope = DIGEST_FEEDING_CRATES.contains(&ctx.scope.crate_name.as_str())
            || ctx.scope.rel_path.starts_with("tests/");
        if !in_scope || ctx.scope.is_compat {
            return;
        }
        for (_, t) in idents(ctx) {
            if t.text == "HashMap" || t.text == "HashSet" {
                out.push(ctx.finding(
                    rule,
                    t.line,
                    format!(
                        "`{}` has randomized iteration order; in a digest-feeding crate use \
                         `BTree{}`, sort before iterating, or justify with \
                         `// lint:allow({}): <reason>`",
                        t.text,
                        &t.text[4..],
                        rule.name
                    ),
                ));
            }
        }
    },
};

/// `ambient-rng`: entropy outside the vendored `compat` layer. Every
/// random draw must descend from the trial's master seed via `SimRng`.
const AMBIENT_RNG: Rule = Rule {
    name: "ambient-rng",
    description: "ambient randomness (thread_rng/from_entropy/OsRng) outside crates/compat: \
                  every draw must descend from the (spec, seed) master seed via SimRng",
    deny_by_default: true,
    check: |rule, ctx, out| {
        if ctx.scope.is_compat {
            return;
        }
        for (_, t) in idents(ctx) {
            if matches!(
                t.text.as_str(),
                "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" | "getrandom"
            ) {
                out.push(ctx.finding(
                    rule,
                    t.line,
                    format!(
                        "`{}` draws ambient entropy, breaking the (spec, seed) purity every \
                         resume/parallel-equality claim rests on; derive a SimRng stream instead",
                        t.text
                    ),
                ));
            }
        }
    },
};

/// `wall-clock`: `Instant`/`SystemTime` outside bench code. Simulation
/// logic must be round-driven, not time-driven.
const WALL_CLOCK: Rule = Rule {
    name: "wall-clock",
    description: "Instant/SystemTime outside bench code: simulated time is round-driven; \
                  wall-clock reads make runs machine-dependent",
    deny_by_default: true,
    check: |rule, ctx, out| {
        if ctx.scope.is_bench {
            return;
        }
        for (_, t) in idents(ctx) {
            if t.text == "Instant" || t.text == "SystemTime" {
                out.push(ctx.finding(
                    rule,
                    t.line,
                    format!(
                        "`{}` reads the wall clock; outside bench code that makes behaviour \
                         machine- and load-dependent",
                        t.text
                    ),
                ));
            }
        }
    },
};

/// `unsafe-code`: every non-compat crate root must carry
/// `#![forbid(unsafe_code)]`, and no `unsafe` token may appear anywhere
/// outside `compat`.
const UNSAFE_CODE: Rule = Rule {
    name: "unsafe-code",
    description: "non-compat crates must carry #![forbid(unsafe_code)] at their root, and no \
                  `unsafe` token may appear outside crates/compat",
    deny_by_default: true,
    check: |rule, ctx, out| {
        if ctx.scope.is_compat {
            return;
        }
        if ctx.scope.is_crate_root {
            let tokens = &ctx.lexed.tokens;
            let has_forbid = tokens.iter().enumerate().any(|(i, t)| {
                t.is_ident("forbid")
                    && tokens[i + 1..]
                        .iter()
                        .take(3)
                        .any(|n| n.is_ident("unsafe_code"))
            });
            if !has_forbid {
                out.push(ctx.finding(
                    rule,
                    1,
                    format!(
                        "crate root of `{}` is missing `#![forbid(unsafe_code)]`",
                        ctx.scope.crate_name
                    ),
                ));
            }
        }
        for (_, t) in idents(ctx) {
            if t.text == "unsafe" {
                out.push(
                    ctx.finding(
                        rule,
                        t.line,
                        "`unsafe` outside crates/compat: this workspace is 100% safe Rust by \
                     policy"
                            .to_string(),
                    ),
                );
            }
        }
    },
};

/// `panicky-library`: `.unwrap()`/`.expect()` in the engine/store/sweep
/// hot paths (shipping code only — `#[cfg(test)]` modules are exempt).
/// Advisory by default; CI promotes it with `--deny-all`.
const PANICKY_LIBRARY: Rule = Rule {
    name: "panicky-library",
    description: ".unwrap()/.expect() in engine/store/sweep hot paths: a panic there aborts a \
                  whole sweep; return an error or justify the invariant (advisory unless \
                  --deny-all)",
    deny_by_default: false,
    check: |rule, ctx, out| {
        if !HOT_PATH_FILES.contains(&ctx.scope.rel_path.as_str()) {
            return;
        }
        let tokens = &ctx.lexed.tokens;
        for (i, t) in idents(ctx) {
            if ctx.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let is_method = i > 0 && tokens[i - 1].is_punct(".");
            if is_method && (t.text == "unwrap" || t.text == "expect") {
                out.push(ctx.finding(
                    rule,
                    t.line,
                    format!(
                        "`.{}()` on a hot path panics the worker pool on failure; bubble an \
                         error, recover explicitly, or justify the invariant with \
                         `// lint:allow({}): <reason>`",
                        t.text, rule.name
                    ),
                ));
            }
        }
    },
};

/// `unused-pub`: a `pub fn` (methods and `pub const fn` included) in a
/// non-compat `src/` tree that no other workspace file names outside a
/// `use` item. Only functions are checked: a type can appear in a public
/// signature, so narrowing one may not compile, while a function never
/// does. Advisory by default; CI promotes it with `--deny-all`.
const UNUSED_PUB: Rule = Rule {
    name: "unused-pub",
    description: "pub fn that no other workspace file names outside a `use` item: delete it, \
                  narrow it to private or pub(crate), or justify it (advisory unless \
                  --deny-all)",
    deny_by_default: false,
    check: |rule, ctx, out| {
        let path = ctx.scope.rel_path.as_str();
        let in_src_tree = path.starts_with("src/")
            || path
                .strip_prefix("crates/")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !in_src_tree || ctx.scope.is_compat {
            return;
        }
        let tokens = &ctx.lexed.tokens;
        for (i, t) in idents(ctx) {
            if !t.is_ident("pub") || ctx.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let mut j = i + 1;
            while tokens.get(j).is_some_and(|q| {
                q.ident && matches!(q.text.as_str(), "const" | "async" | "unsafe" | "extern")
            }) {
                j += 1;
            }
            if !tokens.get(j).is_some_and(|f| f.is_ident("fn")) {
                continue;
            }
            let Some(name) = tokens.get(j + 1).filter(|n| n.ident) else {
                continue;
            };
            // The definition itself is this file's mention.
            if ctx.names.get(&name.text).copied().unwrap_or(0) <= 1 {
                out.push(ctx.finding(
                    rule,
                    name.line,
                    format!(
                        "`pub fn {}` is named by no other workspace file: delete it if only \
                         its own tests call it, make it private if its own file calls it, or \
                         justify it with `// lint:allow({}): <reason>`",
                        name.text, rule.name
                    ),
                ));
            }
        }
    },
};
