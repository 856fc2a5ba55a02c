//! The `wsync-lint` CLI: audit the workspace determinism contract.
//!
//! ```text
//! wsync-lint [--root DIR] [--format human|json] [--deny-all]
//!            [--rule NAME]... [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error —
//! suitable for CI gates (`cargo run -p wsync-lint -- --deny-all`).

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use wsync_lint::lint_workspace;
use wsync_lint::rules;

/// Writes `text` to stdout, swallowing `BrokenPipe` (piping into `head`
/// must not look like a crash) while still surfacing real write errors.
fn emit(text: &str) -> std::io::Result<()> {
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "human".to_string();
    let mut deny_all = false;
    let mut only_rules: Vec<String> = Vec::new();
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root requires a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = "human".to_string(),
                Some("json") => format = "json".to_string(),
                other => {
                    return usage_error(&format!(
                        "--format must be `human` or `json`, got {other:?}"
                    ))
                }
            },
            "--deny-all" => deny_all = true,
            "--rule" => match args.next() {
                Some(name) => only_rules.push(name),
                None => return usage_error("--rule requires a rule name"),
            },
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                let _ = emit(&help_text());
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        let mut listing = String::new();
        for rule in rules::all() {
            let policy = if rule.deny_by_default { "deny" } else { "warn" };
            listing.push_str(&format!(
                "{:28} [{policy}] {}\n",
                rule.name, rule.description
            ));
        }
        let _ = emit(&listing);
        return ExitCode::SUCCESS;
    }
    if let Some(name) = only_rules
        .iter()
        .find(|n| !rules::all().iter().any(|r| r.name == n.as_str()))
    {
        return usage_error(&format!("unknown rule `{name}` (see --list-rules)"));
    }

    match lint_workspace(&root, &only_rules) {
        Ok(report) => {
            let mut rendered = match format.as_str() {
                "json" => report.render_json(deny_all),
                _ => report.render_human(deny_all),
            };
            if !rendered.ends_with('\n') {
                rendered.push('\n');
            }
            if let Err(e) = emit(&rendered) {
                eprintln!("wsync-lint: I/O error: {e}");
                return ExitCode::from(2);
            }
            ExitCode::from(u8::try_from(report.exit_code(deny_all)).unwrap_or(1))
        }
        Err(e) => {
            eprintln!("wsync-lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("wsync-lint: {msg}");
    eprint!("{}", help_text());
    ExitCode::from(2)
}

fn help_text() -> String {
    "usage: wsync-lint [--root DIR] [--format human|json] [--deny-all] \
     [--rule NAME]... [--list-rules]\n\
     \n\
     Audits the workspace determinism contract: nondeterministic iteration,\n\
     ambient randomness, wall-clock reads, unsafe code, panicky hot\n\
     paths, and public functions nothing else names. Exit codes: 0 clean,\n\
     1 findings, 2 usage/I-O error.\n"
        .to_string()
}
