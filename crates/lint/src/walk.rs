//! Workspace discovery: find every `.rs` file and classify where it sits.
//!
//! Dependency-free by design — a plain recursive directory walk over the
//! workspace root, skipping build output and VCS metadata, with crate
//! names recovered from each crate's `Cargo.toml` (a one-line scan, in
//! the same hand-rolled spirit as the JSON layer; no TOML parser needed).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::FileScope;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Discovers every Rust source file under `root` and classifies it.
/// Results are sorted by relative path, so reports are byte-stable
/// across filesystems and platforms.
pub fn discover(root: &Path) -> io::Result<Vec<(FileScope, PathBuf)>> {
    let mut files = Vec::new();
    walk_dir(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files
        .into_iter()
        .map(|(rel, abs)| (classify(root, &rel), abs))
        .collect())
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Classifies one workspace-relative path into a [`FileScope`].
fn classify(root: &Path, rel: &str) -> FileScope {
    let is_compat = rel.starts_with("crates/compat/");
    let is_bench = rel.contains("/benches/");
    let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
        let dir: String = if is_compat {
            let sub = rest.trim_start_matches("compat/");
            format!("compat/{}", sub.split('/').next().unwrap_or(sub))
        } else {
            rest.split('/').next().unwrap_or(rest).to_string()
        };
        package_name(&root.join("crates").join(&dir)).unwrap_or(dir)
    } else {
        // Umbrella crate: `src/`, `tests/`, `examples/` at the root.
        package_name(root).unwrap_or_else(|| "workspace-root".to_string())
    };
    FileScope {
        rel_path: rel.to_string(),
        crate_name,
        is_compat,
        is_bench,
        is_crate_root: rel.ends_with("src/lib.rs"),
    }
}

/// Reads `name = "…"` from the `[package]` section of a crate's
/// `Cargo.toml`. Falls back to `None` on any surprise — the caller then
/// uses the directory name, which is close enough for scoping.
fn package_name(crate_dir: &Path) -> Option<String> {
    let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).ok()?;
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}
