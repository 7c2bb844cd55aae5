//! Argument parsing, the workspace walk, and run orchestration for
//! `cargo xtask lint`.
//!
//! Exit codes (mapped by `src/main.rs`): `Ok(true)` = clean (0),
//! `Ok(false)` = findings / ratchet regression / self-test failure (1),
//! `Err` = usage or I/O error (2).

use std::path::{Path, PathBuf};

use crate::lexer;
use crate::lints::{self, Violation};
use crate::ratchet::{self, Ratchet};
use crate::report::{self, Format, RunReport};
use crate::rules;
use crate::selftest;

/// The `--help` text.
pub const USAGE: &str = "\
Usage: cargo xtask lint [options]

  --format text|json|sarif  report style (default: text; json is schema v2,
                            sarif is SARIF 2.1.0 for code-scanning uploads)
  --allowlist PATH          allowlist file (default: <repo>/xtask-lint.toml;
                            a missing default file means an empty allowlist)
  --ratchet PATH            ratchet file (default: <repo>/xtask-lint.ratchet;
                            a missing default file skips the ratchet check)
  --update-ratchet          rewrite the ratchet file to current counts
  --explain L<n>            print one rule's rationale and fix, then exit
  --self-test               run the engine against crates/xtask/fixtures/";

struct Options {
    format: Format,
    allowlist_path: Option<PathBuf>,
    ratchet_path: Option<PathBuf>,
    update_ratchet: bool,
}

/// Runs the CLI. `Ok(true)` means the run is clean.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("lint") => {}
        Some("--help" | "-h") | None => return Err("expected a subcommand: lint".to_string()),
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
    }

    let mut opts = Options {
        format: Format::Text,
        allowlist_path: None,
        ratchet_path: None,
        update_ratchet: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format requires a value")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|json|sarif)")),
                };
            }
            "--allowlist" => {
                let v = it.next().ok_or("--allowlist requires a path")?;
                opts.allowlist_path = Some(PathBuf::from(v));
            }
            "--ratchet" => {
                let v = it.next().ok_or("--ratchet requires a path")?;
                opts.ratchet_path = Some(PathBuf::from(v));
            }
            "--update-ratchet" => opts.update_ratchet = true,
            "--explain" => {
                let id = it.next().ok_or("--explain requires a lint id (L1…L10)")?;
                let text = rules::explain(id)
                    .ok_or_else(|| format!("unknown lint `{id}` (expected L1…L10)"))?;
                println!("{text}");
                return Ok(true);
            }
            "--self-test" => return run_self_test(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    lint_workspace(&opts)
}

fn run_self_test() -> Result<bool, String> {
    let dir = repo_root().join("crates/xtask/fixtures");
    let result = selftest::run(&dir)?;
    for f in &result.failures {
        println!("self-test mismatch: {f}");
    }
    println!(
        "xtask lint --self-test: {} fixture(s), {} mismatch(es)",
        result.fixtures,
        result.failures.len()
    );
    Ok(result.failures.is_empty())
}

fn lint_workspace(opts: &Options) -> Result<bool, String> {
    let root = repo_root();
    let entries = load_allowlist(&root, opts.allowlist_path.as_deref())?;

    // Read every source first: the sibling-test-file pass needs the whole
    // set of `#[cfg(test)] mod name;` declarations before linting starts.
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in rust_sources(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        sources.push((rel, src));
    }
    let files_scanned = sources.len();

    // Files declared as `#[cfg(test)] mod name;` resolve to sibling files
    // that are test-only despite their path not containing /tests/.
    let mut test_siblings: Vec<String> = Vec::new();
    for (rel, src) in &sources {
        let masked = lexer::mask_non_code(src);
        for name in lexer::find_test_mod_decls(&masked) {
            test_siblings.extend(sibling_candidates(rel, &name));
        }
    }

    let mut violations: Vec<Violation> = Vec::new();
    for (rel, src) in &sources {
        if test_siblings.iter().any(|t| t == rel) {
            continue;
        }
        violations.extend(lints::lint_file(rel, src));
    }

    // Partition into allowed and reported; remember which entries fired so
    // stale ones can be flagged.
    let mut used = vec![false; entries.len()];
    let mut reported = Vec::new();
    let mut allowed = 0usize;
    for v in violations {
        match entries.iter().position(|e| e.covers(&v)) {
            Some(i) => {
                used[i] = true;
                allowed += 1;
            }
            None => reported.push(v),
        }
    }
    let stale: Vec<&crate::allowlist::AllowEntry> = entries
        .iter()
        .zip(&used)
        .filter_map(|(e, &u)| (!u).then_some(e))
        .collect();

    // Ratchet: per-lint counts of *reported* violations, zeros included so
    // slack in unhit lints is visible.
    let counts: Vec<(&str, usize)> = rules::RULES
        .iter()
        .map(|r| (r.id, reported.iter().filter(|v| v.lint == r.id).count()))
        .collect();
    let ratchet_file = opts
        .ratchet_path
        .clone()
        .unwrap_or_else(|| root.join("xtask-lint.ratchet"));
    if opts.update_ratchet {
        std::fs::write(&ratchet_file, ratchet::render(&counts))
            .map_err(|e| format!("writing {}: {e}", ratchet_file.display()))?;
    }
    let outcome = load_ratchet(
        &ratchet_file,
        opts.ratchet_path.is_some() || opts.update_ratchet,
    )?
    .map(|r| r.check(&counts));

    report::emit(
        opts.format,
        &RunReport {
            reported: &reported,
            files_scanned,
            allowed,
            stale: &stale,
            ratchet: outcome.as_ref(),
        },
    );
    // With a ratchet in force, the budgets govern: known debt is tolerated
    // (and may only shrink); without one, any reported violation fails.
    Ok(match &outcome {
        Some(o) => o.regressions.is_empty(),
        None => reported.is_empty(),
    })
}

/// Workspace root: this crate lives at `<root>/crates/xtask`.
///
/// Cargo's runtime `CARGO_MANIFEST_DIR` (set by `cargo run`, and so by the
/// `cargo xtask` alias) comes first: a copy of the repository that kept
/// `target/` runs the binary built in the original checkout, whose
/// compile-time path would lint that checkout instead of the copy. A
/// binary run directly falls back to the path it was built from.
pub fn repo_root() -> PathBuf {
    let mut p = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    p.pop(); // crates/
    p.pop(); // root
    p
}

fn load_allowlist(
    root: &Path,
    explicit: Option<&Path>,
) -> Result<Vec<crate::allowlist::AllowEntry>, String> {
    let (path, required) = match explicit {
        Some(p) => (p.to_path_buf(), true),
        None => (root.join("xtask-lint.toml"), false),
    };
    match std::fs::read_to_string(&path) {
        Ok(text) => crate::allowlist::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) if !required => Ok(Vec::new()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

fn load_ratchet(path: &Path, required: bool) -> Result<Option<Ratchet>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ratchet::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(_) if !required => Ok(None),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// The sibling files a `#[cfg(test)] mod <name>;` declaration in `rel`
/// can resolve to (2015 and 2018 module layouts).
fn sibling_candidates(rel: &str, name: &str) -> Vec<String> {
    let (dir, file) = match rel.rsplit_once('/') {
        Some((d, f)) => (d, f),
        None => ("", rel),
    };
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    let base = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_string()
    } else if dir.is_empty() {
        stem.to_string()
    } else {
        format!("{dir}/{stem}")
    };
    vec![format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")]
}

/// Every `.rs` file under the workspace, excluding build output, VCS
/// metadata, and lint fixture trees (deliberate violations). Sorted for
/// deterministic report order.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_candidates_cover_both_module_layouts() {
        assert_eq!(
            sibling_candidates("crates/mac/src/srs.rs", "harness"),
            vec![
                "crates/mac/src/srs/harness.rs".to_string(),
                "crates/mac/src/srs/harness/mod.rs".to_string(),
            ]
        );
        assert_eq!(
            sibling_candidates("crates/mac/src/lib.rs", "harness"),
            vec![
                "crates/mac/src/harness.rs".to_string(),
                "crates/mac/src/harness/mod.rs".to_string(),
            ]
        );
        assert_eq!(
            sibling_candidates("crates/mac/src/sub/mod.rs", "harness"),
            vec![
                "crates/mac/src/sub/harness.rs".to_string(),
                "crates/mac/src/sub/harness/mod.rs".to_string(),
            ]
        );
    }

    #[test]
    fn unknown_flags_and_subcommands_are_usage_errors() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(run(&args(&["lint", "--bogus"])).is_err());
        assert!(run(&args(&["fmt"])).is_err());
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["lint", "--format", "xml"])).is_err());
        assert!(run(&args(&["lint", "--explain", "L99"])).is_err());
    }
}
