//! Error-hygiene lint: library code must not grow new `unwrap()` /
//! `expect(` call sites.
//!
//! The robustness story of this PR — typed `PersistError`s, budget
//! aborts, panic-isolated batches — only holds if the library itself
//! doesn't panic on the paths those errors are supposed to cover. This
//! test walks every library crate's sources (tests, benches and binaries
//! excluded), counts panic-prone call sites outside `#[cfg(test)]`
//! modules, and fails if any file exceeds its frozen allowance.
//!
//! The allowlist below is the audited baseline: each entry is a call
//! site that was reviewed and found unreachable-by-construction (e.g.
//! an index freshly validated two lines above) or deliberately fatal
//! (e.g. a poisoned lock where unwinding is the right answer). Lowering
//! a count is always fine; raising one means a new panic path slipped
//! into library code — convert it to a typed error instead, or argue
//! its safety in review and bump the entry.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(file path relative to the workspace root, audited call-site count)`.
const ALLOWLIST: &[(&str, usize)] = &[
    ("crates/baselines/src/blin.rs", 5),
    ("crates/baselines/src/bpa.rs", 3),
    ("crates/baselines/src/lib.rs", 1),
    ("crates/baselines/src/local.rs", 2),
    ("crates/baselines/src/montecarlo.rs", 1),
    ("crates/baselines/src/nblin.rs", 2),
    ("crates/community/src/louvain.rs", 1),
    ("crates/core/src/estimator.rs", 1),
    ("crates/core/src/ordering.rs", 1),
    ("crates/core/src/precompute.rs", 1),
    ("crates/datagen/src/ba.rs", 1),
    ("crates/datagen/src/collaboration.rs", 1),
    ("crates/datagen/src/dictionary.rs", 1),
    ("crates/datagen/src/er.rs", 1),
    ("crates/datagen/src/rmat.rs", 1),
    ("crates/datagen/src/sbm.rs", 2),
    ("crates/datagen/src/ws.rs", 1),
    ("crates/dynamic/src/batch.rs", 1),
    ("crates/dynamic/src/engine.rs", 3),
    ("crates/eval/src/timing.rs", 1),
    ("crates/graph/src/components.rs", 2),
    ("crates/graph/src/csr.rs", 1),
    ("crates/linalg/src/eigen.rs", 1),
    ("crates/linalg/src/svd.rs", 2),
    ("crates/sparse/src/blocked.rs", 5),
    ("crates/sparse/src/csr.rs", 1),
    ("crates/sparse/src/inverse.rs", 3),
    ("crates/sparse/src/lu.rs", 1),
    ("crates/sparse/src/rwr.rs", 1),
    // sparsify.rs: two `join().expect` propagating worker panics (the same
    // deliberately-fatal pattern audited in inverse.rs) and one
    // `col_ptr.last().expect` directly after an unconditional push.
    ("crates/sparse/src/sparsify.rs", 3),
];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/harness; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Recursively collects `.rs` files under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Counts `.unwrap()` / `.expect(` call sites in the library portion of
/// one source file: everything before the first `#[cfg(test)]` line,
/// with `//` line comments stripped so documentation can still *discuss*
/// the patterns.
fn panic_sites(source: &str) -> usize {
    let mut count = 0;
    for line in source.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = line.split("//").next().unwrap_or(line);
        count += code.matches(".unwrap()").count();
        count += code.matches(".expect(").count();
    }
    count
}

#[test]
fn library_code_does_not_grow_panic_sites() {
    let root = workspace_root();
    let allowed: BTreeMap<&str, usize> = ALLOWLIST.iter().copied().collect();

    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = entry.unwrap().path();
        // Benches are throwaway measurement code; binaries (src/bin) are
        // covered by their own CLI-level error handling.
        if krate.file_name().is_some_and(|n| n == "bench") {
            continue;
        }
        let src = krate.join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(files.len() > 30, "the source walk found too few files — lint is miswired");

    let mut violations = Vec::new();
    let mut seen = Vec::new();
    for path in files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        if rel.contains("/src/bin/") {
            continue;
        }
        let count = panic_sites(&std::fs::read_to_string(&path).unwrap());
        let budget = allowed.get(rel.as_str()).copied().unwrap_or(0);
        if count > budget {
            violations.push(format!(
                "{rel}: {count} unwrap()/expect( call sites in library code \
                 (allowed: {budget}) — return a typed error instead, or audit \
                 the site and bump the allowlist in tests/lint_error_hygiene.rs"
            ));
        }
        if allowed.contains_key(rel.as_str()) {
            seen.push(rel);
        }
    }

    // A stale allowlist entry (file deleted or renamed) silently grants
    // budget to nothing; flag it so the list tracks reality.
    for (file, _) in ALLOWLIST {
        assert!(
            seen.iter().any(|s| s == file),
            "allowlist entry {file} matches no source file — remove or update it"
        );
    }

    assert!(violations.is_empty(), "\n{}\n", violations.join("\n"));
}

#[test]
fn hardened_files_stay_at_zero() {
    // The durability/robustness subsystems must stay panic-free in
    // library code — they are deliberately *not* in the allowlist. A
    // recovery path that can panic defeats its own purpose (journal.rs
    // and fault.rs run exactly when the process is picking up after a
    // crash), and the serving tier holds the same bar: a panic in a
    // worker, the epoch store, or the metrics path takes down queries
    // that admission control promised to answer. The query engine
    // (searcher.rs) ranks with `total_cmp`, so it needs no panic site
    // either.
    let root = workspace_root();
    for file in [
        "crates/core/src/persist.rs",
        "crates/core/src/batch.rs",
        "crates/core/src/audit.rs",
        "crates/core/src/fault.rs",
        "crates/core/src/searcher.rs",
        "crates/dynamic/src/journal.rs",
        "crates/serve/src/lib.rs",
        "crates/serve/src/epoch.rs",
        "crates/serve/src/metrics.rs",
        "crates/serve/src/queue.rs",
        "crates/serve/src/server.rs",
    ] {
        let source = std::fs::read_to_string(root.join(file)).unwrap();
        assert_eq!(panic_sites(&source), 0, "{file} must stay free of unwrap/expect");
    }
}
