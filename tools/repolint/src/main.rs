//! Repository-invariant lint gate, run in CI (`cargo run -p repolint`).
//!
//! Enforces, source-statically, the concurrency conventions the rest of the
//! tooling assumes:
//!
//! 1. **No `std::sync::{Mutex, RwLock, Condvar}` in runtime crates.**  All
//!    blocking synchronization goes through the vendored `parking_lot`, so
//!    the lock-order tracker (and its non-poisoning semantics) see every
//!    lock.  `crates/check` is exempt: its shims are *built on* the std
//!    primitives by design.
//! 2. **No `unwrap()`/`expect()` on lock or channel results** in non-test
//!    runtime code.  parking_lot guards are not `Result`s, and channel
//!    errors (a hung-up peer) are ordinary shutdown signals, not panics.
//! 3. **No direct `std::thread::spawn` outside the executor pool's spawn
//!    sites** (`crates/core/src/runtime.rs` and the pool-owned WAL writer in
//!    `crates/core/src/walwriter.rs`).  Threads belong to the executor pool
//!    so sessions can be multiplexed, counted, and joined; stray spawns
//!    escape the pool's lifecycle.
//! 4. **Vendor-dir immutability.**  `vendor/` is hash-pinned in
//!    `tools/repolint/vendor.manifest` (FNV-1a 64); drive-by edits to the
//!    vendored stand-ins fail CI.  Regenerate deliberately with
//!    `cargo run -p repolint -- --write-vendor-manifest`.
//! 5. **No ad-hoc `Instant::now` in runtime crates** — called, or passed
//!    as a function value (`cond.then(Instant::now)`).  Every runtime
//!    timestamp goes through `tstream_obs::clock::now()` (or a
//!    `Stopwatch`), so timing can be audited, gated on the obs config, and
//!    stubbed in one place.  The clock facade itself
//!    (`crates/obs/src/clock.rs`) and the stream crate's throughput clock
//!    (`crates/stream/src/metrics.rs`) are the two sanctioned call sites.
//!
//! Rules 1–3 and 5 skip `#[cfg(test)]` blocks and comment lines;
//! integration tests (`tests/`) are not scanned — tests may spawn raw
//! threads and time things however they like.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A single lint finding, printed as `path:line: rule: message`.
struct Violation {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

fn main() -> ExitCode {
    let root = repo_root();
    let write_manifest = std::env::args().any(|a| a == "--write-vendor-manifest");
    if write_manifest {
        match write_vendor_manifest(&root) {
            Ok(count) => {
                println!("repolint: pinned {count} vendor files in {MANIFEST_PATH}");
                return ExitCode::SUCCESS;
            }
            Err(err) => {
                eprintln!("repolint: failed to write vendor manifest: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut violations = Vec::new();
    for dir in ["crates", "src"] {
        let base = root.join(dir);
        if base.exists() {
            walk_rust_files(&base, &mut |path| {
                if !is_exempt_crate(&root, path) {
                    lint_source_file(&root, path, &mut violations);
                }
            });
        }
    }
    check_vendor_manifest(&root, &mut violations);

    if violations.is_empty() {
        println!("repolint: all invariants hold");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{}:{}: {}: {}", v.path.display(), v.line, v.rule, v.message);
    }
    eprintln!("repolint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

fn repo_root() -> PathBuf {
    // tools/repolint/ -> repo root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("tools/repolint sits two levels under the repo root")
        .to_path_buf()
}

/// `crates/check` builds its shims on the std primitives by design, and
/// deliberately spawns OS threads to host model threads.
fn is_exempt_crate(root: &Path, path: &Path) -> bool {
    path.strip_prefix(root)
        .map(|rel| rel.starts_with("crates/check"))
        .unwrap_or(false)
}

fn walk_rust_files(dir: &Path, visit: &mut dyn FnMut(&Path)) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk_rust_files(&path, visit);
            }
        } else if name.ends_with(".rs") {
            visit(&path);
        }
    }
}

/// Tracks `#[cfg(test)]`-gated regions with brace counting: once the
/// attribute is seen, the next block that opens is skipped until its
/// braces balance.  Good enough for rustfmt-formatted code, which this
/// repository enforces in CI.
struct TestRegionTracker {
    pending_attr: bool,
    depth: usize,
}

impl TestRegionTracker {
    fn new() -> Self {
        TestRegionTracker {
            pending_attr: false,
            depth: 0,
        }
    }

    /// Feed one line; returns true when the line belongs to test-gated code.
    fn in_test(&mut self, line: &str) -> bool {
        let trimmed = line.trim_start();
        if self.depth > 0 {
            self.update_depth(line);
            return true;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            self.pending_attr = true;
            return true;
        }
        if self.pending_attr {
            if line.contains('{') {
                self.pending_attr = false;
                self.update_depth(line);
            }
            // Attribute lines between #[cfg(test)] and the block (e.g.
            // #[test]) are part of the gated item.
            return true;
        }
        false
    }

    fn update_depth(&mut self, line: &str) {
        for c in line.chars() {
            match c {
                '{' => self.depth += 1,
                '}' => self.depth = self.depth.saturating_sub(1),
                _ => {}
            }
        }
    }
}

const STD_SYNC_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

fn lint_source_file(root: &Path, path: &Path, violations: &mut Vec<Violation>) {
    if let Ok(source) = fs::read_to_string(path) {
        lint_source(path.strip_prefix(root).unwrap_or(path), &source, violations);
    }
}

/// Rules 1–3 and 5 over the text of one source file at repo-relative `rel`.
fn lint_source(rel: &Path, source: &str, violations: &mut Vec<Violation>) {
    let rel = rel.to_path_buf();
    // The executor pool and its spawn-once WAL writer are the only places
    // allowed to create OS threads; both are counted and joined by the pool.
    let spawn_allowed = rel == Path::new("crates/core/src/runtime.rs")
        || rel == Path::new("crates/core/src/walwriter.rs");
    // Rule 5 scope: the crates on the event-processing path.  `apps` and
    // `bench` are drivers — they time whole runs, which is fine.
    let runtime_crate = [
        "crates/core",
        "crates/stream",
        "crates/txn",
        "crates/state",
        "crates/recovery",
        "crates/skiplist",
        "crates/obs",
    ]
    .iter()
    .any(|c| rel.starts_with(c));
    let clock_allowed = rel == Path::new("crates/obs/src/clock.rs")
        || rel == Path::new("crates/stream/src/metrics.rs");
    let mut tracker = TestRegionTracker::new();

    for (idx, line) in source.lines().enumerate() {
        let lineno = idx + 1;
        if tracker.in_test(line) {
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }

        // Rule 1: std sync lock types, in both qualified and braced-import
        // forms (`std::sync::Mutex`, `use std::sync::{Arc, Mutex}`).
        for ty in STD_SYNC_TYPES {
            let qualified = format!("std::sync::{ty}");
            let hit = line.contains(&qualified)
                || (trimmed.starts_with("use std::sync::{") && imports_item(trimmed, ty));
            if hit {
                violations.push(Violation {
                    path: rel.clone(),
                    line: lineno,
                    rule: "std-sync-type",
                    message: format!(
                        "std::sync::{ty} in a runtime crate; use the vendored \
                         parking_lot::{ty} so the lock-order tracker sees it"
                    ),
                });
            }
        }

        // Rule 2: unwrap/expect on lock or channel results.
        for method in ["lock()", "read()", "write()", "recv()", "try_recv()"] {
            for panicky in ["unwrap", "expect"] {
                if line.contains(&format!(".{method}.{panicky}(")) {
                    violations.push(Violation {
                        path: rel.clone(),
                        line: lineno,
                        rule: "panicky-sync-result",
                        message: format!(
                            ".{method}.{panicky}(...) in runtime code; parking_lot \
                             guards are not Results and channel errors are shutdown \
                             signals, not panics"
                        ),
                    });
                }
            }
        }

        // Rule 3: raw thread spawns outside the executor pool.
        if !spawn_allowed
            && (line.contains("std::thread::spawn") || line.contains("thread::spawn("))
        {
            violations.push(Violation {
                path: rel.clone(),
                line: lineno,
                rule: "raw-thread-spawn",
                message: "std::thread::spawn outside the executor pool's spawn \
                          sites (runtime.rs, walwriter.rs); threads belong to \
                          the executor pool"
                    .to_string(),
            });
        }

        // Rule 5: ad-hoc clock reads on the event-processing path.
        if runtime_crate && !clock_allowed && line.contains("Instant::now") {
            violations.push(Violation {
                path: rel.clone(),
                line: lineno,
                rule: "ad-hoc-clock",
                message: "Instant::now in a runtime crate; read the clock \
                          through tstream_obs::clock::now() (or Stopwatch) so \
                          runtime timing stays auditable and obs-gated"
                    .to_string(),
            });
        }
    }
}

/// Does a braced `use std::sync::{...}` line import `item`?
fn imports_item(use_line: &str, item: &str) -> bool {
    let Some(open) = use_line.find('{') else {
        return false;
    };
    let inner = use_line[open + 1..].trim_end_matches(['}', ';']);
    inner.split(',').any(|part| part.trim() == item)
}

// ---------------------------------------------------------------------------
// Vendor immutability
// ---------------------------------------------------------------------------

const MANIFEST_PATH: &str = "tools/repolint/vendor.manifest";

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash every file under `vendor/`, sorted by relative path.
fn vendor_hashes(root: &Path) -> Vec<(String, u64)> {
    let mut files = Vec::new();
    walk_all_files(&root.join("vendor"), &mut |path| {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let bytes = fs::read(path).unwrap_or_default();
        files.push((rel, fnv1a64(&bytes)));
    });
    files.sort();
    files
}

fn walk_all_files(dir: &Path, visit: &mut dyn FnMut(&Path)) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk_all_files(&path, visit);
            }
        } else {
            visit(&path);
        }
    }
}

fn write_vendor_manifest(root: &Path) -> std::io::Result<usize> {
    let hashes = vendor_hashes(root);
    let mut out = String::from(
        "# FNV-1a 64 hashes of every file under vendor/, one `<hash>  <path>` per line.\n\
         # Regenerate deliberately with: cargo run -p repolint -- --write-vendor-manifest\n",
    );
    for (path, hash) in &hashes {
        let _ = writeln!(out, "{hash:016x}  {path}");
    }
    fs::write(root.join(MANIFEST_PATH), out)?;
    Ok(hashes.len())
}

fn check_vendor_manifest(root: &Path, violations: &mut Vec<Violation>) {
    let manifest_file = root.join(MANIFEST_PATH);
    let Ok(manifest) = fs::read_to_string(&manifest_file) else {
        violations.push(Violation {
            path: PathBuf::from(MANIFEST_PATH),
            line: 0,
            rule: "vendor-manifest",
            message: "missing vendor manifest; run \
                      `cargo run -p repolint -- --write-vendor-manifest`"
                .to_string(),
        });
        return;
    };
    let mut pinned = std::collections::BTreeMap::new();
    for (idx, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((hash, path)) = line.split_once("  ") {
            if let Ok(hash) = u64::from_str_radix(hash, 16) {
                pinned.insert(path.to_string(), hash);
                continue;
            }
        }
        violations.push(Violation {
            path: PathBuf::from(MANIFEST_PATH),
            line: idx + 1,
            rule: "vendor-manifest",
            message: format!("unparsable manifest line: {line}"),
        });
    }
    let current: std::collections::BTreeMap<_, _> = vendor_hashes(root).into_iter().collect();
    for (path, hash) in &current {
        match pinned.get(path) {
            None => violations.push(Violation {
                path: PathBuf::from(path),
                line: 0,
                rule: "vendor-immutable",
                message: "file added under vendor/ without re-pinning the manifest".to_string(),
            }),
            Some(want) if want != hash => violations.push(Violation {
                path: PathBuf::from(path),
                line: 0,
                rule: "vendor-immutable",
                message: "vendored file modified; vendor/ is hash-pinned (regenerate \
                          the manifest only for deliberate vendor changes)"
                    .to_string(),
            }),
            Some(_) => {}
        }
    }
    for path in pinned.keys() {
        if !current.contains_key(path) {
            violations.push(Violation {
                path: PathBuf::from(path),
                line: 0,
                rule: "vendor-immutable",
                message: "pinned vendor file deleted without re-pinning the manifest".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock_violations(rel: &str, source: &str) -> Vec<usize> {
        let mut violations = Vec::new();
        lint_source(Path::new(rel), source, &mut violations);
        violations
            .iter()
            .filter(|v| v.rule == "ad-hoc-clock")
            .map(|v| v.line)
            .collect()
    }

    #[test]
    fn clock_rule_catches_the_call_and_the_function_value() {
        let source = "\
let a = Instant::now();
let b = cond.then(Instant::now);
let c = timer.get_or_insert_with(std::time::Instant::now);
let d = clock::now();
// Instant::now() in a comment
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); }
}
";
        assert_eq!(
            clock_violations("crates/core/src/x.rs", source),
            vec![1, 2, 3]
        );
        // The clock facade and driver crates may read the clock directly.
        assert!(clock_violations("crates/obs/src/clock.rs", source).is_empty());
        assert!(clock_violations("crates/bench/src/x.rs", source).is_empty());
    }
}
