//! Environment hygiene guards.
//!
//! Production code in `crates/exec`, `crates/core`, `crates/analyze`,
//! and `crates/flow` must reach time and the filesystem only through
//! the `hercules-sim` capability handles (`Clock`, `Fs`) or injected
//! closures, never through the ambient `std` APIs — otherwise the
//! deterministic simulator has a blind spot, a seed no longer fixes the
//! run, and analysis timings stop being reproducible.
//!
//! The real-environment adapter lives in `crates/sim/src/fs.rs` and
//! `crates/sim/src/clock.rs`; binaries and `#[cfg(test)]` code are
//! exempt (tests run only in the real environment).
//!
//! `unsafe` code lives in one crate, `hercules-digest`, which has no
//! dependencies: every other crate, tests and binaries included, is
//! safe Rust.

use std::fs;
use std::path::{Path, PathBuf};

/// Ambient-authority patterns the guarded crates must not use.
const FORBIDDEN: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread::sleep",
    "std::fs::",
];

/// Files allowed to keep specific ambient calls, with the reason.
fn allowed(path: &Path, pattern: &str) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    match (name, pattern) {
        // Toy and fault-injection encapsulations model slow tools with
        // real sleeps; they are test scaffolding that never runs under
        // the simulator's determinism contract.
        ("toy.rs", "thread::sleep") | ("fault.rs", "thread::sleep") => true,
        ("toy.rs", "Instant::now") | ("fault.rs", "Instant::now") => true,
        _ => false,
    }
}

/// Strips `#[cfg(test)]`-gated modules: everything from a line holding
/// the attribute through the end of the file (the convention in this
/// workspace puts the test module last).
fn strip_test_modules(source: &str) -> String {
    match source.find("#[cfg(test)]") {
        Some(idx) => source[..idx].to_owned(),
        None => source.to_owned(),
    }
}

/// Every `.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

#[test]
fn simulated_crates_use_no_ambient_time_or_fs() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates_dir = manifest.parent().expect("crates dir");
    let mut violations = Vec::new();

    for krate in ["exec", "core", "analyze", "flow"] {
        let src = crates_dir.join(krate).join("src");
        assert!(src.is_dir(), "missing source tree: {}", src.display());
        let mut files = Vec::new();
        rust_sources(&src, &mut files);
        // Binaries drive the real environment by definition.
        files.retain(|file| !file.components().any(|c| c.as_os_str() == "bin"));
        assert!(!files.is_empty(), "no sources under {}", src.display());

        for file in files {
            let source = fs::read_to_string(&file).expect("readable source");
            let production = strip_test_modules(&source);
            for pattern in FORBIDDEN {
                if allowed(&file, pattern) {
                    continue;
                }
                for (lineno, line) in production.lines().enumerate() {
                    let line = line.trim_start();
                    if line.starts_with("//") {
                        continue;
                    }
                    if line.contains(pattern) {
                        violations.push(format!(
                            "{}:{}: `{pattern}` — route this through hercules_sim::{} instead",
                            file.display(),
                            lineno + 1,
                            if pattern.contains("fs") {
                                "Fs"
                            } else {
                                "Clock"
                            },
                        ));
                    }
                }
            }
        }
    }

    assert!(
        violations.is_empty(),
        "ambient time/fs usage in simulated crates:\n{}",
        violations.join("\n")
    );
}

/// `source` without its comments: `//` to the end of the line, and
/// `/* … */` blocks (nested ones included).
fn strip_comments(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    let mut chars = source.chars().peekable();
    let mut depth = 0usize;
    while let Some(c) = chars.next() {
        match (c, chars.peek()) {
            ('/', Some('*')) => {
                chars.next();
                depth += 1;
            }
            ('*', Some('/')) if depth > 0 => {
                chars.next();
                depth -= 1;
            }
            ('/', Some('/')) if depth == 0 => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        out.push('\n');
                        break;
                    }
                }
            }
            _ if depth == 0 => out.push(c),
            ('\n', _) => out.push('\n'),
            _ => {}
        }
    }
    out
}

/// Line numbers of the `unsafe` blocks, fns, impls, traits and extern
/// blocks in `source`. Words only match whole, so `unsafe_code` in a
/// `forbid` or `deny` attribute is not one.
fn unsafe_items(source: &str) -> Vec<usize> {
    let code = strip_comments(source);
    let word = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe")
        .filter(|&(at, keyword)| {
            let after = &code[at + keyword.len()..];
            let next = after.trim_start();
            let next_word: String = next.chars().take_while(|&c| word(c)).collect();
            !code[..at].ends_with(word)
                && !after.starts_with(word)
                && (next.starts_with('{')
                    || ["fn", "impl", "trait", "extern"].contains(&next_word.as_str()))
        })
        .map(|(at, _)| code[..at].matches('\n').count() + 1)
        .collect()
}

#[test]
fn unsafe_code_lives_only_in_the_digest_crate() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates_dir = manifest.parent().expect("crates dir");
    let mut files = Vec::new();
    rust_sources(crates_dir, &mut files);
    files.retain(|file| !file.starts_with(crates_dir.join("digest")));
    assert!(files.len() > 50, "only {} sources found", files.len());

    let mut violations = Vec::new();
    for file in files {
        let source = fs::read_to_string(&file).expect("readable source");
        for line in unsafe_items(&source) {
            violations.push(format!("{}:{line}", file.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` outside crates/digest:\n{}",
        violations.join("\n")
    );

    let cache_root = fs::read_to_string(crates_dir.join("cache/src/lib.rs")).expect("cache root");
    assert!(
        cache_root.contains("#![forbid(unsafe_code)]"),
        "hercules-cache must forbid unsafe_code"
    );
}

#[test]
fn the_unsafe_scan_sees_items_but_not_comments_or_lint_attributes() {
    let source = "#![forbid(unsafe_code)]\n\
                  // unsafe { in a comment }\n\
                  /* unsafe fn f() {} /* nested */ unsafe { */\n\
                  fn a() { unsafe { b() } }\n\
                  unsafe fn c() {}\n\
                  unsafe impl Send for D {}\n\
                  pub unsafe trait E {}\n\
                  unsafe extern \"C\" {}\n\
                  unsafe\n{}\n\
                  let not_unsafe = 1; unsafely();\n";
    assert_eq!(unsafe_items(source), vec![4, 5, 6, 7, 8, 9]);
}
