//! The knob ledger: every `PITEX_*` environment variable the code reads is
//! documented in EXPERIMENTS.md, and every knob EXPERIMENTS.md documents is
//! read somewhere. A knob removed from the code must leave the docs with
//! it, and a new one must arrive documented.
//!
//! A read is a string literal that is exactly a knob name (`"PITEX_SEED"`)
//! in a Rust source under `crates/`, `src/` or `vendor/`. A documented knob
//! is any `PITEX_*` token in EXPERIMENTS.md; a token written as a family
//! (`PITEX_WAL_*`) documents every knob with that prefix.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn is_knob_char(c: u8) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_'
}

/// Each `PITEX_...` token in `text` with the byte right after it.
fn tokens(text: &str) -> Vec<(&str, Option<u8>)> {
    let bytes = text.as_bytes();
    text.match_indices("PITEX_")
        .map(|(start, _)| {
            let len = bytes[start..].iter().take_while(|&&c| is_knob_char(c)).count();
            (&text[start..start + len], bytes.get(start + len).copied())
        })
        .collect()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every knob name read as a whole string literal.
fn read_knobs(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let mut knobs = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let bytes = text.as_bytes();
        for (start, _) in text.match_indices("\"PITEX_") {
            let name = &text[start + 1..];
            let len = name.bytes().take_while(|&c| is_knob_char(c)).count();
            if bytes.get(start + 1 + len) == Some(&b'"') {
                knobs.insert(name[..len].to_string());
            }
        }
    }
    knobs
}

#[test]
fn every_knob_is_documented_and_every_documented_knob_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let reads = read_knobs(root);
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let mut knobs = BTreeSet::new();
    let mut families = BTreeSet::new();
    for (name, next) in tokens(&doc) {
        if next == Some(b'*') {
            families.insert(name);
        } else {
            knobs.insert(name);
        }
    }
    assert!(reads.contains("PITEX_SEED"), "the scan found no reads: {reads:?}");

    let undocumented: Vec<&String> = reads
        .iter()
        .filter(|read| {
            !knobs.contains(read.as_str()) && !families.iter().any(|f| read.starts_with(f))
        })
        .collect();
    assert!(undocumented.is_empty(), "knobs read but not in EXPERIMENTS.md: {undocumented:?}");

    let unread: Vec<&str> = knobs
        .iter()
        .filter(|knob| !reads.contains(**knob))
        .chain(
            families.iter().filter(|family| !reads.iter().any(|read| read.starts_with(**family))),
        )
        .copied()
        .collect();
    assert!(unread.is_empty(), "knobs EXPERIMENTS.md documents but nothing reads: {unread:?}");
}
