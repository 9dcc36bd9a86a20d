//! Rust source as the repo's structural rules read it
//! (`public_surface.rs`, `dependencies.rs`): every `.rs` file under a
//! directory, its non-test code with comments and literals blanked, and
//! the identifier-shaped words of that code.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root.
pub fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Every `.rs` file under `dir` except `tests.rs`, sorted.
pub fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    let mut out = Vec::new();
    for p in entries {
        if p.is_dir() {
            out.extend(rs_files(&p));
        } else if p.extension().is_some_and(|x| x == "rs") && !p.ends_with("tests.rs") {
            out.push(p);
        }
    }
    out
}

/// `text` with every `#[cfg(test)]` item, comment and string or char
/// literal content blanked, so that only non-test code is left. Newlines
/// stay, so line numbers do too.
pub fn non_test_code(text: &str) -> String {
    strip_test_items(&blank_comments_and_literals(text))
}

/// `src` with comments and the contents of string and char literals
/// replaced by spaces.
fn blank_comments_and_literals(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let blank = |ch: char| if ch == '\n' { '\n' } else { ' ' };
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < c.len() {
        let next = c.get(i + 1).copied();
        if c[i] == '/' && next == Some('/') {
            while i < c.len() && c[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c[i] == '/' && next == Some('*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(c[i]));
                    i += 1;
                }
            }
        } else if c[i] == '"' {
            out.push('"');
            i += 1;
            while i < c.len() && c[i] != '"' {
                let n = if c[i] == '\\' { 2 } else { 1 };
                for &ch in &c[i..(i + n).min(c.len())] {
                    out.push(blank(ch));
                }
                i += n;
            }
            out.push('"');
            i += 1;
        } else if c[i] == '\'' && (next == Some('\\') || c.get(i + 2) == Some(&'\'')) {
            // A char literal; a lone `'` is a lifetime and stays.
            out.push(' ');
            i += if next == Some('\\') { 3 } else { 2 };
            while i < c.len() && c[i] != '\'' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// Blanks every item carrying `#[cfg(test)]`: up to its `;`, or through
/// its braced body (and a `;` right after it).
fn strip_test_items(code: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = code.as_bytes().to_vec();
    let mut from = 0;
    while let Some(at) = code[from..].find(ATTR).map(|p| p + from) {
        let b = code.as_bytes();
        let (mut i, mut nest) = (at, 0i32);
        let end = loop {
            match b.get(i) {
                None => break b.len(),
                Some(b'(' | b'[') => nest += 1,
                Some(b')' | b']') => nest -= 1,
                Some(b';') if nest == 0 => break i + 1,
                Some(b'{') if nest == 0 => {
                    let mut depth = 0;
                    while i < b.len() {
                        match b[i] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        i += 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let rest = code[i..].trim_start();
                    break if rest.starts_with(';') {
                        code.len() - rest.len() + 1
                    } else {
                        i
                    };
                }
                _ => {}
            }
            i += 1;
        };
        for byte in &mut out[at..end] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
        from = end;
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// The identifier-shaped words of `code` with their byte offsets.
pub fn words(code: &str) -> Vec<(usize, &str)> {
    let is_ident = |ch: u8| ch == b'_' || ch.is_ascii_alphanumeric();
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident(b[i]) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            if !b[start].is_ascii_digit() {
                out.push((start, &code[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}
