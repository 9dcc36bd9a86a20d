//! A crate depends on what its code names (ROADMAP item 6).
//!
//! Every entry of the `[dependencies]` table of a `crates/*/Cargo.toml`
//! must be named in the non-test code of that crate's `src/`: as the head
//! of a path (`rq_obs::median`) or after `use` (re-exports included).
//! Non-test code is what `public_surface.rs` reads: comments, literals and
//! `#[cfg(test)]` items cut out, and no `tests.rs`. A dependency that only
//! tests name belongs under `[dev-dependencies]`; one that nothing names
//! compiles a crate, and everything under it, for no caller.

#[allow(dead_code)] // reads no ENV_READERS
mod rust_source;

use std::fs;

use rust_source::{is_tests_file, non_test_code, root, rs_files, words};

/// The keys of the `[dependencies]` table of `manifest`, in order.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[dependencies]";
        } else if inside && !line.is_empty() {
            let key = line.split(['.', '=']).next().unwrap_or("").trim();
            out.push(key);
        }
    }
    out
}

/// The dependencies of `manifest` that no file of `code` (non-test code,
/// as [`non_test_code`] leaves it) names as a path head or after `use`.
fn unnamed<'a>(manifest: &'a str, code: &[String]) -> Vec<&'a str> {
    let named = |ident: &str| {
        code.iter().any(|c| {
            let w = words(c);
            w.iter().enumerate().any(|(k, &(at, word))| {
                word == ident
                    && (c[at + word.len()..].trim_start().starts_with("::")
                        || (k > 0 && w[k - 1].1 == "use"))
            })
        })
    };
    dependencies(manifest)
        .into_iter()
        .filter(|dep| !named(&dep.replace('-', "_")))
        .collect()
}

#[test]
fn every_dependency_is_named_by_its_crate() {
    let mut crates: Vec<_> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    let mut bad = Vec::new();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let code: Vec<String> = rs_files(&dir.join("src"))
            .iter()
            .filter(|p| !is_tests_file(p))
            .map(|p| non_test_code(&fs::read_to_string(p).unwrap()))
            .collect();
        let rel = dir.strip_prefix(root()).unwrap().display();
        for dep in unnamed(&manifest, &code) {
            bad.push(format!(
                "{rel}/Cargo.toml: dependency `{dep}` is named nowhere in {rel}/src's \
                 non-test code: delete it, or move it to [dev-dependencies] if only \
                 tests need it"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn the_rule_on_a_synthetic_manifest() {
    let manifest = "[package]
name = \"a\" # not a dependency

[dependencies]
# a comment
b-path.workspace = true
used = { path = \"../used\" }
reexported = \"1\"
in-a-comment.workspace = true
in-a-test.workspace = true
a-local.workspace = true

[dev-dependencies]
only-tests.workspace = true
";
    assert_eq!(
        dependencies(manifest),
        [
            "b-path",
            "used",
            "reexported",
            "in-a-comment",
            "in-a-test",
            "a-local"
        ]
    );
    let code: Vec<String> = [
        "use used::Thing;\npub use reexported;\n// in_a_comment::x\n",
        "fn f() -> u8 { let a_local = b_path :: g(\"in_a_comment::y\"); a_local }
#[cfg(test)]
mod tests {
    use in_a_test::T;
    fn t() { only_tests::h(); }
}
",
    ]
    .map(non_test_code)
    .to_vec();
    // A path head and a `use` name a dependency; a comment, a string, a
    // test module and a local of the same name do not, and
    // `[dev-dependencies]` is not checked.
    assert_eq!(
        unnamed(manifest, &code),
        ["in-a-comment", "in-a-test", "a-local"]
    );
}
