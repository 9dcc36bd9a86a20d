//! The public surface is what something calls (ROADMAP item 6(a)).
//!
//! Every `pub fn` (methods included), `pub const` and `pub static` in
//! non-test code under `crates/*/src` and `vendor/*/src` must be named in
//! non-test code of some other file under those two, `examples/` or
//! `benchmark/src`. Non-test code is a file with every `#[cfg(test)]` item
//! cut out, and no `tests.rs`. A `pub use` re-export is not a use, and
//! neither is a comment, a string or another item's declaration. The check
//! is by name, not by path: a name used anywhere else clears every
//! declaration of it. `crates/testkit` is the one exception: tests are its
//! only callers, so for its items the integration-test files count too.
//!
//! An item that only a test in another crate needs is listed in
//! `tests/public_surface.allow` with that test; an entry that is used now,
//! or that no longer exists, fails as well, so the list can only shrink.

mod rust_source;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use rust_source::{non_test_code, root, rs_files, words};

/// One source file: its path relative to the repo root and its non-test
/// code, blanked so that only code is left.
struct Source {
    path: String,
    code: String,
}

impl Source {
    fn new(path: &str, text: &str) -> Self {
        Source {
            path: path.to_string(),
            code: non_test_code(text),
        }
    }
}

/// `(path, name)` of a declaration, with the line it is on.
type Flagged = BTreeMap<(String, String), usize>;

/// Names and lines of the `pub fn`, `pub const` and `pub static` items.
fn declarations(code: &str) -> Vec<(String, usize)> {
    let w = words(code);
    let mut out = Vec::new();
    for k in 0..w.len() {
        // `pub` on its own, not `pub(crate)` and friends.
        if w[k].1 != "pub" || code[w[k].0 + 3..].trim_start().starts_with('(') {
            continue;
        }
        let mut j = k + 1;
        while j < w.len() && ["const", "unsafe", "async", "extern"].contains(&w[j].1) {
            if w[j].1 == "const" && w.get(j + 1).is_some_and(|n| n.1 != "fn") {
                break;
            }
            j += 1;
        }
        let name = match w.get(j).map(|x| x.1) {
            Some("fn" | "const") => w.get(j + 1),
            Some("static") => w.get(j + 1).filter(|n| n.1 != "mut").or(w.get(j + 2)),
            _ => None,
        };
        if let Some(&(at, name)) = name {
            out.push((name.to_string(), code[..at].matches('\n').count() + 1));
        }
    }
    out
}

/// Every word `code` uses: not the name an item declares, and nothing in
/// a `pub use` (or `pub(..) use`) statement.
fn uses(code: &str) -> BTreeSet<&str> {
    let w = words(code);
    let mut out = BTreeSet::new();
    let mut k = 0;
    while k < w.len() {
        let reexport = w[k].1 == "pub" && {
            let mut j = k + 1;
            while j < w.len() && ["crate", "super", "self", "in"].contains(&w[j].1) {
                j += 1;
            }
            w.get(j).is_some_and(|x| x.1 == "use")
        };
        if reexport {
            let end = code[w[k].0..].find(';').map_or(code.len(), |p| p + w[k].0);
            while k < w.len() && w[k].0 < end {
                k += 1;
            }
            continue;
        }
        let declared = k > 0 && ["fn", "const", "static", "mut"].contains(&w[k - 1].1);
        if !declared {
            out.insert(w[k].1);
        }
        k += 1;
    }
    out
}

/// The test-support crate, whose callers are tests.
const TESTKIT: &str = "crates/testkit/";

/// Every declaration in `decls` whose name no file of `callers` other
/// than its own uses; for a declaration under [`TESTKIT`], no file of
/// `tests` either.
fn flag(decls: &[&Source], callers: &[&Source], tests: &[&Source]) -> Flagged {
    let (testkit, product): (Vec<&Source>, Vec<&Source>) =
        decls.iter().partition(|s| s.path.starts_with(TESTKIT));
    let with_tests: Vec<&Source> = callers.iter().chain(tests).copied().collect();
    let mut out = unused(&product, callers);
    out.extend(unused(&testkit, &with_tests));
    out
}

/// Every declaration in `decls` whose name no file of `callers` other
/// than its own uses.
fn unused(decls: &[&Source], callers: &[&Source]) -> Flagged {
    let used: Vec<(&str, BTreeSet<&str>)> = callers
        .iter()
        .map(|s| (s.path.as_str(), uses(&s.code)))
        .collect();
    let mut out = Flagged::new();
    for src in decls {
        for (name, line) in declarations(&src.code) {
            let elsewhere = used
                .iter()
                .any(|(path, words)| *path != src.path && words.contains(name.as_str()));
            if !elsewhere {
                out.entry((src.path.clone(), name)).or_insert(line);
            }
        }
    }
    out
}

/// One allow-list line: `<file> <item> <test file>::<test fn>`, the
/// test that needs the item.
struct Allowed {
    path: String,
    name: String,
    test: String,
}

fn parse_allow(text: &str) -> Result<Vec<Allowed>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [path, name, test] = f[..] else {
            return Err(format!(
                "allow-list line {}: want `<file> <item> <test>`, got `{line}`",
                n + 1
            ));
        };
        out.push(Allowed {
            path: path.to_string(),
            name: name.to_string(),
            test: test.to_string(),
        });
    }
    Ok(out)
}

/// What is wrong with `flagged` against `allow`: a flagged item not on
/// the list, and a listed item that is not flagged (used now, or gone).
fn violations(flagged: &Flagged, allow: &[Allowed]) -> Vec<String> {
    let listed: BTreeSet<(String, String)> = allow
        .iter()
        .map(|a| (a.path.clone(), a.name.clone()))
        .collect();
    let mut out: Vec<String> = flagged
        .iter()
        .filter(|(key, _)| !listed.contains(*key))
        .map(|((path, name), line)| {
            format!(
                "{path}:{line}: `pub` item `{name}` is named by no other file's \
                 non-test code: use it, narrow it, delete it, or allow-list it \
                 with the test that needs it"
            )
        })
        .collect();
    for a in allow {
        if !flagged.contains_key(&(a.path.clone(), a.name.clone())) {
            out.push(format!(
                "allow-list entry `{} {}` is stale: the item is used elsewhere now, \
                 or no longer exists; remove the entry",
                a.path, a.name
            ));
        }
    }
    out
}

/// Every `.rs` file under `dir` (but `tests.rs`) as a [`Source`], sorted.
fn collect(dir: &Path, out: &mut Vec<Source>) {
    for p in rs_files(dir) {
        let rel = p.strip_prefix(root()).unwrap().to_string_lossy();
        out.push(Source::new(&rel, &fs::read_to_string(&p).unwrap()));
    }
}

/// `sub` (`src` or `tests`) of every package directory under `parent`.
fn package_sources(parent: &str, sub: &str) -> Vec<Source> {
    let mut dirs: Vec<_> = fs::read_dir(root().join(parent))
        .unwrap()
        .map(|e| e.unwrap().path().join(sub))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut out = Vec::new();
    for d in dirs {
        collect(&d, &mut out);
    }
    out
}

#[test]
fn every_public_item_has_a_caller_or_an_allow_entry() {
    let crates = package_sources("crates", "src");
    let vendor = package_sources("vendor", "src");
    let mut outside = Vec::new();
    collect(&root().join("examples"), &mut outside);
    collect(&root().join("benchmark/src"), &mut outside);
    let mut tests = package_sources("crates", "tests");
    collect(&root().join("tests"), &mut tests);
    let decls: Vec<&Source> = crates.iter().chain(&vendor).collect();
    let callers: Vec<&Source> = decls.iter().copied().chain(&outside).collect();
    let flagged = flag(&decls, &callers, &tests.iter().collect::<Vec<_>>());

    let allow_text = fs::read_to_string(root().join("tests/public_surface.allow")).unwrap();
    let allow = parse_allow(&allow_text).unwrap_or_else(|e| panic!("{e}"));
    let mut bad = violations(&flagged, &allow);
    for a in &allow {
        let (file, test) = a.test.split_once("::").unwrap_or((&a.test, ""));
        let text = fs::read_to_string(root().join(file)).unwrap_or_default();
        let w = words(&text);
        let names_item = w.iter().any(|x| x.1 == a.name);
        let has_test = w.windows(2).any(|p| p[0].1 == "fn" && p[1].1 == test);
        if !(names_item && has_test) {
            bad.push(format!(
                "allow-list entry `{} {}`: `{}` must be `<test file>::<test fn>` \
                 of a test that names the item",
                a.path, a.name, a.test
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn the_rule_on_a_synthetic_tree() {
    let lib = Source::new("a/lib.rs", "pub mod m;\npub use m::{exported, tested};\n");
    let m = Source::new(
        "a/m.rs",
        "/// `exported` and `tested`, in a comment, are not uses.
pub fn called() {}
pub fn exported() {}
pub fn tested<'a>(s: &'a str) -> char { let _ = s; '{' }
pub const LIMIT: usize = 3;
fn private() { called(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::tested(\"LIMIT\"); }
}
",
    );
    let user = Source::new(
        "b/main.rs",
        "fn main() { a::m::called(); let _ = \"exported LIMIT\"; }
#[cfg(test)]
fn t() { a::tested(\"\"); }
",
    );
    // An integration test's call clears nothing here...
    let test = Source::new("b/tests/t.rs", "fn t() { a::tested(); helper(); }\n");
    let flagged = flag(&[&lib, &m], &[&lib, &m, &user], &[&test]);
    let names: Vec<&str> = flagged.keys().map(|(_, name)| name.as_str()).collect();
    // `called` is used in another file; the re-export, the test-only uses,
    // the string and the comment clear nothing; `private` is not `pub`.
    assert_eq!(names, ["LIMIT", "exported", "tested"]);
    assert_eq!(violations(&flagged, &[]).len(), 3);

    let allow = parse_allow(
        "# comment\n\
         a/m.rs LIMIT     x.rs::t\n\
         a/m.rs exported  x.rs::t\n\
         a/m.rs tested    x.rs::t\n\
         a/m.rs called    x.rs::t\n\
         a/m.rs vanished  x.rs::t\n",
    )
    .unwrap();
    let bad = violations(&flagged, &allow);
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad[0].contains("`a/m.rs called` is stale"), "{}", bad[0]);
    assert!(bad[1].contains("`a/m.rs vanished` is stale"), "{}", bad[1]);
    assert!(parse_allow("a/m.rs LIMIT\n").is_err());

    // ...but in the test-support crate, whose callers are tests, it does.
    let kit = Source::new(
        "crates/testkit/src/lib.rs",
        "pub fn helper() {}\npub fn spare() {}\n",
    );
    let flagged = flag(&[&kit], &[&kit], &[&test]);
    assert_eq!(
        flagged.keys().map(|(_, n)| n.as_str()).collect::<Vec<_>>(),
        ["spare"]
    );
}
