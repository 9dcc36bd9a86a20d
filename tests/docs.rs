//! The README and the verify skill name only what exists (ROADMAP 11(b)).
//!
//! Every `exp_<name>` they mention must be a row of
//! `rq_bench::EXPERIMENTS` (a name ending in `_` or `*` is a prefix and
//! must match at least one row), every `--example <name>` a file in
//! `examples/`, and every `REACKED_*` variable a string literal on a line
//! of non-test code of the two files that read the environment
//! (`rust_source::ENV_READERS`, the only ones by the "Env knobs" design
//! rule). A doc that drifts then fails the same way dead code does: fix
//! the doc, not this check.

#[allow(dead_code)] // reads only the environment readers' non-test code
mod rust_source;

use std::fs;

use rust_source::{non_test_code, root, ENV_READERS};

/// The documents checked, relative to the repository root.
const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every occurrence in `text` of `prefix` at the start of a word, with the
/// run of characters `more` accepts after it (prefix included).
fn mentions<'a>(text: &'a str, prefix: &str, more: impl Fn(char) -> bool) -> Vec<&'a str> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(prefix)
        .filter(|&(at, _)| !text[..at].ends_with(word))
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            let len = rest.find(|c| !more(c)).unwrap_or(rest.len());
            &text[at..at + prefix.len() + len]
        })
        .collect()
}

/// What `doc` names that does not exist, one line each.
fn drift(doc: &str, experiments: &[&str], examples: &[String], env_code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let exp_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*';
    for name in mentions(doc, "exp_", exp_char) {
        let prefix = name
            .strip_suffix('*')
            .or(name.ends_with('_').then_some(name));
        let known = match prefix {
            Some(prefix) => experiments.iter().any(|e| e.starts_with(prefix)),
            None => experiments.contains(&name),
        };
        if !known {
            out.push(format!("experiment `{name}` is not an EXPERIMENTS row"));
        }
    }
    let example_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    for mention in mentions(doc, "--example ", example_char) {
        let name = &mention["--example ".len()..];
        if !examples.iter().any(|e| e == name) {
            out.push(format!("`--example {name}` is not in examples/"));
        }
    }
    let env_char = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    for name in mentions(doc, "REACKED_", env_char) {
        if !env_code.contains(&format!("\"{name}\"")) {
            out.push(format!("`{name}` is read by neither {ENV_READERS:?}"));
        }
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn docs_name_only_what_exists() {
    let experiments: Vec<&str> = rq_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    let examples: Vec<String> = fs::read_dir(root().join("examples"))
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let stem = path.file_stem()?.to_str()?.to_string();
            (path.extension()? == "rs").then_some(stem)
        })
        .collect();
    // Only a line that carries non-test code counts as reading a knob; the
    // literals on it are read as written.
    let mut env_code = String::new();
    for path in ENV_READERS {
        let text = read(path);
        for (line, code) in text.lines().zip(non_test_code(&text).lines()) {
            if !code.trim().is_empty() {
                env_code.push_str(line);
                env_code.push('\n');
            }
        }
    }
    let mut failures = Vec::new();
    for doc in DOCS {
        for line in drift(&read(doc), &experiments, &examples, &env_code) {
            failures.push(format!("{doc}: {line}"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn the_rule_on_synthetic_docs() {
    let experiments = ["exp_fig02", "exp_ablation_padded_iack"];
    let examples = ["quickstart".to_string()];
    let env_code = "let n = lookup(\"REACKED_REPS\");";
    let doc = "Run `exp_fig02`, any `exp_ablation_*` row or `exp_ablation_`, \
               `cargo run --example quickstart` with REACKED_REPS=3.";
    assert!(drift(doc, &experiments, &examples, env_code).is_empty());
    let doc = "Run `exp_fig99`, `exp_tab_*`, `--example missing`, REACKED_LOG=1 \
               and not_exp_fig99 (mid-word, ignored).";
    assert_eq!(
        drift(doc, &experiments, &examples, env_code),
        [
            "`--example missing` is not in examples/",
            "`REACKED_LOG` is read by neither [\"crates/par/src/lib.rs\", \"crates/bench/src/config.rs\"]",
            "experiment `exp_fig99` is not an EXPERIMENTS row",
            "experiment `exp_tab_*` is not an EXPERIMENTS row",
        ]
    );
}
