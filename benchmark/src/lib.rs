//! The repo benchmark: shared harness for `rq-benchmark` (end to end)
//! and `rq-layers` (traced runs and per-layer kernels). See README.md.
//!
//! Nothing in this library touches the stack below its top-level entry
//! points; everything that does lives in the `rq-layers` binary.

pub mod alloc;
pub mod compare;
pub mod fingerprint;
pub mod harness;
pub mod json;
pub mod workloads;

use std::collections::BTreeMap;

/// `--key value` pairs and bare `--flag`s, as both binaries take them.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parses the process arguments. `flags` names the options that take
    /// no value; `multi` maps an option to how many values it takes when
    /// that is not one.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        flags: &[&str],
        multi: &[(&str, usize)],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let arity = if flags.contains(&key) {
                0
            } else {
                multi.iter().find(|(k, _)| *k == key).map_or(1, |(_, n)| *n)
            };
            let slot = args.values.entry(key.to_string()).or_default();
            for _ in 0..arity {
                slot.push(
                    argv.next()
                        .ok_or_else(|| format!("--{key} needs a value"))?,
                );
            }
        }
        Ok(args)
    }

    /// Whether `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// All values of `--key`.
    pub fn values(&self, key: &str) -> &[String] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    /// The value of `--key` parsed as `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values(key).first() {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }

    /// The workload named by `--workload`.
    pub fn workload(&self) -> Result<workloads::Workload, String> {
        let name = self
            .values("workload")
            .first()
            .ok_or("--workload <name> is required")?;
        workloads::Workload::parse(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            line.split_whitespace().map(String::from),
            &["smoke"],
            &[("compare", 2)],
        )
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse("--workload wild_scan --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload().unwrap().name(), "wild_scan");
        assert_eq!(a.get("seed", 1u64), Ok(7));
        assert_eq!(a.get("seconds", 1.0f64), Ok(10.0));
        assert_eq!(a.get("missing", 3u32), Ok(3));
        assert!(!a.has("smoke"));
    }

    #[test]
    fn flags_and_multi_value_options() {
        let a = parse("--smoke --compare a.json b.json").unwrap();
        assert!(a.has("smoke"));
        assert_eq!(a.values("compare"), ["a.json", "b.json"]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("stray").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--compare only-one").is_err());
        assert!(parse("--workload nope").unwrap().workload().is_err());
        assert!(parse("--seed x").unwrap().get("seed", 1u64).is_err());
    }
}
