//! The run knobs, read from the environment once and validated at the
//! door: a malformed value is an error naming the variable, never a
//! silent fall-back to the default.

use std::env::VarError;

use rq_testbed::SweepRunner;

/// Everything an experiment reads from outside the program.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Repetitions per scenario cell (`REACKED_REPS`, default 15; the
    /// paper uses 100).
    pub reps: usize,
    /// Wild-scan population (`REACKED_SCAN_DOMAINS`, default 100k of the
    /// Top-1M).
    pub scan_domains: usize,
    /// Arrivals per server-load section (`REACKED_LOAD_ARRIVALS`, default
    /// 100k; the engine is sized for 10k–1M).
    pub load_arrivals: usize,
    /// The one sweep pool every experiment fans out over
    /// (`REACKED_THREADS`, default: all cores).
    pub runner: SweepRunner,
}

impl RunConfig {
    /// Reads the process environment; the error is the one line to show
    /// the user. A value that is not valid Unicode is passed on lossily,
    /// which no knob accepts.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(|var| match std::env::var(var) {
            Ok(value) => Some(value),
            Err(VarError::NotPresent) => None,
            Err(VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
        })
    }

    /// Builds the configuration from `lookup(variable) -> value if set`.
    /// `REACKED_THREADS` keeps `rq-par`'s documented fallback (anything
    /// but a positive integer means all cores).
    fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let count = |var: &str, default: usize| match lookup(var) {
            None => Ok(default),
            Some(value) => match value.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{var}={value:?}: expected a positive integer")),
            },
        };
        let threads = rq_par::parse_threads(lookup(rq_par::THREADS_ENV).as_deref());
        Ok(RunConfig {
            reps: count("REACKED_REPS", 15)?,
            scan_domains: count("REACKED_SCAN_DOMAINS", 100_000)?,
            load_arrivals: count("REACKED_LOAD_ARRIVALS", 100_000)?,
            runner: SweepRunner::new(threads),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        RunConfig::parse(|var| {
            vars.iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn unset_variables_take_the_documented_defaults() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(
            (cfg.reps, cfg.scan_domains, cfg.load_arrivals),
            (15, 100_000, 100_000)
        );
    }

    #[test]
    fn set_variables_are_taken() {
        let cfg = parse(&[
            ("REACKED_REPS", "3"),
            ("REACKED_SCAN_DOMAINS", "20000"),
            ("REACKED_LOAD_ARRIVALS", "2000"),
            ("REACKED_THREADS", "4"),
        ])
        .unwrap();
        assert_eq!(
            (cfg.reps, cfg.scan_domains, cfg.load_arrivals),
            (3, 20_000, 2_000)
        );
        assert_eq!(cfg.runner.threads(), 4);
    }

    #[test]
    fn zero_typos_and_empty_counts_are_rejected_by_name() {
        for var in [
            "REACKED_REPS",
            "REACKED_SCAN_DOMAINS",
            "REACKED_LOAD_ARRIVALS",
        ] {
            for bad in ["0", "x1", "", "-3", "1.5", " 7"] {
                assert_eq!(
                    parse(&[(var, bad)]).unwrap_err(),
                    format!("{var}={bad:?}: expected a positive integer")
                );
            }
        }
    }

    #[test]
    fn malformed_threads_keep_the_pool_fallback() {
        let cfg = parse(&[("REACKED_THREADS", "lots")]).unwrap();
        assert_eq!(cfg.runner.threads(), rq_par::available_parallelism());
    }
}
