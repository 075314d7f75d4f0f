//! Command-line parsing. Every malformed invocation is an error (the
//! caller exits nonzero): an unknown flag, workload or metric name, a
//! missing or non-numeric value, or a repeated flag.

use crate::metrics;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["livermore-ladder", "corpus-direct", "serve-repeat"];

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run one workload.
    Run(Args),
    /// Print the metric registry and the layer table.
    List,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Print only these metrics (empty: every metric of the mode).
    pub metrics: Vec<&'static str>,
}

pub const USAGE: &str = "usage: layerbench --workload <livermore-ladder|corpus-direct|serve-repeat> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>] [--metric <name>]...\n       layerbench --list";

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag} takes a non-negative integer, got {value:?}"))
}

pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut metrics = Vec::new();
    let mut it = argv.iter();
    if argv.len() == 1 && argv[0] == "--list" {
        return Ok(Command::List);
    }
    while let Some(flag) = it.next() {
        let v = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--metric" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        };
        let dup = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                dup(workload.is_some())?;
                workload = Some(WORKLOADS.into_iter().find(|w| w == v).ok_or_else(|| {
                    format!("unknown workload {v:?} (known: {})", WORKLOADS.join(", "))
                })?);
            }
            "--seed" => {
                dup(seed.is_some())?;
                seed = Some(number(flag, v)?);
            }
            "--seconds" => {
                dup(seconds.is_some())?;
                let s = number(flag, v)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                dup(trace.is_some())?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                });
            }
            _ => {
                let def = metrics::lookup(v).ok_or_else(|| format!("unknown metric {v:?}"))?;
                metrics.push(def.name);
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.unwrap_or(false);
    let registry = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if let Some(m) = metrics
        .iter()
        .find(|m| !registry.iter().any(|d| d.name == **m))
    {
        return Err(format!(
            "metric {m:?} is not reported with --trace {}",
            u8::from(trace)
        ));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
        metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn accepts_the_driver_invocation() {
        let c = parse(&args(
            "--workload corpus-direct --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Run(Args {
                workload: "corpus-direct",
                seed: 7,
                seconds: 10,
                trace: true,
                metrics: vec![],
            })
        );
        assert_eq!(parse(&args("--list")).unwrap(), Command::List);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload bogus",
            "--workload serve-repeat --seed x1",
            "--workload serve-repeat --seed -3",
            "--workload serve-repeat --bogus 1",
            "--workload serve-repeat --trace 2",
            "--workload serve-repeat --seconds 0",
            "--workload serve-repeat --seed",
            "--workload serve-repeat --metric nope",
            "--workload serve-repeat --metric cache.hit_ratio",
            "--workload serve-repeat --trace 1 --metric setup_s",
            "--workload serve-repeat --workload corpus-direct",
            "--list --workload serve-repeat",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn metric_filter_keeps_registered_names() {
        let c = parse(&args(
            "--workload livermore-ladder --metric ii_over_mii --metric setup_s",
        ))
        .unwrap();
        let Command::Run(a) = c else {
            panic!("not a run")
        };
        assert_eq!(a.metrics, vec!["ii_over_mii", "setup_s"]);
    }
}
