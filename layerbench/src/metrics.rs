//! The metric registry (names, units, directions, and which layer should
//! move which end-to-end number) and the report every workload fills in.

use showdown::swp_obs::JsonWriter;

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: stable name, unit, and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("loops_per_s", "1/s", Higher),
    m("latency_ms.p50", "ms", Lower),
    m("latency_ms.p99", "ms", Lower),
    m("sim_cycles", "cycles", Lower),
    m("ii_over_mii", "ratio", Lower),
    m("regs_sum", "regs", Lower),
    m("certified_share", "share", Higher),
    m("ok_share", "share", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, printed by every traced run on every workload.
/// Names follow the `swp-obs` registry and span names.
pub const PER_LAYER: &[MetricDef] = &[
    m("opt.busy_ms", "ms", Lower),
    m("opt.ops_removed", "count", Higher),
    m("heur.busy_ms", "ms", Lower),
    m("heur.backtracks", "count", Lower),
    m("heur.failures", "count", Lower),
    m("sat.busy_ms", "ms", Lower),
    m("sat.conflicts", "count", Lower),
    m("sat.propagations", "count", Lower),
    m("sat.fallbacks", "count", Lower),
    m("sat.certified_ratio", "share", Higher),
    m("most.busy_ms", "ms", Lower),
    m("ilp.pivots", "count", Lower),
    m("ilp.nodes", "count", Lower),
    m("most.ii_steps", "count", Lower),
    m("most.certified_ratio", "share", Higher),
    m("regalloc.busy_ms", "ms", Lower),
    m("heur.spills", "count", Lower),
    m("expand.busy_ms", "ms", Lower),
    m("verify.busy_ms", "ms", Lower),
    m("verify.findings", "count", Lower),
    m("ladder.rung.ilp", "count", Higher),
    m("ladder.rung.sat", "count", Higher),
    m("ladder.rung.heuristic", "count", Lower),
    m("ladder.rung.escalated", "count", Lower),
    m("ladder.rung.sequential", "count", Lower),
    m("ladder.demotions", "count", Lower),
    m("driver.idle_share", "share", Lower),
    m("cache.hit_ratio", "share", Higher),
    m("cache.lookup_us", "us", Lower),
    m("serve.proto.decode_us", "us", Lower),
    m("serve.proto.encode_us", "us", Lower),
    m("serve.proto.bytes", "bytes", Lower),
    m("serve.admission.demoted_share", "share", Lower),
    m("serve.admission.waits", "count", Lower),
    m("serve.store.hit_ratio", "share", Higher),
    m("serve.store.load_us", "us", Lower),
    m("serve.store.persist_us", "us", Lower),
    m("serve.store.bytes_written", "bytes", Lower),
    m("trace.loops_per_s.traced", "1/s", Higher),
    m("trace.loops_per_s.untraced", "1/s", Higher),
    m("trace.overhead_share", "share", Lower),
];

/// One row of the layer table: which end-to-end metric a layer's numbers
/// should move, on which workload, and where they should stay flat.
pub struct LayerRow {
    pub layer: &'static str,
    pub metrics: &'static [&'static str],
    pub moves: &'static str,
    pub flat_on: &'static str,
}

const fn row(
    layer: &'static str,
    metrics: &'static [&'static str],
    moves: &'static str,
    flat_on: &'static str,
) -> LayerRow {
    LayerRow {
        layer,
        metrics,
        moves,
        flat_on,
    }
}

/// The predictions later changes are judged against (`--list` prints it).
pub const LAYERS: &[LayerRow] = &[
    row(
        "opt (PassManager::run)",
        &["opt.busy_ms", "opt.ops_removed"],
        "loops_per_s, ii_over_mii on corpus-direct and livermore-ladder",
        "serve-repeat",
    ),
    row(
        "heur",
        &["heur.busy_ms", "heur.backtracks", "heur.failures"],
        "loops_per_s, latency_ms.p50, ok_share on corpus-direct",
        "livermore-ladder, serve-repeat",
    ),
    row(
        "sat",
        &[
            "sat.busy_ms",
            "sat.conflicts",
            "sat.propagations",
            "sat.fallbacks",
            "sat.certified_ratio",
        ],
        "loops_per_s, latency_ms.p99, ii_over_mii, certified_share on corpus-direct; \
         loops_per_s on serve-repeat (first-time and demoted compiles)",
        "livermore-ladder",
    ),
    row(
        "most / ilp",
        &[
            "most.busy_ms",
            "ilp.pivots",
            "ilp.nodes",
            "most.ii_steps",
            "most.certified_ratio",
        ],
        "loops_per_s, certified_share on livermore-ladder",
        "corpus-direct, serve-repeat",
    ),
    row(
        "regalloc",
        &["regalloc.busy_ms", "heur.spills"],
        "loops_per_s, regs_sum on corpus-direct",
        "serve-repeat",
    ),
    row(
        "expand",
        &["expand.busy_ms"],
        "loops_per_s on corpus-direct",
        "-",
    ),
    row(
        "verify",
        &["verify.busy_ms", "verify.findings"],
        "loops_per_s, ok_share on corpus-direct and livermore-ladder",
        "serve-repeat",
    ),
    row(
        "ladder",
        &[
            "ladder.rung.ilp",
            "ladder.rung.sat",
            "ladder.rung.heuristic",
            "ladder.rung.escalated",
            "ladder.rung.sequential",
            "ladder.demotions",
        ],
        "certified_share, ii_over_mii on livermore-ladder",
        "corpus-direct",
    ),
    row(
        "driver",
        &["driver.idle_share"],
        "loops_per_s on livermore-ladder",
        "-",
    ),
    row(
        "cache",
        &["cache.hit_ratio", "cache.lookup_us"],
        "latency_ms.p50, loops_per_s on serve-repeat",
        "corpus-direct, livermore-ladder (every lookup misses)",
    ),
    row(
        "serve.proto",
        &[
            "serve.proto.decode_us",
            "serve.proto.encode_us",
            "serve.proto.bytes",
        ],
        "latency_ms.p50 on serve-repeat",
        "-",
    ),
    row(
        "serve.admission",
        &["serve.admission.demoted_share", "serve.admission.waits"],
        "cache.hit_ratio, loops_per_s on serve-repeat",
        "-",
    ),
    row(
        "serve.store",
        &[
            "serve.store.hit_ratio",
            "serve.store.load_us",
            "serve.store.persist_us",
            "serve.store.bytes_written",
        ],
        "latency_ms.p99 on serve-repeat (after the restart every warm request loads from the store)",
        "-",
    ),
    row(
        "trace",
        &[
            "trace.loops_per_s.traced",
            "trace.loops_per_s.untraced",
            "trace.overhead_share",
        ],
        "nothing: the cost of the benchmark's own spans",
        "-",
    ),
];

/// Look a metric up in either registry.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// How a per-layer value was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Measured by the benchmark (a public call timed, or a counter read).
    Measured(f64),
    /// The layer does no work on this workload; the value is a true 0.
    Idle,
    /// The layer works, but no public call exposes the number. Printed as
    /// 0 in the JSON line and flagged in the table.
    Unmeasured,
}

impl Value {
    pub fn number(self) -> f64 {
        match self {
            Value::Measured(v) => v,
            Value::Idle | Value::Unmeasured => 0.0,
        }
    }
}

/// What one run produced: the work counts and every metric of the mode.
#[derive(Debug, Default)]
pub struct Report {
    /// Loops compiled or served (all passes).
    pub attempted: u64,
    /// Attempts that errored or whose output failed a correctness check.
    pub failed: u64,
    /// Outputs that failed a correctness check (wrong code, audit errors,
    /// or a result that changed between identical passes).
    pub wrong: u64,
    values: Vec<(&'static str, Value)>,
    /// Human-readable lines printed above the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Value::Measured(value));
    }

    pub fn put(&mut self, name: &'static str, value: Value) {
        debug_assert!(lookup(name).is_some(), "unregistered metric {name}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human table plus the final JSON line, restricted to `defs`
    /// (one mode's registry, optionally filtered by `--metric`). A metric
    /// the workload never set prints as unmeasured.
    pub fn render(&self, defs: &[&'static MetricDef]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        for d in defs {
            let v = self.get(d.name).unwrap_or(Value::Unmeasured);
            let shown = match v {
                Value::Measured(x) => format!("{x}"),
                Value::Idle => "0 (idle on this workload)".to_owned(),
                Value::Unmeasured => "UNMEASURED (no public call exposes it)".to_owned(),
            };
            out.push_str(&format!("metric {:<32} {} {}\n", d.name, shown, d.unit));
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").bool(self.wrong == 0);
        w.key("attempted").uint(self.attempted.max(1));
        w.key("failed").uint(self.failed);
        w.key("metrics").begin_object();
        for d in defs {
            let v = self.get(d.name).unwrap_or(Value::Unmeasured);
            w.key(d.name).begin_object();
            w.key("value").float(v.number());
            w.key("unit").string(d.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
        out
    }
}

/// Percentile of an unsorted sample (`p` in 0..=1), interpolating
/// linearly between the two nearest ranks. Where neighbouring samples lie
/// far apart (24 Livermore kernels: 80 ms next to 228 ms), a nearest-rank
/// pick would jump between them when two samples swap places.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * p;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of the samples left after dropping the lowest and the highest
/// eighth (`n / 8` samples each, rounded down): the plain mean below eight
/// samples. Host speed on a shared machine drifts by tens of percent over
/// seconds, so a mean uses every pass's evidence where a median of a few
/// passes keeps one, and the trim still drops passes that a stall hit.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 8;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `loops_per_s` is the trimmed mean of the passes' rates; a job's (or
/// request's) latency is its trimmed mean over the passes, and the
/// percentiles are taken over jobs. Every pass repeats the same jobs, so
/// averaging over passes damps the host's drift without mixing different
/// work.
pub fn report_timing(report: &mut Report, rates: &[f64], latencies_ms: &[Vec<f64>]) {
    let per_job: Vec<f64> = latencies_ms.iter().map(|l| trimmed_mean(l)).collect();
    report.set("loops_per_s", trimmed_mean(rates));
    report.set("latency_ms.p50", percentile(&per_job, 0.50));
    report.set("latency_ms.p99", percentile(&per_job, 0.99));
    report.set("peak_rss_mb", peak_rss_mb());
    report.note(format!(
        "timing: pass rates {:?} loops/s, latency percentiles over {} jobs/requests (trimmed mean of {} pass(es) each)",
        rates,
        per_job.len(),
        latencies_ms.first().map_or(0, Vec::len)
    ));
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_table_covers_every_layer_metric() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        let in_table: Vec<_> = LAYERS
            .iter()
            .flat_map(|r| r.metrics.iter().copied())
            .collect();
        for d in PER_LAYER {
            assert!(in_table.contains(&d.name), "{} missing from LAYERS", d.name);
        }
        for name in in_table {
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "{name} not registered"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// units and directions as this registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = showdown::swp_obs::parse_json(&text).expect("valid JSON");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(declared.len(), registry.len(), "{key} count");
            for (d, m) in declared.iter().zip(registry) {
                assert_eq!(d.get("name").and_then(|v| v.as_str()), Some(m.name));
                assert_eq!(
                    d.get("unit").and_then(|v| v.as_str()),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    d.get("better").and_then(|v| v.as_str()),
                    Some(m.better.name()),
                    "{}",
                    m.name
                );
            }
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(workloads, crate::cli::WORKLOADS);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!((percentile(&s, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_an_eighth_from_each_end() {
        assert_eq!(trimmed_mean(&[3.0, 1.0, 8.0]), 4.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0, 2.0, 9.0]), 4.0);
        assert_eq!(
            trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]),
            3.5
        );
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn json_line_flags_wrong_outputs_and_fills_unset_metrics() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            wrong: 1,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        let defs: Vec<_> = END_TO_END.iter().collect();
        let text = r.render(&defs);
        let last = text.lines().last().expect("json line");
        let v = showdown::swp_obs::parse_json(last).expect("valid json");
        assert_eq!(
            v.get("correct"),
            Some(&showdown::swp_obs::JsonValue::Bool(false))
        );
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(text.contains("UNMEASURED"));
    }
}
