//! The metric registry (names, units, directions, bounds), the statistics
//! behind each value (quantiles under the tail rule, makespans), and the
//! JSON the benchmark prints. `BENCHMARK.json` at the repository root is
//! rendered from this registry by `--spec`; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one benchmark run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with tracing off by every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("barrier_p50_us", "us", Lower, 0.25),
    e2e("allreduce_p50_us", "us", Lower, 0.25),
    e2e("bcast_p50_us", "us", Lower, 0.25),
    e2e("hpl_gflops", "GFLOP/s", Higher, 0.25),
    e2e("model_barrier_us", "model_us", Lower, 0.05),
    e2e("model_allreduce_us", "model_us", Lower, 0.05),
    e2e("model_bcast_us", "model_us", Lower, 0.05),
    e2e("model_hpl_gflops", "model_GFLOP/s", Higher, 0.05),
    e2e("sim_host_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not load reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("runtime.barrier_call_p50_us", "us", Lower),
    layer("runtime.allreduce_call_p50_us", "us", Lower),
    layer("runtime.bcast_call_p50_us", "us", Lower),
    layer("runtime.arrival_skew_p50_us", "us", Lower),
    layer("collectives.barrier_fabric_ops", "count", Lower),
    layer("collectives.allreduce_fabric_ops", "count", Lower),
    layer("collectives.bcast_fabric_ops", "count", Lower),
    layer("fabric.put_p50_us", "us", Lower),
    layer("fabric.flag_add_p50_us", "us", Lower),
    layer("fabric.quiet_p50_us", "us", Lower),
    layer("fabric.flag_wait_p50_us", "us", Lower),
    layer("fabric.flag_wait_p99_us", "us", Lower),
    layer("fabric.flag_wait_parked_frac", "ratio", Lower),
    layer("fabric.busy_frac", "ratio", Lower),
    layer("fabric.wait_frac", "ratio", Lower),
    layer("socket.frames_per_op", "count", Lower),
    layer("socket.wire_bytes_per_op", "bytes", Lower),
    layer("socket.shm_ops_per_op", "count", Lower),
    layer("socket.fast_path_frac", "ratio", Higher),
    layer("socket.wire_retries", "count", Lower),
    layer("hpl.factorize_s", "s", Lower),
    layer("hpl.solve_s", "s", Lower),
    layer("hpl.verify_s", "s", Lower),
    layer("hpl.dgemm_gflops", "GFLOP/s", Higher),
    layer("hpl.compute_frac", "ratio", Higher),
    layer("sim.events_per_op", "count", Lower),
    layer("sim.host_ns_per_event", "ns", Lower),
    layer("sim.peak_queue_depth", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "coll_shm",
        "2-process socket fleet, shm tier on: sync_all/co_sum/co_broadcast makespans load caf-collectives and the shm flag spin/park path",
    ),
    (
        "coll_wire",
        "same loop with shm off over TCP loopback: every op is a frame plus an ack, so wire encode, syscalls and service threads show",
    ),
    (
        "hpl_shm",
        "the paper's Figure-1 application on the shm fleet: DGEMM compute plus panel broadcasts and pivot swaps, residual-checked",
    ),
    (
        "sim_paper",
        "SimFabric at the paper's 64(8) whale point: the only workload that runs TDLB and the two-level code, and the simulator core",
    ),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Nearest-rank quantile of an ascending slice (`q` in `0.0..=1.0`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` quantile of `samples`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond its rank — the tail rule: a
/// percentile is reported only with at least ten samples past it.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    (s.len().saturating_sub(rank) >= MIN_TAIL_SAMPLES).then(|| quantile(&s, q))
}

/// Median of `samples` (which must be non-empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Per-episode makespan of one collective across all images: from the
/// first image's entry to the last image's exit, read off one clock.
/// `spans[i][e]` is image `i`'s `(entry, exit)` in episode `e`.
pub fn makespans(spans: &[&[(u64, u64)]]) -> Vec<u64> {
    let episodes = spans.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..episodes)
        .map(|e| {
            let first_in = spans.iter().map(|s| s[e].0).min().expect("images");
            let last_out = spans.iter().map(|s| s[e].1).max().expect("images");
            last_out - first_in
        })
        .collect()
}

/// Per-episode arrival skew: last entry minus first entry.
pub fn arrival_skews(spans: &[&[(u64, u64)]]) -> Vec<u64> {
    let episodes = spans.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..episodes)
        .map(|e| {
            let first_in = spans.iter().map(|s| s[e].0).min().expect("images");
            let last_in = spans.iter().map(|s| s[e].0).max().expect("images");
            last_in - first_in
        })
        .collect()
}

/// What one run produced: operation accounting and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, when it is not.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record `value` under the registered metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a failure that made the run incorrect.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// The result line: every metric of `wanted`, with its unit. A missing
    /// or non-finite value makes the run incorrect.
    pub fn render(&mut self, wanted: &[Metric]) -> String {
        for m in wanted {
            match self.values.get(m.name) {
                None => self
                    .errors
                    .push(format!("metric {} was not measured", m.name)),
                Some(v) if !v.is_finite() => self
                    .errors
                    .push(format!("metric {} is not finite: {v}", m.name)),
                Some(_) => {}
            }
        }
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in wanted {
            let Some(v) = self.values.get(m.name).filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn spec_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"python3\", \"perfbench/run.py\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_runs_from_first_entry_to_last_exit() {
        // Image 0 arrives first and leaves early; image 1 arrives late and
        // leaves last — the makespan spans both.
        let spans: [&[(u64, u64)]; 2] = [&[(100, 150), (300, 340)], &[(120, 180), (290, 360)]];
        assert_eq!(makespans(&spans), vec![80, 70]);
        assert_eq!(arrival_skews(&spans), vec![20, 10]);
    }

    #[test]
    fn makespan_covers_only_episodes_every_image_ran() {
        let spans: [&[(u64, u64)]; 2] = [&[(0, 5), (10, 15)], &[(1, 6)]];
        assert_eq!(makespans(&spans), vec![6]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&samples, 0.99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&samples, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&samples, 0.5), Some(500.0));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.75), 3.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn every_metric_has_a_unit_and_direction() {
        let expect = |name: &str, unit: &str, better: Better| {
            let m = find(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!((m.unit, m.better), (unit, better), "{name}");
        };
        expect("setup_s", "s", Lower);
        for c in ["barrier", "allreduce", "bcast"] {
            expect(&format!("{c}_p50_us"), "us", Lower);
            expect(&format!("model_{c}_us"), "model_us", Lower);
        }
        expect("hpl_gflops", "GFLOP/s", Higher);
        expect("model_hpl_gflops", "model_GFLOP/s", Higher);
        expect("sim_host_s", "s", Lower);
        expect("peak_rss_mb", "MiB", Lower);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let suffix_unit = [("_us", "us"), ("_s", "s"), ("_frac", "ratio")]
                .iter()
                .find(|(sfx, _)| m.name.ends_with(sfx) && !m.name.starts_with("model_"));
            if let Some((_, unit)) = suffix_unit {
                assert_eq!(m.unit, *unit, "{} unit disagrees with its name", m.name);
            }
            if m.name.ends_with("gflops") || m.name.ends_with("fast_path_frac") {
                assert_eq!(m.better, Higher, "{}", m.name);
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.expect("bound") <= setup.bound.expect("bound")));
        for (name, why) in WORKLOADS {
            assert!(seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            spec_json(),
            "regenerate with `perfbench --spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn render_flags_missing_metrics() {
        let mut o = Outcome::default();
        o.ops(3, 0);
        o.set("setup_s", 0.5);
        let line = o.render(&END_TO_END[..1]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let mut o = Outcome::default();
        o.ops(3, 0);
        assert!(o
            .render(&END_TO_END[..1])
            .starts_with("{\"correct\": false"));
    }
}
