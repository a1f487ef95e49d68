//! The metric catalogue: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` at the repo root carries the
//! same lists (plus each end-to-end metric's regression bound); a unit test
//! keeps the two in step.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees; every workload reports every one of
/// these from an untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("stream_to_answer_s", "s"),
    higher("ingest_updates_per_s", "1/s"),
    lower("query_ms_p50", "ms"),
    lower("peak_rss_mib", "MiB"),
];

/// Single layers, from the `--trace 1` run. Layer names are module names.
pub const PER_LAYER: [MetricDef; 56] = [
    // gz_stream.format
    lower("stream.read_ns_per_update", "ns"),
    // gz_stream.wire
    lower("wire.batch_encode_ns", "ns"),
    lower("wire.batch_decode_ns", "ns"),
    lower("wire.reply_encode_us", "us"),
    // gz_gutters.leaf / .tree / .work_queue
    lower("gutters.leaf_insert_ns_per_update", "ns"),
    lower("gutters.tree_insert_ns_per_update", "ns"),
    lower("gutters.tree_bytes_written_per_update", "bytes"),
    higher("gutters.mean_batch_len", "count"),
    lower("gutters.force_flush_ms", "ms"),
    // gz_sketch.cube
    lower("sketch.batch_update_ns_per_record", "ns"),
    lower("sketch.single_update_ns", "ns"),
    lower("sketch.query_ns", "ns"),
    lower("sketch.merge_ns", "ns"),
    lower("sketch.deserialize_ns_per_slice", "ns"),
    // gz_core.store (ram, disk, epoch, sparse)
    lower("store.ram_apply_ns_per_record", "ns"),
    lower("store.disk_apply_ns_per_record", "ns"),
    lower("store.disk_read_bytes_per_update", "bytes"),
    lower("store.disk_write_bytes_per_update", "bytes"),
    lower("store.disk_reads", "count"),
    lower("store.disk_writes", "count"),
    higher("store.io_mean_depth", "count"),
    lower("store.sparse_apply_ns_per_record", "ns"),
    lower("store.promotions", "count"),
    higher("store.sparse_share", "ratio"),
    lower("store.stream_round_ms", "ms"),
    lower("store.begin_epoch_ms", "ms"),
    lower("store.sketch_bytes", "bytes"),
    lower("store.memory_bytes", "bytes"),
    // gz_core.boruvka + gz_dsu
    lower("boruvka.total_ms", "ms"),
    lower("boruvka.fold_only_ms", "ms"),
    lower("boruvka.rounds_used", "count"),
    lower("boruvka.sketch_failures", "count"),
    lower("boruvka.peak_sketch_bytes", "bytes"),
    lower("dsu.ns_per_op", "ns"),
    // gz_core.checkpoint
    lower("wal.append_us_p50", "us"),
    lower("wal.append_us_p99", "us"),
    lower("wal.bytes_per_update", "bytes"),
    lower("checkpoint.shard_save_ms", "ms"),
    higher("wal.recover_updates_per_s", "1/s"),
    // gz_core.sharding
    lower("sharding.update_ns", "ns"),
    lower("system.update_ns", "ns"),
    lower("sharding.router_hop_ns_per_update", "ns"),
    lower("sharding.begin_epoch_ms", "ms"),
    lower("sharding.epoch_forest_ms", "ms"),
    // gz_cli.serve, through the client only
    lower("serve.rtt_nondurable_us_p50", "us"),
    lower("serve.hello_us", "us"),
    lower("serve.frames_in", "count"),
    lower("serve.frames_out", "count"),
    lower("serve.shed", "count"),
    lower("serve.timed_out", "count"),
    lower("loadgen.lateness_us_p99", "us"),
    // User-facing timings that cannot be end-to-end metrics. No batch
    // workload has a recovery, and the contract wants every end-to-end metric
    // from every workload. The median ack of the daemon is a `sync_data` and
    // three thread wake-ups, and on this sandbox both switch between two
    // levels 45 % apart from one minute to the next: it cannot hold a bound.
    // Neither can the 99th percentile: a scheduler hiccup on the batch
    // workloads (ten runs spread 11–27 %) and one query's stall on the daemon
    // (19 %).
    lower("recovery_s", "s"),
    lower("ack_us_p50", "us"),
    lower("ack_us_p99", "us"),
    // The traced run's own trustworthiness.
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a counter).
    pub samples: usize,
}

impl Measured {
    pub fn new(name: &str, value: f64, samples: usize) -> Measured {
        Measured { name: name.to_string(), value, samples }
    }
}

/// `defs` paired with their measured values, or the names that are missing
/// or not finite.
pub fn complete<'a>(
    defs: &'a [MetricDef],
    measured: &'a [Measured],
) -> Result<Vec<(&'a MetricDef, &'a Measured)>, Vec<&'static str>> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for def in defs {
        match measured.iter().find(|m| m.name == def.name && m.value.is_finite()) {
            Some(m) => out.push((def, m)),
            None => missing.push(def.name),
        }
    }
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

/// The `metrics` object of a result: name → {value, unit}, exactly as the
/// result line wants it, or with the sample count as a third key for the
/// result file.
pub fn metrics_json(pairs: &[(&MetricDef, &Measured)], with_samples: bool) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(def, m)| {
                let mut entry =
                    vec![("value", Value::Num(m.value)), ("unit", Value::str(def.unit))];
                if with_samples {
                    entry.push(("samples", Value::Num(m.samples as f64)));
                }
                (def.name.to_string(), Value::obj(entry))
            })
            .collect(),
    )
}

/// Human-readable table of `pairs`, one line per metric with its unit and
/// sample count.
pub fn table(title: &str, pairs: &[(&MetricDef, &Measured)]) -> String {
    let mut out = format!("{title}\n");
    for (def, m) in pairs {
        out.push_str(&format!(
            "  {:<40} {:>18} {:<6} n={:<8} ({} is better)\n",
            def.name,
            format_value(m.value),
            def.unit,
            m.samples,
            def.better.as_str()
        ));
    }
    out
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn assert_list_matches(list: &Value, defs: &[MetricDef], bounded: bool) {
        let list = list.as_arr().expect("a list");
        assert_eq!(list.len(), defs.len());
        for (entry, def) in list.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit), "{}", def.name);
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound.is_some(), bounded, "{}", def.name);
            assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let spec = spec();
        assert_list_matches(spec.get("end_to_end").unwrap(), &END_TO_END, true);
        assert_list_matches(spec.get("per_layer").unwrap(), &PER_LAYER, false);
        let workloads = spec.get("workloads").and_then(Value::as_arr).unwrap();
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Value::as_str).unwrap()).collect();
        assert_eq!(names, crate::workloads::NAMES);
        for w in workloads {
            let name = w.get("name").and_then(Value::as_str).unwrap();
            let why = crate::workloads::Workload::named(name, false).unwrap().why;
            assert_eq!(w.get("why").and_then(Value::as_str), Some(why));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn completeness_names_what_is_missing() {
        let defs = [lower("a", "s"), lower("b", "s")];
        let got = [Measured::new("a", 1.0, 1), Measured::new("b", f64::NAN, 1)];
        assert_eq!(complete(&defs, &got).unwrap_err(), vec!["b"]);
        let got = [Measured::new("b", 2.0, 3), Measured::new("a", 1.0, 1)];
        let pairs = complete(&defs, &got).unwrap();
        assert_eq!(pairs[0].1.value, 1.0);
        assert!(table("t", &pairs).contains("n=3"));
    }
}
