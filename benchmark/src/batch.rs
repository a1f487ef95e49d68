//! One pass of a batch workload, run in a fresh child process: stream file
//! in, component labels out, through the `GraphZeppelin` facade with
//! `GzConfig::{in_ram,on_disk}` defaults.
//!
//! The untraced pass names only `num_workers`, `sketch_threshold` and the
//! scratch directory, and calls only `update` and `connected_components`,
//! so it keeps measuring whatever the product's defaults become. The traced
//! pass replays the same file with spans around each call and then times
//! the layers under the facade on the state the stream left behind.

use crate::json::Value;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Kind, BATCH_UPDATES, WORKERS};
use graph_zeppelin::{
    boruvka::boruvka_rounds_with_pool, GraphZeppelin, GzConfig, GzError, MaterializedSource,
    StoreRoundSource,
};
use gz_stream::format::StreamReader;
use gz_stream::{EdgeUpdate, UpdateKind};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Updates per `read_batch` call (clipped at query offsets).
const READ_BATCH: usize = 1 << 16;

pub struct PassArgs {
    pub kind: Kind,
    pub sketch_threshold: u32,
    pub stream: PathBuf,
    pub queries: usize,
    /// Directory for the disk store and gutter tree.
    pub dir: PathBuf,
    /// Where the labels of every query go (little-endian u32, query-major).
    pub labels_out: PathBuf,
    pub trace: bool,
}

pub fn config_for(kind: Kind, num_nodes: u64, sketch_threshold: u32, dir: &Path) -> GzConfig {
    let mut config = match kind {
        Kind::BatchDisk => GzConfig::on_disk(num_nodes, dir.to_path_buf()),
        Kind::BatchRam | Kind::Serve => GzConfig::in_ram(num_nodes),
    };
    config.num_workers = WORKERS;
    config.sketch_threshold = sketch_threshold;
    config
}

/// `--kind` value naming `kind` on the child's command line.
pub fn kind_flag(kind: Kind) -> &'static str {
    match kind {
        Kind::BatchDisk => "disk",
        Kind::BatchRam | Kind::Serve => "ram",
    }
}

pub fn kind_from_flag(flag: &str) -> Option<Kind> {
    match flag {
        "ram" => Some(Kind::BatchRam),
        "disk" => Some(Kind::BatchDisk),
        _ => None,
    }
}

/// Run the pass; the returned JSON object is what the parent reads back.
pub fn run_pass(args: &PassArgs) -> Result<Value, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut reader = StreamReader::open(&args.stream).map_err(|e| err(&e))?;
    let header = reader.header();
    let total = header.num_updates as usize;
    let offsets: Vec<usize> = (1..=args.queries).map(|k| total * k / args.queries).collect();
    let config = config_for(args.kind, header.num_vertices, args.sketch_threshold, &args.dir);
    let mut gz = GraphZeppelin::new(config).map_err(|e| err(&e))?;

    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut labels_out =
        std::io::BufWriter::new(std::fs::File::create(&args.labels_out).map_err(|e| err(&e))?);
    let mut batch: Vec<EdgeUpdate> = Vec::new();
    let mut ack_ns: Vec<f64> = Vec::with_capacity(total / BATCH_UPDATES + 1);
    let mut query_ms: Vec<f64> = Vec::with_capacity(offsets.len());
    let mut flush_ms: Vec<f64> = Vec::new();
    let (mut rounds_used, mut sketch_failures, mut peak_sketch_bytes) = (0usize, 0usize, 0usize);
    let mut failed_queries = 0u64;
    let mut fold_s = 0.0f64;
    let mut consumed = 0usize;

    let started = Instant::now();
    let root = tracer.begin("stream_to_answer");
    for &offset in &offsets {
        while consumed < offset {
            let want = READ_BATCH.min(offset - consumed);
            let got = tracer
                .span("stream.read_batch", |_| reader.read_batch(&mut batch, want))
                .map_err(|e| err(&e))?;
            if got == 0 {
                return Err(format!("stream ended at {consumed} of {total} updates"));
            }
            consumed += got;
            let ingest = tracer.begin("system.update");
            for chunk in batch.chunks(BATCH_UPDATES) {
                let handed = Instant::now();
                for up in chunk {
                    gz.update(up.u, up.v, up.kind == UpdateKind::Delete);
                }
                if chunk.len() == BATCH_UPDATES {
                    ack_ns.push(handed.elapsed().as_nanos() as f64);
                }
            }
            tracer.end(ingest);
        }
        // A question is a forced flush — where buffered updates actually
        // reach the sketches — followed by the fold. The flush is called on
        // its own so its time can count as ingest work as well as query
        // latency; `connected_components()` would run the same flush first.
        let asked = Instant::now();
        let query = tracer.begin("query");
        tracer.span("system.flush", |_| gz.flush());
        let flushed = Instant::now();
        let answer: Result<Vec<u32>, GzError> = if tracer.enabled() {
            tracer.span("system.spanning_forest", |_| gz.spanning_forest()).map(|outcome| {
                rounds_used = rounds_used.max(outcome.rounds_used);
                sketch_failures += outcome.sketch_failures;
                peak_sketch_bytes = peak_sketch_bytes.max(outcome.peak_sketch_bytes);
                outcome.labels
            })
        } else {
            gz.connected_components().map(|cc| cc.labels().to_vec())
        };
        tracer.end(query);
        let answered = Instant::now();
        query_ms.push((answered - asked).as_secs_f64() * 1e3);
        flush_ms.push((flushed - asked).as_secs_f64() * 1e3);
        fold_s += (answered - flushed).as_secs_f64();
        let labels = answer.unwrap_or_else(|_| {
            failed_queries += 1;
            vec![u32::MAX; header.num_vertices as usize]
        });
        for label in labels {
            labels_out.write_all(&label.to_le_bytes()).map_err(|e| err(&e))?;
        }
    }
    tracer.end(root);
    let stream_to_answer_s = started.elapsed().as_secs_f64();
    labels_out.flush().map_err(|e| err(&e))?;

    let peak_rss = peak_rss_mib(std::process::id());
    let mut out = vec![
        ("updates", Value::Num(total as f64)),
        ("stream_to_answer_s", Value::Num(stream_to_answer_s)),
        // Reading, buffering and flushing — everything but the folds.
        ("ingest_updates_per_s", Value::Num(total as f64 / (stream_to_answer_s - fold_s))),
        ("query_ms", Value::Arr(query_ms.iter().map(|&q| Value::Num(q)).collect())),
        ("ack_samples", Value::Num(ack_ns.len() as f64)),
        ("ack_us_p50", Value::Num(stats::median(&ack_ns) / 1e3)),
        ("ack_us_p99", Value::Num(stats::percentile(&ack_ns, 99.0) / 1e3)),
        ("failed_queries", Value::Num(failed_queries as f64)),
        // Read before anything else allocates: the high-water mark is the
        // pass's own, and the parent cannot read it once the child is reaped.
        ("peak_rss_mib", Value::Num(peak_rss)),
    ];
    if args.trace {
        let in_situ = vec![
            ("gutters.mean_batch_len", 2.0 * total as f64 / gz.batches_applied().max(1) as f64),
            ("gutters.force_flush_ms", stats::median(&flush_ms)),
            ("boruvka.rounds_used", rounds_used as f64),
            ("boruvka.sketch_failures", sketch_failures as f64),
            ("boruvka.peak_sketch_bytes", peak_sketch_bytes as f64),
        ];
        out.push(("layers", layers_of_final_state(&mut gz, in_situ, total)?));
        let spans = tracer.to_json("");
        out.push(("spans", spans.get("spans").cloned().unwrap_or(Value::Null)));
    }
    gz.shutdown();
    Ok(Value::obj(out))
}

/// Counters the facade publishes, plus timings of the store and query
/// layers under it, taken on the state the whole stream left behind.
fn layers_of_final_state(
    gz: &mut GraphZeppelin,
    mut layers: Vec<(&'static str, f64)>,
    updates: usize,
) -> Result<Value, String> {
    let err = |e: GzError| e.to_string();
    let (num_nodes, rounds) = (gz.config().num_nodes, gz.params().rounds());
    let rep = gz.rep_stats();
    let per_update = |n: u64| n as f64 / updates as f64;
    let (store_io, gutter_io) = (gz.store_io(), gz.gutter_io());
    let io = |f: &dyn Fn(&gz_gutters::IoStats) -> f64| store_io.as_deref().map_or(0.0, f);
    layers.extend([
        ("store.promotions", rep.promoted as f64),
        ("store.sparse_share", rep.sparse as f64 / num_nodes as f64),
        ("store.sketch_bytes", gz.sketch_bytes() as f64),
        ("store.memory_bytes", gz.memory_bytes() as f64),
        ("store.disk_reads", io(&|s| s.reads() as f64)),
        ("store.disk_writes", io(&|s| s.writes() as f64)),
        ("store.disk_read_bytes_per_update", io(&|s| per_update(s.bytes_read()))),
        ("store.disk_write_bytes_per_update", io(&|s| per_update(s.bytes_written()))),
        ("store.io_mean_depth", io(&|s| s.mean_depth())),
        (
            "gutters.tree_bytes_written_per_update",
            gutter_io.as_deref().map_or(0.0, |s| per_update(s.bytes_written())),
        ),
    ]);

    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let pool = gz_gutters::WorkerPool::new(WORKERS);

    // One round slice of every vertex out of the store, folded nowhere.
    let t = Instant::now();
    gz.store()
        .stream_round(0, &|_| true, &mut |_, slice| {
            std::hint::black_box(slice);
        })
        .map_err(err)?;
    layers.push(("store.stream_round_ms", ms(t)));

    // The full fold reading the store round by round, then the same fold
    // over a materialized copy: the difference is the store-read share.
    let t = Instant::now();
    let streamed = {
        let mut source = StoreRoundSource::new(gz.store());
        boruvka_rounds_with_pool(&mut source, num_nodes, rounds, &pool).map_err(err)?
    };
    layers.push(("boruvka.total_ms", ms(t)));
    let mut materialized = MaterializedSource::new(gz.store().snapshot());
    let t = Instant::now();
    let folded =
        boruvka_rounds_with_pool(&mut materialized, num_nodes, rounds, &pool).map_err(err)?;
    layers.push(("boruvka.fold_only_ms", ms(t)));
    drop(materialized);
    if streamed.labels != folded.labels {
        return Err("streaming and materialized folds disagree".into());
    }

    // Sealing an epoch on an already flushed store: the capture set-up only.
    let t = Instant::now();
    let epoch = gz.begin_epoch().map_err(err)?;
    layers.push(("store.begin_epoch_ms", ms(t)));
    drop(epoch);

    Ok(Value::Obj(layers.into_iter().map(|(k, v)| (k.to_string(), Value::Num(v))).collect()))
}

/// `VmHWM` of process `pid` in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
