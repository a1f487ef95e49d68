//! `gz_benchmark run`: set a workload up, measure it, check every answer,
//! print every metric.

use crate::batch;
use crate::host::{self, Scratch};
use crate::json::Value;
use crate::layers;
use crate::metrics::{self, Measured, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::serve;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{Kind, Workload};
use gz_graph::connectivity::same_partition;
use gz_stream::format::write_stream;
use gz_stream::EdgeUpdate;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    /// How long to measure for; a workload whose one pass is longer still
    /// finishes that pass.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub scratch: Option<PathBuf>,
    /// Result file to append this run to (read by `compare`).
    pub out: Option<PathBuf>,
}

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Timed passes of a batch workload a run makes at least, however short
/// `--seconds` is: a median of fewer is one host hiccup away from the mean.
const MIN_PASSES: usize = 3;

/// What a finished run reports; it is correct if nothing failed.
pub struct RunRecord {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric measured, end-to-end and per-layer alike.
    pub measured: Vec<Measured>,
}

/// A batch workload's generated input and reference answers.
pub struct BatchInput {
    pub stream: PathBuf,
    pub updates: Vec<EdgeUpdate>,
    /// Reference partition at each query offset.
    pub references: Vec<Vec<u32>>,
}

pub fn run(options: &RunOptions) -> Result<RunRecord, String> {
    let workload = Workload::named(&options.workload, options.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", options.workload))?;
    let scratch = Scratch::create(options.scratch.clone()).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(options.trace, Instant::now());
    println!("{}: {}", workload.name, workload.why);

    let record = match workload.kind {
        Kind::Serve => serve::run(&workload, options, &scratch, &mut tracer)?,
        _ => run_batch(&workload, options, &scratch, &mut tracer)?,
    };

    if options.trace {
        let out_dir = Path::new(host::BENCHMARK_DIR).join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("trace-{}.json", workload.name));
        std::fs::write(&path, tracer.to_json(workload.name).to_json())
            .map_err(|e| e.to_string())?;
        println!("{} spans written to {}", tracer.spans().len(), path.display());
        println!("  {:<32} {:>8} {:>12} {:>12}", "span", "count", "total ms", "self ms");
        for (name, t) in trace::totals_by_name(tracer.spans()) {
            println!(
                "  {:<32} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    report(&workload, options, &scratch, &record)?;
    Ok(record)
}

/// Print the tables and the result line; append to `--out`.
fn report(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    record: &RunRecord,
) -> Result<(), String> {
    let defs: &[metrics::MetricDef] = if options.trace { &PER_LAYER } else { &END_TO_END };
    let pairs = metrics::complete(defs, &record.measured)
        .map_err(|missing| format!("metrics not measured: {}", missing.join(", ")))?;
    let mode = if options.trace { "per-layer (traced run)" } else { "end-to-end (untraced run)" };
    let claims = if options.smoke { " — SMOKE SIZES, NOT FOR CLAIMS" } else { "" };
    print!(
        "{}",
        metrics::table(&format!("{} seed {} {mode}{claims}", workload.name, options.seed), &pairs)
    );
    let others: Vec<_> = record
        .measured
        .iter()
        .filter(|m| !defs.iter().any(|d| d.name == m.name))
        .map(|m| format!("{}={:.4} (n={})", m.name, m.value, m.samples))
        .collect();
    if !others.is_empty() {
        println!("  also: {}", others.join(", "));
    }
    println!(
        "  failed_ops_share {} ({} failed of {} attempted)",
        record.failed as f64 / record.attempted.max(1) as f64,
        record.failed,
        record.attempted
    );

    if let Some(out) = &options.out {
        append_run(out, scratch.path(), workload.name, options, record, &pairs)?;
    }
    let line = Value::obj(vec![
        ("correct", Value::Bool(record.failed == 0)),
        ("attempted", Value::Num(record.attempted as f64)),
        ("failed", Value::Num(record.failed as f64)),
        ("metrics", metrics::metrics_json(&pairs, false)),
    ]);
    println!("{}", line.to_json());
    Ok(())
}

/// Append this run to the result file at `path`, creating it with this
/// host's fingerprint if need be.
fn append_run(
    path: &Path,
    scratch: &Path,
    workload: &str,
    options: &RunOptions,
    record: &RunRecord,
    pairs: &[(&metrics::MetricDef, &Measured)],
) -> Result<(), String> {
    let here = host::fingerprint(scratch);
    let (fingerprint, mut runs) = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let there = doc.get("fingerprint").cloned().unwrap_or(Value::Null);
            if there != here {
                return Err(format!(
                    "{} was written on another host or commit ({}); use a fresh file",
                    path.display(),
                    there.to_json()
                ));
            }
            (there, doc.get("runs").and_then(Value::as_arr).unwrap_or_default().to_vec())
        }
        Err(_) => (here, Vec::new()),
    };
    runs.push(Value::obj(vec![
        ("workload", Value::str(workload)),
        ("seed", Value::Num(options.seed as f64)),
        ("seconds", Value::Num(options.seconds)),
        ("trace", Value::Bool(options.trace)),
        ("smoke", Value::Bool(options.smoke)),
        ("correct", Value::Bool(record.failed == 0)),
        ("attempted", Value::Num(record.attempted as f64)),
        ("failed", Value::Num(record.failed as f64)),
        ("metrics", metrics::metrics_json(pairs, true)),
    ]));
    let doc = Value::obj(vec![("fingerprint", fingerprint), ("runs", Value::Arr(runs))]);
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Repeat `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median time.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Measured), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take()); // one input resident at a time
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let input = last.expect("SETUP_REPEATS is at least one");
    Ok((input, Measured::new("setup_s", stats::median(&times), times.len())))
}

/// Generate the stream, write the file the system will read, and work out
/// the exact answer at every query offset.
fn setup_batch(workload: &Workload, seed: u64, scratch: &Scratch) -> Result<BatchInput, String> {
    let dir = scratch.subdir("input").map_err(|e| e.to_string())?;
    let updates = workload.generate(seed);
    let stream = dir.join("stream.gzs");
    write_stream(&stream, workload.num_nodes(), &updates).map_err(|e| e.to_string())?;
    let offsets = workload.query_offsets(updates.len());
    let references = oracle::partitions_at(workload.num_nodes(), &updates, &offsets);
    Ok(BatchInput { stream, updates, references })
}

/// One pass over `stream` in a fresh child process; returns the child's
/// report and where it left its labels.
pub fn spawn_pass(
    kind: Kind,
    sketch_threshold: u32,
    queries: usize,
    stream: &Path,
    scratch: &Scratch,
    trace: bool,
) -> Result<(Value, PathBuf), String> {
    let dir = scratch.subdir("pass").map_err(|e| e.to_string())?;
    let labels = dir.join("labels.bin");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("child-batch")
        .args(["--kind", batch::kind_flag(kind)])
        .args(["--threshold", &sketch_threshold.to_string()])
        .arg("--stream")
        .arg(stream)
        .args(["--queries", &queries.to_string()])
        .arg("--dir")
        .arg(&dir)
        .arg("--labels")
        .arg(&labels)
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("the pass exited with {}", output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let line = text.lines().last().ok_or("the pass printed nothing")?;
    Ok((Value::parse(line)?, labels))
}

/// A traced pass under a `traced_pass` span of `tracer`: the child's report,
/// its labels, and its own spans (also absorbed into `tracer`, shifted from
/// the child's clock onto this one — the child starts near enough the span).
pub fn traced_pass(
    kind: Kind,
    sketch_threshold: u32,
    queries: usize,
    stream: &Path,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<(Value, PathBuf, Vec<trace::Span>), String> {
    let span = tracer.begin("traced_pass");
    let spawned_ns = tracer.now_ns();
    let (report, labels) = spawn_pass(kind, sketch_threshold, queries, stream, scratch, true)?;
    let spans = trace::spans_from_json(&report).ok_or("the traced pass reported no spans")?;
    tracer.absorb_spans(spans.clone(), spawned_ns);
    tracer.end(span);
    Ok((report, labels, spans))
}

/// Queries of one pass whose labels do not induce the reference partition.
fn wrong_answers(labels: &Path, references: &[Vec<u32>]) -> Result<u64, String> {
    let bytes = std::fs::read(labels).map_err(|e| e.to_string())?;
    let got: Vec<u32> =
        bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes"))).collect();
    let per_query = references.first().map_or(0, Vec::len);
    if got.len() != per_query * references.len() {
        return Ok(references.len() as u64);
    }
    Ok(got
        .chunks_exact(per_query.max(1))
        .zip(references)
        .filter(|(answer, reference)| !same_partition(answer, reference))
        .count() as u64)
}

fn num(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Value::as_f64).ok_or_else(|| format!("the pass did not report `{key}`"))
}

fn run_batch(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<RunRecord, String> {
    let (input, setup_s) = timed_setup(|| setup_batch(workload, options.seed, scratch))?;
    let mut measured = vec![setup_s];

    // One pass that only warms up (the stream file into the page cache, this
    // binary's pages, the kernel's free lists after the set-up's garbage): its
    // answers are checked, its times are not kept — the first pass of a run
    // takes 10 % (disk) to 50 % (RAM) longer than the ones after it. Then
    // untraced passes until the time is up, [`MIN_PASSES`] at least; the
    // traced run makes one, then one traced pass over the same file.
    let mut passes: Vec<Value> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |report: &Value, labels: &Path| -> Result<(), String> {
        attempted += num(report, "updates")? as u64 + workload.queries as u64;
        failed += num(report, "failed_queries")? as u64;
        failed += wrong_answers(labels, &input.references)?;
        Ok(())
    };
    let untraced_pass = || {
        spawn_pass(
            workload.kind,
            workload.sketch_threshold,
            workload.queries,
            &input.stream,
            scratch,
            false,
        )
    };
    let (warm_up, labels) = untraced_pass()?;
    check(&warm_up, &labels)?;
    // A smoke run is a format check: one second of passes is plenty.
    let (seconds, at_least) = match (options.trace, options.smoke) {
        (true, _) => (0.0, 1),
        (false, true) => (options.seconds.min(1.0), 1),
        (false, false) => (options.seconds, MIN_PASSES),
    };
    let started = Instant::now();
    while passes.len() < at_least || started.elapsed().as_secs_f64() < seconds {
        let (report, labels) = untraced_pass()?;
        check(&report, &labels)?;
        passes.push(report);
    }

    let per_pass =
        |key: &str| -> Result<Vec<f64>, String> { passes.iter().map(|p| num(p, key)).collect() };
    // The questions of a pass differ in kind (the first one of a disk pass
    // also allocates the store's pages, 4.0–4.9 s against 3.5–3.7 s), so their
    // pooled median would sit between two modes and jump from run to run. A
    // pass's mean question is one sample; the median is over passes.
    let questions = |pass: &Value| -> Vec<f64> {
        let all = pass.get("query_ms").and_then(Value::as_arr).unwrap_or_default();
        all.iter().filter_map(Value::as_f64).collect()
    };
    let query_ms: Vec<f64> = passes.iter().map(|p| stats::mean(&questions(p))).collect();
    let ack_samples = per_pass("ack_samples")?.iter().sum::<f64>() as usize;
    println!("  stream_to_answer_s of each pass: {:.3?}", per_pass("stream_to_answer_s")?);
    println!("  mean query_ms of each pass: {query_ms:.0?}");
    measured.extend([
        Measured::new(
            "stream_to_answer_s",
            stats::median(&per_pass("stream_to_answer_s")?),
            passes.len(),
        ),
        Measured::new(
            "ingest_updates_per_s",
            stats::median(&per_pass("ingest_updates_per_s")?),
            passes.len(),
        ),
        Measured::new("query_ms_p50", stats::median(&query_ms), query_ms.len()),
        Measured::new("ack_us_p50", stats::median(&per_pass("ack_us_p50")?), ack_samples),
        Measured::new("ack_us_p99", stats::median(&per_pass("ack_us_p99")?), ack_samples),
        Measured::new("peak_rss_mib", stats::median(&per_pass("peak_rss_mib")?), passes.len()),
    ]);

    if options.trace {
        let (report, labels, spans) = traced_pass(
            workload.kind,
            workload.sketch_threshold,
            workload.queries,
            &input.stream,
            scratch,
            tracer,
        )?;
        check(&report, &labels)?;
        measured.extend(layers::from_traced_pass(&report)?);
        let time = |pass: &Value| num(pass, "stream_to_answer_s");
        measured.extend([
            Measured::new("trace.overhead_share", time(&report)? / time(&passes[0])? - 1.0, 2),
            Measured::new(
                "trace.unattributed_share",
                layers::unattributed_share(&spans)?,
                spans.len(),
            ),
        ]);
        let probe_dir = scratch.subdir("probes").map_err(|e| e.to_string())?;
        measured.extend(layers::probe_all(
            &layers::ProbeInput {
                num_nodes: workload.num_nodes(),
                updates: &input.updates,
                stream: &input.stream,
                dir: &probe_dir,
                smoke: options.smoke,
            },
            tracer,
        )?);
        measured.extend(serve::probe(workload, &input.updates, options, scratch, tracer)?);
    }

    Ok(RunRecord { attempted, failed, measured })
}
