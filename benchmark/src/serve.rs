//! The `serve_durable` workload: a real `gz serve --dir` child process fed
//! over a Unix socket through `gz_cli::client::ServeClient`, then killed and
//! resumed. The same session, shortened, is the traced run's probe of the
//! `gz_cli.serve` layer on the batch workloads.
//!
//! Phases of a session:
//!
//! 1. `paced` — an open-loop writer (64-update batches on a fixed schedule)
//!    and an open-loop querier (`Components`), each timed from its due time.
//! 2. `saturate` — rounds in which one closed-loop writer pushes bulk frames
//!    and then asks one quiesced query, compared exactly with the reference.
//! 3. `checkpoint` — SIGTERM: the daemon cuts a checkpoint round, rotates its
//!    WAL and exits; it is restarted with `--resume` from that round.
//! 4. `tail` — exactly [`SessionPlan::tail_updates`] more updates, all acked,
//!    then SIGKILL: a WAL tail of known length on top of a real round.
//! 5. `recover` — restart with `--resume`, timed from process start to a
//!    `ClientHelloAck` carrying every acked update; the answer is compared
//!    exactly with the reference over that prefix.
//!
//! The daemon's own periodic checkpoints are switched off (a period longer
//! than any run): a round holds the ingest lock while it writes every sketch
//! out, 0.9–1.8 s at 4096 vertices and varying that much from run to run, so
//! one landing in the paced phase decides `ack_us_p99` by itself and one in a
//! saturate round decides that round. The round of phase 3 is cut on demand
//! instead, where nothing is being timed.
//!
//! Toggles commute, so the reference needs only *which* batches were acked,
//! not the order two writers' batches interleaved in.

use crate::host::Scratch;
use crate::layers::{self, SYSTEM_PROBE_NODES};
use crate::loadgen::{closed_loop, open_loop, Clock, Sample, WallClock};
use crate::metrics::Measured;
use crate::oracle::{self, EdgeSet};
use crate::run::{timed_setup, traced_pass, RunOptions, RunRecord};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload, BATCH_UPDATES, WORKERS};
use graph_zeppelin::TransportTimeouts;
use gz_cli::client::ServeClient;
use gz_graph::connectivity::same_partition;
use gz_stream::format::write_stream;
use gz_stream::{EdgeUpdate, UpdateKind};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

type Update = (u32, u32, bool);

/// 64-update batches in one frame of the saturate phase: 65 536 updates, as
/// a bulk loader would send. A closed loop is a ping-pong of two threads that
/// wake each other, and every frame waits for one `sync_data`; on this
/// sandbox both cost one of two prices, 45 % apart, depending on the minute.
/// At 64 updates a frame the phase measures nothing else, at 4096 still a
/// fifth of it (runs spread 25 %); at 65 536 the daemon's own work is all but
/// a twentieth of a frame.
const FRAME_BATCHES: usize = 1024;

/// Handshakes timed for `serve.hello_us`.
const HELLOS: usize = 32;

/// `--checkpoint-ms` of the daemon under test: an hour, that is, never
/// within a run (see the module docs).
const NO_PERIODIC_CHECKPOINT_MS: &str = "3600000";

/// Longest a daemon may take to start (or resume) before the run gives up.
const START_DEADLINE: Duration = Duration::from_secs(60);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

// ---------------------------------------------------------------------------
// The daemon child
// ---------------------------------------------------------------------------

/// A running `gz serve` child. Dropping it kills the process, so a panic or
/// an early return never leaves a daemon behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
    spawned: Instant,
    /// Collects the daemon's stdout (the shutdown summary).
    drain: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Start `gz serve` with `dir` as its working directory: socket
    /// `dir/sock` and, if `durable`, state under `dir/state`. The daemon is
    /// given both as relative paths, so the socket address stays short
    /// however deep the checkout is.
    fn spawn(dir: &Path, nodes: u64, durable: bool, resume: bool) -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("gz_under_test");
        let socket = dir.join("sock");
        let mut command = Command::new(&exe);
        command
            .current_dir(dir)
            .args(["serve", "--unix", "sock"])
            .args(["--nodes", &nodes.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .arg("--stats");
        if durable {
            command.args(["--dir", "state", "--checkpoint-ms", NO_PERIODIC_CHECKPOINT_MS]);
        }
        if resume {
            command.arg("--resume");
        }
        let spawned = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let drain = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = BufReader::new(stdout).read_to_string(&mut text);
            text
        });
        Ok(Daemon { child, socket, spawned, drain: Some(drain) })
    }

    /// Connect and shake hands, retrying until the daemon listens.
    fn connect(&mut self) -> Result<ServeClient, String> {
        let timeouts = TransportTimeouts::all(Duration::from_secs(30));
        let path = short_socket_path(&self.socket);
        loop {
            match ServeClient::connect_unix(&path, &timeouts) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("gz serve exited with {status} before listening"));
                    }
                    if self.spawned.elapsed() > START_DEADLINE {
                        return Err(format!("gz serve did not listen in time: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::batch::peak_rss_mib(self.child.id())
    }

    /// SIGKILL, and reap.
    fn sigkill(mut self) {
        self.stop();
    }

    /// SIGTERM, wait for the graceful shutdown, return the summary it
    /// printed.
    fn sigterm(mut self) -> Result<String, String> {
        // SAFETY: `kill` takes plain integers; the pid is our own unreaped
        // child's, so it cannot have been recycled.
        if unsafe { kill(self.child.id() as i32, SIGTERM) } != 0 {
            return Err("kill(SIGTERM) failed".into());
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let summary = self.drain.take().and_then(|d| d.join().ok()).unwrap_or_default();
        if !status.success() {
            return Err(format!("gz serve exited with {status} on SIGTERM: {summary}"));
        }
        Ok(summary)
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A Unix socket address holds about a hundred bytes; a deep checkout can
/// exceed that, so fall back to the path relative to the working directory.
fn short_socket_path(socket: &Path) -> PathBuf {
    if socket.as_os_str().len() < 100 {
        return socket.to_path_buf();
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| socket.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| socket.to_path_buf())
}

/// `name=value` out of the `connections:` line of a shutdown summary.
fn summary_counter(summary: &str, name: &str) -> Option<f64> {
    let line = summary.lines().find(|l| l.starts_with("connections:"))?;
    let field = line.split_whitespace().find_map(|f| f.strip_prefix(name)?.strip_prefix('='))?;
    field.parse().ok()
}

// ---------------------------------------------------------------------------
// The update source and its reference
// ---------------------------------------------------------------------------

/// The stream as 64-update batches, cycled when a session outlasts it.
struct Batches {
    updates: Vec<Update>,
}

impl Batches {
    fn new(updates: Vec<Update>) -> Batches {
        let whole = updates.len() / BATCH_UPDATES * BATCH_UPDATES;
        assert!(whole > 0, "stream shorter than one batch");
        Batches { updates: updates[..whole].to_vec() }
    }

    fn get(&self, index: usize) -> &[Update] {
        let at = index % (self.updates.len() / BATCH_UPDATES) * BATCH_UPDATES;
        &self.updates[at..at + BATCH_UPDATES]
    }

    /// Batches `first .. first + count` as one frame's worth of updates.
    fn frame(&self, first: usize, count: usize) -> Vec<Update> {
        (first..first + count).flat_map(|index| self.get(index).iter().copied()).collect()
    }
}

/// The exact edge set after the first `applied` batches.
struct Reference<'a> {
    batches: &'a Batches,
    set: EdgeSet,
    applied: usize,
}

impl Reference<'_> {
    /// Partition after the first `upto` batches (non-decreasing calls).
    fn partition_after(&mut self, upto: usize) -> Vec<u32> {
        for index in self.applied..upto {
            for &(u, v, _) in self.batches.get(index) {
                self.set.toggle(u, v);
            }
        }
        self.applied = self.applied.max(upto);
        self.set.partition()
    }
}

// ---------------------------------------------------------------------------
// A session
// ---------------------------------------------------------------------------

struct SessionPlan {
    nodes: u64,
    warmup_batches: usize,
    /// Length of the paced phase's schedule.
    paced_s: f64,
    /// Saturate phase: rounds of bulk frames pushed by one closed-loop
    /// writer, each round ending in a quiesced query.
    saturate_rounds: usize,
    saturate_frames: usize,
    /// Updates in the WAL when the daemon is killed.
    tail_updates: usize,
    /// Also run the saturate phase a second time (the traced one) and the
    /// non-durable daemon.
    traced: bool,
}

impl SessionPlan {
    /// The session `serve_durable` runs (a token of it for `--smoke`).
    fn full(nodes: u64, paced_s: f64, smoke: bool, traced: bool) -> SessionPlan {
        SessionPlan {
            nodes,
            warmup_batches: if smoke { 256 } else { 4096 },
            paced_s: if smoke { 3.0 } else { paced_s },
            // Odd, so that the median is one round and not a mean of two.
            saturate_rounds: 5,
            saturate_frames: if smoke { 1 } else { 32 },
            tail_updates: if smoke { 1 << 13 } else { 1 << 17 },
            traced,
        }
    }
}

struct SessionResult {
    attempted: u64,
    failed: u64,
    acks: Vec<Sample>,
    queries: Vec<Sample>,
    /// Per saturate round: whether it counts as traced, seconds to the last
    /// ack, seconds to the answer.
    saturate_runs: Vec<(bool, f64, f64)>,
    recovery_s: f64,
    peak_rss_mib: f64,
    hello_us: f64,
    /// Round trips of a batch on a daemon without `--dir` (traced only).
    nondurable: Option<Vec<Sample>>,
    /// Shutdown summary of every daemon that was stopped gracefully: the
    /// session's, the resumed one's and, last, the non-durable one's.
    summaries: Vec<String>,
}

fn io_err(what: &str) -> impl Fn(gz_cli::client::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Start a durable daemon in a fresh directory and warm it up: the first
/// batches fault in the sketch pages and the first query builds the pool.
fn start_warm(
    scratch: &Scratch,
    plan: &SessionPlan,
    batches: &Batches,
) -> Result<(Daemon, PathBuf), String> {
    let dir = scratch.subdir("serve").map_err(|e| e.to_string())?;
    let mut daemon = Daemon::spawn(&dir, plan.nodes, true, false)?;
    let mut client = daemon.connect()?;
    for index in 0..plan.warmup_batches {
        client.send_updates(batches.get(index)).map_err(io_err("warm-up batch"))?;
    }
    client.query_components().map_err(io_err("warm-up query"))?;
    client.shutdown().map_err(io_err("warm-up goodbye"))?;
    Ok((daemon, dir))
}

fn run_session(
    plan: &SessionPlan,
    batches: &Batches,
    mut daemon: Daemon,
    dir: &Path,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<SessionResult, String> {
    let clock = WallClock { origin: tracer.epoch() };
    let mut reference = Reference { batches, set: EdgeSet::new(plan.nodes), applied: 0 };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cursor = plan.warmup_batches;
    let session = tracer.begin("serve.session");

    // Handshake cost on a warm daemon.
    let hellos = closed_loop(&clock, HELLOS, |_| {
        daemon.connect()?.shutdown().map_err(io_err("hello goodbye"))
    })?;
    let hello_us = stats::median(&service_us(&hellos));

    // --- paced -------------------------------------------------------------
    let writes = (plan.paced_s * WRITE_RATE) as usize;
    let asks = (plan.paced_s * QUERY_RATE) as usize;
    let mut writer = daemon.connect()?;
    let mut querier = daemon.connect()?;
    let start_ns = clock.now_ns() + 2_000_000;
    let nodes = plan.nodes;
    let phase = tracer.begin("serve.paced");
    let (acks, (queries, malformed)) = std::thread::scope(|scope| {
        let acks = scope.spawn(|| {
            open_loop(&clock, start_ns, (1e9 / WRITE_RATE) as u64, writes, |i| {
                writer
                    .send_updates(batches.get(cursor + i))
                    .map(drop)
                    .map_err(io_err("paced batch"))
            })
        });
        let mut malformed = 0u64;
        let queries = open_loop(&clock, start_ns, (1e9 / QUERY_RATE) as u64, asks, |_| {
            let labels = querier.query_components().map_err(io_err("paced query"))?;
            malformed += !oracle::well_formed(&labels, nodes) as u64;
            Ok::<(), String>(())
        });
        (acks.join().expect("paced writer panicked"), (queries, malformed))
    });
    let (acks, queries) = (acks?, queries?);
    record_requests(tracer, "serve.update_batch", &acks);
    record_requests(tracer, "serve.query", &queries);
    tracer.end(phase);
    cursor += writes;
    attempted += (writes * BATCH_UPDATES + asks) as u64;
    failed += malformed;
    writer.shutdown().map_err(io_err("paced goodbye"))?;

    // --- saturate ------------------------------------------------------------
    let saturate_batches = plan.saturate_frames * FRAME_BATCHES;
    let mut saturate = |tracer: &mut Tracer, cursor: usize, name: &'static str| {
        let mut writer = daemon.connect()?;
        let phase = tracer.begin(name);
        let started = Instant::now();
        let frames = closed_loop(&clock, plan.saturate_frames, |i| {
            let frame = batches.frame(cursor + i * FRAME_BATCHES, FRAME_BATCHES);
            writer.send_updates(&frame).map(drop).map_err(io_err("saturate frame"))
        })?;
        let pushed_s = started.elapsed().as_secs_f64();
        record_requests(tracer, "serve.update_batch", &frames);
        // Quiesced: every batch of the phase is acked, so the answer must be
        // exactly the reference's.
        let labels = tracer
            .span("serve.query", |_| querier.query_components())
            .map_err(io_err("quiesced query"))?;
        let answered_s = started.elapsed().as_secs_f64();
        tracer.end(phase);
        writer.shutdown().map_err(io_err("saturate goodbye"))?;
        Ok::<_, String>((pushed_s, answered_s, labels))
    };
    // Several short rounds rather than one long one, so that a round the
    // host disturbed is outvoted. The traced run doubles them, every other
    // round counting as the traced one, so that the two can be told apart
    // (the client's spans are built from samples both kinds keep).
    let mut saturate_runs = Vec::new();
    for round in 0..plan.saturate_rounds * if plan.traced { 2 } else { 1 } {
        let traced = plan.traced && round % 2 == 1;
        let name = if traced { "serve.saturate_traced" } else { "serve.saturate" };
        let (pushed_s, answered_s, labels) = saturate(tracer, cursor, name)?;
        cursor += saturate_batches;
        attempted += (saturate_batches * BATCH_UPDATES + 1) as u64;
        failed += !same_partition(&labels, &reference.partition_after(cursor)) as u64;
        saturate_runs.push((traced, pushed_s, answered_s));
    }
    querier.shutdown().map_err(io_err("querier goodbye"))?;

    // --- checkpoint: a graceful restart cuts one round ----------------------
    let peak_rss_mib = daemon.peak_rss_mib();
    let phase = tracer.begin("serve.checkpoint");
    let mut summaries = vec![daemon.sigterm()?];
    let mut daemon = Daemon::spawn(dir, plan.nodes, true, true)?;
    let mut writer = daemon.connect()?;
    tracer.end(phase);
    attempted += 1;
    failed += (writer.acked() != (cursor * BATCH_UPDATES) as u64) as u64;

    // --- tail: a WAL of known length on top of that round --------------------
    let phase = tracer.begin("serve.tail");
    let mut acked = writer.acked();
    for _ in 0..plan.tail_updates / BATCH_UPDATES {
        acked = writer.send_updates(batches.get(cursor)).map_err(io_err("tail batch"))?;
        cursor += 1;
    }
    tracer.end(phase);
    attempted += plan.tail_updates as u64;
    daemon.sigkill();

    // --- recover -------------------------------------------------------------
    let phase = tracer.begin("serve.recover");
    let mut resumed = Daemon::spawn(dir, plan.nodes, true, true)?;
    let mut client = resumed.connect()?;
    let recovery_s = resumed.spawned.elapsed().as_secs_f64();
    tracer.end(phase);
    attempted += 2;
    // Every batch was acked before the kill and nothing was in flight, so
    // the daemon must come back with exactly what the session sent.
    failed += (client.acked() != acked || acked != (cursor * BATCH_UPDATES) as u64) as u64;
    let labels = client.query_components().map_err(io_err("post-resume query"))?;
    failed += !same_partition(&labels, &reference.partition_after(cursor)) as u64;
    client.shutdown().map_err(io_err("post-resume goodbye"))?;
    summaries.push(resumed.sigterm()?);

    // --- the same round trip without the WAL ---------------------------------
    let nondurable = if plan.traced {
        let dir = scratch.subdir("serve-nondurable").map_err(|e| e.to_string())?;
        let mut daemon = Daemon::spawn(&dir, plan.nodes, false, false)?;
        let mut client = daemon.connect()?;
        for index in 0..plan.warmup_batches {
            client.send_updates(batches.get(index)).map_err(io_err("nondurable warm-up"))?;
        }
        let rtts = tracer.span("serve.nondurable", |_| {
            closed_loop(&clock, 4096, |i| {
                client
                    .send_updates(batches.get(plan.warmup_batches + i))
                    .map(drop)
                    .map_err(io_err("nondurable batch"))
            })
        })?;
        attempted += (rtts.len() * BATCH_UPDATES) as u64;
        client.shutdown().map_err(io_err("nondurable goodbye"))?;
        summaries.push(daemon.sigterm()?);
        Some(rtts)
    } else {
        None
    };
    tracer.end(session);

    Ok(SessionResult {
        attempted,
        failed,
        acks,
        queries,
        saturate_runs,
        recovery_s,
        peak_rss_mib,
        hello_us,
        nondurable,
        summaries,
    })
}

fn record_requests(tracer: &mut Tracer, name: &'static str, samples: &[Sample]) {
    for s in samples {
        tracer.record(name, s.sent_ns, s.done_ns);
    }
}

fn latency_us(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ns() as f64 / 1e3).collect()
}

fn service_us(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.service_ns() as f64 / 1e3).collect()
}

/// The per-layer metrics a traced session yields.
fn serve_layers(result: &SessionResult) -> Result<Vec<Measured>, String> {
    let rtts = result.nondurable.as_ref().ok_or("session ran untraced")?;
    // Frames of the non-durable daemon alone: a hello, the warm-up, the
    // closed loop and a goodbye, so the counts repeat exactly. Refusals and
    // deadline kills are summed over every daemon of the session.
    let frames = |name: &str| {
        result
            .summaries
            .last()
            .and_then(|summary| summary_counter(summary, name))
            .ok_or_else(|| format!("no `{name}` in the shutdown summary"))
    };
    let total = |name: &str| -> f64 {
        result.summaries.iter().filter_map(|summary| summary_counter(summary, name)).sum()
    };
    let lateness: Vec<f64> = result.acks.iter().map(|s| s.lateness_ns() as f64 / 1e3).collect();
    Ok(vec![
        Measured::new("serve.rtt_nondurable_us_p50", stats::median(&service_us(rtts)), rtts.len()),
        Measured::new("serve.hello_us", result.hello_us, HELLOS),
        Measured::new("serve.frames_in", frames("frames_in")?, 1),
        Measured::new("serve.frames_out", frames("frames_out")?, 1),
        Measured::new("serve.shed", total("shed"), result.summaries.len()),
        Measured::new("serve.timed_out", total("timed_out"), result.summaries.len()),
        Measured::new(
            "loadgen.lateness_us_p99",
            stats::percentile(&lateness, 99.0),
            lateness.len(),
        ),
        Measured::new("recovery_s", result.recovery_s, 1),
    ])
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn tuples(updates: &[EdgeUpdate]) -> Vec<Update> {
    updates.iter().map(|up| (up.u, up.v, up.kind == UpdateKind::Delete)).collect()
}

/// Rates of the paced phase, per second. Every query seals an epoch, and
/// the seal flushes all gutters under the ingest lock: about 0.2 s during
/// which no frame is acked, whatever the write rate. One query a second
/// keeps the stalled share of the schedule near a fifth, so the median ack
/// is an unstalled one and the 99th percentile a stalled one, and leaves
/// room for a slow spell of the host: at three queries every two seconds a
/// host running a third slower tips the schedule into a growing backlog
/// (p99 of 1–2 s in three runs of ten), and at five a second the backlog
/// grows without bound even on a quiet host.
const WRITE_RATE: f64 = 500.0;
const QUERY_RATE: f64 = 1.0;

/// The `serve_durable` workload.
pub fn run(
    workload: &Workload,
    options: &RunOptions,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<RunRecord, String> {
    let smoke = options.smoke;
    let plan = SessionPlan::full(workload.num_nodes(), options.seconds, smoke, options.trace);

    // Set-up: generate the stream, cut it into frames, start the daemon and
    // warm it up.
    let ((daemon, dir, batches, stream, updates), setup_s) = timed_setup(|| {
        let updates = workload.generate(options.seed);
        let dir = scratch.subdir("input").map_err(|e| e.to_string())?;
        let stream = dir.join("stream.gzs");
        write_stream(&stream, workload.num_nodes(), &updates).map_err(|e| e.to_string())?;
        let batches = Batches::new(tuples(&updates));
        let (daemon, dir) = start_warm(scratch, &plan, &batches)?;
        Ok((daemon, dir, batches, stream, updates))
    })?;

    let result = run_session(&plan, &batches, daemon, &dir, scratch, tracer)?;
    let ack_us = latency_us(&result.acks);
    // The first question is due with the first batch and finds the gutters
    // empty (a quarter of the others' time): it is asked, checked, not kept.
    let query_ms: Vec<f64> =
        latency_us(&result.queries).iter().skip(1).map(|us| us / 1e3).collect();
    let rounds = |traced: bool, field: fn(&(bool, f64, f64)) -> f64| -> Vec<f64> {
        result.saturate_runs.iter().filter(|r| r.0 == traced).map(field).collect()
    };
    println!("  query_ms of each paced question: {query_ms:.0?}");
    println!("  seconds to the answer of each saturate round: {:.3?}", rounds(false, |r| r.2));
    let pushed = (plan.saturate_frames * FRAME_BATCHES * BATCH_UPDATES) as f64;
    let stream_to_answer_s = stats::median(&rounds(false, |r| r.2));
    let mut measured = vec![
        setup_s,
        Measured::new("stream_to_answer_s", stream_to_answer_s, plan.saturate_rounds),
        Measured::new(
            "ingest_updates_per_s",
            pushed / stats::median(&rounds(false, |r| r.1)),
            plan.saturate_rounds,
        ),
        Measured::new("query_ms_p50", stats::median(&query_ms), query_ms.len()),
        Measured::new("ack_us_p50", stats::median(&ack_us), ack_us.len()),
        Measured::new("ack_us_p99", stats::percentile(&ack_us, 99.0), ack_us.len()),
        Measured::new("peak_rss_mib", result.peak_rss_mib, 1),
    ];
    if let Some(p) = stats::highest_supported(query_ms.len()).filter(|&p| p > 50.0) {
        measured.push(Measured::new(
            &format!("query_ms_p{p}"),
            stats::percentile(&query_ms, p),
            query_ms.len(),
        ));
    }
    if !options.trace {
        measured.push(Measured::new("recovery_s", result.recovery_s, 1));
    }

    if options.trace {
        measured.extend(serve_layers(&result)?);
        let traced_s = stats::median(&rounds(true, |r| r.2));
        measured.push(Measured::new(
            "trace.overhead_share",
            traced_s / stream_to_answer_s - 1.0,
            2 * plan.saturate_rounds,
        ));

        // The storage side of the daemon, replayed in process.
        let probe_dir = scratch.subdir("probes").map_err(|e| e.to_string())?;
        let input = layers::ProbeInput {
            num_nodes: workload.num_nodes(),
            updates: &updates,
            stream: &stream,
            dir: &probe_dir,
            smoke,
        };
        let probes = layers::probe_all(&input, tracer)?;
        let layer = |name: &str| {
            probes.iter().find(|m| m.name == name).map(|m| m.value).ok_or(format!("no {name}"))
        };
        // What the layer numbers leave unexplained of one durable ack:
        // decode + WAL append + 64 routed updates + encode of the reply is
        // everything the daemon does between the frame and the ack.
        let explained_us = (layer("wire.batch_encode_ns")?
            + layer("wire.batch_decode_ns")?
            + BATCH_UPDATES as f64 * layer("sharding.update_ns")?)
            / 1e3
            + layer("wal.append_us_p50")?;
        let ack_p50 = stats::median(&ack_us);
        measured.push(Measured::new("trace.unattributed_share", 1.0 - explained_us / ack_p50, 1));
        measured.extend(probes);

        // The storage side of the daemon in place: the same stream through
        // the in-RAM facade, traced.
        let (report, _, _) = traced_pass(Kind::BatchRam, 0, 4, &stream, scratch, tracer)?;
        measured.extend(layers::from_traced_pass(&report)?);
    }

    Ok(RunRecord { attempted: result.attempted, failed: result.failed, measured })
}

/// The `gz_cli.serve` layer on a batch workload's stream: a short session
/// over the stream folded into the serve universe.
pub fn probe(
    workload: &Workload,
    updates: &[EdgeUpdate],
    options: &RunOptions,
    scratch: &Scratch,
    tracer: &mut Tracer,
) -> Result<Vec<Measured>, String> {
    let nodes = workload.num_nodes().min(SYSTEM_PROBE_NODES);
    // Short: the paced phase only has to yield the thousand samples a 99th
    // percentile needs, and the rest only to happen.
    let plan = SessionPlan {
        paced_s: 4.0,
        saturate_rounds: 2,
        saturate_frames: 1,
        ..SessionPlan::full(nodes, 4.0, options.smoke, true)
    };
    let batches = Batches::new(layers::folded(updates, nodes));
    let (daemon, dir) = start_warm(scratch, &plan, &batches)?;
    let result = run_session(&plan, &batches, daemon, &dir, scratch, tracer)?;
    if result.failed != 0 {
        return Err(format!(
            "serve probe: {} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    serve_layers(&result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cycle_and_the_reference_follows_toggles() {
        let updates: Vec<Update> = (0..130u32).map(|i| (i % 7, 7 + i % 5, false)).collect();
        let batches = Batches::new(updates);
        assert_eq!(batches.updates.len(), 128);
        assert_eq!(batches.get(0), batches.get(2));
        assert_ne!(batches.get(0), batches.get(1));

        let mut reference = Reference { batches: &batches, set: EdgeSet::new(12), applied: 0 };
        let once = reference.partition_after(2);
        // The same two batches again toggle every edge back out.
        let twice = reference.partition_after(4);
        assert_ne!(once, twice);
        assert_eq!(twice, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn summary_counters_parse() {
        let summary = "serve shut down: 640 updates acked, 1 checkpoint rounds\n\
                       connections: accepted=3 shed=0 killed_malformed=0 timed_out=1 frames_in=14 frames_out=12\n";
        assert_eq!(summary_counter(summary, "frames_in"), Some(14.0));
        assert_eq!(summary_counter(summary, "shed"), Some(0.0));
        assert_eq!(summary_counter(summary, "timed_out"), Some(1.0));
        assert_eq!(summary_counter(summary, "frames"), None);
        assert_eq!(summary_counter("nothing here", "shed"), None);
    }
}
