//! Chaos lane: multi-process fault-tolerance test for sharded ingestion
//! (DESIGN.md §14).
//!
//! For each configuration in the matrix (shards × worker store), the test
//! runs the same stream twice through real `gz` processes:
//!
//! 1. **Baseline** — K `gz shard-worker` processes plus a coordinator
//!    (`gz components --shards K --connect ... --respawn
//!    --checkpoint-every N --stats --forest`), uninterrupted.
//! 2. **Chaos** — the same setup, but one worker is SIGKILLed mid-ingest
//!    (at a per-configuration point after its first durable checkpoint
//!    lands) and restarted with `--resume <ckpt>` on the same port. The
//!    coordinator must detect the death, reconnect, resync from the
//!    restored checkpoint seq, and replay exactly the batches the worker
//!    never absorbed.
//!
//! Because CubeSketch updates are XOR-linear, replaying the un-absorbed
//! tail reproduces the lost state *bit for bit*: the chaos run must emit
//! the identical component count, update/batch totals, and spanning
//! forest as the baseline — not merely an equivalent answer. The recovery
//! counters printed by `--stats` are asserted exactly where the protocol
//! makes them deterministic (checkpoint rounds, replays) and bounded
//! where it does not (batches replayed, reconnect attempts).
//!
//! The test spawns real processes; on environments where that is not
//! possible it logs a skip instead of failing.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_gz");
const NODES: u64 = 256;
const CHECKPOINT_EVERY: u64 = 16;
const BATCH_UPDATES: u64 = 64;

/// A running `gz shard-worker` process whose bound port has been parsed
/// off its stdout. The drain thread keeps the pipe open so the worker's
/// final summary line never hits a closed fd.
struct Worker {
    child: Child,
    port: u16,
    drain: thread::JoinHandle<String>,
}

impl Worker {
    fn summary(mut self) -> (std::process::ExitStatus, String) {
        let status = self.child.wait().expect("wait worker");
        (status, self.drain.join().expect("join drain"))
    }

    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL worker");
        self.child.wait().expect("reap worker");
        // The drain thread ends when the pipe closes.
        self.drain.join().ok();
    }
}

fn worker_args(
    listen: &str,
    shards: u32,
    index: u32,
    store: &str,
    dir: &Path,
    ckpt: &Path,
    resume: bool,
) -> Vec<String> {
    let mut args = vec![
        "shard-worker".into(),
        "--listen".into(),
        listen.into(),
        "--nodes".into(),
        NODES.to_string(),
        "--shards".into(),
        shards.to_string(),
        "--index".into(),
        index.to_string(),
        "--store".into(),
        store.into(),
        if resume { "--resume".into() } else { "--checkpoint".into() },
        ckpt.display().to_string(),
    ];
    if store == "disk" {
        // A resumed worker rebuilds its store from the checkpoint, so it
        // gets a fresh store directory rather than the dead process's.
        let suffix = if resume { "-resumed" } else { "" };
        args.push("--dir".into());
        args.push(dir.join(format!("store{index}{suffix}")).display().to_string());
    }
    args
}

/// Spawn a worker and block until it announces its bound address. Returns
/// `Err` only for spawn failures (the environment cannot start processes);
/// a worker that exits before announcing (e.g. a bind race on restart)
/// comes back as `Ok(None)` so the caller can retry.
fn spawn_worker(args: &[String]) -> std::io::Result<Option<Worker>> {
    let mut child =
        Command::new(BIN).args(args).stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read worker stdout");
        if n == 0 {
            child.wait().ok();
            return Ok(None);
        }
        if let Some(idx) = line.find("listening on ") {
            let addr = line[idx + "listening on ".len()..].trim_end();
            let port: u16 = addr.rsplit(':').next().expect("port").parse().expect("numeric port");
            let drain = thread::spawn(move || {
                let mut rest = String::new();
                reader.read_to_string(&mut rest).ok();
                rest
            });
            return Ok(Some(Worker { child, port, drain }));
        }
    }
}

/// Restart a killed worker on its old (now free) port, retrying through
/// transient bind races.
fn respawn_worker(args: &[String]) -> Worker {
    for _ in 0..100 {
        if let Some(w) = spawn_worker(args).expect("spawn succeeded once; must keep working") {
            return w;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("worker failed to rebind its port after 100 attempts");
}

struct CoordinatorOutput {
    summary: String,
    recovery: RecoveryCounters,
    graph_digest: String,
    forest: Vec<String>,
    batches_shipped: u64,
}

#[derive(Debug, PartialEq)]
struct RecoveryCounters {
    checkpoints: u64,
    replays: u64,
    batches_replayed: u64,
    reconnect_attempts: u64,
}

/// Parse the coordinator's stdout: the summary line, the `--stats` block
/// (`key: ...` lines, ending in the `recovery:` and `link:` lines of the
/// recovering transport), then one `u v` line per forest edge.
fn parse_coordinator(out: &str) -> CoordinatorOutput {
    let mut lines = out.lines();
    let summary = lines.next().expect("summary line").to_string();
    let batches_shipped = summary
        .split(", ")
        .find_map(|part| part.strip_suffix("batches shipped)"))
        .expect("batches shipped in summary")
        .trim()
        .parse()
        .expect("numeric batch count");
    let (stats, forest): (Vec<&str>, Vec<&str>) = lines.partition(|l| l.contains(": "));
    let line = |key: &str| {
        let found = stats.iter().find_map(|l| l.strip_prefix(key));
        found.unwrap_or_else(|| panic!("no {key:?} line in {out}"))
    };
    let recovery_line = line("recovery: ");
    let nums: Vec<u64> = recovery_line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert_eq!(nums.len(), 4, "recovery line shape: {recovery_line}");
    assert!(line("link: ").starts_with("frames_in="), "link line shape: {out}");
    let last_two: Vec<&str> =
        stats.iter().rev().take(2).map(|l| &l[..l.find(':').unwrap()]).collect();
    assert_eq!(last_two, ["link", "recovery"], "the block ends in the transport's lines: {out}");
    let graph_digest = line("graph digest: ").to_string();
    CoordinatorOutput {
        summary,
        recovery: RecoveryCounters {
            checkpoints: nums[0],
            replays: nums[1],
            batches_replayed: nums[2],
            reconnect_attempts: nums[3],
        },
        graph_digest,
        forest: forest.into_iter().map(str::to_string).collect(),
        batches_shipped,
    }
}

fn coordinator_args(stream: &Path, shards: u32, addrs: &[String]) -> Vec<String> {
    vec![
        "components".into(),
        stream.display().to_string(),
        "--shards".into(),
        shards.to_string(),
        "--connect".into(),
        addrs.join(","),
        "--respawn".into(),
        "--checkpoint-every".into(),
        CHECKPOINT_EVERY.to_string(),
        "--batch-updates".into(),
        BATCH_UPDATES.to_string(),
        "--stats".into(),
        "--forest".into(),
    ]
}

fn ckpt_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard{index}.ckpt"))
}

struct RunResult {
    coordinator: CoordinatorOutput,
    worker_summaries: Vec<String>,
}

/// One full coordinated run. `kill_plan = Some((victim, delay))` SIGKILLs
/// that worker `delay` after its first checkpoint file lands, then
/// restarts it with `--resume` on the same port.
fn run_cluster(
    stream: &Path,
    shards: u32,
    store: &str,
    dir: &Path,
    kill_plan: Option<(u32, Duration)>,
) -> Option<RunResult> {
    let mut workers = Vec::new();
    for i in 0..shards {
        let args = worker_args("127.0.0.1:0", shards, i, store, dir, &ckpt_path(dir, i), false);
        match spawn_worker(&args) {
            Err(e) => {
                eprintln!("skipping chaos test: cannot spawn gz processes: {e}");
                return None;
            }
            Ok(None) => panic!("worker {i} exited before announcing its port"),
            Ok(Some(w)) => workers.push(w),
        }
    }
    let addrs: Vec<String> = workers.iter().map(|w| format!("127.0.0.1:{}", w.port)).collect();

    let coordinator = Command::new(BIN)
        .args(coordinator_args(stream, shards, &addrs))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn coordinator");

    if let Some((victim, delay)) = kill_plan {
        let ckpt = ckpt_path(dir, victim);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !ckpt.exists() {
            assert!(Instant::now() < deadline, "no checkpoint appeared within 60s");
            thread::sleep(Duration::from_micros(200));
        }
        thread::sleep(delay);
        let port = workers[victim as usize].port;
        let old = workers.remove(victim as usize);
        old.sigkill();
        let args =
            worker_args(&format!("127.0.0.1:{port}"), shards, victim, store, dir, &ckpt, true);
        workers.insert(victim as usize, respawn_worker(&args));
    }

    let out = coordinator.wait_with_output().expect("coordinator output");
    assert!(out.status.success(), "coordinator failed: {}\n", String::from_utf8_lossy(&out.stdout),);
    let coordinator = parse_coordinator(&String::from_utf8_lossy(&out.stdout));

    let mut worker_summaries = Vec::new();
    for (i, w) in workers.into_iter().enumerate() {
        let (status, summary) = w.summary();
        assert!(status.success(), "worker {i} failed: {summary}");
        worker_summaries.push(summary);
    }
    Some(RunResult { coordinator, worker_summaries })
}

#[test]
fn killed_worker_recovers_bit_identically() {
    let root = gz_testutil::TempDir::new("gz-chaos");
    let stream = root.path().join("chaos.gzs");

    // Large enough that the cadence fires many times mid-stream (~250+
    // routed batches at --batch-updates 64), so the kill always lands
    // while ingestion is still in flight.
    match Command::new(BIN)
        .args(["generate", "--er", "256x8000", "--seed", "7", "--out"])
        .arg(&stream)
        .output()
    {
        Err(e) => {
            eprintln!("skipping chaos test: cannot spawn gz processes: {e}");
            return;
        }
        Ok(out) => assert!(out.status.success(), "generate failed"),
    }

    // Debug builds (tier-1 `cargo test`) run one configuration as a smoke
    // check; the release chaos lane in CI sweeps the full matrix. The
    // per-configuration delay varies the kill point relative to the first
    // checkpoint, and the victim index varies which shard dies.
    let matrix: &[(u32, &str, u32, u64)] = if cfg!(debug_assertions) {
        &[(2, "ram", 1, 0)]
    } else {
        &[(2, "ram", 1, 0), (3, "ram", 2, 3), (2, "disk", 0, 1), (3, "disk", 1, 7)]
    };

    for &(shards, store, victim, delay_ms) in matrix {
        let label = format!("{shards} shards, {store} store, kill {victim} +{delay_ms}ms");
        let base_dir = gz_testutil::TempDir::new("gz-chaos-base");
        let Some(baseline) = run_cluster(&stream, shards, store, base_dir.path(), None) else {
            return; // spawn unavailable; already logged
        };
        let chaos_dir = gz_testutil::TempDir::new("gz-chaos-kill");
        let Some(chaos) = run_cluster(
            &stream,
            shards,
            store,
            chaos_dir.path(),
            Some((victim, Duration::from_millis(delay_ms))),
        ) else {
            return;
        };

        // The recovered run is indistinguishable from the uninterrupted
        // one: same component count, same totals, same spanning forest.
        assert_eq!(baseline.coordinator.summary, chaos.coordinator.summary, "{label}");
        assert_eq!(baseline.coordinator.forest, chaos.coordinator.forest, "{label}");
        assert!(!baseline.coordinator.forest.is_empty(), "{label}: forest printed");
        // The graph digest matches too: the respawned worker resumes the
        // one its checkpoint file carries.
        let (base_digest, chaos_digest) =
            (&baseline.coordinator.graph_digest, &chaos.coordinator.graph_digest);
        assert_eq!(chaos_digest, base_digest, "{label}: graph digest");

        // Counter exactness. Checkpoint rounds are driven by the routed
        // batch count, which the kill cannot change; a single kill is a
        // single replay. Batches replayed and reconnect attempts depend on
        // when the death is detected, so they are bounded, not exact.
        let b = &baseline.coordinator.recovery;
        let c = &chaos.coordinator.recovery;
        assert_eq!(b.replays, 0, "{label}: baseline {b:?}");
        assert_eq!(b.reconnect_attempts, 0, "{label}: baseline {b:?}");
        assert_eq!(b.batches_replayed, 0, "{label}: baseline {b:?}");
        assert!(b.checkpoints >= shards as u64, "{label}: baseline {b:?}");
        assert_eq!(c.checkpoints, b.checkpoints, "{label}: chaos {c:?}");
        assert_eq!(c.replays, 1, "{label}: chaos {c:?}");
        assert!(c.reconnect_attempts >= 1, "{label}: chaos {c:?}");
        // Zero is legitimate here: a worker killed immediately after a
        // checkpoint ack may die before any new batch is logged for it.
        assert!(c.batches_replayed <= chaos.coordinator.batches_shipped, "{label}: chaos {c:?}");

        // Every worker (including the resumed victim) served cleanly and
        // reported its checkpoint count.
        for (i, s) in chaos.worker_summaries.iter().enumerate() {
            assert!(s.contains("checkpoints"), "{label}: worker {i} summary: {s}");
        }
        for s in &baseline.worker_summaries {
            assert!(s.contains("checkpoints"), "{label}: baseline worker summary: {s}");
        }
    }
}
