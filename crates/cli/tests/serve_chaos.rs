//! Crash lane for the `gz serve` daemon (DESIGN.md §15).
//!
//! Two process-level scenarios against real `gz serve` processes:
//!
//! 1. **SIGKILL mid-ingest.** A client streams batches at the daemon and
//!    the test SIGKILLs it partway through, with checkpoint rounds
//!    cutting every few milliseconds underneath. The restarted daemon
//!    (`--resume`) must report an acked count `R` with
//!    `last client-observed ack ≤ R ≤ updates sent` — an ack is a
//!    durability promise, so nothing acked may be lost — and its
//!    components, label vector, and spanning forest must be *bit
//!    identical* to a fresh in-process system fed exactly the first `R`
//!    updates. XOR-linearity makes that equality exact, not approximate:
//!    any divergence means a lost or double-applied update.
//! 2. **SIGTERM graceful.** The daemon checkpoints and exits 0; a resume
//!    then recovers *every* update with no WAL tail dependence.
//!
//! Debug builds run the smoke version; the release CI lane runs the same
//! tests with a larger stream. Environments that cannot spawn processes
//! log a skip instead of failing, like `chaos.rs`.

#![cfg(unix)]

use graph_zeppelin::{BoruvkaOutcome, ShardConfig, ShardedGraphZeppelin, TransportTimeouts};
use gz_cli::client::{ClientError, ServeClient};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_gz");
const NODES: u64 = 256;
const BATCH: usize = 32;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A running `gz serve` process with its announced address parsed off
/// stdout; the drain thread keeps the pipe open for the shutdown summary.
struct Daemon {
    child: Child,
    addr: String,
    drain: thread::JoinHandle<String>,
}

impl Daemon {
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
        self.drain.join().ok();
    }

    fn sigterm_and_wait(mut self) -> (std::process::ExitStatus, String) {
        let rc = unsafe { kill(self.child.id() as i32, SIGTERM) };
        assert_eq!(rc, 0, "kill(SIGTERM) failed");
        let status = self.child.wait().expect("wait daemon");
        (status, self.drain.join().expect("join drain"))
    }
}

fn serve_args(state: &Path, resume: bool) -> Vec<String> {
    let mut args = vec![
        "serve".into(),
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--nodes".into(),
        NODES.to_string(),
        "--dir".into(),
        state.display().to_string(),
        // Aggressive cadence so rounds land mid-ingest and the kill hits
        // a WAL tail on top of a real checkpoint, not round 0.
        "--checkpoint-ms".into(),
        "10".into(),
        "--timeout-ms".into(),
        "10000".into(),
    ];
    if resume {
        args.push("--resume".into());
    }
    args
}

/// Spawn a daemon and block until it announces its bound address.
/// `Err` = the environment cannot spawn processes (caller skips).
fn spawn_daemon(args: &[String]) -> std::io::Result<Daemon> {
    let mut child =
        Command::new(BIN).args(args).stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read daemon stdout");
        assert!(n > 0, "daemon exited before announcing its address");
        if let Some(idx) = line.find("listening on ") {
            let addr = line[idx + "listening on ".len()..].trim_end().to_string();
            let drain = thread::spawn(move || {
                let mut rest = String::new();
                reader.read_to_string(&mut rest).ok();
                rest
            });
            return Ok(Daemon { child, addr, drain });
        }
    }
}

fn client_timeouts() -> TransportTimeouts {
    let d = Some(Duration::from_secs(10));
    TransportTimeouts { connect: d, read: d, write: d }
}

/// Connect with retries: a freshly announced daemon is accepting, but the
/// resumed one may still be replaying its WAL when the test dials it.
fn connect(addr: &str) -> ServeClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match ServeClient::connect_tcp(addr, &client_timeouts()) {
            Ok(client) => return client,
            Err(e) => {
                assert!(Instant::now() < deadline, "could not connect to {addr}: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Deterministic pseudo-random insert stream (same generator as the
/// in-process suite).
fn edge_stream(n: u32, count: usize, salt: u64) -> Vec<(u32, u32, bool)> {
    let mut x = salt | 1;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) % n as u64) as u32;
        let v = ((x >> 13) % n as u64) as u32;
        if u != v {
            out.push((u, v, false));
        }
    }
    out
}

/// What a fresh system with the daemon's configuration answers after
/// exactly `updates` — the bit-identical reference.
fn baseline(updates: &[(u32, u32, bool)]) -> BoruvkaOutcome {
    let mut config = ShardConfig::in_ram(NODES, 1);
    config.seed = 0x5EED_1E55;
    config.workers_per_shard = 2;
    let mut system = ShardedGraphZeppelin::in_process(config).expect("baseline system");
    for &(u, v, d) in updates {
        system.update(u, v, d).expect("baseline update");
    }
    let outcome = system.spanning_forest().expect("baseline query");
    system.shutdown().expect("baseline shutdown");
    outcome
}

fn assert_matches_baseline(client: &mut ServeClient, expected: &BoruvkaOutcome, label: &str) {
    assert_eq!(
        client.query_num_components().expect("num components"),
        expected.num_components() as u64,
        "{label}: component count"
    );
    assert_eq!(client.query_components().expect("components"), expected.labels, "{label}: labels");
    let forest: Vec<(u32, u32)> = expected.forest.iter().map(|e| (e.u(), e.v())).collect();
    assert_eq!(client.query_forest().expect("forest"), forest, "{label}: forest");
}

fn stream_len() -> usize {
    if cfg!(debug_assertions) {
        2_000
    } else {
        10_000
    }
}

#[test]
fn sigkilled_daemon_resumes_bit_identically_for_the_acked_prefix() {
    let state = gz_testutil::TempDir::new("gz-serve-chaos");
    let updates = edge_stream(NODES as u32, stream_len(), 77);

    let daemon = match spawn_daemon(&serve_args(state.path(), false)) {
        Err(e) => {
            eprintln!("skipping serve chaos test: cannot spawn gz processes: {e}");
            return;
        }
        Ok(d) => d,
    };

    // Stream batches until the kill point; remember the last ack the
    // daemon actually promised us.
    let kill_at = updates.len() * 3 / 5;
    let mut client = connect(&daemon.addr);
    let mut last_ack = 0u64;
    let mut sent = 0u64;
    for chunk in updates[..kill_at].chunks(BATCH) {
        last_ack = client.send_updates(chunk).expect("pre-kill batch");
        sent += chunk.len() as u64;
        assert_eq!(last_ack, sent);
    }
    daemon.sigkill();
    // The dead daemon's socket surfaces as an error on the next use.
    assert!(client.send_updates(&updates[kill_at..kill_at + 1]).is_err(), "daemon is gone");

    // Restart on a fresh port; the old state directory is the contract.
    let resumed = spawn_daemon(&serve_args(state.path(), true)).expect("respawn daemon");
    let mut client = connect(&resumed.addr);

    // Ack soundness: everything promised survived; nothing unsent
    // appeared.
    let recovered = client.acked();
    assert!(
        recovered >= last_ack,
        "acked updates lost in the crash: promised {last_ack}, recovered {recovered}"
    );
    assert!(recovered <= sent, "recovered {recovered} updates but only {sent} were ever sent");

    // Bit-identical recovery: the resumed daemon answers exactly like a
    // fresh system fed the first `recovered` updates.
    let expected = baseline(&updates[..recovered as usize]);
    assert_matches_baseline(&mut client, &expected, "post-SIGKILL resume");

    // The recovered daemon is a fully live daemon: finish the stream and
    // check the final answer too.
    for chunk in updates[recovered as usize..].chunks(BATCH) {
        client.send_updates(chunk).expect("post-resume batch");
    }
    let expected_full = baseline(&updates);
    assert_matches_baseline(&mut client, &expected_full, "post-resume completion");
    match client.shutdown() {
        Ok(()) | Err(ClientError::Link(_)) => {}
        Err(e) => panic!("goodbye failed: {e}"),
    }

    let (status, summary) = resumed.sigterm_and_wait();
    assert!(status.success(), "resumed daemon exited {status}: {summary}");
    assert!(summary.contains("updates acked"), "missing shutdown summary: {summary}");
}

#[test]
fn sigterm_checkpoints_everything_and_exits_cleanly() {
    let state = gz_testutil::TempDir::new("gz-serve-term");
    let updates = edge_stream(NODES as u32, stream_len() / 2, 13);

    let daemon = match spawn_daemon(&serve_args(state.path(), false)) {
        Err(e) => {
            eprintln!("skipping serve chaos test: cannot spawn gz processes: {e}");
            return;
        }
        Ok(d) => d,
    };
    let mut client = connect(&daemon.addr);
    for chunk in updates.chunks(BATCH) {
        client.send_updates(chunk).expect("batch");
    }
    client.shutdown().expect("goodbye");

    let (status, summary) = daemon.sigterm_and_wait();
    assert!(status.success(), "daemon exited {status}: {summary}");
    assert!(
        summary.contains(&format!("{} updates acked", updates.len())),
        "summary does not account for every update: {summary}"
    );

    // Graceful shutdown loses nothing: the resume acks every update and
    // answers bit-identically.
    let resumed = spawn_daemon(&serve_args(state.path(), true)).expect("respawn daemon");
    let mut client = connect(&resumed.addr);
    assert_eq!(client.acked(), updates.len() as u64, "graceful shutdown must lose nothing");
    let expected = baseline(&updates);
    assert_matches_baseline(&mut client, &expected, "post-SIGTERM resume");
    client.shutdown().expect("goodbye");

    let (status, summary) = resumed.sigterm_and_wait();
    assert!(status.success(), "resumed daemon exited {status}: {summary}");
}
