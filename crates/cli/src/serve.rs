//! `gz serve` — a crash-safe long-running front door (DESIGN.md §15).
//!
//! One resident [`ShardedGraphZeppelin`] serves many concurrent TCP or
//! Unix-socket clients speaking the wire protocol's front-door dialect
//! (`ClientHello`/`UpdateBatch`/`Query`, wire v7). The daemon's robustness
//! contract:
//!
//! - **Backpressure, not collapse.** Ingest flows through the shard
//!   pipelines' bounded gutter work queues; when they are full the
//!   *ingesting* connection blocks inside its own `UpdateBatch` round trip.
//!   No socket I/O ever happens under the ingest lock, so a slow or hung
//!   client cannot stall anyone else's replies.
//! - **Admission control.** Past `--max-clients`, new connections get a
//!   typed `Busy` frame and are dropped instead of being accepted and
//!   starved.
//! - **Deadlines.** Per-connection read/write timeouts
//!   ([`TransportTimeouts`]) turn half-open peers and stalled readers into
//!   clean connection kills instead of pinned serve threads.
//! - **Malformed frames kill the offender only.** A garbage frame or
//!   protocol violation gets a best-effort `ErrorReply` and the connection
//!   dies; the daemon keeps serving everyone else.
//! - **Durability.** With `--dir`, every acked batch is first fsynced to an
//!   [`UpdateWal`]; a background thread periodically cuts versioned shard
//!   checkpoint rounds ([`ShardedGraphZeppelin::checkpoint_shards_to`]) and
//!   flips a [`ServeManifest`] atomically, then rotates the WAL. Restart
//!   with `--resume` restores the manifest's round and replays the WAL
//!   tail: every acked update is recovered, bit-identically, because the
//!   sketches are linear and the WAL is replayed in append order on top of
//!   a checkpoint that covers exactly the updates before it.
//! - **Graceful shutdown.** SIGINT/SIGTERM (or
//!   [`ServeHandle::shutdown`]) stops admissions, force-closes clients,
//!   cuts one final checkpoint round, and exits 0.
//!
//! Queries run on sealed epochs ([`ShardedGraphZeppelin::begin_epoch`]) so
//! they overlap ingestion from other connections; an epoch is reused while
//! it lags fewer than `--staleness` acked updates.

use graph_zeppelin::{
    GraphDigest, GzError, Link, LinkError, ServeManifest, ShardConfig, ShardedEpoch,
    ShardedGraphZeppelin, Stream, TransportErrorKind, TransportTimeouts, UpdateWal,
};
use gz_gutters::ServeStats;
use gz_stream::wire::{QueryAnswer, QueryKind, WireMessage, WireUpdate};
use std::collections::HashMap;
use std::fs::{File, TryLockError};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeListen {
    /// TCP `host:port` (port 0 picks a free port).
    Tcp(String),
    /// Unix domain socket path.
    Unix(PathBuf),
}

/// Everything `gz serve` needs, parsed or constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub listen: ServeListen,
    /// Vertex universe size.
    pub nodes: u64,
    /// Shard count of the resident system.
    pub shards: u32,
    /// Master seed.
    pub seed: u64,
    /// Graph Workers per shard (default 2, capped at the host's available
    /// parallelism).
    pub workers: usize,
    /// Admission limit: connections past this are shed with `Busy`.
    pub max_clients: u32,
    /// Durability directory (`None` = in-memory only, nothing survives).
    pub dir: Option<PathBuf>,
    /// Resume from existing state under `dir`.
    pub resume: bool,
    /// Background checkpoint period in milliseconds.
    pub checkpoint_ms: u64,
    /// Per-connection read/write deadline in milliseconds (`None` = block
    /// forever).
    pub timeout_ms: Option<u64>,
    /// Reuse a sealed query epoch while it lags at most this many acked
    /// updates (0 = reseal whenever anything new was acked).
    pub staleness: u64,
    /// Print per-connection counters in the shutdown summary.
    pub stats: bool,
}

impl ServeOptions {
    /// Defaults for everything but the listen address and universe size.
    pub fn new(listen: ServeListen, nodes: u64) -> ServeOptions {
        ServeOptions {
            listen,
            nodes,
            shards: 1,
            seed: graph_zeppelin::config::DEFAULT_SEED,
            workers: crate::default_workers(),
            max_clients: 64,
            dir: None,
            resume: false,
            checkpoint_ms: 1000,
            timeout_ms: Some(30_000),
            staleness: 0,
            stats: false,
        }
    }

    fn timeouts(&self) -> TransportTimeouts {
        match self.timeout_ms {
            // 0 = explicit "no deadline".
            None | Some(0) => TransportTimeouts::default(),
            Some(ms) => TransportTimeouts::all(Duration::from_millis(ms)),
        }
    }

    /// The manifest of a state directory whose round `round` covers
    /// `covered` acked updates of this daemon's universe, whose graph
    /// digest is `graph`.
    fn manifest(&self, round: u64, covered: u64, graph: GraphDigest) -> ServeManifest {
        let (num_nodes, seed, num_shards) = (self.nodes, self.seed, self.shards);
        ServeManifest { round, covered, num_nodes, seed, num_shards, graph }
    }
}

// ---------------------------------------------------------------------------
// The listener (TCP or Unix, one code path)
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(listen: &ServeListen) -> Result<Listener, GzError> {
        match listen {
            ServeListen::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            ServeListen::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    // `bind(2)` says EADDRINUSE for *any* existing path,
                    // whether or not a process still listens on it. So ask
                    // the path: a live daemon takes the connection, and
                    // only the inode a SIGKILLed one left behind refuses
                    // it — that one is replaced.
                    Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                        match UnixStream::connect(path) {
                            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
                            _ => {
                                return Err(GzError::InvalidConfig(format!(
                                    "{} is in use: another process is listening on it",
                                    path.display()
                                )));
                            }
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    bound => bound?,
                };
                Ok(Listener::Unix(listener, path.clone()))
            }
        }
    }

    /// The next client, with the connection deadlines installed.
    fn accept(&self, timeouts: &TransportTimeouts) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => Stream::tcp(l.accept()?.0, timeouts),
            Listener::Unix(l, _) => Stream::unix(l.accept()?.0, timeouts),
        }
    }

    /// The address clients should dial, as announced on stdout.
    fn addr(&self) -> String {
        match self {
            Listener::Tcp(l) => {
                l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_string())
            }
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// Poke the accept loop awake (used once, at shutdown).
    fn wake(&self) {
        match self {
            Listener::Tcp(l) => {
                if let Ok(addr) = l.local_addr() {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
            }
            Listener::Unix(_, path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

impl Drop for Listener {
    /// The socket file goes with the listener that created it — at
    /// shutdown, and when the daemon fails to start after binding.
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Durability state
// ---------------------------------------------------------------------------

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("serve.manifest")
}

fn wal_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("serve-wal-{round}.gzw"))
}

/// The round's shard checkpoint files. The `.gzs2` suffix names the kind
/// they had when the layout was set; it stays so older state directories
/// still resume.
fn shard_paths(dir: &Path, round: u64, shards: u32) -> Vec<PathBuf> {
    (0..shards).map(|i| dir.join(format!("serve-round-{round}-shard-{i}.gzs2"))).collect()
}

/// Best-effort removal of shard/WAL files from rounds other than `keep`:
/// leftovers of a crash between writing a round's files and flipping the
/// manifest (or between the flip and the old round's cleanup).
fn prune_stale_rounds(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let keep_wal = wal_path(dir, keep);
    let keep_prefix = format!("serve-round-{keep}-");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_round = name.starts_with("serve-round-") && !name.starts_with(&keep_prefix);
        let stale_wal =
            name.starts_with("serve-wal-") && entry.path() != keep_wal && name.ends_with(".gzw");
        if stale_round || stale_wal {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Take `dir` for this process: an exclusive lock on `dir/LOCK`, held for
/// the daemon's life. A second daemon pointed at the same directory would
/// replay — and truncate the torn tail of — the WAL the first is appending
/// to. The kernel drops the lock with the process, however it dies.
fn lock_dir(dir: &Path) -> Result<File, GzError> {
    std::fs::create_dir_all(dir)?;
    let lock = File::create(dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(TryLockError::WouldBlock) => Err(GzError::InvalidConfig(format!(
            "{} is in use by a running gz serve (its LOCK file is held)",
            dir.display()
        ))),
        Err(TryLockError::Error(e)) => Err(e.into()),
    }
}

/// The daemon's durability state, always mutated under the ingest lock.
struct Durability {
    /// The directory's [`lock_dir`] lock.
    _lock: File,
    dir: PathBuf,
    wal: UpdateWal,
    /// Current checkpoint round (0 = only the WAL exists).
    round: u64,
    /// Acked updates the round's shard files cover.
    covered: u64,
}

/// Core mutable state: the resident system plus its WAL. One lock guards
/// both so WAL append order always equals sketch apply order. `None`
/// system means the daemon is shutting down.
struct IngestState {
    system: Option<ShardedGraphZeppelin>,
    durability: Option<Durability>,
    /// Checkpoint rounds cut so far (for the shutdown summary).
    rounds_cut: u64,
}

// ---------------------------------------------------------------------------
// Shared daemon state
// ---------------------------------------------------------------------------

struct ServeShared {
    ingest: Mutex<IngestState>,
    /// Updates acked so far. Written only under the ingest lock; read
    /// lock-free by queries and hello replies.
    acked: AtomicU64,
    /// Cached sealed epoch: `(epoch, acked at seal time)`. Taken alone or
    /// under the ingest lock, never the other way round.
    epoch_cache: Mutex<Option<(Arc<ShardedEpoch>, u64)>>,
    stats: Arc<ServeStats>,
    active: AtomicU32,
    shutting_down: AtomicBool,
    /// Clones of live client streams, for force-closing at shutdown.
    conns: Mutex<HashMap<u64, Stream>>,
    next_conn: AtomicU64,
    options: ServeOptions,
}

impl ServeShared {
    /// Durably log (when configured) and apply one validated batch.
    /// Returns the new acked count. Blocks on gutter backpressure — which
    /// blocks only this client's round trip, by design.
    fn apply_batch(&self, updates: &[WireUpdate]) -> Result<u64, GzError> {
        let mut ingest = self.ingest.lock().unwrap();
        let state = &mut *ingest;
        let Some(system) = state.system.as_mut() else {
            return Err(GzError::Protocol("daemon is shutting down".into()));
        };
        let tuples = updates.iter().map(|u| (u.u, u.v, u.is_delete));
        if let Some(d) = state.durability.as_mut() {
            d.wal.append_from(tuples.clone())?;
        }
        system.ingest(tuples)?;
        let acked = self.acked.load(Ordering::Relaxed) + updates.len() as u64;
        self.acked.store(acked, Ordering::Release);
        Ok(acked)
    }

    /// The acked update count and the graph digest of those updates, read
    /// together under the ingest lock. The digest's read flushes, and a
    /// stale cached epoch would make that flush copy a pre-image of every
    /// node it touches (DESIGN.md §11): it goes first, as in `query_epoch`.
    fn acked_digest(&self) -> Result<(u64, GraphDigest), GzError> {
        let mut ingest = self.ingest.lock().unwrap();
        let Some(system) = ingest.system.as_mut() else {
            return Err(GzError::Protocol("daemon is shutting down".into()));
        };
        if self.fresh_cached_epoch().is_none() {
            let stale = self.epoch_cache.lock().unwrap().take();
            drop(stale);
        }
        let graph = system.graph_digest()?;
        Ok((self.acked.load(Ordering::Relaxed), graph))
    }

    /// The cached epoch, if it lags at most `--staleness` acked updates.
    fn fresh_cached_epoch(&self) -> Option<Arc<ShardedEpoch>> {
        let acked = self.acked.load(Ordering::Acquire);
        let cache = self.epoch_cache.lock().unwrap();
        let (epoch, at) = cache.as_ref()?;
        (acked.saturating_sub(*at) <= self.options.staleness).then(|| Arc::clone(epoch))
    }

    /// The epoch queries should run on: the cached one while it is fresh
    /// enough, else a newly sealed one. Sealing holds the ingest lock;
    /// the query itself never does.
    fn query_epoch(&self) -> Result<Arc<ShardedEpoch>, GzError> {
        if let Some(epoch) = self.fresh_cached_epoch() {
            return Ok(epoch);
        }
        let mut ingest = self.ingest.lock().unwrap();
        // Another query may have resealed while this one waited for the lock.
        if let Some(epoch) = self.fresh_cached_epoch() {
            return Ok(epoch);
        }
        let Some(system) = ingest.system.as_mut() else {
            return Err(GzError::Protocol("daemon is shutting down".into()));
        };
        // Let go of the stale epoch *before* the seal's flush. Nobody can be
        // served from it again, and while the cache holds it every batch the
        // flush applies clones a pre-image into its overlay: a second copy
        // of the store per query. A query still folding it keeps its own
        // handle, and only then does the flush capture.
        let stale = self.epoch_cache.lock().unwrap().take();
        drop(stale);
        let sealed = Arc::new(system.begin_epoch()?);
        // `acked` cannot move while we hold the ingest lock.
        let at = self.acked.load(Ordering::Relaxed);
        *self.epoch_cache.lock().unwrap() = Some((Arc::clone(&sealed), at));
        Ok(sealed)
    }

    fn answer(&self, kind: QueryKind) -> Result<QueryAnswer, GzError> {
        let epoch = self.query_epoch()?;
        let outcome = epoch.spanning_forest()?;
        Ok(match kind {
            QueryKind::NumComponents => QueryAnswer::NumComponents(outcome.num_components() as u64),
            QueryKind::Components => QueryAnswer::Components(outcome.labels),
            QueryKind::SpanningForest => {
                QueryAnswer::SpanningForest(outcome.forest.iter().map(|e| (e.u(), e.v())).collect())
            }
        })
    }

    /// Cut one versioned checkpoint round if anything was acked since the
    /// last one. Ordering is the crash-safety argument: shard files land
    /// at *new* paths first, the manifest flip makes them current
    /// atomically, and only then is the WAL rotated and the old round
    /// removed. A crash anywhere leaves a consistent (round, WAL) pair
    /// covering at least every acked update.
    fn cut_round(&self) -> Result<bool, GzError> {
        let mut ingest = self.ingest.lock().unwrap();
        let state = &mut *ingest;
        let (Some(system), Some(d)) = (state.system.as_mut(), state.durability.as_mut()) else {
            return Ok(false);
        };
        let acked = self.acked.load(Ordering::Relaxed);
        if acked == d.covered {
            return Ok(false);
        }
        let next = d.round + 1;
        let shards = self.options.shards;
        system.checkpoint_shards_to(&shard_paths(&d.dir, next, shards))?;
        let graph = system.graph_digest()?;
        self.options.manifest(next, acked, graph).save(&manifest_path(&d.dir))?;
        d.wal = UpdateWal::create(&wal_path(&d.dir, next))?;
        for old in shard_paths(&d.dir, d.round, shards) {
            let _ = std::fs::remove_file(old);
        }
        let _ = std::fs::remove_file(wal_path(&d.dir, d.round));
        d.round = next;
        d.covered = acked;
        state.rounds_cut += 1;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Reject a batch before anything is logged or applied: the resident
/// system's invariants (`u != v`, both endpoints in range) must hold for
/// every update or the whole batch is refused.
fn validate_batch(updates: &[WireUpdate], num_nodes: u64) -> Result<(), String> {
    for u in updates {
        if u.u == u.v {
            return Err(format!("self-loop {}-{} rejected", u.u, u.v));
        }
        if u.u as u64 >= num_nodes || u.v as u64 >= num_nodes {
            return Err(format!(
                "vertex {} out of range (universe is {num_nodes} nodes)",
                u.u.max(u.v)
            ));
        }
    }
    Ok(())
}

/// Drive one admitted client connection until its goodbye (`Ok`) or its
/// failure: a link failure as the link classified it, and a protocol
/// violation, refused batch or failed request as `Malformed`, its detail
/// the `ErrorReply` the client is owed. The caller accounts for the end.
fn serve_client(shared: &ServeShared, link: &mut Link) -> Result<(), LinkError> {
    let refused = |what: &str, e: GzError| LinkError::malformed(format!("{what} failed: {e}"));
    match link.recv()? {
        WireMessage::ClientHello => {}
        other => {
            return Err(LinkError::malformed(format!(
                "expected ClientHello, got {}",
                other.name()
            )));
        }
    }
    let num_nodes = shared.options.nodes;
    let (acked, graph) = shared.acked_digest().map_err(|e| refused("hello", e))?;
    link.send(&WireMessage::ClientHelloAck { num_nodes, acked, graph: Box::new(graph) })?;
    loop {
        let reply = match link.recv()? {
            WireMessage::UpdateBatch { updates } => {
                validate_batch(&updates, num_nodes).map_err(LinkError::malformed)?;
                let acked = shared.apply_batch(&updates).map_err(|e| refused("ingest", e))?;
                WireMessage::UpdateAck { acked }
            }
            WireMessage::Query { kind } => {
                let answer = shared.answer(kind).map_err(|e| refused("query", e))?;
                WireMessage::QueryResult { answer }
            }
            // A client's clean goodbye.
            WireMessage::Shutdown => return Ok(()),
            other => {
                return Err(LinkError::malformed(format!(
                    "unexpected {} on a serve connection",
                    other.name()
                )));
            }
        };
        link.send(&reply)?;
    }
}

/// A connection's whole life on its own thread, and the one place its end
/// is accounted for: a missed deadline and a malformed-frame kill are
/// counted (the offender gets a typed last word, best-effort — it may
/// already be gone), a disconnect is not, and the link's traffic is folded
/// into the daemon's totals once.
fn run_connection(shared: &ServeShared, stream: Stream) {
    let mut link = Link::new(stream);
    if let Err(end) = serve_client(shared, &mut link) {
        match end.kind {
            TransportErrorKind::PeerGone => {}
            TransportErrorKind::Timeout => shared.stats.timed_out.add(1),
            TransportErrorKind::Malformed => {
                shared.stats.killed_malformed.add(1);
                let _ = link.send(&WireMessage::ErrorReply { message: end.detail });
            }
        }
    }
    shared.stats.record_link(link.stats());
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A running in-process daemon, as handed out by [`serve_start`]. Tests
/// and the load-generator bench drive it directly; the CLI wraps it with a
/// signal watcher.
pub struct ServeHandle {
    shared: Arc<ServeShared>,
    addr: String,
    listener_wake: Arc<Listener>,
    accept_thread: std::thread::JoinHandle<()>,
    checkpoint_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServeHandle {
    /// The address clients should dial (host:port, or a socket path).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Daemon-wide connection counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Client updates acked so far.
    pub fn acked(&self) -> u64 {
        self.shared.acked.load(Ordering::Acquire)
    }

    /// Connections currently admitted and not yet finished.
    pub fn active_clients(&self) -> u32 {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop admissions, force-close clients, cut one
    /// final checkpoint round, tear the resident system down. Returns the
    /// shutdown summary the CLI prints.
    pub fn shutdown(self) -> Result<String, GzError> {
        let shared = &self.shared;
        shared.shutting_down.store(true, Ordering::Release);
        self.listener_wake.wake();
        self.accept_thread.join().expect("accept thread panicked");
        if let Some(t) = self.checkpoint_thread {
            t.join().expect("checkpoint thread panicked");
        }
        // Wake every handler blocked in a socket read/write; they exit as
        // disconnects.
        for (_, conn) in shared.conns.lock().unwrap().iter() {
            let _ = conn.shutdown();
        }
        for handle in std::mem::take(&mut *self.handlers.lock().unwrap()) {
            handle.join().expect("connection handler panicked");
        }
        // Epochs release before the system shuts its transport down.
        *shared.epoch_cache.lock().unwrap() = None;
        // One final round so the durable state covers every acked update
        // without any WAL tail to replay.
        shared.cut_round()?;
        let (system, rounds) = {
            let mut ingest = shared.ingest.lock().unwrap();
            (ingest.system.take(), ingest.rounds_cut)
        };
        let mut out = format!(
            "serve shut down: {} updates acked, {rounds} checkpoint rounds",
            shared.acked.load(Ordering::Acquire),
        );
        if shared.options.stats {
            out.push_str(&format!("\nconnections: {}", shared.stats));
        }
        if let Some(mut system) = system {
            if shared.options.stats {
                // The block every `--stats` prints. Every seal and checkpoint
                // cut is a flush under the ingest lock: the ingest line's
                // `flush_ns_max` is the longest stall ingest has seen.
                out.push('\n');
                out.push_str(crate::stats_lines(&mut system)?.trim_end());
            }
            system.shutdown()?;
        }
        Ok(out) // the listener, and with it a Unix socket file, goes with `self`
    }
}

/// Build the resident system, recovering durable state when configured
/// (`lock` is the state directory's [`lock_dir`] lock). Returns the system,
/// its durability bookkeeping, and how many updates are already acked
/// (manifest coverage plus the replayed WAL tail).
fn build_system(
    options: &ServeOptions,
    lock: Option<File>,
) -> Result<(ShardedGraphZeppelin, Option<Durability>, u64), GzError> {
    let mut config = ShardConfig::in_ram(options.nodes, options.shards);
    config.seed = options.seed;
    config.workers_per_shard = options.workers;
    let mut system = ShardedGraphZeppelin::in_process(config)?;

    let Some((dir, lock)) = options.dir.as_ref().zip(lock) else { return Ok((system, None, 0)) };
    let manifest_file = manifest_path(dir);

    let (round, covered) = if manifest_file.exists() {
        if !options.resume {
            return Err(GzError::InvalidConfig(format!(
                "{} holds existing serve state; pass --resume to continue from it \
                 or point --dir elsewhere",
                dir.display()
            )));
        }
        let m = ServeManifest::load(&manifest_file)?;
        if m.num_nodes != options.nodes || m.seed != options.seed || m.num_shards != options.shards
        {
            return Err(GzError::InvalidConfig(format!(
                "serve state at {} was written for {} nodes / seed {:#x} / {} shards, \
                 not the requested {} / {:#x} / {}",
                dir.display(),
                m.num_nodes,
                m.seed,
                m.num_shards,
                options.nodes,
                options.seed,
                options.shards,
            )));
        }
        prune_stale_rounds(dir, m.round);
        if m.round > 0 {
            // Each file resumes its shard's graph digest; a legacy round's
            // files carry none, and the manifest's stands in for them.
            system.resume_shards_from(&shard_paths(dir, m.round, options.shards), Some(m.graph))?;
            system.restore_updates_ingested(m.covered);
        }
        (m.round, m.covered)
    } else {
        // Fresh state: publish round 0 immediately so a restart without
        // --resume is refused even before the first checkpoint.
        prune_stale_rounds(dir, 0);
        options.manifest(0, 0, GraphDigest::ZERO).save(&manifest_file)?;
        (0, 0)
    };

    // Replay the WAL tail on top of the round's state. The WAL was
    // validated at ingest time, so replay applies it verbatim.
    let mut tail: Vec<(u32, u32, bool)> = Vec::new();
    let (wal, replayed) = UpdateWal::recover(&wal_path(dir, round), &mut |u, v, d| {
        tail.push((u, v, d));
    })?;
    system.ingest(tail)?;
    let durability = Durability { _lock: lock, dir: dir.clone(), wal, round, covered };
    Ok((system, Some(durability), covered + replayed))
}

/// Start the daemon in this process and return a handle to it. The CLI
/// calls this and then waits for a signal; tests and benches drive the
/// handle directly.
pub fn serve_start(options: &ServeOptions) -> Result<ServeHandle, GzError> {
    // Both claims before any state is read: recovery replays and truncates
    // the WAL, which must not happen beside a daemon that is appending to
    // it, or on the way to an address that turns out to be taken.
    let lock = options.dir.as_deref().map(lock_dir).transpose()?;
    let listener = Arc::new(Listener::bind(&options.listen)?);
    let (system, durability, acked) = build_system(options, lock)?;
    let addr = listener.addr();

    let shared = Arc::new(ServeShared {
        ingest: Mutex::new(IngestState { system: Some(system), durability, rounds_cut: 0 }),
        acked: AtomicU64::new(acked),
        epoch_cache: Mutex::new(None),
        stats: Arc::new(ServeStats::new()),
        active: AtomicU32::new(0),
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
        options: options.clone(),
    });

    let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_thread = {
        let shared = Arc::clone(&shared);
        let listener = Arc::clone(&listener);
        let handlers = Arc::clone(&handlers);
        std::thread::spawn(move || accept_loop(&shared, &listener, &handlers))
    };

    let checkpoint_thread = if options.dir.is_some() {
        let shared = Arc::clone(&shared);
        let period = Duration::from_millis(options.checkpoint_ms.max(1));
        Some(std::thread::spawn(move || checkpoint_loop(&shared, period)))
    } else {
        None
    };

    Ok(ServeHandle {
        shared,
        addr,
        listener_wake: listener,
        accept_thread,
        checkpoint_thread,
        handlers,
    })
}

fn accept_loop(
    shared: &Arc<ServeShared>,
    listener: &Listener,
    handlers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    let timeouts = shared.options.timeouts();
    loop {
        let stream = match listener.accept(&timeouts) {
            _ if shared.shutting_down.load(Ordering::Acquire) => return,
            Ok(stream) => stream,
            // Transient accept failures (EMFILE, aborted handshakes) must
            // not kill the daemon.
            Err(_) => continue,
        };
        // Admission control: past the limit, answer Busy and drop —
        // never accept-then-starve. The reply happens off-thread so a
        // flood of connections cannot stall admission of legitimate ones,
        // and the client's hello is drained first: closing a socket with
        // unread data RSTs the Busy reply away.
        let (active, max_clients) =
            (shared.active.load(Ordering::Acquire), shared.options.max_clients);
        if active >= max_clients {
            shared.stats.shed.add(1);
            let stats = Arc::clone(&shared.stats);
            let busy = WireMessage::Busy { active, max_clients };
            std::thread::spawn(move || {
                let mut stream = stream;
                // A ClientHello is one bare 8-byte frame header.
                let mut hello = [0u8; 8];
                let _ = stream.read_exact(&mut hello);
                let mut link = Link::new(stream);
                let _ = link.send(&busy);
                stats.record_link(link.stats());
            });
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.stats.accepted.add(1);

        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let shared_for_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            run_connection(&shared_for_conn, stream);
            shared_for_conn.conns.lock().unwrap().remove(&conn_id);
            shared_for_conn.active.fetch_sub(1, Ordering::AcqRel);
        });
        // Join what finished since the last admission, so the vector holds
        // the live connections (at most `max_clients`), not every
        // connection the daemon ever served.
        let mut handlers = handlers.lock().unwrap();
        let (done, live): (Vec<_>, Vec<_>) =
            std::mem::take(&mut *handlers).into_iter().partition(|h| h.is_finished());
        *handlers = live;
        handlers.push(handle);
        for finished in done {
            finished.join().expect("connection handler panicked");
        }
    }
}

fn checkpoint_loop(shared: &ServeShared, period: Duration) {
    let step = Duration::from_millis(25).min(period);
    let mut elapsed = Duration::ZERO;
    loop {
        std::thread::sleep(step);
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        elapsed += step;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        if let Err(e) = shared.cut_round() {
            // Disk trouble must not take queries and ingest down with it;
            // the next period retries, and shutdown surfaces the error.
            eprintln!("gz serve: checkpoint round failed: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Signals (CLI path only)
// ---------------------------------------------------------------------------

/// SIGINT/SIGTERM handling via `signalfd(2)`, declared directly against
/// the libc ABI: the workspace has no `libc` crate, and these six symbols
/// are all it needs.
mod signals {
    use std::os::raw::{c_int, c_void};

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SigSet {
        bits: [u64; 16],
    }

    extern "C" {
        fn sigemptyset(set: *mut SigSet) -> c_int;
        fn sigaddset(set: *mut SigSet, signum: c_int) -> c_int;
        fn pthread_sigmask(how: c_int, set: *const SigSet, old: *mut SigSet) -> c_int;
        fn signalfd(fd: c_int, mask: *const SigSet, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const SIG_BLOCK: c_int = 0;
    /// Interactive interrupt (Ctrl-C).
    pub const SIGINT: c_int = 2;
    /// Termination request.
    pub const SIGTERM: c_int = 15;

    /// A file descriptor that becomes readable when SIGINT or SIGTERM
    /// arrives.
    pub struct SignalFd {
        fd: c_int,
    }

    /// Block SIGINT/SIGTERM process-wide and open a signalfd for them.
    /// Must run on the main thread *before* any other thread spawns, so
    /// every thread inherits the mask and the signal is only ever
    /// delivered through the fd.
    pub fn block_and_open() -> std::io::Result<SignalFd> {
        unsafe {
            let mut set = SigSet { bits: [0; 16] };
            if sigemptyset(&mut set) != 0
                || sigaddset(&mut set, SIGINT) != 0
                || sigaddset(&mut set, SIGTERM) != 0
            {
                return Err(std::io::Error::last_os_error());
            }
            if pthread_sigmask(SIG_BLOCK, &set, std::ptr::null_mut()) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            let fd = signalfd(-1, &set, 0);
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(SignalFd { fd })
        }
    }

    impl SignalFd {
        /// Block until a masked signal arrives; returns its number (the
        /// `ssi_signo` leading a 128-byte `signalfd_siginfo`).
        pub fn wait(&self) -> std::io::Result<c_int> {
            let mut info = [0u8; 128];
            let n = unsafe { read(self.fd, info.as_mut_ptr() as *mut c_void, info.len()) };
            if n < 4 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(i32::from_ne_bytes([info[0], info[1], info[2], info[3]]))
        }
    }

    impl Drop for SignalFd {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }
}

/// The CLI entry point: start the daemon, announce the bound address,
/// block until SIGINT/SIGTERM, then checkpoint and exit cleanly.
pub fn run_serve(options: ServeOptions) -> Result<String, String> {
    // Before any thread exists, so the mask is inherited everywhere.
    let signals = signals::block_and_open().map_err(|e| e.to_string())?;
    let handle = serve_start(&options).map_err(|e| e.to_string())?;
    // The exact "listening on " prefix scripts and the chaos harness parse.
    println!("gz serve listening on {}", handle.addr());
    std::io::stdout().flush().ok();

    let sig = signals.wait().map_err(|e| e.to_string())?;
    let name = match sig {
        signals::SIGINT => "SIGINT",
        signals::SIGTERM => "SIGTERM",
        _ => "signal",
    };
    eprintln!("gz serve: {name} received, checkpointing and shutting down");
    handle.shutdown().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;

    /// `--resume` on a state directory checkpointed by a daemon whose default
    /// was the paper's seven columns. There is no flag to ask for the old
    /// geometry, and reading seven-column files as three-column sketches
    /// would answer garbage: the daemon refuses to start, and the typed
    /// error shows both headers — the file's columns and this build's.
    #[test]
    fn resume_refuses_shard_files_written_at_another_column_count() {
        use graph_zeppelin::config::{DEFAULT_COLUMNS, PAPER_COLUMNS};
        let msg = resume_across_geometries(|old| old.num_columns = PAPER_COLUMNS);
        for columns in [PAPER_COLUMNS, DEFAULT_COLUMNS] {
            assert!(msg.contains(&format!("columns: {columns},")), "{msg}");
        }
    }

    /// The same for a state directory checkpointed by a daemon whose default
    /// was the paper's round budget: the files hold deeper stacks than this
    /// build's, and the typed error names both round counts.
    #[test]
    fn resume_refuses_shard_files_written_at_another_round_count() {
        use graph_zeppelin::config::{default_rounds, paper_rounds};
        let (paper, default) = (paper_rounds(32), default_rounds(32));
        assert_ne!(paper, default);
        let msg = resume_across_geometries(|old| old.num_rounds = Some(paper));
        for rounds in [paper, default] {
            assert!(msg.contains(&format!("rounds: {rounds},")), "{msg}");
        }
    }

    /// Checkpoint a 32-node state directory from a system whose config
    /// `old_default` changed, then `--resume` a default daemon on it: the
    /// daemon must refuse with [`GzError::InvalidConfig`], whose message is
    /// returned.
    fn resume_across_geometries(old_default: impl FnOnce(&mut ShardConfig)) -> String {
        const NODES: u64 = 32;
        let dir = gz_testutil::TempDir::new("gz-serve-geometry");
        let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), NODES);
        options.dir = Some(dir.path().to_path_buf());

        let mut old = ShardConfig::in_ram(NODES, options.shards);
        old.seed = options.seed;
        old_default(&mut old);
        let mut old = ShardedGraphZeppelin::in_process(old).expect("old system");
        old.ingest((1..NODES as u32).map(|v| (0, v, false))).expect("ingest");
        old.checkpoint_shards_to(&shard_paths(dir.path(), 1, options.shards)).expect("checkpoint");
        let graph = old.graph_digest().expect("graph digest");
        options.manifest(1, NODES - 1, graph).save(&manifest_path(dir.path())).expect("manifest");

        options.resume = true;
        let Err(err) = serve_start(&options) else { panic!("resumed across geometries") };
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err:?}");
        err.to_string()
    }

    /// `--resume` takes each shard's graph digest from its file — a
    /// manifest naming the empty digest does not move it — and the
    /// manifest's only for a legacy round, whose files carry none (the
    /// committed `GZS2` fixture: shard 0 of 1 at V = 16, default seed).
    #[test]
    fn resume_reads_the_graph_digest_from_the_shard_files() {
        const NODES: u64 = 16;
        let stream: Vec<(u32, u32, bool)> =
            (0..20u32).map(|i| ((i * 7 + 3) % 16, (i * i + 5 * i + 1) % 16, i % 5 == 4)).collect();
        let sent = GraphDigest::of_updates(stream.iter().copied(), NODES);
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy.gzs2");
        let expected = {
            let mut reference =
                ShardedGraphZeppelin::in_process(ShardConfig::in_ram(NODES, 1)).expect("reference");
            reference.ingest(stream.iter().copied()).expect("ingest");
            reference.connected_components().expect("labels")
        };
        for legacy in [false, true] {
            let dir = gz_testutil::TempDir::new("gz-serve-resume-digest");
            let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), NODES);
            options.dir = Some(dir.path().to_path_buf());
            let files = shard_paths(dir.path(), 1, options.shards);
            let manifest_graph = if legacy {
                std::fs::copy(&fixture, &files[0]).expect("legacy round");
                sent
            } else {
                let mut old = ShardConfig::in_ram(NODES, options.shards);
                old.seed = options.seed;
                let mut old = ShardedGraphZeppelin::in_process(old).expect("old system");
                old.ingest(stream.iter().copied()).expect("ingest");
                old.checkpoint_shards_to(&files).expect("checkpoint");
                GraphDigest::ZERO
            };
            let manifest = options.manifest(1, stream.len() as u64, manifest_graph);
            manifest.save(&manifest_path(dir.path())).expect("manifest");

            options.resume = true;
            let handle = serve_start(&options).expect("resume");
            let timeouts = TransportTimeouts::all(Duration::from_secs(5));
            let mut client = ServeClient::connect_tcp(handle.addr(), &timeouts).expect("connect");
            assert_eq!(client.acked(), stream.len() as u64, "legacy {legacy}");
            assert_eq!(client.hello_graph_digest(), sent, "legacy {legacy}");
            assert_eq!(client.query_components().expect("labels"), expected, "legacy {legacy}");
            // The next round's file counts the resumed updates and the new one.
            client.send_updates(&[(0, 1, false)]).expect("ack");
            client.shutdown().expect("goodbye");
            handle.shutdown().expect("daemon shutdown");
            let next = graph_zeppelin::checkpoint::read_checkpoint_header(
                &shard_paths(dir.path(), 2, options.shards)[0],
            );
            let updates = next.expect("round 2").updates_ingested;
            assert_eq!(updates, stream.len() as u64 + 1, "legacy {legacy}");
        }
    }

    fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !ok() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn ring(step: u32, nodes: u64) -> Vec<(u32, u32, bool)> {
        (0..nodes as u32).map(|v| (v, (v + step) % nodes as u32, false)).collect()
    }

    /// A daemon started beside a live one — same socket, same state
    /// directory, or either alone — must be refused before it touches
    /// anything: it used to replay (and truncate) the WAL the live daemon
    /// was appending to, then unlink its socket. The socket file a crashed
    /// daemon leaves behind is still replaced.
    #[test]
    fn a_second_daemon_cannot_take_a_live_daemons_socket_or_state() {
        const NODES: u64 = 32;
        let scratch = gz_testutil::TempDir::new("gz-serve-second");
        let sock = scratch.join("serve.sock");
        let mut options = ServeOptions::new(ServeListen::Unix(sock.clone()), NODES);
        options.dir = Some(scratch.join("state"));
        // No checkpoint round during the test: everything acked stays in
        // the WAL, which is what a second daemon would replay and truncate.
        options.checkpoint_ms = 600_000;
        let timeouts = TransportTimeouts::all(Duration::from_secs(5));
        let first = serve_start(&options).expect("first daemon");
        let mut client = ServeClient::connect_unix(&sock, &timeouts).expect("connect");
        assert_eq!(client.send_updates(&ring(1, NODES)).expect("ack"), NODES);

        let refused = |options: &ServeOptions, names: &Path| {
            let Err(err) = serve_start(options) else { panic!("a second daemon started") };
            assert!(matches!(err, GzError::InvalidConfig(_)), "{err:?}");
            assert!(err.to_string().contains(&names.display().to_string()), "{err}");
        };
        let state = options.dir.clone().unwrap();
        let mut second = options.clone();
        second.resume = true; // without it the manifest alone would refuse
        refused(&second, &state);
        second.listen = ServeListen::Unix(scratch.join("other.sock"));
        refused(&second, &state);
        second.listen = options.listen.clone();
        second.dir = Some(scratch.join("other-state"));
        refused(&second, &sock);

        // The first daemon never noticed: same socket, same acked count,
        // and its WAL still takes appends.
        assert_eq!(first.acked(), NODES);
        assert_eq!(client.send_updates(&ring(2, NODES)).expect("ack"), 2 * NODES);
        let fresh = ServeClient::connect_unix(&sock, &timeouts).expect("socket still there");
        assert_eq!(fresh.acked(), 2 * NODES);
        drop((client, fresh));
        first.shutdown().expect("clean shutdown");

        // What SIGKILL leaves: a bound path nobody listens on.
        drop(UnixListener::bind(&sock).expect("bind the stale inode"));
        assert!(sock.exists());
        options.resume = true;
        let resumed = serve_start(&options).expect("a stale socket file is replaced");
        let client = ServeClient::connect_unix(&sock, &timeouts).expect("connect");
        assert_eq!(client.acked(), 2 * NODES, "both batches recovered");
        drop(client);
        resumed.shutdown().expect("clean shutdown");
        assert!(!sock.exists(), "the socket file goes with its listener");
    }

    /// The accept loop used to keep every connection's `JoinHandle` until
    /// shutdown: a handle per connection ever served.
    #[test]
    fn finished_connections_are_joined_at_the_next_admission() {
        let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), 16);
        options.max_clients = 4;
        let handle = serve_start(&options).expect("start daemon");
        let timeouts = TransportTimeouts::all(Duration::from_secs(5));
        for _ in 0..64 {
            let client = ServeClient::connect_tcp(handle.addr(), &timeouts).expect("connect");
            client.shutdown().expect("goodbye");
            wait_until("the connection to retire", || handle.active_clients() == 0);
        }
        let held = handle.handlers.lock().unwrap().len();
        assert!(held <= options.max_clients as usize, "{held} handles held after 64 connections");
        assert_eq!(handle.stats().accepted(), 64);
        handle.shutdown().expect("clean shutdown");
    }

    /// `benchmark/src/serve.rs` reads the `connections:` line's tokens by
    /// name; this is the product-side pin of its shape, and of what the
    /// traffic counters count: whole frames, headers included.
    #[test]
    fn the_shutdown_summary_prints_every_counter_by_name() {
        let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), 16);
        options.stats = true;
        let handle = serve_start(&options).expect("start daemon");
        let timeouts = TransportTimeouts::all(Duration::from_secs(5));
        let mut client = ServeClient::connect_tcp(handle.addr(), &timeouts).expect("connect");
        client.send_updates(&[(0, 1, false), (1, 2, false)]).expect("ack");
        assert_eq!(client.query_num_components().expect("answer"), 14);
        client.shutdown().expect("goodbye");
        wait_until("the connection to retire", || handle.active_clients() == 0);

        let update = WireUpdate { u: 0, v: 1, is_delete: false };
        let sent = [
            WireMessage::ClientHello,
            WireMessage::UpdateBatch { updates: vec![update; 2] },
            WireMessage::Query { kind: QueryKind::NumComponents },
            WireMessage::Shutdown,
        ];
        let received = [
            WireMessage::ClientHelloAck { num_nodes: 16, acked: 0, graph: Box::default() },
            WireMessage::UpdateAck { acked: 2 },
            WireMessage::QueryResult { answer: QueryAnswer::NumComponents(14) },
        ];
        let bytes = |frames: &[WireMessage]| frames.iter().map(|m| m.frame_len()).sum::<usize>();
        let summary = handle.shutdown().expect("clean shutdown");
        let lines: Vec<&str> = summary.lines().collect();
        assert_eq!(lines[0], "serve shut down: 2 updates acked, 0 checkpoint rounds");
        assert_eq!(
            lines[1],
            format!(
                "connections: accepted=1 shed=0 killed_malformed=0 timed_out=0 frames_in=4 \
                 frames_out=3 bytes_in={} bytes_out={}",
                bytes(&sent),
                bytes(&received)
            )
        );
        // Then the block every `--stats` prints: the census of the one
        // in-process shard (always dense, in RAM, so no disk store line)...
        let params = graph_zeppelin::ShardConfig::in_ram(16, 1).params();
        assert_eq!(
            lines[2],
            format!(
                "representation: 16 promoted, 0 sparse (0 neighbor entries, 0 sparse bytes); \
                 sketch memory {} bytes",
                16 * params.node_sketch_resident_bytes()
            )
        );
        // ...the leaf gutters, emptied by the seal, their pool one slab of
        // 1024 chunks (64 record bytes and a 4-byte link each)...
        assert_eq!(lines[3], "gutters: records=0 pool_bytes=0 pool_peak_bytes=69632");
        // ...the query's seal, which found four records in three gutters...
        let flush = lines[4].strip_prefix("ingest: batches=3 records=4 flushes=1 flush_ns=");
        let (total, max) = flush.and_then(|f| f.split_once(" flush_ns_max=")).expect(lines[4]);
        assert_eq!(total, max, "one flush: its length is the longest");
        assert_eq!(lines[5], format!("sketch: kernel={}", params.kernel()));
        let graph = GraphDigest::of_updates([(0, 1, false), (1, 2, false)], 16);
        assert_eq!(lines[6], format!("graph digest: {graph}"));
        // ...and no recovery or link line: the shard has neither.
        assert_eq!(lines.len(), 7);
    }

    /// The serve dialect's half of the link contract (the shard dialect's
    /// is `a_shard_link_fails_in_the_links_three_kinds` in
    /// `sharding/transport.rs`): after a good hello, a read deadline, an
    /// EOF mid-frame and a bad magic end the connection as `Timeout`,
    /// `PeerGone` and `Malformed`.
    #[test]
    fn a_serve_connection_fails_in_the_links_three_kinds() {
        let options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), 16);
        let handle = serve_start(&options).expect("start daemon");
        let mut hello = Vec::new();
        WireMessage::ClientHello.write_to(&mut hello).unwrap();
        let cases: [(&[u8], TransportErrorKind); 3] = [
            (&[], TransportErrorKind::Timeout),
            (&hello[..5], TransportErrorKind::PeerGone),
            (b"HTTP/1.1", TransportErrorKind::Malformed),
        ];
        for (bytes, want) in cases {
            let (ours, mut theirs) = UnixStream::pair().unwrap();
            theirs.write_all(&hello).unwrap();
            theirs.write_all(bytes).unwrap();
            // Anything sent is followed by a hang-up (of the sending half:
            // the hello's ack must still be deliverable); nothing, by silence.
            if !bytes.is_empty() {
                theirs.shutdown(std::net::Shutdown::Write).unwrap();
            }
            let deadline = TransportTimeouts::all(Duration::from_millis(50));
            let mut link = Link::new(Stream::unix(ours, &deadline).unwrap());
            let end = serve_client(&handle.shared, &mut link).expect_err("no goodbye was sent");
            assert_eq!(end.kind, want, "{end}");
            assert_eq!(link.stats().frames_in(), 1, "only the hello was a frame");
            drop(theirs);
        }
        handle.shutdown().expect("clean shutdown");
    }

    /// `--staleness 0`: every query after an ack reseals. The cache must
    /// let go of the epoch it can no longer serve *before* the seal's flush,
    /// so that flush — a batch for every vertex here — clones no pre-image;
    /// only a query that still holds the old epoch makes it capture, and
    /// that query still gets the sealed bits.
    #[test]
    fn reseal_captures_nothing_unless_a_query_still_holds_the_old_epoch() {
        const NODES: u64 = 32;
        let ring = |step: u32| -> Vec<(u32, u32, bool)> {
            (0..NODES as u32).map(|v| (v, (v + step) % NODES as u32, false)).collect()
        };
        let mut options = ServeOptions::new(ServeListen::Tcp("127.0.0.1:0".into()), NODES);
        options.staleness = 0;
        options.timeout_ms = Some(5_000);
        let handle = serve_start(&options).expect("start daemon");
        let shared = Arc::clone(&handle.shared);
        let captures = || {
            let ingest = shared.ingest.lock().unwrap();
            ingest.system.as_ref().expect("daemon is up").epoch_captures().expect("captures")
        };
        let timeouts = TransportTimeouts::all(Duration::from_secs(5));
        let mut client = ServeClient::connect_tcp(handle.addr(), &timeouts).expect("connect");

        client.send_updates(&ring(1)).expect("ack");
        client.query_components().expect("first query seals the cached epoch");
        client.send_updates(&ring(2)).expect("ack");
        client.query_components().expect("second query reseals");
        assert_eq!(
            captures(),
            Some(0),
            "the reseal's flush captured pre-images for an epoch only the cache was holding"
        );

        // A query in flight elsewhere: the same epoch the cache is serving.
        let held = shared.query_epoch().expect("cached epoch");
        let sealed = held.spanning_forest().expect("sealed answer");
        client.send_updates(&ring(3)).expect("ack");
        client.query_components().expect("third query reseals under the held handle");
        assert_eq!(captures(), Some(NODES), "the held epoch captured every vertex once");
        let again = held.spanning_forest().expect("held epoch still answers");
        assert_eq!(again.labels, sealed.labels);
        assert_eq!(again.forest, sealed.forest);
        assert_eq!(again.rounds_used, sealed.rounds_used);
        assert_eq!(again.sketch_failures, sealed.sketch_failures);

        drop(held);
        client.shutdown().expect("goodbye");
        handle.shutdown().expect("clean shutdown");
    }
}
