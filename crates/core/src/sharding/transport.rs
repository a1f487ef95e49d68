//! Shard transports: how coordinator batches reach shard pipelines.
//!
//! The [`ShardTransport`] trait abstracts the coordinator/shard boundary so
//! the *same* coordinator code (router + gather + Boruvka) runs
//! single-process or multi-process:
//!
//! - [`InProcessTransport`] — shards are [`ShardPipeline`]s owned by the
//!   coordinator; "sending" a batch is a queue push, and a query folds the
//!   shards' stores in place ([`ShardTransport::local_views`]).
//! - [`SocketTransport`] — shards live behind framed [`Link`]s (over a
//!   [`Stream`], or any [`ShardLink`]) speaking the [`gz_stream::wire`]
//!   protocol; the remote end runs [`serve_shard_connection`]'s event loop.
//!
//! Every link starts with a `Hello`/`HelloAck` digest handshake: two sides
//! whose sketch parameters differ would produce unmergeable sketches, so
//! mismatches are refused before any batch flows.
//!
//! Fault tolerance (DESIGN.md §14) is a policy value on the one socket
//! transport, not a second transport: with a [`Recovery`] installed it
//! keeps a bounded [`ReplayLog`] of batches per shard, and when a link
//! fails with a *recoverable* [`LinkError`] (timeout or peer-gone) it
//! respawns the worker, resyncs from the worker's last checkpoint sequence,
//! and replays the missing tail. Because the sketches are linear (XOR),
//! replaying exactly the un-absorbed batches reproduces the lost state
//! bit-for-bit. Without a policy the same request path simply propagates
//! the typed error.

use crate::error::{GzError, LinkError};
use crate::sharding::link::{Link, ShardLink, Stream, TransportTimeouts};
use crate::sharding::router::ReplayLog;
use crate::sharding::{ShardConfig, ShardPipeline, ShardView};
use crate::store::SketchStore;
use gz_graph::GraphDigest;
pub use gz_gutters::ShardServeStats;
use gz_gutters::{Batch, CounterSet, LinkStats, RecoveryStats};
use gz_hash::SplitMix64;
use gz_stream::wire::{SketchEntry, WireMessage};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Retry policy and classified errors
// ---------------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter for reconnect /
/// respawn attempts. Jitter comes from [`SplitMix64`] keyed by
/// `jitter_seed`, the shard index, and the attempt number, so retry timing
/// is reproducible run-to-run (the same discipline as every other use of
/// randomness in this codebase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (at least 1 is always made).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub max: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Sleep before attempt `attempt` (0-based; attempt 0 never sleeps).
    /// The delay is `base * 2^(attempt-1)` capped at `max`, then jittered
    /// into `[delay/2, delay]` so a fleet of recovering coordinators does
    /// not stampede a respawning worker in lockstep.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        let delay = self.base.saturating_mul(1u32 << shift).min(self.max);
        let half = delay / 2;
        let span_ms = half.as_millis().max(1) as u64;
        let jitter = SplitMix64::derive(self.jitter_seed ^ salt, attempt as u64) % span_ms;
        half + Duration::from_millis(jitter)
    }

    /// Run `attempt` until it succeeds, at most `attempts` times (at least
    /// once), sleeping [`Self::backoff`] before each retry; `shard` salts
    /// the jitter. Returns the last error when every attempt fails — and a
    /// protocol violation at once: a digest mismatch or a resync gap will
    /// not heal by retrying, the deployment is misconfigured.
    fn retrying<T>(
        &self,
        shard: u32,
        mut attempt: impl FnMut() -> Result<T, GzError>,
    ) -> Result<T, GzError> {
        let mut last = None;
        for n in 0..self.attempts.max(1) {
            let pause = self.backoff(n, shard as u64);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            match attempt() {
                Err(e @ GzError::Protocol(_)) => return Err(e),
                Err(e) => last = Some(e),
                ok => return ok,
            }
        }
        Err(last.expect("at least one attempt is always made"))
    }
}

/// Write `msg` on shard `shard`'s link; a failure carries the shard index.
fn send_msg<S: Read + Write>(
    link: &mut Link<S>,
    shard: u32,
    msg: &WireMessage,
) -> Result<(), GzError> {
    link.send(msg).map_err(|e| e.on_shard(shard))
}

/// Read one frame from shard `shard`'s link, the same way.
fn recv_msg<S: Read + Write>(link: &mut Link<S>, shard: u32) -> Result<WireMessage, GzError> {
    link.recv().map_err(|e| e.on_shard(shard))
}

/// Classify a raw I/O failure (a dial, a `setsockopt`) on shard `shard`'s
/// link.
fn io_on_shard(shard: u32) -> impl Fn(std::io::Error) -> GzError {
    move |e| LinkError::from_io(&e).on_shard(shard)
}

/// True for errors a [`Recovery`] policy may heal by respawning the
/// worker: timeouts and dead peers. Malformed frames and protocol
/// violations are bugs, not outages — they propagate.
fn recoverable(err: &GzError) -> bool {
    matches!(err, GzError::Transport(te) if te.kind.is_recoverable())
}

/// A coordinator's view of its shards.
pub trait ShardTransport {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> u32;

    /// Nodes a group of each shard's sketch store, in shard order: the unit
    /// the router's leaf gutters emit in, so a paged store faults a group
    /// once for all of its nodes' batches. The default, one, is a
    /// transport that does not know its shards' stores.
    fn group_nodes(&self) -> Vec<u32> {
        vec![1; self.num_shards() as usize]
    }

    /// Ship a node-keyed batch to `shard`.
    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError>;

    /// Make every shipped batch visible in the shards' sketches (the
    /// distributed form of the paper's `cleanup()`).
    fn flush(&mut self) -> Result<(), GzError>;

    /// Flush every shard, then XOR their state digests
    /// ([`ShardPipeline::state_digest`]): 8 bytes a shard, equal to the
    /// digest of a single-node system fed the same stream.
    fn state_digest(&mut self) -> Result<u64, GzError>;

    /// Flush every shard, then XOR their graph digests
    /// ([`ShardPipeline::graph_digest`]): equal to the graph digest of a
    /// single-node system fed the same stream. The default refuses.
    fn graph_digest(&mut self) -> Result<GraphDigest, GzError> {
        Err(GzError::InvalidConfig("this transport does not report a graph digest".into()))
    }

    /// Collect only round `round`'s slice of every shard's sketches — the
    /// query's gather unit, collected ([`Self::gather_round_each`] is the
    /// form that folds as replies arrive). The coordinator holds at most
    /// one round of the universe at a time. With `epochs = None` each shard
    /// flushes and answers from its live sketches; with `Some(ids)` shard
    /// `i` answers from its sealed epoch `ids[i]` **without** flushing, so
    /// the gather runs concurrently with ingestion (DESIGN.md §11).
    fn gather_round(
        &mut self,
        round: u32,
        epochs: Option<&[u64]>,
    ) -> Result<Vec<SketchEntry>, GzError> {
        let mut entries = Vec::new();
        self.gather_round_each(round, epochs, &mut |reply| {
            entries.extend(reply);
            Ok(())
        })?;
        Ok(entries)
    }

    /// Gather round `round` with overlap: issue the request to every shard
    /// up front, then invoke `on_reply` once per shard's reply *as it
    /// arrives*, so the coordinator folds one shard's slices while the
    /// others are still serializing or transmitting theirs. An error from
    /// `on_reply` stops folding and is returned (remaining shards are still
    /// drained where the transport needs it for framing sanity). `epochs`
    /// pins the gather exactly as in [`Self::gather_round`].
    fn gather_round_each(
        &mut self,
        round: u32,
        epochs: Option<&[u64]>,
        on_reply: &mut dyn FnMut(Vec<SketchEntry>) -> Result<(), GzError>,
    ) -> Result<(), GzError>;

    /// The shards' stores, when they live in this process: one
    /// [`ShardView`] per shard, live (`epochs = None`; flush first) or as
    /// sealed epoch `epochs[i]`. A coordinator that gets views folds every
    /// round of the query straight from them — nothing is serialized,
    /// validated or deserialized, and the transport is not asked again. The
    /// default, `None`, is every transport whose shards are elsewhere:
    /// their queries gather ([`Self::gather_round_each`]).
    fn local_views(&self, _epochs: Option<&[u64]>) -> Result<Option<Vec<ShardView>>, GzError> {
        Ok(None)
    }

    /// Seal one epoch on every shard — each shard flushes its pipeline and
    /// freezes the sealed state behind copy-on-write — and return the
    /// per-shard epoch ids, indexed by shard. The ids are what epoch-pinned
    /// gathers and [`Self::release_epoch`] quote back.
    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError>;

    /// Release previously sealed epochs (`epochs[i]` on shard `i`), letting
    /// each shard reclaim its copy-on-write captures. Idempotent: releasing
    /// an already-released id is not an error.
    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError>;

    /// Ask every shard to durably checkpoint its owned sketch state, and
    /// return the per-shard batch sequence numbers the checkpoints cover
    /// (indexed by shard). Shards in this process write `updates_ingested`,
    /// the coordinator's count, into their headers; a worker behind a link
    /// writes 0. Transports that track a replay log prune it here.
    fn checkpoint_shards(&mut self, updates_ingested: u64) -> Result<Vec<u64>, GzError>;

    /// Durably checkpoint every shard's owned state to `paths[i]` (one path
    /// per shard), overriding any cadence-configured destination. `gz
    /// serve` uses this to write *versioned* checkpoint rounds: each round
    /// lands at fresh paths, and only after every shard file is complete
    /// does a manifest flip make the round current — so a crash mid-round
    /// can never mix old and new shard state. `updates_ingested` is as in
    /// [`Self::checkpoint_shards`]. The default refuses: a transport must
    /// opt in.
    fn checkpoint_shards_to(
        &mut self,
        _paths: &[std::path::PathBuf],
        _updates_ingested: u64,
    ) -> Result<Vec<u64>, GzError> {
        Err(GzError::InvalidConfig(
            "this transport does not support targeted shard checkpoints".into(),
        ))
    }

    /// Restore every shard's owned state and graph digest from `paths[i]`,
    /// validating each file's topology header against the shard it lands
    /// on. Returns the per-shard sequence numbers the restored state
    /// covers. Legacy files carry no graph digest: `legacy_graph` is the
    /// fleet's, recorded beside them, and `None` refuses them
    /// ([`ShardPipeline::resume_from`]). The default refuses.
    fn resume_shards_from(
        &mut self,
        _paths: &[std::path::PathBuf],
        _legacy_graph: Option<GraphDigest>,
    ) -> Result<Vec<u64>, GzError> {
        Err(GzError::InvalidConfig("this transport does not support shard resume".into()))
    }

    /// Recovery counters, if this transport keeps them (a
    /// [`SocketTransport`] with a [`Recovery`] policy does; the others
    /// return `None`).
    fn recovery_stats(&self) -> Option<Arc<RecoveryStats>> {
        None
    }

    /// Frames and bytes exchanged with the shards so far, summed over
    /// their links (`None` when the shards are in this process).
    fn link_stats(&self) -> Option<LinkStats> {
        None
    }

    /// Tear the shards down.
    fn shutdown(&mut self) -> Result<(), GzError>;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// All shards in this process: the single-process deployment, now expressed
/// as a transport so it shares every line of coordinator code with the
/// multi-process one.
pub struct InProcessTransport {
    shards: Vec<ShardPipeline>,
}

impl InProcessTransport {
    /// Build `config.num_shards` pipelines in this process.
    pub fn new(config: &ShardConfig) -> Result<Self, GzError> {
        let shards = (0..config.num_shards)
            .map(|i| ShardPipeline::new(config, i))
            .collect::<Result<Vec<_>, GzError>>()?;
        Ok(InProcessTransport { shards })
    }

    /// Shard `index`'s sketch store.
    pub(crate) fn store(&self, index: u32) -> &Arc<SketchStore> {
        self.shards[index as usize].store()
    }
}

impl ShardTransport for InProcessTransport {
    fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    fn group_nodes(&self) -> Vec<u32> {
        self.shards.iter().map(|shard| shard.store().group_size()).collect()
    }

    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError> {
        self.shards[shard as usize].enqueue(batch.node, batch.others)
    }

    fn flush(&mut self) -> Result<(), GzError> {
        for shard in &self.shards {
            shard.flush();
        }
        Ok(())
    }

    fn state_digest(&mut self) -> Result<u64, GzError> {
        self.shards.iter().try_fold(0, |digest, shard| Ok(digest ^ shard.state_digest()?))
    }

    fn graph_digest(&mut self) -> Result<GraphDigest, GzError> {
        Ok(self
            .shards
            .iter()
            .fold(GraphDigest::ZERO, |digest, shard| digest.xor(&shard.graph_digest())))
    }

    fn gather_round_each(
        &mut self,
        round: u32,
        epochs: Option<&[u64]>,
        on_reply: &mut dyn FnMut(Vec<SketchEntry>) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        check_epochs(epochs, self.shards.len())?;
        // Serial, shard by shard: queries fold in place through
        // `local_views`, so only tests still serialize an in-process
        // shard's round.
        for (i, shard) in self.shards.iter().enumerate() {
            on_reply(shard.gather_round(round as usize, epochs.map(|ids| ids[i]))?)?;
        }
        Ok(())
    }

    fn local_views(&self, epochs: Option<&[u64]>) -> Result<Option<Vec<ShardView>>, GzError> {
        check_epochs(epochs, self.shards.len())?;
        let views = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| shard.view(epochs.map(|ids| ids[i])))
            .collect::<Result<Vec<_>, GzError>>()?;
        Ok(Some(views))
    }

    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        self.shards.iter().map(|shard| shard.seal_epoch()).collect()
    }

    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError> {
        check_epochs(Some(epochs), self.shards.len())?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.release_epoch(epochs[i]);
        }
        Ok(())
    }

    fn checkpoint_shards(&mut self, updates_ingested: u64) -> Result<Vec<u64>, GzError> {
        self.shards.iter().map(|shard| shard.save_checkpoint(updates_ingested)).collect()
    }

    fn checkpoint_shards_to(
        &mut self,
        paths: &[std::path::PathBuf],
        updates_ingested: u64,
    ) -> Result<Vec<u64>, GzError> {
        check_paths("checkpoint_shards_to", paths, self.shards.len())?;
        self.shards
            .iter()
            .zip(paths)
            .map(|(shard, path)| {
                shard.set_checkpoint_path(path.clone());
                shard.save_checkpoint(updates_ingested)
            })
            .collect()
    }

    /// A legacy fleet digest goes to shard 0, the others take nothing:
    /// only the XOR is read.
    fn resume_shards_from(
        &mut self,
        paths: &[std::path::PathBuf],
        legacy_graph: Option<GraphDigest>,
    ) -> Result<Vec<u64>, GzError> {
        check_paths("resume_shards_from", paths, self.shards.len())?;
        let legacy = |i: usize| legacy_graph.map(|g| if i == 0 { g } else { GraphDigest::ZERO });
        let shards = self.shards.iter().zip(paths).enumerate();
        shards.map(|(i, (shard, path))| shard.resume_from(path, legacy(i))).collect()
    }

    fn shutdown(&mut self) -> Result<(), GzError> {
        self.shards.clear(); // Drop closes queues and joins workers.
        Ok(())
    }
}

/// An epoch-pinned request must carry exactly one epoch id per shard.
fn check_epochs(epochs: Option<&[u64]>, num_shards: usize) -> Result<(), GzError> {
    match epochs {
        Some(ids) if ids.len() != num_shards => {
            Err(GzError::Protocol(format!("{} epoch ids for {num_shards} shards", ids.len())))
        }
        _ => Ok(()),
    }
}

/// A targeted checkpoint or resume must name exactly one file per shard.
fn check_paths(what: &str, paths: &[std::path::PathBuf], num_shards: usize) -> Result<(), GzError> {
    if paths.len() != num_shards {
        return Err(GzError::InvalidConfig(format!(
            "{what} needs one path per shard: got {} for {num_shards} shards",
            paths.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Socket transport (with optional recovery: replay log + worker respawn)
// ---------------------------------------------------------------------------

/// What lets a [`SocketTransport`] survive worker death (DESIGN.md §14).
///
/// Every batch shipped to a shard is also appended to that shard's
/// [`ReplayLog`]; the log is pruned when the shard acknowledges a durable
/// checkpoint. When an operation fails with a recoverable
/// [`LinkError`] (timeout, peer gone), the transport calls the
/// `respawn` closure to obtain a fresh link to a restarted worker, runs the
/// `Hello` handshake, asks `Resync` — the worker answers with the batch
/// sequence its restored checkpoint covers — and replays exactly the logged
/// batches after that sequence. Linearity makes this sound: XOR updates
/// commute, and replaying only the un-absorbed tail reproduces the lost
/// state bit-for-bit. The interrupted operation is then re-issued on the
/// fresh link (once; a second failure propagates).
///
/// What recovery does **not** preserve: epochs sealed on a worker die with
/// it. An epoch-pinned gather that names a lost epoch fails on the respawned
/// worker too, so long-running epoch readers must tolerate
/// re-sealing after a crash.
pub struct Recovery<S> {
    /// Per-shard batches since the last acknowledged checkpoint (one log
    /// per link, sized by [`SocketTransport::with_recovery`]).
    logs: Vec<ReplayLog>,
    /// Produces a fresh, connected (but un-handshaken) link to shard `i` —
    /// respawning the worker process first if the deployment needs that.
    respawn: Box<dyn FnMut(u32) -> Result<S, GzError> + Send>,
    timeouts: TransportTimeouts,
    retry: RetryPolicy,
    stats: Arc<RecoveryStats>,
    /// Per-shard replay-log entry bound; exceeding it forces a checkpoint
    /// round so coordinator memory stays proportional to the checkpoint
    /// cadence, never the stream length.
    replay_log_cap: Option<usize>,
}

impl<S: ShardLink> Recovery<S> {
    /// `respawn(i)` must return a fresh connected link to a live worker for
    /// shard `i` (the transport runs the handshake and resync itself);
    /// `retry` bounds and paces the respawn attempts per failure.
    pub fn new(
        timeouts: TransportTimeouts,
        retry: RetryPolicy,
        respawn: Box<dyn FnMut(u32) -> Result<S, GzError> + Send>,
    ) -> Self {
        Recovery {
            logs: Vec::new(),
            respawn,
            timeouts,
            retry,
            stats: Arc::new(RecoveryStats::new()),
            replay_log_cap: None,
        }
    }

    /// Bound each shard's replay log to `cap` entries; exceeding the bound
    /// triggers an inline checkpoint round (which prunes the logs).
    pub fn with_replay_log_cap(mut self, cap: usize) -> Self {
        self.replay_log_cap = Some(cap.max(1));
        self
    }

    /// Replace shard `shard`'s dead link: respawn (with bounded, jittered
    /// backoff), handshake, resync, replay the missing tail. The fresh
    /// link carries the dead one's traffic counts forward.
    fn heal(&mut self, shard: u32, params_digest: u64, dead: &mut Link<S>) -> Result<(), GzError> {
        let retry = self.retry;
        let fresh = retry.retrying(shard, || {
            self.stats.reconnect_attempts.add(1);
            let mut link = Link::new((self.respawn)(shard)?);
            self.resync(shard, params_digest, &mut link)?;
            Ok(link)
        })?;
        fresh.stats().merge_from(dead.stats());
        *dead = fresh;
        Ok(())
    }

    /// Handshake + resync + replay on a fresh link (not yet installed).
    fn resync(
        &mut self,
        shard: u32,
        params_digest: u64,
        link: &mut Link<S>,
    ) -> Result<(), GzError> {
        link.stream().apply_timeouts(&self.timeouts).map_err(io_on_shard(shard))?;
        handshake_link(link, shard, params_digest)?;
        send_msg(link, shard, &WireMessage::Resync)?;
        let seq = match recv_msg(link, shard)? {
            WireMessage::ResyncFrom { seq } => seq,
            other => return Err(answered(shard, &WireMessage::Resync, &other)),
        };
        let log = &self.logs[shard as usize];
        if !log.covers(seq) {
            return Err(GzError::Protocol(format!(
                "shard {shard} resumed at seq {seq}, outside the replay log \
                 [{}, {}] — its checkpoint predates the last acknowledged one",
                log.next_seq() - log.len() as u64,
                log.next_seq()
            )));
        }
        let missing = log.next_seq() - seq;
        for batch in log.iter_from(seq) {
            send_msg(
                link,
                shard,
                &WireMessage::Batch { node: batch.node, records: batch.others.clone() },
            )?;
        }
        self.stats.record_replay(missing);
        Ok(())
    }
}

/// Shards behind byte streams speaking the wire protocol. Stream `i`
/// connects to the worker serving shard `i`. With a [`Recovery`] policy
/// installed ([`Self::with_recovery`]) a link that times out or loses its
/// peer is respawned and caught up instead of failing the operation.
pub struct SocketTransport<S: ShardLink> {
    links: Vec<Link<S>>,
    params_digest: u64,
    /// Each worker's `HelloAck` store groups, from the first handshake.
    group_nodes: Vec<u32>,
    recovery: Option<Recovery<S>>,
}

impl SocketTransport<Stream> {
    /// Connect to TCP shard workers at `addrs` (one per shard, in shard
    /// order) and run the parameter handshake. No deadlines, default retry
    /// — see [`Self::connect_tcp_with`] for the hardened form.
    pub fn connect_tcp(addrs: &[String], params_digest: u64) -> Result<Self, GzError> {
        Self::connect_tcp_with(
            addrs,
            params_digest,
            &TransportTimeouts::default(),
            &RetryPolicy::default(),
        )
    }

    /// Connect with explicit deadlines and a bounded retry policy: each
    /// link gets up to `retry.attempts` connection attempts with
    /// exponential backoff (a worker still binding its listener looks like
    /// `ConnectionRefused`), and the configured read/write timeouts are
    /// installed before the handshake.
    pub fn connect_tcp_with(
        addrs: &[String],
        params_digest: u64,
        timeouts: &TransportTimeouts,
        retry: &RetryPolicy,
    ) -> Result<Self, GzError> {
        let mut links = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            links.push(connect_shard_tcp(addr, i as u32, timeouts, retry)?);
        }
        Self::handshake(links, params_digest)
    }
}

/// Dial one shard worker over TCP with deadlines and bounded retry. Public
/// because respawn closures (the CLI's `--respawn` policy) dial single
/// shards the same way the initial [`SocketTransport::connect_tcp_with`]
/// does.
pub fn connect_shard_tcp(
    addr: &str,
    shard: u32,
    timeouts: &TransportTimeouts,
    retry: &RetryPolicy,
) -> Result<Stream, GzError> {
    retry.retrying(shard, || Stream::dial_tcp(addr, timeouts).map_err(io_on_shard(shard)))
}

/// What a digest refusal tells the operator to compare: the digest is all
/// the wire carries, so the message names its inputs.
const DIGEST_COVERS: &str = "the digest covers nodes, seed, rounds, sketch columns, shard count \
                             and wire version; both ends must be built with the same default \
                             geometry";

/// The `Hello`/`HelloAck` digest exchange on one link — at first connect
/// and again on every respawned link. Returns the worker's store groups.
fn handshake_link<S: Read + Write>(
    link: &mut Link<S>,
    shard: u32,
    params_digest: u64,
) -> Result<u32, GzError> {
    let hello = WireMessage::Hello { params_digest };
    send_msg(link, shard, &hello)?;
    match recv_msg(link, shard)? {
        WireMessage::HelloAck { params_digest: theirs, group_nodes } if theirs == params_digest => {
            Ok(group_nodes)
        }
        WireMessage::HelloAck { params_digest: theirs, .. } => Err(GzError::Protocol(format!(
            "shard {shard} parameter digest {theirs:#x} != coordinator {params_digest:#x} \
             ({DIGEST_COVERS})"
        ))),
        other => Err(answered(shard, &hello, &other)),
    }
}

/// The one "shard i answered X with Y" protocol error (round numbers
/// included where the messages carry them).
fn answered(shard: u32, request: &WireMessage, reply: &WireMessage) -> GzError {
    let describe = |msg: &WireMessage| match msg {
        WireMessage::GatherRound { round, .. } | WireMessage::RoundSketches { round, .. } => {
            format!("{}({round})", msg.name())
        }
        _ => msg.name().to_string(),
    };
    GzError::Protocol(format!(
        "shard {shard} answered {} with {}",
        describe(request),
        describe(reply)
    ))
}

impl<S: ShardLink> SocketTransport<S> {
    /// Take ownership of connected streams (one per shard, in shard order)
    /// and run the `Hello`/`HelloAck` handshake on each.
    pub fn handshake(links: Vec<S>, params_digest: u64) -> Result<Self, GzError> {
        let mut links: Vec<Link<S>> = links.into_iter().map(Link::new).collect();
        if links.is_empty() {
            return Err(GzError::InvalidConfig("need at least one shard link".into()));
        }
        let group_nodes = (0..)
            .zip(links.iter_mut())
            .map(|(i, link)| handshake_link(link, i, params_digest))
            .collect::<Result<_, GzError>>()?;
        Ok(SocketTransport { links, params_digest, group_nodes, recovery: None })
    }

    /// Install a recovery policy on an already-handshaken transport. Its
    /// timeouts are installed on the existing links immediately — a
    /// transport that can't detect a dead peer can't recover from one.
    /// Each shard's replay log starts at the batch sequence its worker
    /// answers `Resync` with: a worker that resumed a checkpoint already
    /// covers that many batches, and a respawned one resumes at or past it.
    pub fn with_recovery(mut self, mut recovery: Recovery<S>) -> Result<Self, GzError> {
        for (i, link) in self.links.iter_mut().enumerate() {
            link.stream().apply_timeouts(&recovery.timeouts).map_err(io_on_shard(i as u32))?;
        }
        self.request_all(false, &|_| WireMessage::Resync, &mut |reply| match reply {
            WireMessage::ResyncFrom { seq } => {
                recovery.logs.push(ReplayLog::starting_at(seq));
                Ok(())
            }
            other => Err(other),
        })?;
        self.recovery = Some(recovery);
        Ok(self)
    }

    /// The single recover-once-and-reissue step every read and write goes
    /// through: run `io` on `shard`'s link; if it fails recoverably, `heal`
    /// is set and a policy is present, replace the link with a respawned,
    /// caught-up one and run `io` once more — telling it the link is fresh,
    /// i.e. that the new worker has seen nothing of the request in flight.
    /// A second failure propagates.
    fn on_link<T>(
        &mut self,
        shard: usize,
        heal: bool,
        io: impl Fn(&mut Link<S>, bool) -> Result<T, GzError>,
    ) -> Result<T, GzError> {
        match (io(&mut self.links[shard], false), &mut self.recovery) {
            (Err(e), Some(recovery)) if heal && recoverable(&e) => {
                recovery.heal(shard as u32, self.params_digest, &mut self.links[shard])?;
                io(&mut self.links[shard], true)
            }
            (result, _) => result,
        }
    }

    /// One pipelined request/reply turn with every shard: all requests go
    /// out before any reply is read, so the shards work concurrently; the
    /// replies are then handed to `on_reply` in shard order, each as soon
    /// as its link delivers it. `on_reply` hands back a reply it does not
    /// accept, which becomes the [`answered`] protocol error.
    fn request_all(
        &mut self,
        heal: bool,
        request_for_shard: &dyn Fn(usize) -> WireMessage,
        on_reply: &mut dyn FnMut(WireMessage) -> Result<(), WireMessage>,
    ) -> Result<(), GzError> {
        let requests: Vec<WireMessage> = (0..self.links.len()).map(request_for_shard).collect();
        for (i, request) in requests.iter().enumerate() {
            self.on_link(i, heal, |link, _| send_msg(link, i as u32, request))?;
        }
        for (i, request) in requests.iter().enumerate() {
            let reply = self.on_link(i, heal, |link, fresh| {
                if fresh {
                    send_msg(link, i as u32, request)?;
                }
                recv_msg(link, i as u32)
            })?;
            on_reply(reply).map_err(|got| answered(i as u32, request, &got))?;
        }
        Ok(())
    }

    /// One `StateDigest` turn: the XORs of the shards' state digests and
    /// of their graph digests. A respawned worker reports the digest its
    /// checkpoint carried plus what it absorbed since.
    fn digests(&mut self) -> Result<(u64, GraphDigest), GzError> {
        let (mut digest, mut graphs) = (0, GraphDigest::ZERO);
        self.request_all(true, &|_| WireMessage::StateDigest, &mut |reply| match reply {
            WireMessage::StateDigestReply { digest: theirs, graph } => {
                digest ^= theirs;
                graphs.merge(&graph);
                Ok(())
            }
            other => Err(other),
        })?;
        Ok((digest, graphs))
    }
}

impl<S: ShardLink> ShardTransport for SocketTransport<S> {
    fn num_shards(&self) -> u32 {
        self.links.len() as u32
    }

    fn group_nodes(&self) -> Vec<u32> {
        self.group_nodes.clone()
    }

    fn send_batch(&mut self, shard: u32, batch: Batch) -> Result<(), GzError> {
        let link = &mut self.links[shard as usize];
        let Some(recovery) = &mut self.recovery else {
            let msg = WireMessage::Batch { node: batch.node, records: batch.others };
            return send_msg(link, shard, &msg);
        };
        // Log first: if the write fails, recovery's replay delivers the
        // batch (it is part of the tail), so no explicit retry is needed.
        // A "successful" write only proves the bytes entered a socket
        // buffer — the log keeps the batch until a checkpoint proves the
        // worker absorbed it durably.
        let msg = WireMessage::Batch { node: batch.node, records: batch.others.clone() };
        let log = &mut recovery.logs[shard as usize];
        log.append(batch);
        let over_cap = recovery.replay_log_cap.is_some_and(|cap| log.len() >= cap);
        match send_msg(link, shard, &msg) {
            Ok(()) => {}
            Err(e) if recoverable(&e) => recovery.heal(shard, self.params_digest, link)?,
            Err(e) => return Err(e),
        }
        if over_cap {
            self.checkpoint_shards(0)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), GzError> {
        self.request_all(true, &|_| WireMessage::Flush, &mut |reply| match reply {
            WireMessage::FlushAck => Ok(()),
            other => Err(other),
        })
    }

    fn state_digest(&mut self) -> Result<u64, GzError> {
        Ok(self.digests()?.0)
    }

    fn graph_digest(&mut self) -> Result<GraphDigest, GzError> {
        Ok(self.digests()?.1)
    }

    fn gather_round_each(
        &mut self,
        round: u32,
        epochs: Option<&[u64]>,
        on_reply: &mut dyn FnMut(Vec<SketchEntry>) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        check_epochs(epochs, self.links.len())?;
        // Keep reading even after a fold error: every link owes exactly
        // one reply, and leaving it unread would desynchronize the framing
        // for whatever the coordinator does next.
        let mut folded = Ok(());
        self.request_all(
            true,
            &|i| WireMessage::GatherRound { round, epoch: epochs.map(|ids| ids[i]) },
            &mut |reply| match reply {
                WireMessage::RoundSketches { round: theirs, entries } if theirs == round => {
                    if folded.is_ok() {
                        folded = on_reply(entries);
                    }
                    Ok(())
                }
                other => Err(other),
            },
        )?;
        folded
    }

    fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
        let mut ids = Vec::with_capacity(self.links.len());
        self.request_all(true, &|_| WireMessage::SealEpoch, &mut |reply| match reply {
            WireMessage::EpochSealed { epoch } => {
                ids.push(epoch);
                Ok(())
            }
            other => Err(other),
        })?;
        Ok(ids)
    }

    fn release_epoch(&mut self, epochs: &[u64]) -> Result<(), GzError> {
        check_epochs(Some(epochs), self.links.len())?;
        // No recovery: a worker that died since sealing has already lost
        // the epoch, and respawning one just to release nothing would turn
        // every post-crash cleanup into a reconnect storm.
        self.request_all(false, &|i| WireMessage::ReleaseEpoch { epoch: epochs[i] }, &mut |reply| {
            match reply {
                WireMessage::EpochReleased => Ok(()),
                other => Err(other),
            }
        })
    }

    fn checkpoint_shards(&mut self, _updates_ingested: u64) -> Result<Vec<u64>, GzError> {
        // `CheckpointShard` is an in-stream frame, so each shard's
        // checkpoint covers exactly the batches framed before it — no
        // coordinator-side flush or barrier needed.
        let mut seqs = Vec::with_capacity(self.links.len());
        self.request_all(true, &|_| WireMessage::CheckpointShard, &mut |reply| match reply {
            WireMessage::CheckpointAck { seq } => {
                seqs.push(seq);
                Ok(())
            }
            other => Err(other),
        })?;
        if let Some(recovery) = &mut self.recovery {
            // Each checkpoint durably covers batches `..seq`; the replay
            // logs no longer need them.
            for (log, &seq) in recovery.logs.iter_mut().zip(&seqs) {
                log.prune_through(seq);
                recovery.stats.checkpoints.add(1);
            }
        }
        Ok(seqs)
    }

    fn recovery_stats(&self) -> Option<Arc<RecoveryStats>> {
        self.recovery.as_ref().map(|recovery| Arc::clone(&recovery.stats))
    }

    fn link_stats(&self) -> Option<LinkStats> {
        let total = LinkStats::new();
        self.links.iter().for_each(|link| total.merge_from(link.stats()));
        Some(total)
    }

    fn shutdown(&mut self) -> Result<(), GzError> {
        // Attempt every link even if some fail: a dead shard must not leave
        // its siblings waiting for a Shutdown that never arrives (their
        // serve loops block in read, and a coordinator joining worker
        // threads would hang forever). No recovery on the way out:
        // respawning a worker to tell it to shut down is pure churn.
        let mut first_err = None;
        for (i, link) in self.links.iter_mut().enumerate() {
            if let Err(e) = send_msg(link, i as u32, &WireMessage::Shutdown) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-worker event loop
// ---------------------------------------------------------------------------

/// Drive one coordinator connection over `link` against `pipeline`: the
/// shard-worker event loop. Returns when the coordinator sends `Shutdown`;
/// errors end the loop (and should end the worker — it has one coordinator,
/// and a link failure or protocol violation leaves nobody to serve).
pub fn serve_shard_connection<S: Read + Write>(
    link: &mut Link<S>,
    pipeline: &ShardPipeline,
    params_digest: u64,
) -> Result<ShardServeStats, GzError> {
    let stats = ShardServeStats::new();
    let index = pipeline.index();
    loop {
        let reply = match recv_msg(link, index)? {
            WireMessage::Hello { params_digest: theirs } => {
                // Always answer with our digest; a mismatched coordinator
                // sees the difference, and we refuse to ingest for it.
                let group_nodes = pipeline.store().group_size();
                send_msg(link, index, &WireMessage::HelloAck { params_digest, group_nodes })?;
                if theirs != params_digest {
                    return Err(GzError::Protocol(format!(
                        "coordinator digest {theirs:#x} != shard {params_digest:#x} \
                         ({DIGEST_COVERS})"
                    )));
                }
                continue;
            }
            WireMessage::Batch { node, records } => {
                stats.batches.add(1);
                stats.records.add(records.len() as u64);
                pipeline.enqueue(node, records)?;
                continue;
            }
            WireMessage::Flush => {
                stats.flushes.add(1);
                pipeline.flush();
                WireMessage::FlushAck
            }
            WireMessage::StateDigest => {
                stats.gathers.add(1);
                let digest = pipeline.state_digest()?;
                WireMessage::StateDigestReply { digest, graph: Box::new(pipeline.graph_digest()) }
            }
            WireMessage::GatherRound { round, epoch } => {
                stats.gathers.add(1);
                let entries = pipeline.gather_round(round as usize, epoch)?;
                WireMessage::RoundSketches { round, entries }
            }
            WireMessage::SealEpoch => {
                stats.seals.add(1);
                WireMessage::EpochSealed { epoch: pipeline.seal_epoch()? }
            }
            WireMessage::CheckpointShard => {
                stats.checkpoints.add(1);
                // Flushes, then persists atomically; the returned sequence
                // number tells the coordinator which replay-log prefix the
                // checkpoint makes redundant. A worker started without a
                // checkpoint path fails here — the coordinator should not
                // have asked.
                WireMessage::CheckpointAck { seq: pipeline.save_checkpoint(0)? }
            }
            // A recovering coordinator asks where we stand; we answer with
            // the batch count our restored state already covers so it
            // replays strictly after (replaying an absorbed batch would XOR
            // it out again).
            WireMessage::Resync => WireMessage::ResyncFrom { seq: pipeline.seq() },
            WireMessage::ReleaseEpoch { epoch } => {
                pipeline.release_epoch(epoch);
                WireMessage::EpochReleased
            }
            WireMessage::Shutdown => {
                // A clean goodbye must not silently drop the updates
                // absorbed since the last cadence checkpoint: when this
                // worker has a checkpoint destination configured, cut one
                // final checkpoint so a later `--resume` starts from the
                // state the coordinator last saw, not an older one.
                if pipeline.checkpoint_path().is_some() {
                    stats.checkpoints.add(1);
                    pipeline.save_checkpoint(0)?;
                }
                return Ok(stats);
            }
            other => {
                return Err(GzError::Protocol(format!(
                    "unexpected {} on a shard-worker connection",
                    other.name()
                )));
            }
        };
        send_msg(link, index, &reply)?;
    }
}

/// Join handle of a shard worker spawned by [`spawn_local_socket_workers`].
pub type LocalWorkerHandle = std::thread::JoinHandle<Result<ShardServeStats, GzError>>;

/// Spawn `config.num_shards` shard workers on local threads connected by
/// Unix socket pairs, and hand back the coordinator-side transport plus
/// the worker join handles. This exercises the *entire* wire path (framing,
/// handshake, event loop) without OS processes — the form the equivalence
/// suite uses; the multi-process example does the same over TCP with real
/// processes.
///
/// When `config.checkpoint_dir` is set and a shard's checkpoint file
/// already exists, the worker resumes from it before serving — the
/// thread-level analogue of `gz shard-worker --resume`.
pub fn spawn_local_socket_workers(
    config: &ShardConfig,
) -> Result<(SocketTransport<Stream>, Vec<LocalWorkerHandle>), GzError> {
    let digest = config.params_digest();
    let mut coordinator_ends = Vec::with_capacity(config.num_shards as usize);
    let mut handles = Vec::with_capacity(config.num_shards as usize);
    for index in 0..config.num_shards {
        let (ours, theirs) = UnixStream::pair()?;
        coordinator_ends.push(Stream::Unix(ours));
        let worker_config = config.clone();
        handles.push(std::thread::spawn(move || {
            let pipeline = new_pipeline_resuming(&worker_config, index)?;
            let mut link = Link::new(Stream::Unix(theirs));
            serve_shard_connection(&mut link, &pipeline, worker_config.params_digest())
        }));
    }
    let transport = SocketTransport::handshake(coordinator_ends, digest)?;
    Ok((transport, handles))
}

/// Build shard `index`'s pipeline, resuming from its configured checkpoint
/// file when one exists on disk. A missing file is a fresh start, not an
/// error; a present-but-corrupt file is.
pub fn new_pipeline_resuming(config: &ShardConfig, index: u32) -> Result<ShardPipeline, GzError> {
    let pipeline = ShardPipeline::new(config, index)?;
    if let Some(path) = pipeline.checkpoint_path() {
        if path.exists() {
            pipeline.resume_from(&path, None)?;
        }
    }
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportErrorKind;
    use crate::node_sketch::encode_other;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // -- fixtures ------------------------------------------------------------

    /// The one-record batch inserting edge `(node, other)` at `node`.
    fn edge(node: u32, other: u32) -> Batch {
        Batch { node, others: vec![encode_other(other, false)] }
    }

    /// A connected socket pair: the coordinator's end as the link it
    /// dials, the peer's end raw.
    fn pair() -> (Stream, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        (Stream::Unix(ours), theirs)
    }

    fn sorted(mut entries: Vec<SketchEntry>) -> Vec<SketchEntry> {
        entries.sort_by_key(|e| e.node);
        entries
    }

    /// A stream that injects a worker crash: after `budget` bytes have been
    /// read, every read fails. Dropping the stream (when the serve loop
    /// errors out) closes the socket — exactly what a SIGKILLed process
    /// does, minus the process.
    struct DyingStream {
        inner: UnixStream,
        budget: Arc<AtomicUsize>,
    }

    impl Read for DyingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.budget.load(Ordering::SeqCst);
            if left == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected worker crash",
                ));
            }
            let want = buf.len().min(left);
            let n = self.inner.read(&mut buf[..want])?;
            self.budget.fetch_sub(n, Ordering::SeqCst);
            Ok(n)
        }
    }

    impl Write for DyingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// A read budget no test exhausts: the worker lives until `Shutdown`.
    fn immortal() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(usize::MAX))
    }

    /// A real worker for shard `index` on a local thread, and the
    /// coordinator's end of its link. It resumes from the configured
    /// checkpoint like `gz shard-worker --resume`, and crashes once it has
    /// read `budget` bytes.
    fn spawn_worker(
        config: &ShardConfig,
        index: u32,
        budget: Arc<AtomicUsize>,
    ) -> (Stream, LocalWorkerHandle) {
        let (ours, theirs) = pair();
        let cfg = config.clone();
        let handle = std::thread::spawn(move || {
            let pipeline = new_pipeline_resuming(&cfg, index)?;
            let mut link = Link::new(DyingStream { inner: theirs, budget });
            serve_shard_connection(&mut link, &pipeline, cfg.params_digest())
        });
        (ours, handle)
    }

    /// Spawn a thread that answers the `Hello` handshake, then hands the
    /// stream to `after` (which decides how the "worker" misbehaves).
    fn handshake_then<F>(theirs: UnixStream, after: F) -> std::thread::JoinHandle<()>
    where
        F: FnOnce(UnixStream) + Send + 'static,
    {
        std::thread::spawn(move || {
            let mut stream = theirs;
            match WireMessage::read_from(&mut stream).unwrap() {
                WireMessage::Hello { params_digest } => {
                    let ack = WireMessage::HelloAck { params_digest, group_nodes: 1 };
                    ack.write_to(&mut stream).unwrap();
                }
                other => panic!("expected Hello, got {}", other.name()),
            }
            after(stream);
        })
    }

    /// Answer the `Resync` a recovery policy sends as it is installed, as a
    /// fresh worker would: at sequence 0.
    fn resynced(mut stream: UnixStream) -> UnixStream {
        assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Resync));
        WireMessage::ResyncFrom { seq: 0 }.write_to(&mut stream).unwrap();
        stream
    }

    /// A handshaken one-shard transport whose "worker" is
    /// [`handshake_then`]`(after)`.
    fn against<F>(after: F) -> (SocketTransport<Stream>, std::thread::JoinHandle<()>)
    where
        F: FnOnce(UnixStream) + Send + 'static,
    {
        let (ours, theirs) = pair();
        let worker = handshake_then(theirs, after);
        (SocketTransport::handshake(vec![ours], DIGEST).unwrap(), worker)
    }

    /// Any digest does for a scripted peer: it echoes what it is sent.
    const DIGEST: u64 = 0xD16E57;

    /// Swallow every request without answering, until EOF.
    fn stall(mut stream: UnixStream) {
        while WireMessage::read_from(&mut stream).is_ok() {}
    }

    /// Writes land in the socket buffer until the kernel notices the peer
    /// closed; keep sending until the failure surfaces.
    fn send_until_failure(transport: &mut dyn ShardTransport) -> GzError {
        (0..100_000u32)
            .find_map(|i| transport.send_batch(0, edge(i % 16, (i + 1) % 16)).err())
            .expect("a dead peer must fail sends")
    }

    /// `attempts` respawn attempts a millisecond or two apart.
    fn quick_retry(attempts: u32) -> RetryPolicy {
        let (base, max) = (Duration::from_millis(1), Duration::from_millis(2));
        RetryPolicy { attempts, base, max, ..RetryPolicy::default() }
    }

    fn assert_kind(err: GzError, want: TransportErrorKind, shard: u32, ctx: &str) {
        match err {
            GzError::Transport(te) => {
                assert_eq!(te.kind, want, "{ctx}: {te}");
                assert_eq!(te.shard, shard, "{ctx}: wrong shard index");
            }
            other => panic!("{ctx}: expected a transport error, got {other}"),
        }
    }

    /// An in-memory link: scripted reads, recorded writes.
    struct ScriptedLink {
        replies: std::io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl ScriptedLink {
        fn new(replies: &[WireMessage]) -> Self {
            let mut script = Vec::new();
            for reply in replies {
                reply.write_to(&mut script).unwrap();
            }
            ScriptedLink { replies: std::io::Cursor::new(script), written: Vec::new() }
        }
    }

    impl Read for ScriptedLink {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.replies.read(buf)
        }
    }

    impl Write for ScriptedLink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl ShardLink for ScriptedLink {}

    // -- handshake, gathers, shutdown ----------------------------------------

    #[test]
    fn handshake_rejects_digest_mismatch() {
        let config = ShardConfig::in_ram(16, 1);
        let (ours, worker) = spawn_worker(&config, 0, immortal());
        // Coordinator advertises a different digest: both sides must refuse.
        let result = SocketTransport::handshake(vec![ours], config.params_digest() ^ 1);
        assert!(matches!(result, Err(GzError::Protocol(_))));
        assert!(matches!(worker.join().unwrap(), Err(GzError::Protocol(_))));
    }

    #[test]
    fn worker_built_at_another_column_count_is_refused_by_both_sides() {
        // A `gz shard-worker` from a tree whose default was the paper's seven
        // columns, or the paper's round budget, dialled by a coordinator at
        // this tree's defaults. There is no flag to reconcile them and nothing
        // to reinterpret: the digests differ, and each side's typed refusal
        // carries both. (At 64 nodes the paper gives 11 rounds, the default
        // 9; at 16 they agree.)
        let coordinator = ShardConfig::in_ram(64, 1);
        let mut paper_columns = coordinator.clone();
        paper_columns.num_columns = crate::config::PAPER_COLUMNS;
        assert_ne!(coordinator.num_columns, paper_columns.num_columns);
        let mut paper_rounds = coordinator.clone();
        paper_rounds.num_rounds = Some(crate::config::paper_rounds(64));
        assert_ne!(coordinator.rounds(), paper_rounds.rounds());
        for old_worker in [paper_columns, paper_rounds] {
            let (ours, worker) = spawn_worker(&old_worker, 0, immortal());
            let refused = SocketTransport::handshake(vec![ours], coordinator.params_digest());
            for side in [refused.map(|_| ()), worker.join().unwrap().map(|_| ())] {
                let Err(GzError::Protocol(msg)) = side else { panic!("not refused: {side:?}") };
                for config in [&coordinator, &old_worker] {
                    let digest = format!("{:#x}", config.params_digest());
                    assert!(msg.contains(&digest), "{msg} lacks {digest}");
                }
            }
        }
    }

    #[test]
    fn socket_and_in_process_transports_gather_identically() {
        let config = ShardConfig::in_ram(20, 4);
        let mut in_proc = InProcessTransport::new(&config).unwrap();
        let (mut socket, handles) = spawn_local_socket_workers(&config).unwrap();
        for i in 0..60u32 {
            let (u, v) = (i % 20, (i * 7 + 1) % 20);
            for (dst, other) in [(u, v), (v, u)] {
                in_proc.send_batch(dst % 4, edge(dst, other)).unwrap();
                socket.send_batch(dst % 4, edge(dst, other)).unwrap();
            }
        }
        in_proc.flush().unwrap();
        socket.flush().unwrap();

        let a = in_proc.state_digest().unwrap();
        let b = socket.state_digest().unwrap();
        assert_eq!(a, b, "wire transport must not change sketch state");

        // Both transports' overlapped gathers must deliver the same entry
        // multiset as each other and as the provided collect-everything
        // gather_round, one reply per shard — whatever order the concurrent
        // shard workers finish in.
        let reference = sorted(in_proc.gather_round(1, None).unwrap());
        for transport in [&mut in_proc as &mut dyn ShardTransport, &mut socket] {
            let mut replies = 0usize;
            let mut collected = Vec::new();
            transport
                .gather_round_each(1, None, &mut |entries| {
                    replies += 1;
                    collected.extend(entries);
                    Ok(())
                })
                .unwrap();
            assert_eq!(replies, 4, "one reply per shard");
            assert_eq!(sorted(collected), reference);
            assert_eq!(sorted(transport.gather_round(1, None).unwrap()), reference);
        }

        in_proc.shutdown().unwrap();
        socket.shutdown().unwrap();
        for h in handles {
            let stats = h.join().unwrap().unwrap();
            assert!(stats.batches() > 0);
            assert_eq!(stats.flushes(), 1);
            assert_eq!(stats.gathers(), 3, "one state digest, two round gathers");
        }
    }

    #[test]
    fn gather_round_each_stops_folding_after_an_error() {
        let config = ShardConfig::in_ram(12, 3);
        let mut transport = InProcessTransport::new(&config).unwrap();
        let mut replies = 0usize;
        let result = transport.gather_round_each(0, None, &mut |_| {
            replies += 1;
            Err(GzError::Protocol("fold rejected".into()))
        });
        assert!(matches!(result, Err(GzError::Protocol(_))));
        assert_eq!(replies, 1, "folding must stop at the first error");
        transport.shutdown().unwrap();
    }

    #[test]
    fn shutdown_reaches_live_shards_past_a_dead_one() {
        let config = ShardConfig::in_ram(16, 2);
        // Shard 0: a worker that dies right after the handshake (dropping
        // the stream simulates the crash). Shard 1: a healthy worker.
        let (ours0, theirs0) = pair();
        let dead = handshake_then(theirs0, drop);
        let (ours1, live) = spawn_worker(&config, 1, immortal());

        let mut transport =
            SocketTransport::handshake(vec![ours0, ours1], config.params_digest()).unwrap();
        dead.join().unwrap();
        // Shutdown fails on the dead link but must still reach shard 1 —
        // otherwise the live worker blocks in read forever and this test
        // hangs on join.
        assert!(transport.shutdown().is_err());
        live.join().unwrap().unwrap();
    }

    #[test]
    fn serve_loop_rejects_coordinator_only_messages() {
        let config = ShardConfig::in_ram(8, 1);
        let pipeline = ShardPipeline::new(&config, 0).unwrap();
        let mut link = Link::new(ScriptedLink::new(&[WireMessage::FlushAck]));
        assert!(matches!(
            serve_shard_connection(&mut link, &pipeline, config.params_digest()),
            Err(GzError::Protocol(_))
        ));
    }

    // -- link hardening: typed errors at every protocol state ---------------

    #[test]
    fn peer_disconnect_mid_batch_is_typed_peer_gone() {
        let (mut transport, worker) = against(drop); // dies right after Hello
        worker.join().unwrap();
        // It must be a typed PeerGone, never a panic or hang.
        let failure = send_until_failure(&mut transport);
        assert_kind(failure, TransportErrorKind::PeerGone, 0, "mid-batch");
    }

    #[test]
    fn peer_disconnect_awaiting_flush_ack_is_typed_peer_gone() {
        // Worker reads the Flush, then dies without acking.
        let (mut transport, worker) = against(|mut stream| {
            assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Flush));
        });
        let err = transport.flush().expect_err("no ack is coming");
        assert_kind(err, TransportErrorKind::PeerGone, 0, "awaiting FlushAck");
        worker.join().unwrap();
    }

    #[test]
    fn peer_disconnect_mid_gather_round_reply_is_typed_peer_gone() {
        // Worker starts a RoundSketches reply but dies mid-frame: the
        // coordinator sees EOF inside a frame body, which must classify as
        // peer-gone (connection truncation), not a protocol parse error.
        let (mut transport, worker) = against(|mut stream| {
            assert!(matches!(
                WireMessage::read_from(&mut stream).unwrap(),
                WireMessage::GatherRound { .. }
            ));
            let mut frame = Vec::new();
            WireMessage::RoundSketches { round: 0, entries: vec![] }.write_to(&mut frame).unwrap();
            stream.write_all(&frame[..frame.len() - 1]).unwrap();
        });
        let err = transport.gather_round(0, None).expect_err("truncated reply");
        assert_kind(err, TransportErrorKind::PeerGone, 0, "mid-GatherRound");
        worker.join().unwrap();
    }

    #[test]
    fn stalled_worker_surfaces_as_timeout_not_hang() {
        let (mut transport, worker) = against(stall);
        let deadline = TransportTimeouts::all(Duration::from_millis(50));
        transport.links[0].stream().apply_timeouts(&deadline).unwrap();
        let err = transport.flush().expect_err("worker never acks");
        assert_kind(err, TransportErrorKind::Timeout, 0, "stalled worker");
        drop(transport); // EOF ends the worker's swallow loop
        worker.join().unwrap();
    }

    /// The shard dialect's half of the link contract (the serve dialect's
    /// is `serve::tests::a_serve_connection_fails_in_the_links_three_kinds`):
    /// a read deadline, an EOF mid-frame and a bad magic reach the caller as
    /// `Timeout`, `PeerGone` and `Malformed` — on the coordinator's side of
    /// a shard link and on the worker's.
    #[test]
    fn a_shard_link_fails_in_the_links_three_kinds() {
        let mut flush_ack = Vec::new();
        WireMessage::FlushAck.write_to(&mut flush_ack).unwrap();
        let cases: [(&[u8], TransportErrorKind); 3] = [
            (&[], TransportErrorKind::Timeout),
            (&flush_ack[..5], TransportErrorKind::PeerGone),
            (b"HTTP/1.1", TransportErrorKind::Malformed),
        ];
        let deadline = TransportTimeouts::all(Duration::from_millis(50));
        for (bytes, want) in cases {
            // Coordinator side: the worker answers `Flush` with `bytes`,
            // then holds the link open (nothing) or hangs up (anything).
            let reply = bytes.to_vec();
            let (mut transport, worker) = against(move |mut stream| {
                assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Flush));
                stream.write_all(&reply).unwrap();
                if reply.is_empty() {
                    stall(stream);
                }
            });
            transport.links[0].stream().apply_timeouts(&deadline).unwrap();
            let err = transport.flush().expect_err("no FlushAck is coming");
            assert_kind(err, want, 0, "coordinator side");
            drop(transport);
            worker.join().unwrap();

            // Worker side: the coordinator sends `bytes` where a frame is due.
            let config = ShardConfig::in_ram(8, 2);
            let pipeline = ShardPipeline::new(&config, 1).unwrap();
            let (mut ours, mut theirs) = pair();
            ours.apply_timeouts(&deadline).unwrap();
            theirs.write_all(bytes).unwrap();
            if !bytes.is_empty() {
                drop(theirs);
            }
            let err = serve_shard_connection(&mut Link::new(ours), &pipeline, 0);
            assert_kind(err.expect_err("no frame is coming"), want, 1, "worker side");
        }
    }

    /// A peer that reads the `Hello` and never acks it: it hangs up at
    /// once, or (`silent`) holds the link open without a word until the
    /// coordinator does.
    fn hello_eater(silent: bool) -> (Stream, std::thread::JoinHandle<()>) {
        let (ours, mut theirs) = pair();
        let peer = std::thread::spawn(move || {
            let hello = WireMessage::read_from(&mut theirs).unwrap();
            assert!(matches!(hello, WireMessage::Hello { .. }));
            if silent {
                stall(theirs);
            }
        });
        (ours, peer)
    }

    #[test]
    fn handshake_failures_are_typed_at_first_connect_and_at_respawn() {
        let deadline = TransportTimeouts::all(Duration::from_millis(50));
        for (silent, want) in
            [(false, TransportErrorKind::PeerGone), (true, TransportErrorKind::Timeout)]
        {
            // First connect: shard 0 is healthy, shard 1 never acks.
            let (ours0, theirs0) = pair();
            let healthy = handshake_then(theirs0, stall);
            let (mut ours1, peer) = hello_eater(silent);
            ours1.apply_timeouts(&deadline).unwrap();
            let Err(err) = SocketTransport::handshake(vec![ours0, ours1], DIGEST) else {
                panic!("shard 1 never sent a HelloAck");
            };
            assert_kind(err, want, 1, "first connect");
            healthy.join().unwrap();
            peer.join().unwrap();

            // Respawn: shard 1's worker dies after a good handshake, and
            // its replacement never acks.
            let (ours0, theirs0) = pair();
            let healthy = handshake_then(theirs0, |stream| {
                let mut stream = resynced(stream);
                assert!(matches!(WireMessage::read_from(&mut stream).unwrap(), WireMessage::Flush));
                // The coordinator may already have given up on shard 1 and
                // hung up on everyone: an unread ack is not a failure.
                let _ = WireMessage::FlushAck.write_to(&mut stream);
                stall(stream);
            });
            let (ours1, theirs1) = pair();
            let doomed = handshake_then(theirs1, |stream| drop(resynced(stream)));
            let (peers, replacements) = std::sync::mpsc::channel();
            let respawn = Box::new(move |_| {
                let (link, peer) = hello_eater(silent);
                peers.send(peer).unwrap();
                Ok(link)
            });
            let mut transport = SocketTransport::handshake(vec![ours0, ours1], DIGEST)
                .unwrap()
                .with_recovery(Recovery::new(deadline, quick_retry(1), respawn))
                .unwrap();
            doomed.join().unwrap();
            let err = transport.flush().expect_err("the respawned worker never acks");
            assert_kind(err, want, 1, "respawn");
            drop(transport);
            healthy.join().unwrap();
            for peer in replacements {
                peer.join().unwrap();
            }
        }
    }

    #[test]
    fn recovery_policy_changes_no_bytes_on_a_fault_free_run() {
        // Every link answers from the same script; what the coordinator
        // wrote is recorded. A policy adds the `Resync` turn that anchors
        // each replay log as it is installed; past it the frames must be the
        // same bytes with and without one, and the gathered entries the
        // same entries.
        let script = [
            WireMessage::HelloAck { params_digest: DIGEST, group_nodes: 1 },
            WireMessage::FlushAck,
            WireMessage::EpochSealed { epoch: 3 },
            WireMessage::RoundSketches {
                round: 1,
                entries: vec![SketchEntry { node: 0, bytes: vec![0, 9] }],
            },
            WireMessage::RoundSketches { round: 2, entries: vec![] },
            WireMessage::EpochReleased,
            WireMessage::CheckpointAck { seq: 5 },
        ];
        let run = |recovering: bool| {
            let mut script = script.to_vec();
            if recovering {
                script.insert(1, WireMessage::ResyncFrom { seq: 0 });
            }
            let links = vec![ScriptedLink::new(&script), ScriptedLink::new(&script)];
            let mut transport = SocketTransport::handshake(links, DIGEST).unwrap();
            if recovering {
                let never = Box::new(|_| Err(GzError::InvalidConfig("fault-free run".into())));
                let timeouts = TransportTimeouts::all(Duration::from_secs(1));
                transport = transport
                    .with_recovery(Recovery::new(timeouts, RetryPolicy::default(), never))
                    .unwrap();
            }
            for node in 0..5u32 {
                transport.send_batch(node % 2, edge(node, node + 1)).unwrap();
            }
            transport.flush().unwrap();
            let ids = transport.seal_epoch().unwrap();
            let mut gathered = Vec::new();
            for (round, epochs) in [(1, None), (2, Some(&ids[..]))] {
                let mut collect = |entries| {
                    gathered.extend::<Vec<SketchEntry>>(entries);
                    Ok(())
                };
                transport.gather_round_each(round, epochs, &mut collect).unwrap();
            }
            transport.release_epoch(&ids).unwrap();
            assert_eq!(transport.checkpoint_shards(0).unwrap(), vec![5, 5]);
            transport.shutdown().unwrap();
            let written: Vec<Vec<u8>> = transport
                .links
                .iter_mut()
                .map(|link| std::mem::take(&mut link.stream().written))
                .collect();
            (written, gathered)
        };
        let (plain, mut recovering) = (run(false), run(true));
        assert!(plain.0.iter().all(|bytes| !bytes.is_empty()));
        let [mut hello, mut resync] = [Vec::new(), Vec::new()];
        WireMessage::Hello { params_digest: DIGEST }.write_to(&mut hello).unwrap();
        WireMessage::Resync.write_to(&mut resync).unwrap();
        for written in &mut recovering.0 {
            let anchor = written.drain(hello.len()..hello.len() + resync.len());
            assert_eq!(anchor.as_slice(), resync, "the install's turn follows the handshake");
        }
        assert_eq!(plain, recovering);
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(0, 3), Duration::ZERO, "first attempt is immediate");
        for attempt in 1..12 {
            for salt in 0..4 {
                let d = policy.backoff(attempt, salt);
                assert_eq!(d, policy.backoff(attempt, salt), "jitter must be deterministic");
                assert!(d <= policy.max, "backoff {d:?} exceeds cap");
                assert!(d >= policy.base / 2, "backoff {d:?} below half the base");
            }
        }
        // Jitter separates shards retrying in lockstep.
        assert_ne!(policy.backoff(3, 0), policy.backoff(3, 1));
    }

    // -- checkpoints over the wire ------------------------------------------

    #[test]
    fn checkpoint_over_sockets_acks_seq_and_writes_files() {
        let dir = gz_testutil::TempDir::new("gz-wire-ckpt");
        let mut config = ShardConfig::in_ram(16, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let (mut socket, handles) = spawn_local_socket_workers(&config).unwrap();
        for node in 0..16u32 {
            socket.send_batch(node % 2, edge(node, (node + 1) % 16)).unwrap();
        }
        let seqs = socket.checkpoint_shards(0).unwrap();
        assert_eq!(seqs, vec![8, 8], "each shard acked its own batch count");
        for index in 0..2u32 {
            let path =
                dir.path().join(crate::sharding::shard_checkpoint_file_name(index, 2, config.seed));
            assert!(path.exists(), "shard {index} checkpoint file missing");
        }
        socket.shutdown().unwrap();
        for h in handles {
            // The explicit round plus the final checkpoint every worker
            // with a configured path cuts on a clean `Shutdown`.
            assert_eq!(h.join().unwrap().unwrap().checkpoints(), 2);
        }
    }

    // -- recovery: respawn, resync, replay ----------------------------------

    #[test]
    fn recovering_transport_replays_after_worker_death() {
        let dir = gz_testutil::TempDir::new("gz-recover");
        let mut config = ShardConfig::in_ram(16, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());

        let shard0_budget = immortal();
        let (ours0, doomed_handle) = spawn_worker(&config, 0, Arc::clone(&shard0_budget));
        let (ours1, handle1) = spawn_worker(&config, 1, immortal());
        let (respawned, replacements) = std::sync::mpsc::channel();

        let respawn_config = config.clone();
        let mut transport = SocketTransport::handshake(vec![ours0, ours1], config.params_digest())
            .unwrap()
            .with_recovery(Recovery::new(
                TransportTimeouts::all(Duration::from_secs(5)),
                quick_retry(3),
                Box::new(move |index| {
                    let (ours, handle) = spawn_worker(&respawn_config, index, immortal());
                    respawned.send(handle).unwrap();
                    Ok(ours)
                }),
            ))
            .unwrap();
        let stats = transport.recovery_stats().unwrap();

        // Reference: the same batches through an uninterrupted transport.
        let phase1: Vec<(u32, u32)> = (0..16u32).map(|n| (n, (n + 1) % 16)).collect();
        let phase2: Vec<(u32, u32)> = (0..16u32).map(|n| (n, (n + 5) % 16)).collect();
        let mut reference = InProcessTransport::new(&ShardConfig::in_ram(16, 2)).unwrap();
        for &(node, other) in phase1.iter().chain(&phase2) {
            reference.send_batch(node % 2, edge(node, other)).unwrap();
        }
        reference.flush().unwrap();

        // Phase 1, then a checkpoint round (prunes both replay logs).
        for &(node, other) in &phase1 {
            transport.send_batch(node % 2, edge(node, other)).unwrap();
        }
        assert_eq!(transport.checkpoint_shards(0).unwrap(), vec![8, 8]);
        assert_eq!(stats.checkpoints(), 2);

        // Kill shard 0's worker a few dozen bytes into phase 2.
        shard0_budget.store(64, Ordering::SeqCst);
        for &(node, other) in &phase2 {
            transport.send_batch(node % 2, edge(node, other)).unwrap();
        }
        transport.flush().unwrap();

        // The recovered state must be bit-identical to the uninterrupted run.
        assert_eq!(
            transport.state_digest().unwrap(),
            reference.state_digest().unwrap(),
            "post-recovery sketches must match an uninterrupted run exactly"
        );
        // The respawned worker resumes the graph digest its checkpoint
        // carries, and the replayed tail adds the rest.
        assert_eq!(
            transport.graph_digest().unwrap(),
            reference.graph_digest().unwrap(),
            "post-recovery graph digest must match an uninterrupted run"
        );

        // Exactly one death: one replay, one reconnect attempt, and the
        // replayed tail is bounded by phase 2's shard-0 share.
        assert_eq!(stats.replays(), 1);
        assert_eq!(stats.reconnect_attempts(), 1);
        assert!(
            (1..=8).contains(&stats.batches_replayed()),
            "replayed {} batches, expected within phase 2's shard-0 share",
            stats.batches_replayed()
        );

        transport.shutdown().unwrap();
        reference.shutdown().unwrap();
        assert!(
            doomed_handle.join().unwrap().is_err(),
            "the doomed worker dies of its injected crash"
        );
        handle1.join().unwrap().unwrap();
        drop(transport); // hangs up the respawn closure's end of the channel
        for h in replacements {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn recovery_gives_up_after_the_retry_budget() {
        let (transport, worker) = against(|stream| drop(resynced(stream)));
        let mut transport = transport
            .with_recovery(Recovery::new(
                TransportTimeouts::default(),
                quick_retry(2),
                Box::new(|_| Err(GzError::InvalidConfig("respawn disabled".into()))),
            ))
            .unwrap();
        let stats = transport.recovery_stats().unwrap();
        worker.join().unwrap();

        assert!(
            matches!(send_until_failure(&mut transport), GzError::InvalidConfig(_)),
            "the respawn closure's refusal is the final error"
        );
        assert_eq!(stats.reconnect_attempts(), 2, "both budgeted attempts were spent");
        assert_eq!(stats.replays(), 0);
    }

    #[test]
    fn replay_log_cap_forces_inline_checkpoints() {
        let dir = gz_testutil::TempDir::new("gz-cap");
        let mut config = ShardConfig::in_ram(16, 1);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let (ours, worker) = spawn_worker(&config, 0, immortal());
        let never = Box::new(|_| Err(GzError::InvalidConfig("no respawn in this test".into())));
        let policy = Recovery::new(TransportTimeouts::default(), RetryPolicy::default(), never);
        let mut transport = SocketTransport::handshake(vec![ours], config.params_digest())
            .unwrap()
            .with_recovery(policy.with_replay_log_cap(4))
            .unwrap();
        let stats = transport.recovery_stats().unwrap();

        for i in 0..12u32 {
            transport.send_batch(0, edge(i % 16, (i + 1) % 16)).unwrap();
        }
        // 12 batches with a cap of 4: the log hit the cap three times, each
        // forcing a checkpoint round that pruned it.
        assert_eq!(stats.checkpoints(), 3);
        transport.shutdown().unwrap();
        worker.join().unwrap().unwrap();
    }
}
