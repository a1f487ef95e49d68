//! The shard wire protocol: framed, versioned messages between the
//! coordinator and its shard workers.
//!
//! The paper's §8 outlook — partitioning sketches "throughout a distributed
//! cluster without sacrificing stream ingestion rate" — only holds when the
//! coordinator ships *batches*, not individual updates (per-update routing
//! pays a round trip per stream element; see *Exploring the Landscape of
//! Distributed Graph Sketching*). This module defines the messages that
//! cross the coordinator/shard boundary; it is deliberately sketch-agnostic
//! (gathered round slices travel as opaque bytes, a shard's whole state as
//! an 8-byte digest beside its graph digest) so the transport layer never
//! depends on sketch internals.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! magic   [u8; 2] = b"GZ"
//! version u8      = 1
//! tag     u8      — message discriminant
//! len     u32     — payload length in bytes
//! payload len bytes
//! ```
//!
//! The protocol is strictly request/reply from the coordinator's side:
//! `Hello` expects `HelloAck`, `Flush` expects `FlushAck`, `StateDigest`
//! expects `StateDigestReply`, `GatherRound` expects `RoundSketches`;
//! `Batch` and `Shutdown` are one-way.
//!
//! Since v7 the same framing also carries the *front-door* dialect spoken
//! between `gz serve` and its clients: `ClientHello` expects
//! `ClientHelloAck`, `UpdateBatch` expects `UpdateAck`, `Query` expects
//! `QueryResult`; `Busy` and `ErrorReply` are server-initiated terminal
//! replies (overload shedding and the malformed-frame kill, respectively).

use gz_graph::{GraphDigest, GRAPH_DIGEST_BYTES};
use std::io::{self, Read, Write};

/// Frame magic.
pub const WIRE_MAGIC: [u8; 2] = *b"GZ";

/// Protocol version carried in every frame. Bump on any layout change —
/// or any change to the sketch bytes the frames carry: shards XOR-merge
/// gathered sketches, so a coordinator and worker disagreeing on the hash
/// derivation must fail the handshake, not corrupt state.
/// v2 added the round-sliced gather (`GatherRound` / `RoundSketches`);
/// v3 marks the single-hash column derivation (DESIGN.md §9), which makes
/// sketch payloads unmergeable with v2 builds;
/// v4 added epoch sealing (`SealEpoch` / `EpochSealed` / `ReleaseEpoch` /
/// `EpochReleased`) and the epoch tag on `GatherRound`, so sharded queries
/// can gather a consistent cut while ingestion continues;
/// v5 added the hybrid-representation tag byte on `RoundSketches` entries:
/// each entry's bytes now start with `0` (a dense round slice follows) or
/// `1` (a sparse exact neighbor-set follows — count + sorted u32 ids — that
/// the coordinator replays into the round slice), so shards never densify
/// sub-threshold nodes just to answer a gather;
/// v6 added the fault-tolerance frames: `CheckpointShard` / `CheckpointAck`
/// (persist the shard's owned state, acknowledging with the durable batch
/// sequence number) and `Resync` / `ResyncFrom` (a restarted worker reports
/// the sequence number its restored state covers, so the coordinator
/// replays exactly the un-checkpointed tail);
/// v7 added the front-door frames spoken by `gz serve` clients:
/// `ClientHello` / `ClientHelloAck` (the daemon handshake, announcing the
/// universe size and the durably acked update count), `UpdateBatch` /
/// `UpdateAck` (edge updates in, durable-prefix acknowledgements out),
/// `Query` / `QueryResult` (connectivity questions answered from a sealed
/// epoch), `Busy` (typed overload shedding at admission) and `ErrorReply`
/// (the typed last word before the daemon kills a misbehaving connection);
/// v8 replaced the whole-store gather frame pair (tags 6 and 7) with
/// `StateDigest` / `StateDigestReply`: a shard answers with the 8-byte
/// digest of its owned state instead of every owned node's stack;
/// v9 added the graph digest (`gz_graph::digest`, 512 bytes) to
/// `StateDigestReply`, `CheckpointAck` and `ClientHelloAck`;
/// v10 ships a dense `RoundSketches` entry as tag `0` plus the slice's
/// resident words (8 bytes a bucket below `2^32`, not the paper's 12),
/// drops `CheckpointAck`'s graph digest (the checkpoint file carries it),
/// and makes a `Batch` record the other endpoint's whole id (no delete bit);
/// v11 adds the worker store's nodes a group to `HelloAck`.
pub const PROTOCOL_VERSION: u8 = 11;

/// Upper bound on a frame payload (defensive: a corrupt length header must
/// not trigger a multi-gigabyte allocation).
pub const MAX_PAYLOAD_BYTES: usize = 1 << 28;

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_FLUSH: u8 = 4;
const TAG_FLUSH_ACK: u8 = 5;
const TAG_STATE_DIGEST: u8 = 6;
const TAG_STATE_DIGEST_REPLY: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_GATHER_ROUND: u8 = 9;
const TAG_ROUND_SKETCHES: u8 = 10;
const TAG_SEAL_EPOCH: u8 = 11;
const TAG_EPOCH_SEALED: u8 = 12;
const TAG_RELEASE_EPOCH: u8 = 13;
const TAG_EPOCH_RELEASED: u8 = 14;
const TAG_CHECKPOINT_SHARD: u8 = 15;
const TAG_CHECKPOINT_ACK: u8 = 16;
const TAG_RESYNC: u8 = 17;
const TAG_RESYNC_FROM: u8 = 18;
const TAG_CLIENT_HELLO: u8 = 19;
const TAG_CLIENT_HELLO_ACK: u8 = 20;
const TAG_UPDATE_BATCH: u8 = 21;
const TAG_UPDATE_ACK: u8 = 22;
const TAG_QUERY: u8 = 23;
const TAG_QUERY_RESULT: u8 = 24;
const TAG_BUSY: u8 = 25;
const TAG_ERROR_REPLY: u8 = 26;

/// On-wire sentinel for "no epoch" in [`WireMessage::GatherRound`]: the
/// gather reads the live (flushed) state, the pre-v4 behavior.
const EPOCH_LIVE: u64 = u64::MAX;

/// One node's encoded round slice (or sparse set), as gathered from a
/// shard: the owning node id plus the bytes (opaque at this layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchEntry {
    /// Graph node the sketch belongs to.
    pub node: u32,
    /// Encoded sketch payload.
    pub bytes: Vec<u8>,
}

/// One edge update as a front-door client ships it: the two endpoints plus
/// the insert/delete flag. Kept explicit (9 bytes on the wire) rather than
/// bit-packed — the serve daemon validates endpoints against its universe
/// before anything touches a sketch, so the codec carries exactly what the
/// client said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireUpdate {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
    /// `true` for a deletion, `false` for an insertion.
    pub is_delete: bool,
}

/// What a front-door [`WireMessage::Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The number of connected components.
    NumComponents,
    /// The full per-vertex component labeling.
    Components,
    /// The spanning forest witnessing the components.
    SpanningForest,
}

impl QueryKind {
    fn code(self) -> u8 {
        match self {
            QueryKind::NumComponents => 0,
            QueryKind::Components => 1,
            QueryKind::SpanningForest => 2,
        }
    }

    fn from_code(code: u8) -> io::Result<QueryKind> {
        match code {
            0 => Ok(QueryKind::NumComponents),
            1 => Ok(QueryKind::Components),
            2 => Ok(QueryKind::SpanningForest),
            other => Err(invalid(format!("unknown query kind {other}"))),
        }
    }
}

/// The answer inside a [`WireMessage::QueryResult`], mirroring
/// [`QueryKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Number of connected components.
    NumComponents(u64),
    /// Component label per vertex, indexed by vertex id.
    Components(Vec<u32>),
    /// Spanning-forest edges as `(u, v)` pairs.
    SpanningForest(Vec<(u32, u32)>),
}

/// A message of the coordinator ↔ shard-worker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// Coordinator → worker: opening handshake. `params_digest` commits to
    /// the sketch parameters (universe size, rounds, columns, seed, shard
    /// count); a worker built from different parameters must refuse, since
    /// its sketches would not be mergeable with the other shards'.
    Hello {
        /// Digest of the shared sketch parameters.
        params_digest: u64,
    },
    /// Worker → coordinator: handshake accepted; echoes the digest.
    HelloAck {
        /// The worker's own parameter digest.
        params_digest: u64,
        /// Nodes a group of the worker's sketch store (1 without a file):
        /// the unit the coordinator's leaf gutters emit in.
        group_nodes: u32,
    },
    /// Coordinator → worker: a node-keyed batch of encoded update records —
    /// the unit of inter-shard communication.
    Batch {
        /// Destination node (owned by the receiving shard).
        node: u32,
        /// One record an update: the other endpoint's id (see
        /// `encode_other`).
        records: Vec<u32>,
    },
    /// Coordinator → worker: apply everything received so far, then reply
    /// [`WireMessage::FlushAck`].
    Flush,
    /// Worker → coordinator: all prior batches are in the sketches.
    FlushAck,
    /// Coordinator → worker: flush, then reply
    /// [`WireMessage::StateDigestReply`] with the digest of the shard's
    /// owned sketch state.
    StateDigest,
    /// Worker → coordinator: the shard's state digest — the XOR over owned
    /// nodes of `xxh64(encoded stack, node id)` — and its graph digest.
    /// The coordinator XORs each across the shards into the whole system's.
    StateDigestReply {
        /// The shard's digest.
        digest: u64,
        /// The shard's graph digest.
        graph: Box<GraphDigest>,
    },
    /// Coordinator → worker: reply [`WireMessage::RoundSketches`] with only
    /// round `round`'s slice of every owned node's sketch — the streaming
    /// query's gather unit. A Borůvka query sends one of these per round,
    /// so the coordinator never holds more than one round of the universe
    /// at a time. With `epoch: None` the worker flushes and serves the live
    /// state; with `Some(id)` it serves the sealed generation of a
    /// [`WireMessage::SealEpoch`] — no flush, no quiescing, consistent
    /// across all the query's rounds.
    GatherRound {
        /// Sketch round (0-based) whose column data is requested.
        round: u32,
        /// Sealed epoch to gather from (`None` = live state).
        epoch: Option<u64>,
    },
    /// Worker → coordinator: the shard's round-`round` sketch slices.
    RoundSketches {
        /// The round these slices belong to (echoes the request).
        round: u32,
        /// One entry per owned node; `bytes` is the round slice only.
        entries: Vec<SketchEntry>,
    },
    /// Coordinator → worker: seal the shard's current sketch state into an
    /// epoch (flushing first, so the sealed cut includes every batch
    /// received so far) and reply [`WireMessage::EpochSealed`] with its id.
    SealEpoch,
    /// Worker → coordinator: the epoch is sealed and pinned until a
    /// matching [`WireMessage::ReleaseEpoch`].
    EpochSealed {
        /// Shard-assigned epoch id.
        epoch: u64,
    },
    /// Coordinator → worker: drop the sealed epoch `epoch`, freeing its
    /// copy-on-write captures; replies [`WireMessage::EpochReleased`].
    /// Releasing an unknown id is not an error (release is best-effort
    /// cleanup from a dropping handle).
    ReleaseEpoch {
        /// Epoch id from [`WireMessage::EpochSealed`].
        epoch: u64,
    },
    /// Worker → coordinator: the epoch is gone.
    EpochReleased,
    /// Coordinator → worker: flush, then persist the shard's owned sketch
    /// state to the worker's checkpoint path and reply
    /// [`WireMessage::CheckpointAck`]. Sent in-stream, so the checkpoint
    /// covers exactly the batches framed before it — no separate sequence
    /// negotiation is needed on an ordered link.
    CheckpointShard,
    /// Worker → coordinator: the checkpoint is durable. `seq` is the count
    /// of [`WireMessage::Batch`] frames the worker had received when it
    /// took the checkpoint; the coordinator may prune its replay log
    /// through that point. The file holds the shard's graph digest, so a
    /// worker restored from it reports its own.
    CheckpointAck {
        /// Batches covered by the durable checkpoint.
        seq: u64,
    },
    /// Coordinator → worker: asks where the worker's state begins — sent
    /// after reconnecting to a restarted worker, before any replay. The
    /// worker replies [`WireMessage::ResyncFrom`].
    Resync,
    /// Worker → coordinator: the worker's state (fresh, or restored from a
    /// checkpoint) covers the first `seq` batches; the coordinator must
    /// replay batches `seq..` and nothing earlier — replaying a batch the
    /// state already absorbed would XOR it in twice and cancel it.
    ResyncFrom {
        /// Batches already reflected in the worker's sketch state.
        seq: u64,
    },
    /// Coordinator → worker: close the connection; the worker exits its
    /// event loop. On a `gz serve` connection the same frame is the
    /// client's clean goodbye — it closes that connection, never the
    /// daemon.
    Shutdown,
    /// Client → serve daemon: opening handshake of the front-door dialect.
    /// Carries nothing: unlike a shard worker, a client does not need to
    /// share sketch parameters — updates and answers are plain vertex ids.
    ClientHello,
    /// Serve daemon → client: handshake accepted. Announces the universe
    /// size (so the client can validate vertex ids locally), the number
    /// of updates the daemon has durably acked so far and the graph digest
    /// of those updates — after a `--resume` restart this is where a
    /// reconnecting client learns which prefix of its stream survived, and
    /// can check that it is the prefix it sent.
    ClientHelloAck {
        /// Vertex universe size.
        num_nodes: u64,
        /// Updates durably acknowledged so far.
        acked: u64,
        /// Graph digest of the acked updates.
        graph: Box<GraphDigest>,
    },
    /// Client → serve daemon: a batch of edge updates to ingest. Answered
    /// with [`WireMessage::UpdateAck`] once the whole batch is durable, or
    /// [`WireMessage::ErrorReply`] (and a dead connection) if any update is
    /// malformed — a batch is applied entirely or not at all.
    UpdateBatch {
        /// The edge updates, in stream order.
        updates: Vec<WireUpdate>,
    },
    /// Serve daemon → client: every update up to and including the last
    /// [`WireMessage::UpdateBatch`] is durable and applied.
    UpdateAck {
        /// Total updates durably acknowledged on this daemon so far.
        acked: u64,
    },
    /// Client → serve daemon: a connectivity question, answered from a
    /// sealed epoch so it never stalls (or is stalled by) ingestion.
    Query {
        /// What to compute.
        kind: QueryKind,
    },
    /// Serve daemon → client: the answer to a [`WireMessage::Query`].
    QueryResult {
        /// The answer, in the shape the query kind asked for.
        answer: QueryAnswer,
    },
    /// Serve daemon → client: the daemon is at its `--max-clients` limit.
    /// Sent instead of a handshake, after which the connection closes —
    /// typed shedding, never accept-then-stall.
    Busy {
        /// Connections currently being served.
        active: u32,
        /// The configured admission limit.
        max_clients: u32,
    },
    /// Serve daemon → client: a typed description of why the daemon is
    /// about to kill this connection (malformed frame, out-of-range vertex,
    /// unexpected message). Best-effort — a client that already vanished
    /// simply misses it; the daemon keeps serving everyone else.
    ErrorReply {
        /// Human-readable reason.
        message: String,
    },
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn encode_entries(entries: &[SketchEntry], out: &mut Vec<u8>) {
    for e in entries {
        out.extend_from_slice(&e.node.to_le_bytes());
        out.extend_from_slice(&(e.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&e.bytes);
    }
}

fn decode_entries(cur: &mut Cursor<'_>, count: usize) -> io::Result<Vec<SketchEntry>> {
    // `count` and every entry length are attacker-controlled. Each entry
    // occupies at least 8 bytes (node + length header), so a count that
    // cannot fit in the *remaining* payload is malformed — refuse it before
    // `Vec::with_capacity` turns the lie into an allocation.
    if count > cur.remaining() / 8 {
        return Err(invalid("entry count exceeds remaining payload"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let node = cur.u32()?;
        let len = cur.u32()? as usize;
        if len > cur.remaining() {
            return Err(invalid("entry length exceeds remaining payload"));
        }
        entries.push(SketchEntry { node, bytes: cur.take(len)?.to_vec() });
    }
    Ok(entries)
}

impl WireMessage {
    fn tag(&self) -> u8 {
        match self {
            WireMessage::Hello { .. } => TAG_HELLO,
            WireMessage::HelloAck { .. } => TAG_HELLO_ACK,
            WireMessage::Batch { .. } => TAG_BATCH,
            WireMessage::Flush => TAG_FLUSH,
            WireMessage::FlushAck => TAG_FLUSH_ACK,
            WireMessage::StateDigest => TAG_STATE_DIGEST,
            WireMessage::StateDigestReply { .. } => TAG_STATE_DIGEST_REPLY,
            WireMessage::GatherRound { .. } => TAG_GATHER_ROUND,
            WireMessage::RoundSketches { .. } => TAG_ROUND_SKETCHES,
            WireMessage::SealEpoch => TAG_SEAL_EPOCH,
            WireMessage::EpochSealed { .. } => TAG_EPOCH_SEALED,
            WireMessage::ReleaseEpoch { .. } => TAG_RELEASE_EPOCH,
            WireMessage::EpochReleased => TAG_EPOCH_RELEASED,
            WireMessage::CheckpointShard => TAG_CHECKPOINT_SHARD,
            WireMessage::CheckpointAck { .. } => TAG_CHECKPOINT_ACK,
            WireMessage::Resync => TAG_RESYNC,
            WireMessage::ResyncFrom { .. } => TAG_RESYNC_FROM,
            WireMessage::Shutdown => TAG_SHUTDOWN,
            WireMessage::ClientHello => TAG_CLIENT_HELLO,
            WireMessage::ClientHelloAck { .. } => TAG_CLIENT_HELLO_ACK,
            WireMessage::UpdateBatch { .. } => TAG_UPDATE_BATCH,
            WireMessage::UpdateAck { .. } => TAG_UPDATE_ACK,
            WireMessage::Query { .. } => TAG_QUERY,
            WireMessage::QueryResult { .. } => TAG_QUERY_RESULT,
            WireMessage::Busy { .. } => TAG_BUSY,
            WireMessage::ErrorReply { .. } => TAG_ERROR_REPLY,
        }
    }

    /// Exact payload size in bytes, computed without encoding — lets
    /// [`Self::write_to`] refuse oversized frames before building them.
    /// Bytes this message occupies on the wire as one frame, header
    /// included — what a link adds to its byte counters per frame.
    pub fn frame_len(&self) -> usize {
        8 + self.payload_len()
    }

    fn payload_len(&self) -> usize {
        match self {
            WireMessage::Hello { .. } => 8,
            WireMessage::HelloAck { .. } => 12,
            WireMessage::Batch { records, .. } => 8 + 4 * records.len(),
            WireMessage::GatherRound { .. } => 12,
            WireMessage::EpochSealed { .. }
            | WireMessage::ReleaseEpoch { .. }
            | WireMessage::ResyncFrom { .. }
            | WireMessage::CheckpointAck { .. } => 8,
            WireMessage::StateDigestReply { .. } => 8 + GRAPH_DIGEST_BYTES,
            WireMessage::RoundSketches { entries, .. } => {
                8 + entries.iter().map(|e| 8 + e.bytes.len()).sum::<usize>()
            }
            WireMessage::ClientHelloAck { .. } => 16 + GRAPH_DIGEST_BYTES,
            WireMessage::UpdateBatch { updates } => 4 + 9 * updates.len(),
            WireMessage::UpdateAck { .. } => 8,
            WireMessage::Query { .. } => 1,
            WireMessage::QueryResult { answer } => {
                1 + match answer {
                    QueryAnswer::NumComponents(_) => 8,
                    QueryAnswer::Components(labels) => 4 + 4 * labels.len(),
                    QueryAnswer::SpanningForest(edges) => 4 + 8 * edges.len(),
                }
            }
            WireMessage::Busy { .. } => 8,
            WireMessage::ErrorReply { message } => 4 + message.len(),
            WireMessage::Flush
            | WireMessage::FlushAck
            | WireMessage::StateDigest
            | WireMessage::SealEpoch
            | WireMessage::EpochReleased
            | WireMessage::CheckpointShard
            | WireMessage::Resync
            | WireMessage::Shutdown
            | WireMessage::ClientHello => 0,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Hello { params_digest } => {
                out.extend_from_slice(&params_digest.to_le_bytes());
            }
            WireMessage::HelloAck { params_digest, group_nodes } => {
                out.extend_from_slice(&params_digest.to_le_bytes());
                out.extend_from_slice(&group_nodes.to_le_bytes());
            }
            WireMessage::Batch { node, records } => {
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for r in records {
                    out.extend_from_slice(&r.to_le_bytes());
                }
            }
            WireMessage::GatherRound { round, epoch } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&epoch.unwrap_or(EPOCH_LIVE).to_le_bytes());
            }
            WireMessage::EpochSealed { epoch } | WireMessage::ReleaseEpoch { epoch } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            WireMessage::ResyncFrom { seq } | WireMessage::CheckpointAck { seq } => {
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WireMessage::StateDigestReply { digest, graph } => {
                out.extend_from_slice(&digest.to_le_bytes());
                out.extend_from_slice(&graph.to_bytes());
            }
            WireMessage::RoundSketches { round, entries } => {
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                encode_entries(entries, out);
            }
            WireMessage::ClientHelloAck { num_nodes, acked, graph } => {
                out.extend_from_slice(&num_nodes.to_le_bytes());
                out.extend_from_slice(&acked.to_le_bytes());
                out.extend_from_slice(&graph.to_bytes());
            }
            WireMessage::UpdateBatch { updates } => {
                out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
                for upd in updates {
                    out.extend_from_slice(&upd.u.to_le_bytes());
                    out.extend_from_slice(&upd.v.to_le_bytes());
                    out.push(upd.is_delete as u8);
                }
            }
            WireMessage::UpdateAck { acked } => {
                out.extend_from_slice(&acked.to_le_bytes());
            }
            WireMessage::Query { kind } => out.push(kind.code()),
            WireMessage::QueryResult { answer } => match answer {
                QueryAnswer::NumComponents(n) => {
                    out.push(0);
                    out.extend_from_slice(&n.to_le_bytes());
                }
                QueryAnswer::Components(labels) => {
                    out.push(1);
                    out.extend_from_slice(&(labels.len() as u32).to_le_bytes());
                    for label in labels {
                        out.extend_from_slice(&label.to_le_bytes());
                    }
                }
                QueryAnswer::SpanningForest(edges) => {
                    out.push(2);
                    out.extend_from_slice(&(edges.len() as u32).to_le_bytes());
                    for (u, v) in edges {
                        out.extend_from_slice(&u.to_le_bytes());
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            },
            WireMessage::Busy { active, max_clients } => {
                out.extend_from_slice(&active.to_le_bytes());
                out.extend_from_slice(&max_clients.to_le_bytes());
            }
            WireMessage::ErrorReply { message } => {
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            WireMessage::Flush
            | WireMessage::FlushAck
            | WireMessage::StateDigest
            | WireMessage::SealEpoch
            | WireMessage::EpochReleased
            | WireMessage::CheckpointShard
            | WireMessage::Resync
            | WireMessage::Shutdown
            | WireMessage::ClientHello => {}
        }
    }

    /// Serialize the message as one frame into `w`. A message is written
    /// with a single `write_all` so transports need no additional buffering
    /// to avoid per-field syscalls.
    ///
    /// A payload over [`MAX_PAYLOAD_BYTES`] is refused *before* anything is
    /// written: the peer would reject it anyway, and past `u32::MAX` the
    /// length header would silently truncate and desynchronize the stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let payload_len = self.payload_len();
        if payload_len > MAX_PAYLOAD_BYTES {
            return Err(invalid(format!(
                "{} payload of {payload_len} bytes exceeds the frame cap",
                self.name()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload_len);
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.push(self.tag());
        frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
        self.encode_payload(&mut frame);
        debug_assert_eq!(frame.len(), 8 + payload_len);
        w.write_all(&frame)
    }

    /// Read one frame from `r` and decode it. Returns `InvalidData` on a
    /// bad magic, unsupported version, unknown tag, oversized payload, or a
    /// payload that does not parse exactly.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<WireMessage> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        if header[0..2] != WIRE_MAGIC {
            return Err(invalid("bad wire magic"));
        }
        if header[2] != PROTOCOL_VERSION {
            return Err(invalid(format!(
                "protocol version mismatch: got {}, want {PROTOCOL_VERSION}",
                header[2]
            )));
        }
        let tag = header[3];
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return Err(invalid(format!("payload of {len} bytes exceeds the frame cap")));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Self::decode(tag, &payload)
    }

    fn decode(tag: u8, payload: &[u8]) -> io::Result<WireMessage> {
        let mut cur = Cursor { bytes: payload, at: 0 };
        let msg = match tag {
            TAG_HELLO => WireMessage::Hello { params_digest: cur.u64()? },
            TAG_HELLO_ACK => {
                WireMessage::HelloAck { params_digest: cur.u64()?, group_nodes: cur.u32()? }
            }
            TAG_BATCH => {
                let node = cur.u32()?;
                let count = cur.u32()? as usize;
                // Count capped against the bytes actually *remaining* (not
                // the whole payload, which would let the already-consumed
                // header inflate the bound): records are 4 bytes each.
                if count > cur.remaining() / 4 {
                    return Err(invalid("batch record count exceeds remaining payload"));
                }
                let records = (0..count).map(|_| cur.u32()).collect::<io::Result<Vec<u32>>>()?;
                WireMessage::Batch { node, records }
            }
            TAG_FLUSH => WireMessage::Flush,
            TAG_FLUSH_ACK => WireMessage::FlushAck,
            TAG_STATE_DIGEST => WireMessage::StateDigest,
            TAG_STATE_DIGEST_REPLY => {
                WireMessage::StateDigestReply { digest: cur.u64()?, graph: cur.graph_digest()? }
            }
            TAG_GATHER_ROUND => {
                let round = cur.u32()?;
                let epoch = match cur.u64()? {
                    EPOCH_LIVE => None,
                    id => Some(id),
                };
                WireMessage::GatherRound { round, epoch }
            }
            TAG_ROUND_SKETCHES => {
                let round = cur.u32()?;
                let count = cur.u32()? as usize;
                WireMessage::RoundSketches { round, entries: decode_entries(&mut cur, count)? }
            }
            TAG_SEAL_EPOCH => WireMessage::SealEpoch,
            TAG_EPOCH_SEALED => WireMessage::EpochSealed { epoch: cur.u64()? },
            TAG_RELEASE_EPOCH => WireMessage::ReleaseEpoch { epoch: cur.u64()? },
            TAG_EPOCH_RELEASED => WireMessage::EpochReleased,
            TAG_CHECKPOINT_SHARD => WireMessage::CheckpointShard,
            TAG_CHECKPOINT_ACK => WireMessage::CheckpointAck { seq: cur.u64()? },
            TAG_RESYNC => WireMessage::Resync,
            TAG_RESYNC_FROM => WireMessage::ResyncFrom { seq: cur.u64()? },
            TAG_SHUTDOWN => WireMessage::Shutdown,
            TAG_CLIENT_HELLO => WireMessage::ClientHello,
            TAG_CLIENT_HELLO_ACK => {
                let (num_nodes, acked) = (cur.u64()?, cur.u64()?);
                WireMessage::ClientHelloAck { num_nodes, acked, graph: cur.graph_digest()? }
            }
            TAG_UPDATE_BATCH => {
                let count = cur.u32()? as usize;
                // Updates are 9 bytes each; a count the remaining payload
                // cannot hold is a lie — refuse before allocating.
                if count > cur.remaining() / 9 {
                    return Err(invalid("update count exceeds remaining payload"));
                }
                let mut updates = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = cur.u32()?;
                    let v = cur.u32()?;
                    let is_delete = match cur.take(1)?[0] {
                        0 => false,
                        1 => true,
                        flag => return Err(invalid(format!("bad update flag {flag}"))),
                    };
                    updates.push(WireUpdate { u, v, is_delete });
                }
                WireMessage::UpdateBatch { updates }
            }
            TAG_UPDATE_ACK => WireMessage::UpdateAck { acked: cur.u64()? },
            TAG_QUERY => WireMessage::Query { kind: QueryKind::from_code(cur.take(1)?[0])? },
            TAG_QUERY_RESULT => {
                let answer = match cur.take(1)?[0] {
                    0 => QueryAnswer::NumComponents(cur.u64()?),
                    1 => {
                        let count = cur.u32()? as usize;
                        if count > cur.remaining() / 4 {
                            return Err(invalid("label count exceeds remaining payload"));
                        }
                        let labels =
                            (0..count).map(|_| cur.u32()).collect::<io::Result<Vec<u32>>>()?;
                        QueryAnswer::Components(labels)
                    }
                    2 => {
                        let count = cur.u32()? as usize;
                        if count > cur.remaining() / 8 {
                            return Err(invalid("edge count exceeds remaining payload"));
                        }
                        let edges = (0..count)
                            .map(|_| Ok((cur.u32()?, cur.u32()?)))
                            .collect::<io::Result<Vec<(u32, u32)>>>()?;
                        QueryAnswer::SpanningForest(edges)
                    }
                    other => return Err(invalid(format!("unknown query answer kind {other}"))),
                };
                WireMessage::QueryResult { answer }
            }
            TAG_BUSY => WireMessage::Busy { active: cur.u32()?, max_clients: cur.u32()? },
            TAG_ERROR_REPLY => {
                let len = cur.u32()? as usize;
                if len > cur.remaining() {
                    return Err(invalid("error message length exceeds remaining payload"));
                }
                let message = String::from_utf8(cur.take(len)?.to_vec())
                    .map_err(|_| invalid("error message is not valid UTF-8"))?;
                WireMessage::ErrorReply { message }
            }
            other => return Err(invalid(format!("unknown message tag {other}"))),
        };
        if cur.at != payload.len() {
            return Err(invalid("trailing bytes after message payload"));
        }
        Ok(msg)
    }

    /// Human-readable message name (for protocol-error diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            WireMessage::Hello { .. } => "Hello",
            WireMessage::HelloAck { .. } => "HelloAck",
            WireMessage::Batch { .. } => "Batch",
            WireMessage::Flush => "Flush",
            WireMessage::FlushAck => "FlushAck",
            WireMessage::StateDigest => "StateDigest",
            WireMessage::StateDigestReply { .. } => "StateDigestReply",
            WireMessage::GatherRound { .. } => "GatherRound",
            WireMessage::RoundSketches { .. } => "RoundSketches",
            WireMessage::SealEpoch => "SealEpoch",
            WireMessage::EpochSealed { .. } => "EpochSealed",
            WireMessage::ReleaseEpoch { .. } => "ReleaseEpoch",
            WireMessage::EpochReleased => "EpochReleased",
            WireMessage::CheckpointShard => "CheckpointShard",
            WireMessage::CheckpointAck { .. } => "CheckpointAck",
            WireMessage::Resync => "Resync",
            WireMessage::ResyncFrom { .. } => "ResyncFrom",
            WireMessage::Shutdown => "Shutdown",
            WireMessage::ClientHello => "ClientHello",
            WireMessage::ClientHelloAck { .. } => "ClientHelloAck",
            WireMessage::UpdateBatch { .. } => "UpdateBatch",
            WireMessage::UpdateAck { .. } => "UpdateAck",
            WireMessage::Query { .. } => "Query",
            WireMessage::QueryResult { .. } => "QueryResult",
            WireMessage::Busy { .. } => "Busy",
            WireMessage::ErrorReply { .. } => "ErrorReply",
        }
    }
}

/// Minimal bounds-checked reader over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Bytes not yet consumed — the budget any trusted-from-the-wire count
    /// or length must fit in.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(invalid("truncated message payload")),
        }
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn graph_digest(&mut self) -> io::Result<Box<GraphDigest>> {
        let bytes = self.take(GRAPH_DIGEST_BYTES)?.try_into().unwrap();
        Ok(Box::new(GraphDigest::from_bytes(bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph digest with some bits set.
    fn graph() -> Box<GraphDigest> {
        Box::new(GraphDigest::of_updates((1..40u32).map(|i| (0, i, false)), 64))
    }

    fn round_trip(msg: WireMessage) -> WireMessage {
        let mut buf = Vec::new();
        msg.write_to(&mut buf).unwrap();
        let mut r = &buf[..];
        let got = WireMessage::read_from(&mut r).unwrap();
        assert!(r.is_empty(), "frame must consume exactly");
        got
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            WireMessage::Hello { params_digest: 0xDEAD_BEEF_0BAD_F00D },
            WireMessage::HelloAck { params_digest: 7, group_nodes: 18 },
            WireMessage::Batch { node: 42, records: vec![1, 2, 3, u32::MAX] },
            WireMessage::Batch { node: 0, records: vec![] },
            WireMessage::Flush,
            WireMessage::FlushAck,
            WireMessage::StateDigest,
            WireMessage::StateDigestReply { digest: 0, graph: Box::default() },
            WireMessage::StateDigestReply { digest: 0x0123_4567_89AB_CDEF, graph: graph() },
            WireMessage::GatherRound { round: 11, epoch: None },
            WireMessage::GatherRound { round: 3, epoch: Some(17) },
            WireMessage::RoundSketches {
                round: 11,
                entries: vec![
                    SketchEntry { node: 1, bytes: vec![4, 5] },
                    SketchEntry { node: 4, bytes: vec![] },
                ],
            },
            WireMessage::SealEpoch,
            WireMessage::EpochSealed { epoch: 0 },
            WireMessage::EpochSealed { epoch: u64::MAX - 1 },
            WireMessage::ReleaseEpoch { epoch: 42 },
            WireMessage::EpochReleased,
            WireMessage::CheckpointShard,
            WireMessage::CheckpointAck { seq: 0 },
            WireMessage::CheckpointAck { seq: u64::MAX },
            WireMessage::Resync,
            WireMessage::ResyncFrom { seq: 12345 },
            WireMessage::Shutdown,
            WireMessage::ClientHello,
            WireMessage::ClientHelloAck { num_nodes: 1 << 40, acked: u64::MAX, graph: graph() },
            WireMessage::UpdateBatch {
                updates: vec![
                    WireUpdate { u: 0, v: u32::MAX, is_delete: false },
                    WireUpdate { u: 7, v: 9, is_delete: true },
                ],
            },
            WireMessage::UpdateBatch { updates: vec![] },
            WireMessage::UpdateAck { acked: 0 },
            WireMessage::UpdateAck { acked: u64::MAX },
            WireMessage::Query { kind: QueryKind::NumComponents },
            WireMessage::Query { kind: QueryKind::Components },
            WireMessage::Query { kind: QueryKind::SpanningForest },
            WireMessage::QueryResult { answer: QueryAnswer::NumComponents(3) },
            WireMessage::QueryResult { answer: QueryAnswer::Components(vec![0, 0, 2, 2]) },
            WireMessage::QueryResult { answer: QueryAnswer::Components(vec![]) },
            WireMessage::QueryResult { answer: QueryAnswer::SpanningForest(vec![(0, 1), (1, 2)]) },
            WireMessage::QueryResult { answer: QueryAnswer::SpanningForest(vec![]) },
            WireMessage::Busy { active: 64, max_clients: 64 },
            WireMessage::ErrorReply { message: "vertex 9 out of range".to_string() },
            WireMessage::ErrorReply { message: String::new() },
        ];
        for msg in msgs {
            assert_eq!(round_trip(msg.clone()), msg, "{}", msg.name());
        }
    }

    #[test]
    fn messages_stream_back_to_back() {
        let mut buf = Vec::new();
        WireMessage::Hello { params_digest: 1 }.write_to(&mut buf).unwrap();
        WireMessage::Batch { node: 5, records: vec![6] }.write_to(&mut buf).unwrap();
        WireMessage::Shutdown.write_to(&mut buf).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            WireMessage::read_from(&mut r).unwrap(),
            WireMessage::Hello { params_digest: 1 }
        );
        assert_eq!(
            WireMessage::read_from(&mut r).unwrap(),
            WireMessage::Batch { node: 5, records: vec![6] }
        );
        assert_eq!(WireMessage::read_from(&mut r).unwrap(), WireMessage::Shutdown);
        assert!(r.is_empty());
    }

    #[test]
    fn rejects_bad_magic_version_and_tag() {
        let mut buf = Vec::new();
        WireMessage::Flush.write_to(&mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(WireMessage::read_from(&mut &bad_magic[..]).is_err());

        let mut bad_version = buf.clone();
        bad_version[2] = PROTOCOL_VERSION + 1;
        assert!(WireMessage::read_from(&mut &bad_version[..]).is_err());

        let mut bad_tag = buf.clone();
        bad_tag[3] = 200;
        assert!(WireMessage::read_from(&mut &bad_tag[..]).is_err());
    }

    #[test]
    fn rejects_truncated_and_oversized_frames() {
        let mut buf = Vec::new();
        WireMessage::Batch { node: 1, records: vec![2, 3] }.write_to(&mut buf).unwrap();
        // Truncate mid-payload.
        let cut = &buf[..buf.len() - 3];
        assert!(WireMessage::read_from(&mut &cut[..]).is_err());

        // A length header promising more than the cap must be refused
        // before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&WIRE_MAGIC);
        huge.push(PROTOCOL_VERSION);
        huge.push(4); // Flush
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(WireMessage::read_from(&mut &huge[..]).is_err());
    }

    #[test]
    fn rejects_trailing_garbage_in_payload() {
        // A Flush frame with a nonempty payload is malformed.
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(4);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0]);
        assert!(WireMessage::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn rejects_lying_counts() {
        // Batch claiming 1000 records but carrying none.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // node
        payload.extend_from_slice(&1000u32.to_le_bytes()); // count
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(3);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(WireMessage::read_from(&mut &buf[..]).is_err());

        // RoundSketches claiming 1000 entries but carrying none.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes()); // round
        payload.extend_from_slice(&1000u32.to_le_bytes()); // count
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(10);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(WireMessage::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn oversized_counts_fail_against_remaining_payload_not_oom() {
        // A count can be small enough to pass a whole-payload sanity check
        // yet still exceed what the *remaining* bytes can encode; the
        // decoder must refuse it before `Vec::with_capacity` turns an
        // attacker-controlled u32 into an allocation.
        fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(&WIRE_MAGIC);
            buf.push(PROTOCOL_VERSION);
            buf.push(tag);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
            buf
        }

        // RoundSketches: 168-byte payload claims 21 entries, but after the
        // round and count headers only 160 bytes remain — room for at most
        // 20 entry headers.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes()); // round
        payload.extend_from_slice(&21u32.to_le_bytes()); // count
        payload.resize(168, 0);
        let buf = frame(10, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("entry count exceeds remaining payload"), "got: {err}");

        // RoundSketches: one entry whose length field promises u32::MAX
        // bytes.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u32.to_le_bytes()); // round
        payload.extend_from_slice(&1u32.to_le_bytes()); // count
        payload.extend_from_slice(&0u32.to_le_bytes()); // node
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // entry length
        let buf = frame(10, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("entry length exceeds remaining payload"), "got: {err}");

        // Batch: count claims more records than the remaining bytes hold.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u32.to_le_bytes()); // node
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let buf = frame(3, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("record count exceeds remaining payload"), "got: {err}");
    }

    #[test]
    fn refuses_to_write_oversized_frames() {
        // A frame the reader would reject must never be sent (and a payload
        // past u32::MAX must not silently truncate the length header).
        let msg = WireMessage::RoundSketches {
            round: 0,
            entries: vec![SketchEntry { node: 0, bytes: vec![0u8; MAX_PAYLOAD_BYTES + 1] }],
        };
        let mut out = Vec::new();
        assert!(msg.write_to(&mut out).is_err());
        assert!(out.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn empty_batch_is_legal() {
        // The coordinator never sends these, but the codec must not choke.
        let msg = round_trip(WireMessage::Batch { node: 9, records: vec![] });
        assert_eq!(msg, WireMessage::Batch { node: 9, records: vec![] });
    }

    #[test]
    fn version_mismatch_reports_both_versions() {
        // A mixed-version fleet must be diagnosable from the error text
        // alone: both the peer's version and ours belong in the message.
        let mut buf = Vec::new();
        WireMessage::Flush.write_to(&mut buf).unwrap();
        buf[2] = PROTOCOL_VERSION + 1;
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("got {}", PROTOCOL_VERSION + 1))
                && msg.contains(&format!("want {PROTOCOL_VERSION}")),
            "got: {msg}"
        );
    }

    #[test]
    fn checkpoint_and_resync_frames_reject_malformed_payloads() {
        fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(&WIRE_MAGIC);
            buf.push(PROTOCOL_VERSION);
            buf.push(tag);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
            buf
        }
        // CheckpointShard / Resync / StateDigest carry no payload; trailing
        // bytes are garbage.
        for tag in [TAG_CHECKPOINT_SHARD, TAG_RESYNC, TAG_STATE_DIGEST] {
            let buf = frame(tag, &[0]);
            assert!(WireMessage::read_from(&mut &buf[..]).is_err(), "tag {tag}");
        }
        // ResyncFrom and CheckpointAck carry exactly a u64, StateDigestReply
        // a u64 and a graph digest: one byte short truncates, one byte over
        // trails, and each is a typed `InvalidData`, never a value.
        for (tag, exact) in [
            (TAG_RESYNC_FROM, 8),
            (TAG_CHECKPOINT_ACK, 8),
            (TAG_STATE_DIGEST_REPLY, 8 + GRAPH_DIGEST_BYTES),
        ] {
            for (len, why) in
                [(exact - 1, "truncated message payload"), (exact + 1, "trailing bytes")]
            {
                let buf = frame(tag, &vec![0xA5; len]);
                let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}, {len} bytes");
                assert!(err.to_string().contains(why), "tag {tag}, {len} bytes: {err}");
            }
        }
    }

    fn serve_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.push(PROTOCOL_VERSION);
        buf.push(tag);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn serve_frames_reject_malformed_payloads() {
        // UpdateBatch claiming more updates than the payload can hold.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let buf = serve_frame(TAG_UPDATE_BATCH, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("update count exceeds remaining payload"), "got: {err}");

        // An is_delete flag outside {0, 1} is a malformed frame, not a bool.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(2);
        let buf = serve_frame(TAG_UPDATE_BATCH, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("bad update flag"), "got: {err}");

        // Query with an unknown kind code.
        let buf = serve_frame(TAG_QUERY, &[9]);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("unknown query kind"), "got: {err}");

        // QueryResult with an unknown answer kind.
        let buf = serve_frame(TAG_QUERY_RESULT, &[7, 0, 0, 0, 0, 0, 0, 0, 0]);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("unknown query answer kind"), "got: {err}");

        // QueryResult label / edge counts lying about the remaining bytes.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let buf = serve_frame(TAG_QUERY_RESULT, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("label count exceeds remaining payload"), "got: {err}");

        let mut payload = vec![2u8];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8]); // room for one edge, claims two
        let buf = serve_frame(TAG_QUERY_RESULT, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("edge count exceeds remaining payload"), "got: {err}");

        // ErrorReply whose length field overruns the payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&100u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        let buf = serve_frame(TAG_ERROR_REPLY, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(
            err.to_string().contains("error message length exceeds remaining payload"),
            "got: {err}"
        );

        // ErrorReply carrying bytes that are not UTF-8.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let buf = serve_frame(TAG_ERROR_REPLY, &payload);
        let err = WireMessage::read_from(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("not valid UTF-8"), "got: {err}");

        // Fixed-size serve frames truncate / trail like any other.
        for (tag, len) in
            [(TAG_CLIENT_HELLO_ACK, 16usize), (TAG_UPDATE_ACK, 8), (TAG_BUSY, 8), (TAG_QUERY, 1)]
        {
            let short = serve_frame(tag, &vec![0u8; len - 1]);
            assert!(WireMessage::read_from(&mut &short[..]).is_err(), "tag {tag} short");
            let long = serve_frame(tag, &vec![0u8; len + 1]);
            assert!(WireMessage::read_from(&mut &long[..]).is_err(), "tag {tag} long");
        }
        let hello = serve_frame(TAG_CLIENT_HELLO, &[0]);
        assert!(WireMessage::read_from(&mut &hello[..]).is_err(), "ClientHello trailing byte");
    }
}
