//! Checkpointing: persist a shard's sketch state and resume later.
//!
//! Linear sketches make this trivial in principle — the whole system state
//! is the `V × O(log V)` bucket arrays plus the seeds that define the hash
//! functions — and very useful in practice: a stream can be ingested across
//! process restarts, or sketches shipped from an ingestion machine to a
//! query machine (the coordinator/shard split of [`crate::sharding`]).
//!
//! One kind of file serves every writer: a shard of the sharded system
//! (DESIGN.md §14), and the [`GraphZeppelin`] facade, which is shard 0 of
//! 1. Layout (little-endian):
//!
//! ```text
//! magic       [u8;4] = b"GZC3"  — v3: one kind, resident words, graph digest
//! num_nodes u64, seed u64, rounds u32, columns u32
//! shard_index u32, num_shards u32
//! seq         u64  — batches the shard had absorbed when the file was cut
//! updates     u64  — stream updates the state covers (a facade counts
//!                    them; a shard worker sees batches and writes 0)
//! owned       u64  — sketches that follow
//! graph       [u8; 512] — the shard's graph digest (`gz_graph::digest`)
//! payload     owned × one stack's encoding (owned-slot order)
//! ```
//!
//! A node's payload is its stack's one encoding
//! ([`SketchParams::serialize_node_sketch`]), the bytes the store holds,
//! the wire ships and the state digest hashes. Files of the two
//! kinds before it still restore through one legacy reader: `GZC2` (a
//! facade's; after `columns` only `updates`) and `GZS2` (a shard's; after
//! `columns` the topology, `seq` and `owned`). Their payload is the paper's
//! 12-byte model, decoded by
//! [`gz_sketch::cube::CubeSketch::decode_paper_model`], and they carry no
//! graph digest ([`CheckpointHeader::graph`] is `None`).
//!
//! The reader validates the *exact* file length against the header before
//! allocating or decoding anything: a truncated file, a short sketch
//! payload, and trailing garbage all surface as a clean
//! [`GzError::InvalidConfig`], never a panic or a partial restore. The
//! writer (and the serve manifest's) fills a temp file, fsyncs it and
//! renames it into place, so a crash or a full disk mid-write can neither
//! destroy the previous checkpoint nor regress the durable state a prior
//! `CheckpointAck` promised. It streams the payload straight from the store
//! ([`NodePayload`]): a save holds one node or node group at a time, never
//! a copy of the store.

use crate::config::GzConfig;
use crate::error::GzError;
use crate::node_sketch::{CubeNodeSketch, SketchParams};
use crate::store::SketchStore;
use crate::system::GraphZeppelin;
use gz_graph::{GraphDigest, GRAPH_DIGEST_BYTES};
use gz_hash::xxh64;
use gz_sketch::cube::PayloadError;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// v1 checkpoints ("GZC1") predate the single-hash column derivation
// (DESIGN.md §9): their bucket payloads were built from the old `h1`/`h2`
// pair and cannot merge with sketches hashed under the current scheme, so
// the magic refuses them instead of silently restoring corrupt state.
const MAGIC: [u8; 4] = *b"GZC3";
const LEGACY_MAGIC: [u8; 4] = *b"GZC2";
const LEGACY_SHARD_MAGIC: [u8; 4] = *b"GZS2";

/// Byte size of a `GZC3` header.
#[cfg(test)]
const HEADER_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + GRAPH_DIGEST_BYTES;

fn corrupt(path: &Path, what: impl std::fmt::Display) -> GzError {
    GzError::InvalidConfig(format!("corrupt checkpoint {}: {what}", path.display()))
}

/// Check that `path`'s length is exactly `header_len + owned × node bytes`,
/// a node's bytes sized from the header's geometry alone (no families are
/// built from a header not yet checked): resident words, or the paper's
/// model in a legacy file. Catches truncation (short sketch payloads) and
/// trailing garbage alike, before anything is allocated from untrusted
/// counts.
fn check_payload_len(
    path: &Path,
    header_len: u64,
    header: &CheckpointHeader,
) -> Result<(), GzError> {
    let (geometry, rounds) =
        (SketchParams::geometry(header.num_nodes, header.columns), header.rounds as usize);
    let node_bytes = match header.graph {
        Some(_) => SketchParams::stack_resident_bytes(geometry, rounds),
        None => geometry.cube_sketch_bytes() * rounds,
    } as u64;
    let expected = header
        .owned_count
        .checked_mul(node_bytes)
        .and_then(|p| p.checked_add(header_len))
        .ok_or_else(|| corrupt(path, "node count overflows the payload size"))?;
    let actual = std::fs::metadata(path)?.len();
    if actual != expected {
        return Err(corrupt(
            path,
            format!(
                "file is {actual} bytes, expected {expected} \
                 ({} sketches of {node_bytes} bytes)",
                header.owned_count
            ),
        ));
    }
    Ok(())
}

/// Write the file at `path` atomically: `write` fills a sibling temp file
/// (`<path>.tmp`), which is fsynced and only then renamed over `path`, and
/// the rename is made durable in the directory. A crash or a full disk at
/// any point leaves either the previous file or the new one — never a torn
/// file in its place.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), GzError> {
    let tmp: PathBuf = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        os.into()
    };
    let publish = || {
        let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(&tmp)?);
        write(&mut w)?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    };
    publish().map_err(|e| {
        // Best effort: a failed save should not also keep the space.
        let _ = std::fs::remove_file(&tmp);
        GzError::Io(e)
    })
}

/// The node sketches a checkpoint payload is written from, in slot order.
pub trait NodePayload {
    /// Hand `write` each node sketch's encoding, in slot order.
    fn write_nodes(
        &self,
        params: &SketchParams,
        write: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()>;
}

/// A store streams its payload one node (RAM) or node group (disk) at a
/// time ([`SketchStore::for_each_serialized`]): a checkpoint never holds a
/// copy of the store, only what is being encoded and the file buffer.
impl NodePayload for SketchStore {
    fn write_nodes(
        &self,
        _params: &SketchParams,
        write: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        self.for_each_serialized(&mut |_, bytes| write(bytes))
    }
}

/// Snapshot-then-write, the order checkpoints were written in before they
/// streamed: the reference the streaming writer is held byte-equal to.
#[cfg(test)]
impl NodePayload for Vec<(u32, CubeNodeSketch)> {
    fn write_nodes(
        &self,
        params: &SketchParams,
        write: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(params.node_sketch_resident_bytes());
        for (_, sketch) in self {
            buf.clear();
            params.serialize_node_sketch(sketch, &mut buf);
            write(&buf)?;
        }
        Ok(())
    }
}

/// Header of a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Vertex universe size (the whole graph's, not the shard's).
    pub num_nodes: u64,
    /// Master seed (hash functions are derived from it).
    pub seed: u64,
    /// Rounds per node sketch.
    pub rounds: u32,
    /// Sketch columns.
    pub columns: u32,
    /// Which shard this state belongs to (0 for a facade's).
    pub shard_index: u32,
    /// Fleet size the shard was partitioned for (1 for a facade's).
    pub num_shards: u32,
    /// Batches the state covers — a replay log resumes strictly after
    /// this point.
    pub seq: u64,
    /// Stream updates the state covers, where the writer counts them (a
    /// facade does; a shard worker writes 0).
    pub updates_ingested: u64,
    /// Owned sketches in the payload.
    pub owned_count: u64,
    /// The shard's graph digest when the file was cut; `None` in a legacy
    /// `GZC2`/`GZS2` file, which carries none.
    pub graph: Option<GraphDigest>,
}

/// Persist `header.owned_count` node sketches, pulled from `nodes` in
/// owned-slot order as the file is written (a store densifies its sparse
/// vertices one at a time on the way), to `path`, atomically (see
/// `write_atomically`): a crash at any point leaves either the old
/// checkpoint or the new one — never a torn file that would silently
/// regress the durable `seq`. The one checkpoint writer; `header.graph`
/// must be set.
pub fn write_checkpoint(
    path: &Path,
    header: &CheckpointHeader,
    params: &SketchParams,
    nodes: &impl NodePayload,
) -> Result<(), GzError> {
    let graph = header.graph.ok_or_else(|| {
        GzError::InvalidConfig("a checkpoint is written with its graph digest".into())
    })?;
    write_atomically(path, |w| {
        w.write_all(&MAGIC)?;
        w.write_all(&header.num_nodes.to_le_bytes())?;
        w.write_all(&header.seed.to_le_bytes())?;
        w.write_all(&header.rounds.to_le_bytes())?;
        w.write_all(&header.columns.to_le_bytes())?;
        w.write_all(&header.shard_index.to_le_bytes())?;
        w.write_all(&header.num_shards.to_le_bytes())?;
        w.write_all(&header.seq.to_le_bytes())?;
        w.write_all(&header.updates_ingested.to_le_bytes())?;
        w.write_all(&header.owned_count.to_le_bytes())?;
        w.write_all(&graph.to_bytes())?;
        let mut written = 0u64;
        nodes.write_nodes(params, &mut |bytes| {
            written += 1;
            w.write_all(bytes)
        })?;
        debug_assert_eq!(written, header.owned_count, "checkpoint payload node count");
        Ok(())
    })
}

/// Read the header of the checkpoint at `path`, of either kind, and check
/// the file's length against it: a header this returns describes a whole
/// file.
pub fn read_checkpoint_header(path: &Path) -> Result<CheckpointHeader, GzError> {
    let (header, header_len) = read_header(&mut BufReader::new(std::fs::File::open(path)?))?;
    check_payload_len(path, header_len, &header)?;
    Ok(header)
}

/// Load the checkpoint at `path`, validating every identity field against
/// `expect` (its `seq`, `updates_ingested` and `graph` are ignored — those
/// are the answer, not a precondition), then the file's length. Returns the
/// file's header and the owned sketches in owned-slot order. The whole
/// payload is read and decoded before any store sees it, on purpose: a
/// file that turns out short or unreadable halfway fails the restore with
/// the store untouched, never half-restored.
pub fn load_checkpoint(
    path: &Path,
    params: &SketchParams,
    expect: &CheckpointHeader,
) -> Result<(CheckpointHeader, Vec<CubeNodeSketch>), GzError> {
    let mut r = BufReader::with_capacity(1 << 20, std::fs::File::open(path)?);
    let (header, header_len) = read_header(&mut r)?;
    if (header.num_nodes, header.seed, header.rounds, header.columns)
        != (expect.num_nodes, expect.seed, expect.rounds, expect.columns)
        || (header.shard_index, header.num_shards, header.owned_count)
            != (expect.shard_index, expect.num_shards, expect.owned_count)
    {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint {} does not match this shard's parameters: \
             file has {header:?}, expected {expect:?}",
            path.display()
        )));
    }
    check_payload_len(path, header_len, &header)?;

    let short = |e: std::io::Error| corrupt(path, format!("short payload: {e}"));
    // A legacy file's node is read whole, then decoded from the paper's model.
    let mut legacy_node = header.graph.is_none().then(|| vec![0u8; params.node_sketch_bytes()]);
    let mut sketches = Vec::with_capacity(header.owned_count as usize);
    for _ in 0..header.owned_count {
        sketches.push(match &mut legacy_node {
            Some(buf) => {
                r.read_exact(buf).map_err(short)?;
                decode_legacy_node(params, buf).map_err(|e| corrupt(path, e))?
            }
            None => params.read_node_sketch(|bytes| r.read_exact(bytes)).map_err(short)?,
        });
    }
    Ok((header, sketches))
}

/// The legacy reader's node decoder: a stack in the paper's 12-byte model,
/// round by round, its `α` high words checked (the bytes come from a file).
fn decode_legacy_node(params: &SketchParams, bytes: &[u8]) -> Result<CubeNodeSketch, PayloadError> {
    let mut sketch = params.new_node_sketch();
    let mut rest = bytes;
    for r in 0..params.rounds() {
        let (round, tail) = rest.split_at(params.families[r].geometry().cube_sketch_bytes());
        sketch.round_mut(r).decode_paper_model(round)?;
        rest = tail;
    }
    Ok(sketch)
}

impl GraphZeppelin {
    /// Write the sketch state to `path` as shard 0 of 1, through the
    /// shard's checkpoint writer
    /// ([`ShardedGraphZeppelin::checkpoint_shards_to`](crate::ShardedGraphZeppelin::checkpoint_shards_to)),
    /// and hand back the file's header.
    pub fn save_checkpoint(&mut self, path: &Path) -> Result<CheckpointHeader, GzError> {
        self.checkpoint_shards_to(&[path.to_path_buf()])?;
        read_checkpoint_header(path)
    }

    /// Restore a system from a checkpoint with default runtime settings
    /// (in-RAM store, default buffering/workers).
    pub fn restore(path: &Path) -> Result<GraphZeppelin, GzError> {
        let header = read_checkpoint_header(path)?;
        let mut config = GzConfig::in_ram(header.num_nodes);
        config.seed = header.seed;
        config.num_rounds = Some(header.rounds);
        config.num_columns = header.columns;
        Self::restore_with_config(path, config)
    }

    /// Restore with explicit runtime settings. The config's sketch-defining
    /// fields (`num_nodes`, `seed`, rounds, `num_columns`) must match the
    /// checkpoint, a facade's (shard 0 of 1), or an
    /// [`GzError::InvalidConfig`] is returned. The graph digest resumes from
    /// the file's; a legacy file carries none, and the digest starts empty.
    pub fn restore_with_config(path: &Path, config: GzConfig) -> Result<GraphZeppelin, GzError> {
        let header = read_checkpoint_header(path)?;
        let mut gz = GraphZeppelin::new(config)?;
        gz.resume(path, header.updates_ingested)?;
        Ok(gz)
    }
}

/// Reader helpers that count the bytes read and turn a short read into a
/// clean "truncated" error rather than a bare `UnexpectedEof`.
struct HeaderReader<'a, R: Read> {
    r: &'a mut R,
    read: u64,
}

impl<R: Read> HeaderReader<'_, R> {
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], GzError> {
        let mut buf = [0u8; N];
        self.r.read_exact(&mut buf).map_err(truncated_header)?;
        self.read += N as u64;
        Ok(buf)
    }

    fn u32(&mut self) -> Result<u32, GzError> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, GzError> {
        self.bytes().map(u64::from_le_bytes)
    }
}

fn truncated_header(e: std::io::Error) -> GzError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        GzError::InvalidConfig("truncated checkpoint header".into())
    } else {
        GzError::Io(e)
    }
}

/// Read a header of any kind, and its length, and bounds-check its fields —
/// against the bounds every config is validated against, so a file a
/// system wrote is never refused here — before anything is sized from them.
fn read_header(r: &mut impl Read) -> Result<(CheckpointHeader, u64), GzError> {
    let mut hr = HeaderReader { r, read: 0 };
    let magic = hr.bytes::<4>()?;
    if ![MAGIC, LEGACY_MAGIC, LEGACY_SHARD_MAGIC].contains(&magic) {
        return Err(GzError::InvalidConfig("not a GraphZeppelin checkpoint".into()));
    }
    let (num_nodes, seed, rounds, columns) = (hr.u64()?, hr.u64()?, hr.u32()?, hr.u32()?);
    let mut header = CheckpointHeader {
        num_nodes,
        seed,
        rounds,
        columns,
        shard_index: 0,
        num_shards: 1,
        seq: 0,
        updates_ingested: 0,
        owned_count: num_nodes,
        graph: None,
    };
    if magic == LEGACY_MAGIC {
        header.updates_ingested = hr.u64()?;
    } else {
        header.shard_index = hr.u32()?;
        header.num_shards = hr.u32()?;
        header.seq = hr.u64()?;
        if magic == MAGIC {
            header.updates_ingested = hr.u64()?;
        }
        header.owned_count = hr.u64()?;
    }
    if magic == MAGIC {
        header.graph = Some(GraphDigest::from_bytes(&hr.bytes()?));
    }
    crate::config::check_sketch_fields(num_nodes, rounds, columns)
        .map_err(|what| GzError::InvalidConfig(format!("checkpoint {what}")))?;
    if header.num_shards == 0 || header.shard_index >= header.num_shards {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint names shard {} of {}",
            header.shard_index, header.num_shards
        )));
    }
    if header.owned_count > num_nodes {
        return Err(GzError::InvalidConfig(format!(
            "checkpoint owns {} of {num_nodes} nodes",
            header.owned_count
        )));
    }
    Ok((header, hr.read))
}

// ---------------------------------------------------------------------------
// Serve durability: update WAL + round manifest
// ---------------------------------------------------------------------------

const WAL_MAGIC: [u8; 4] = *b"GZW1";
const MANIFEST_MAGIC: [u8; 4] = *b"GZSM";

/// Bytes one WAL update occupies: `u` + `v` + the delete flag.
const WAL_UPDATE_BYTES: usize = 9;
/// Bytes of a WAL record header: update count + payload checksum.
const WAL_RECORD_HEADER_BYTES: usize = 4 + 8;

/// Append-only write-ahead log of client edge updates, the durability layer
/// `gz serve` acks against (DESIGN.md §15). Each append is one record:
///
/// ```text
/// count    u32  — updates in this record
/// checksum u64  — xxh64 of the payload, seeded with `count`
/// payload  count × (u u32, v u32, is_delete u8)
/// ```
///
/// and is fsynced before the daemon acks the batch, so an acked update is
/// durable by definition. Recovery replays records until the first torn or
/// corrupt one — a crash mid-append — truncates the tail there, and leaves
/// the file positioned for further appends. Because the WAL is replayed in
/// append order on top of a checkpoint that covers everything before it,
/// the recovered stream is a prefix-preserving superset of the acked
/// prefix: acked updates are always recovered, unacked in-flight ones may
/// be.
#[derive(Debug)]
pub struct UpdateWal {
    file: std::fs::File,
    buf: Vec<u8>,
}

impl UpdateWal {
    /// Create (or truncate) the WAL at `path`, writing and syncing the
    /// magic so recovery can tell "fresh log" from "not a log".
    pub fn create(path: &Path) -> Result<UpdateWal, GzError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_data()?;
        Ok(UpdateWal { file, buf: Vec::new() })
    }

    /// Durably append one batch of updates: a single `write_all` followed
    /// by `sync_data`. After this returns the batch may be acked.
    pub fn append(&mut self, updates: &[(u32, u32, bool)]) -> Result<(), GzError> {
        self.append_from(updates.iter().copied())
    }

    /// [`Self::append`] for a batch that is not already a slice of tuples —
    /// `gz serve` feeds it the decoded wire updates as they are.
    pub fn append_from(
        &mut self,
        updates: impl IntoIterator<Item = (u32, u32, bool)>,
    ) -> Result<(), GzError> {
        let updates = updates.into_iter();
        let mut payload = std::mem::take(&mut self.buf);
        payload.clear();
        payload.reserve(WAL_RECORD_HEADER_BYTES + updates.size_hint().0 * WAL_UPDATE_BYTES);
        payload.extend_from_slice(&[0u8; WAL_RECORD_HEADER_BYTES]); // patched below
        for (u, v, is_delete) in updates {
            payload.extend_from_slice(&u.to_le_bytes());
            payload.extend_from_slice(&v.to_le_bytes());
            payload.push(is_delete as u8);
        }
        let count = (payload.len() - WAL_RECORD_HEADER_BYTES) / WAL_UPDATE_BYTES;
        let checksum = xxh64(&payload[WAL_RECORD_HEADER_BYTES..], count as u64).to_le_bytes();
        payload[..4].copy_from_slice(&(count as u32).to_le_bytes());
        payload[4..12].copy_from_slice(&checksum);
        let result = self.file.write_all(&payload).and_then(|()| self.file.sync_data());
        self.buf = payload;
        result.map_err(GzError::Io)
    }

    /// Open the WAL at `path`, replay every intact record into `sink`
    /// (in append order), truncate the first torn or corrupt tail, and
    /// return the log positioned for appends plus the number of updates
    /// replayed. A missing or torn-at-the-magic file is a fresh log, not an
    /// error — the only crash that produces one is a crash during
    /// [`create`](Self::create), before anything could have been acked
    /// against it.
    pub fn recover(
        path: &Path,
        sink: &mut dyn FnMut(u32, u32, bool),
    ) -> Result<(UpdateWal, u64), GzError> {
        let mut file = match std::fs::OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((UpdateWal::create(path)?, 0));
            }
            Err(e) => return Err(GzError::Io(e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() {
            drop(file);
            return Ok((UpdateWal::create(path)?, 0));
        }
        if bytes[..4] != WAL_MAGIC {
            return Err(corrupt(path, "not an update WAL (bad magic)"));
        }

        let mut at = WAL_MAGIC.len();
        let mut replayed = 0u64;
        while let Some(header) = bytes.get(at..at + WAL_RECORD_HEADER_BYTES) {
            let count = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(header[4..12].try_into().unwrap());
            let payload_at = at + WAL_RECORD_HEADER_BYTES;
            let Some(payload) = count
                .checked_mul(WAL_UPDATE_BYTES)
                .and_then(|len| bytes.get(payload_at..payload_at + len))
            else {
                break; // torn mid-payload
            };
            if xxh64(payload, count as u64) != checksum {
                break; // torn mid-header or bit-rotted — either way, not acked-intact
            }
            for update in payload.chunks_exact(WAL_UPDATE_BYTES) {
                let u = u32::from_le_bytes(update[..4].try_into().unwrap());
                let v = u32::from_le_bytes(update[4..8].try_into().unwrap());
                sink(u, v, update[8] != 0);
            }
            replayed += count as u64;
            at = payload_at + payload.len();
        }

        file.set_len(at as u64)?;
        file.seek(SeekFrom::Start(at as u64))?;
        file.sync_data()?;
        Ok((UpdateWal { file, buf: Vec::new() }, replayed))
    }
}

/// The manifest naming `gz serve`'s current durable round (DESIGN.md §15):
/// which versioned shard-checkpoint files are authoritative and how many
/// client updates they cover. Written atomically *after* every shard file
/// of the round is complete, so the round it names is always fully on
/// disk; the WAL segment of the same round holds the updates that arrived
/// since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeManifest {
    /// Checkpoint round this manifest names (0 = fresh, no shard files).
    pub round: u64,
    /// Client updates the round's shard files cover.
    pub covered: u64,
    /// Vertex universe size — resume refuses a mismatched restart.
    pub num_nodes: u64,
    /// Master seed.
    pub seed: u64,
    /// Shard count the round's files were cut for.
    pub num_shards: u32,
    /// Graph digest of the `covered` updates (`gz_graph::digest`): the
    /// shard files carry none, so a resume hands this one back.
    pub graph: GraphDigest,
}

/// Bytes of a manifest's checksummed fields.
const MANIFEST_FIELDS: usize = 36 + GRAPH_DIGEST_BYTES;

impl ServeManifest {
    fn encode_fields(&self) -> [u8; MANIFEST_FIELDS] {
        let mut out = [0u8; MANIFEST_FIELDS];
        out[..8].copy_from_slice(&self.round.to_le_bytes());
        out[8..16].copy_from_slice(&self.covered.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_nodes.to_le_bytes());
        out[24..32].copy_from_slice(&self.seed.to_le_bytes());
        out[32..36].copy_from_slice(&self.num_shards.to_le_bytes());
        out[36..].copy_from_slice(&self.graph.to_bytes());
        out
    }

    /// Atomically publish this manifest at `path` (see
    /// `write_atomically`): a crash leaves either the previous round
    /// current or this one — never a torn manifest.
    pub fn save(&self, path: &Path) -> Result<(), GzError> {
        let fields = self.encode_fields();
        write_atomically(path, |w| {
            w.write_all(&MANIFEST_MAGIC)?;
            w.write_all(&fields)?;
            w.write_all(&xxh64(&fields, 0).to_le_bytes())
        })
    }

    /// Load and validate the manifest at `path`.
    pub fn load(path: &Path) -> Result<ServeManifest, GzError> {
        let bytes = std::fs::read(path)?;
        let expected = 4 + MANIFEST_FIELDS + 8;
        if bytes.len() != expected {
            return Err(corrupt(
                path,
                format!("manifest is {} bytes, expected {expected}", bytes.len()),
            ));
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(corrupt(path, "not a serve manifest (bad magic)"));
        }
        let fields = &bytes[4..4 + MANIFEST_FIELDS];
        let checksum = u64::from_le_bytes(bytes[4 + MANIFEST_FIELDS..].try_into().unwrap());
        if xxh64(fields, 0) != checksum {
            return Err(corrupt(path, "manifest checksum mismatch"));
        }
        Ok(ServeManifest {
            round: u64::from_le_bytes(fields[..8].try_into().unwrap()),
            covered: u64::from_le_bytes(fields[8..16].try_into().unwrap()),
            num_nodes: u64::from_le_bytes(fields[16..24].try_into().unwrap()),
            seed: u64::from_le_bytes(fields[24..32].try_into().unwrap()),
            num_shards: u32::from_le_bytes(fields[32..36].try_into().unwrap()),
            graph: GraphDigest::from_bytes(fields[36..].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-ckpt-{name}"), ".gzc")
    }

    #[test]
    fn save_restore_round_trip_preserves_answers() {
        let path = tmp("round_trip");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(32)).unwrap();
        for &(a, b) in &[(0u32, 1u32), (1, 2), (5, 6), (6, 7), (7, 5)] {
            gz.edge_update(a, b);
        }
        let expected = gz.connected_components().unwrap().labels().to_vec();
        let graph = gz.graph_digest();
        let header = gz.save_checkpoint(path.path()).unwrap();
        assert_eq!(header.updates_ingested, 5);
        assert_eq!(header.graph, Some(graph));
        drop(gz);

        let mut restored = GraphZeppelin::restore(path.path()).unwrap();
        assert_eq!(restored.updates_ingested(), 5);
        assert_eq!(restored.connected_components().unwrap().labels(), &expected[..]);
        assert_eq!(restored.graph_digest(), graph, "the digest resumes from the file");
    }

    #[test]
    fn restored_system_continues_streaming() {
        let path = tmp("continue");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(2, 3);
        gz.save_checkpoint(path.path()).unwrap();
        drop(gz);

        let mut restored = GraphZeppelin::restore(path.path()).unwrap();
        // Delete an old edge and add a new one across the components.
        restored.update(2, 3, true);
        restored.edge_update(1, 2);
        let cc = restored.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
        assert!(!cc.same_component(2, 3));
        let stream = [(0, 1, false), (2, 3, false), (2, 3, true), (1, 2, false)];
        assert_eq!(restored.graph_digest(), GraphDigest::of_updates(stream, 16));
    }

    #[test]
    fn a_failed_save_leaves_the_previous_checkpoint_intact() {
        let path = tmp("atomic");
        let sibling = PathBuf::from(format!("{}.tmp", path.path().display()));
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.save_checkpoint(path.path()).unwrap();
        assert!(!sibling.exists(), "a good save leaves no temp file behind");
        let saved = std::fs::read(path.path()).unwrap();

        // The temp file cannot be created: the save must fail before it
        // touches the destination.
        std::fs::create_dir(&sibling).unwrap();
        gz.edge_update(2, 3);
        let failed = gz.save_checkpoint(path.path());
        std::fs::remove_dir(&sibling).unwrap();
        assert!(matches!(failed, Err(GzError::Io(_))), "{failed:?}");
        assert_eq!(std::fs::read(path.path()).unwrap(), saved, "old checkpoint overwritten");
        let mut restored = GraphZeppelin::restore(path.path()).unwrap();
        assert_eq!(restored.updates_ingested(), 1);
        assert!(!restored.connected_components().unwrap().same_component(2, 3));

        gz.save_checkpoint(path.path()).unwrap();
        assert!(!sibling.exists());
        assert_eq!(GraphZeppelin::restore(path.path()).unwrap().updates_ingested(), 2);
    }

    #[test]
    fn hybrid_checkpoint_bitwise_equals_dense_and_round_trips() {
        // A hybrid store (sketch_threshold > 0) densifies on save, so its
        // checkpoint must be byte-for-byte the file an always-dense system
        // writes for the same stream — and restoring it is lossless.
        let edges: Vec<(u32, u32)> =
            vec![(0, 1), (1, 2), (2, 0), (5, 6), (0, 1), (3, 0), (4, 0), (7, 0), (8, 0)];

        let dense_path = tmp("hybrid_dense");
        let mut dense = GraphZeppelin::new(GzConfig::in_ram(24)).unwrap();
        for &(a, b) in &edges {
            dense.update(a, b, false);
        }
        dense.save_checkpoint(dense_path.path()).unwrap();

        let hybrid_path = tmp("hybrid");
        let mut config = GzConfig::in_ram(24);
        config.sketch_threshold = 3; // node 0 crosses τ mid-stream
        let mut hybrid = GraphZeppelin::new(config.clone()).unwrap();
        for &(a, b) in &edges {
            hybrid.update(a, b, false);
        }
        hybrid.flush();
        assert!(hybrid.rep_stats().promoted >= 1, "node 0 should have promoted");
        assert!(hybrid.rep_stats().sparse > 0, "most nodes should still be sparse");
        let expected = hybrid.connected_components().unwrap().labels().to_vec();
        hybrid.save_checkpoint(hybrid_path.path()).unwrap();

        assert_eq!(
            std::fs::read(hybrid_path.path()).unwrap(),
            std::fs::read(dense_path.path()).unwrap(),
            "hybrid checkpoint must densify to the always-dense byte stream"
        );

        // Restore back into a hybrid config: state loads dense (sparse sets
        // are retired), answers are preserved, and streaming continues.
        let mut restored = GraphZeppelin::restore_with_config(hybrid_path.path(), config).unwrap();
        assert_eq!(restored.rep_stats().sparse, 0, "restored state is fully dense");
        assert_eq!(restored.connected_components().unwrap().labels(), &expected[..]);
        restored.update(5, 6, true);
        let cc = restored.connected_components().unwrap();
        assert!(!cc.same_component(5, 6));
    }

    /// Two hubs well past τ = 64 over a ring of leaves that stay below it,
    /// some of the first hub's edges toggled back out.
    fn hub_stream(n: u32) -> Vec<(u32, u32, bool)> {
        let mut stream: Vec<(u32, u32, bool)> = (1..100).map(|v| (0, v, false)).collect();
        stream.extend((100..n).map(|v| (1, v, false)));
        stream.extend((0..n).map(|v| (v, (v * 7 + 3) % n, false)));
        stream.extend((1..100).step_by(3).map(|v| (0, v, true)));
        stream
    }

    #[test]
    fn streamed_checkpoint_bytes_equal_snapshot_then_write() {
        // The streaming writer against the order it replaced — snapshot
        // the whole store, then encode the copy — on both stores, dense
        // and hybrid: the same file, byte for byte, its header laid out
        // field by field.
        let dir = gz_testutil::TempDir::new("gz-ckpt-stream");
        let n = 256u32;
        for on_disk in [false, true] {
            for tau in [0u32, 64] {
                let mut config = GzConfig::in_ram(n as u64);
                if on_disk {
                    config.store = crate::config::StoreBackend::Disk {
                        dir: dir.path().to_path_buf(),
                        block_bytes: 1 << 14,
                        cache_groups: 4,
                    };
                }
                config.sketch_threshold = tau;
                let mut gz = GraphZeppelin::new(config).unwrap();
                gz.ingest(hub_stream(n));
                let path = tmp("streamed");
                let header = gz.save_checkpoint(path.path()).unwrap();
                if tau > 0 {
                    let census = gz.rep_stats();
                    assert!(census.promoted >= 2 && census.sparse > 0, "{census:?}");
                }

                let snapshot: Vec<(u32, CubeNodeSketch)> = (0..n)
                    .zip(gz.store().snapshot())
                    .map(|(node, sketch)| (node, sketch.unwrap()))
                    .collect();
                let mut want = MAGIC.to_vec();
                want.extend_from_slice(&header.num_nodes.to_le_bytes());
                want.extend_from_slice(&header.seed.to_le_bytes());
                want.extend_from_slice(&header.rounds.to_le_bytes());
                want.extend_from_slice(&header.columns.to_le_bytes());
                want.extend_from_slice(&0u32.to_le_bytes()); // shard 0
                want.extend_from_slice(&1u32.to_le_bytes()); // of 1
                want.extend_from_slice(&header.seq.to_le_bytes());
                want.extend_from_slice(&header.updates_ingested.to_le_bytes());
                want.extend_from_slice(&u64::from(n).to_le_bytes());
                want.extend_from_slice(&gz.graph_digest().to_bytes());
                assert_eq!(want.len(), HEADER_BYTES);
                snapshot
                    .write_nodes(gz.params(), &mut |bytes| {
                        want.extend_from_slice(bytes);
                        Ok(())
                    })
                    .unwrap();
                let what = format!("on_disk {on_disk}, τ {tau}");
                assert_eq!(std::fs::read(path.path()).unwrap(), want, "{what}");
            }
        }
    }

    #[test]
    fn mismatched_config_rejected() {
        let path = tmp("mismatch");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.save_checkpoint(path.path()).unwrap();

        let mut wrong = GzConfig::in_ram(16);
        wrong.seed = 12345; // different hash functions: must refuse
        assert!(matches!(
            GraphZeppelin::restore_with_config(path.path(), wrong),
            Err(GzError::InvalidConfig(_))
        ));
    }

    /// The committed legacy files, written by the commit before checkpoints
    /// held resident words, for [`legacy_stream`] at V = 16 under the
    /// default seed and geometry: a facade's `GZC2` and the `GZS2` of shard
    /// 0 of 1 (`ShardedGraphZeppelin::checkpoint_shards_to`).
    fn legacy_fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name)
    }

    /// The stream the legacy fixtures hold: 20 toggles over 16 vertices,
    /// four of which toggle an edge back out — 12 edges, 4 components.
    fn legacy_stream() -> Vec<(u32, u32, bool)> {
        (0..20u32).map(|i| ((i * 7 + 3) % 16, (i * i + 5 * i + 1) % 16, i % 5 == 4)).collect()
    }

    #[test]
    fn legacy_files_restore_and_answer() {
        use crate::sharding::{ShardConfig, ShardPipeline, ShardedGraphZeppelin};
        use gz_graph::connectivity::{connected_components_dsu, same_partition};
        let n = 16u64;
        let mut mirror = gz_graph::AdjacencyList::new(n as usize);
        for (u, v, _) in legacy_stream() {
            mirror.toggle(gz_graph::Edge::new(u, v));
        }
        let truth = connected_components_dsu(&mirror);
        let mut fresh = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
        fresh.ingest(legacy_stream());
        let (want_state, want_graph) = (fresh.state_digest().unwrap(), fresh.graph_digest());

        // GZC2: the facade restores it, bit for bit; the file carries no
        // graph digest, so the restored digest starts empty.
        let gzc2 = legacy_fixture("legacy.gzc2");
        let header = read_checkpoint_header(&gzc2).unwrap();
        assert_eq!((header.updates_ingested, header.graph), (20, None));
        let mut restored = GraphZeppelin::restore(&gzc2).unwrap();
        let labels = restored.connected_components().unwrap().labels().to_vec();
        assert!(same_partition(&labels, &truth), "{labels:?} vs {truth:?}");
        assert_eq!(restored.state_digest().unwrap(), want_state, "the same sketch bits");
        assert_eq!(restored.updates_ingested(), 20);
        assert_eq!(restored.graph_digest(), GraphDigest::ZERO);

        // GZS2: in process, with the digest recorded beside it (`gz serve`'s
        // manifest) standing in for the one it lacks.
        let gzs2 = legacy_fixture("legacy.gzs2");
        let seq = read_checkpoint_header(&gzs2).unwrap().seq;
        let config = ShardConfig::in_ram(n, 1);
        let mut sharded = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        assert_eq!(
            sharded.resume_shards_from(std::slice::from_ref(&gzs2), Some(want_graph)).unwrap(),
            [seq]
        );
        let labels = sharded.connected_components().unwrap();
        assert!(same_partition(&labels, &truth), "{labels:?} vs {truth:?}");
        assert_eq!(sharded.state_digest().unwrap(), want_state);
        assert_eq!(sharded.graph_digest().unwrap(), want_graph);

        // A socket worker has no digest to stand in, and refuses the file.
        let worker = ShardPipeline::new(&config, 0).unwrap();
        let err = worker.resume_from(&gzs2, None).unwrap_err();
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("graph digest"), "{err}");
    }

    #[test]
    fn rejects_non_checkpoint_files() {
        let path = tmp("garbage");
        std::fs::write(path.path(), b"definitely not a checkpoint").unwrap();
        assert!(GraphZeppelin::restore(path.path()).is_err());
        // A checkpoint of another version, of either kind, is not one.
        for (kind, file) in valid_files() {
            let bytes = std::fs::read(file.path()).unwrap();
            for magic in [b"GZC1", b"GZC4", b"GZS3"] {
                let mut other = bytes.clone();
                other[..4].copy_from_slice(magic);
                std::fs::write(path.path(), &other).unwrap();
                let err = GraphZeppelin::restore(path.path()).err().expect("must fail");
                assert!(matches!(err, GzError::InvalidConfig(_)), "{kind} as {magic:?}: {err}");
            }
        }
    }

    #[test]
    fn header_readable_without_payload_scan() {
        let path = tmp("header");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(64)).unwrap();
        gz.edge_update(3, 4);
        gz.save_checkpoint(path.path()).unwrap();
        let h = read_checkpoint_header(path.path()).unwrap();
        assert_eq!(h.num_nodes, 64);
        assert_eq!(h.updates_ingested, 1);
        assert_eq!((h.shard_index, h.num_shards, h.owned_count), (0, 1, 64));
    }

    /// A valid facade checkpoint of each kind the reader takes, each in a
    /// file of its own with its header's length: the current kind (V = 16)
    /// and the legacy `GZC2` fixture. The corruption tests feed both.
    fn valid_files() -> Vec<(&'static str, gz_testutil::TempPath)> {
        let current = tmp("valid_current");
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(2, 3);
        gz.save_checkpoint(current.path()).unwrap();
        let legacy = tmp("valid_legacy");
        std::fs::copy(legacy_fixture("legacy.gzc2"), legacy.path()).unwrap();
        vec![("GZC3", current), ("GZC2", legacy)]
    }

    /// Byte size of a `GZC2` header: magic, four geometry fields, updates.
    const LEGACY_HEADER_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 8;

    /// Byte size of the header of the kind [`valid_files`] names.
    fn header_len(kind: &str) -> usize {
        match kind {
            "GZC3" => HEADER_BYTES,
            _ => LEGACY_HEADER_BYTES,
        }
    }

    #[test]
    fn truncated_header_is_a_clean_error() {
        for (kind, file) in valid_files() {
            let bytes = std::fs::read(file.path()).unwrap();
            // Every prefix of the header must fail cleanly — magic-only,
            // mid-field, and the full-header-no-payload boundary.
            let header = header_len(kind);
            for cut in [0usize, 3, 4, 11, 20, 35, header / 2, header - 1, header] {
                std::fs::write(file.path(), &bytes[..cut]).unwrap();
                let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
                assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}, cut {cut}: {err}");
            }
        }
    }

    #[test]
    fn short_sketch_payload_is_a_clean_error() {
        for (kind, file) in valid_files() {
            let bytes = std::fs::read(file.path()).unwrap();
            // Cut mid-payload: header parses, the length check must refuse.
            let header = header_len(kind);
            let cut = header + (bytes.len() - header) / 2;
            std::fs::write(file.path(), &bytes[..cut]).unwrap();
            let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
            assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}: {err}");
            assert!(err.to_string().contains("bytes"), "{kind}: should name the size: {err}");
        }
    }

    #[test]
    fn a_wide_alpha_in_a_narrow_payload_is_a_clean_error() {
        // At V = 16 no coordinate reaches 2^32, so a legacy file's α with a
        // nonzero high word is corruption: the restore refuses it, naming
        // the bucket, instead of panicking or dropping the high word. (The
        // current kind holds α's low word only below 2^32: it cannot say
        // this.)
        let path = tmp("wide_alpha");
        let mut bytes = std::fs::read(legacy_fixture("legacy.gzc2")).unwrap();
        let header = LEGACY_HEADER_BYTES;
        let node_bytes =
            GraphZeppelin::new(GzConfig::in_ram(16)).unwrap().params().node_sketch_bytes();
        bytes[header + 3 * node_bytes + 8 * 4 + 6] = 1; // node 3, round 0, bucket 4's α, bit 48
        std::fs::write(path.path(), &bytes).unwrap();
        let err = GraphZeppelin::restore(path.path()).err().expect("must fail");
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("bucket 4"), "should name the bucket: {err}");
    }

    #[test]
    fn trailing_garbage_is_a_clean_error() {
        for (kind, file) in valid_files() {
            let mut bytes = std::fs::read(file.path()).unwrap();
            bytes.extend_from_slice(b"junk");
            std::fs::write(file.path(), &bytes).unwrap();
            let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
            assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}: {err}");
        }
    }

    #[test]
    fn absurd_header_fields_are_refused_before_allocation() {
        // Both kinds put num_nodes at bytes 4..12 and rounds at 20..24.
        for (kind, file) in valid_files() {
            let bytes = std::fs::read(file.path()).unwrap();
            // num_nodes = u64::MAX: must fail on the bounds check, not OOM.
            let mut huge = bytes.clone();
            huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
            std::fs::write(file.path(), &huge).unwrap();
            let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
            assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}: {err}");
            // rounds = u32::MAX likewise.
            let mut huge = bytes.clone();
            huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
            std::fs::write(file.path(), &huge).unwrap();
            let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
            assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}: {err}");
            // The largest geometry the bounds allow: refused by the length
            // check, before a family is built from it.
            let mut huge = bytes;
            huge[20..24].copy_from_slice(&(1u32 << 12).to_le_bytes());
            huge[24..28].copy_from_slice(&(1u32 << 20).to_le_bytes());
            std::fs::write(file.path(), &huge).unwrap();
            let err = GraphZeppelin::restore(file.path()).err().expect("must fail");
            assert!(err.to_string().contains("bytes"), "{kind}: {err}");
        }
    }

    /// Shard 1 of 2 at `v` vertices: sixteen odd nodes, the top ones, two
    /// edges each — at `v = 100 000` indices past `2^32`, in rounds of 99
    /// buckets whose `α`-high plane is padded.
    fn shard_fixture(v: u64) -> (SketchParams, CheckpointHeader, Vec<(u32, CubeNodeSketch)>) {
        let params = SketchParams::new(v, 6, 3, 0xABCD);
        let top = v as u32 - 32;
        let sketches: Vec<(u32, CubeNodeSketch)> = (0..16u32)
            .map(|i| {
                let (node, mut sketch) = (top + 2 * i + 1, params.new_node_sketch());
                let others = [top + 2 * i, top + (2 * i + 2) % 32];
                sketch.update_batch(&others.map(|o| crate::node_sketch::update_index(node, o, v)));
                (node, sketch)
            })
            .collect();
        let header = CheckpointHeader {
            num_nodes: v,
            seed: 0xABCD,
            rounds: 6,
            columns: 3,
            shard_index: 1,
            num_shards: 2,
            seq: 41,
            updates_ingested: 0,
            owned_count: sketches.len() as u64,
            graph: Some(GraphDigest::of_updates([(1, 2, false), (3, 4, false)], 32)),
        };
        (params, header, sketches)
    }

    #[test]
    fn shard_checkpoint_round_trips_and_reports_seq() {
        for v in [32, 100_000] {
            let path = tmp("shard_rt");
            let (params, header, sketches) = shard_fixture(v);
            assert_eq!(params.families[0].encodes_in_place(), v == 32, "V = {v}");
            write_checkpoint(path.path(), &header, &params, &sketches).unwrap();

            assert_eq!(read_checkpoint_header(path.path()).unwrap(), header);
            let (read, restored) = load_checkpoint(path.path(), &params, &header).unwrap();
            assert_eq!((read.seq, read.graph), (41, header.graph));
            assert_eq!(restored.len(), sketches.len());
            for (got, (_, want)) in restored.iter().zip(&sketches) {
                crate::node_sketch::assert_rounds_bitwise_equal(got, want, "restored sketch");
            }
            // The atomic-rename temp file must not linger.
            let mut tmp_os = path.path().as_os_str().to_os_string();
            tmp_os.push(".tmp");
            assert!(!PathBuf::from(tmp_os).exists());
        }
    }

    #[test]
    fn shard_checkpoint_rejects_wrong_shard_and_malformed_files() {
        let path = tmp("shard_bad");
        let (params, header, sketches) = shard_fixture(32);
        write_checkpoint(path.path(), &header, &params, &sketches).unwrap();
        // The legacy GZS2 fixture, shard 0 of 1 at V = 16, as an input too.
        let legacy = tmp("shard_bad_gzs2");
        std::fs::copy(legacy_fixture("legacy.gzs2"), legacy.path()).unwrap();
        let legacy_header = read_checkpoint_header(legacy.path()).unwrap();
        let legacy_params = SketchParams::new(16, legacy_header.rounds, 3, legacy_header.seed);

        // Per input: its params, its header, and where its header keeps
        // shard_index, num_shards and owned.
        let inputs = [
            ("GZC3", path.path(), &params, header, 28, 52),
            ("GZS2", legacy.path(), &legacy_params, legacy_header, 28, 44),
        ];
        for (kind, file, params, header, shard_at, owned_at) in inputs {
            let bytes = std::fs::read(file).unwrap();
            let refused = |bytes: &[u8], expect: &CheckpointHeader, what: &str| {
                std::fs::write(file, bytes).unwrap();
                let err = load_checkpoint(file, params, expect).unwrap_err();
                assert!(matches!(err, GzError::InvalidConfig(_)), "{kind}, {what}: {err}");
            };
            assert!(load_checkpoint(file, params, &header).is_ok(), "{kind}");

            // Wrong shard identity, or another geometry: same file,
            // different expectation.
            refused(&bytes, &CheckpointHeader { shard_index: 0, num_shards: 2, ..header }, "shard");
            refused(&bytes, &CheckpointHeader { columns: 7, ..header }, "columns");
            refused(&bytes, &CheckpointHeader { rounds: header.rounds + 1, ..header }, "rounds");

            // A header naming shard ≥ count, or owning more nodes than
            // there are, is refused before its count sizes anything.
            let mut bad = bytes.clone();
            bad[shard_at..shard_at + 4].copy_from_slice(&header.num_shards.to_le_bytes());
            refused(&bad, &header, "shard index ≥ count");
            let mut bad = bytes.clone();
            bad[shard_at + 4..shard_at + 8].copy_from_slice(&0u32.to_le_bytes());
            refused(&bad, &header, "zero shards");
            let mut bad = bytes.clone();
            bad[owned_at..owned_at + 8].copy_from_slice(&(header.num_nodes + 1).to_le_bytes());
            refused(&bad, &header, "owned > num_nodes");
            // A header whose geometry is not the payload's: the length
            // check refuses it.
            let mut bad = bytes.clone();
            bad[24..28].copy_from_slice(&(header.columns + 1).to_le_bytes());
            refused(&bad, &CheckpointHeader { columns: header.columns + 1, ..header }, "geometry");

            // Truncation and trailing garbage are clean errors.
            for cut in [0usize, 7, 30, 51, bytes.len() - 5] {
                refused(&bytes[..cut], &header, &format!("cut {cut}"));
            }
            let mut garbage = bytes.clone();
            garbage.push(0xFF);
            refused(&garbage, &header, "trailing byte");
        }
    }

    fn recover_all(path: &Path) -> (UpdateWal, u64, Vec<(u32, u32, bool)>) {
        let mut got = Vec::new();
        let (wal, replayed) = UpdateWal::recover(path, &mut |u, v, d| got.push((u, v, d))).unwrap();
        (wal, replayed, got)
    }

    #[test]
    fn wal_round_trips_batches_in_order() {
        let path = tmp("wal_round_trip");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false), (1, 2, false)]).unwrap();
        wal.append(&[]).unwrap();
        wal.append(&[(0, 1, true)]).unwrap();
        drop(wal);

        let (mut wal, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 3);
        assert_eq!(got, vec![(0, 1, false), (1, 2, false), (0, 1, true)]);

        // Recovery leaves the log appendable: new records land after the
        // replayed ones.
        wal.append(&[(5, 6, false)]).unwrap();
        drop(wal);
        let (_, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 4);
        assert_eq!(got.last(), Some(&(5, 6, false)));
    }

    #[test]
    fn wal_record_bytes_do_not_depend_on_how_the_batch_arrives() {
        let batch = [(7u32, 9u32, true), (1 << 31, 3, false), (4, 5, false)];
        let by_slice = tmp("wal_by_slice");
        UpdateWal::create(by_slice.path()).unwrap().append(&batch).unwrap();
        // An iterator whose size hint says nothing about its length.
        let by_iter = tmp("wal_by_iter");
        let unsized_hint = (0..6).filter(|i| i % 2 == 0).map(|i| batch[i / 2]);
        UpdateWal::create(by_iter.path()).unwrap().append_from(unsized_hint).unwrap();

        let bytes = std::fs::read(by_slice.path()).unwrap();
        assert_eq!(bytes, std::fs::read(by_iter.path()).unwrap());
        // magic, count, checksum seeded with the count, then 9 bytes an update.
        let payload = &bytes[4 + WAL_RECORD_HEADER_BYTES..];
        assert_eq!(payload.len(), 3 * WAL_UPDATE_BYTES);
        assert_eq!(bytes[4..8], 3u32.to_le_bytes());
        assert_eq!(bytes[8..16], xxh64(payload, 3).to_le_bytes());
        assert_eq!(payload[..9], [7, 0, 0, 0, 9, 0, 0, 0, 1]);
    }

    #[test]
    fn wal_missing_file_is_a_fresh_log() {
        let path = tmp("wal_missing");
        let (mut wal, replayed, got) = recover_all(path.path());
        assert_eq!((replayed, got.len()), (0, 0));
        wal.append(&[(1, 2, false)]).unwrap();
        drop(wal);
        let (_, replayed, _) = recover_all(path.path());
        assert_eq!(replayed, 1);
    }

    #[test]
    fn wal_truncates_torn_tail_but_keeps_intact_prefix() {
        let path = tmp("wal_torn");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false)]).unwrap();
        wal.append(&[(2, 3, false), (3, 4, false)]).unwrap();
        drop(wal);
        let full = std::fs::read(path.path()).unwrap();

        // Tear the file at every byte boundary inside the second record:
        // the first must always survive, the second never half-apply.
        let first_record_end = 4 + 12 + 9;
        for cut in first_record_end..full.len() {
            std::fs::write(path.path(), &full[..cut]).unwrap();
            let (_, replayed, got) = recover_all(path.path());
            assert_eq!(replayed, 1, "cut {cut}");
            assert_eq!(got, vec![(0, 1, false)], "cut {cut}");
            // ...and the torn tail is gone: recovery is idempotent.
            assert_eq!(std::fs::metadata(path.path()).unwrap().len(), first_record_end as u64);
        }

        // A tear inside the magic is a fresh log.
        std::fs::write(path.path(), &full[..2]).unwrap();
        let (_, replayed, _) = recover_all(path.path());
        assert_eq!(replayed, 0);
    }

    #[test]
    fn a_replay_missing_one_acked_update_reads_one_update_off() {
        // The client's view is every acked update; the WAL lost its last
        // record (a torn tail). The system rebuilt from the replay misses
        // one update, and the graph digests say by how much: an estimated
        // one. Applying the lost update closes the gap exactly.
        let n = 64;
        let acked: Vec<(u32, u32, bool)> = (0..200u32)
            .map(|i| (i % 60, (i * 7 + 5) % 64, i % 5 == 0))
            .filter(|(u, v, _)| u != v)
            .collect();
        let path = tmp("wal_one_off");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        let (last, head) = acked.split_last().unwrap();
        wal.append(head).unwrap();
        wal.append(&[*last]).unwrap();
        drop(wal);
        let torn = std::fs::metadata(path.path()).unwrap().len() - 1;
        std::fs::OpenOptions::new().write(true).open(path.path()).unwrap().set_len(torn).unwrap();
        let (_, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, head.len() as u64);

        let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
        gz.ingest(got);
        let sent = GraphDigest::of_updates(acked.iter().copied(), n);
        let held = gz.graph_digest();
        assert_ne!(held, sent);
        assert_eq!(held.estimated_updates_apart(&sent).round(), 1.0, "{held} vs {sent}");
        gz.update(last.0, last.1, last.2);
        assert_eq!(gz.graph_digest(), sent);
    }

    #[test]
    fn wal_detects_checksum_corruption() {
        let path = tmp("wal_bitrot");
        let mut wal = UpdateWal::create(path.path()).unwrap();
        wal.append(&[(0, 1, false)]).unwrap();
        wal.append(&[(2, 3, false)]).unwrap();
        drop(wal);

        // Flip one payload byte in the second record: replay stops before
        // it.
        let mut bytes = std::fs::read(path.path()).unwrap();
        let second_payload = 4 + 12 + 9 + 12;
        bytes[second_payload] ^= 0x40;
        std::fs::write(path.path(), &bytes).unwrap();
        let (_, replayed, got) = recover_all(path.path());
        assert_eq!(replayed, 1);
        assert_eq!(got, vec![(0, 1, false)]);
    }

    #[test]
    fn wal_refuses_foreign_files() {
        let path = tmp("wal_foreign");
        std::fs::write(path.path(), b"definitely not a WAL").unwrap();
        let err = UpdateWal::recover(path.path(), &mut |_, _, _| {}).unwrap_err();
        assert!(matches!(err, GzError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn serve_manifest_round_trips_and_rejects_corruption() {
        let path = tmp("manifest");
        let manifest = ServeManifest {
            round: 7,
            covered: 123_456,
            num_nodes: 1 << 20,
            seed: 0x5EED,
            num_shards: 4,
            graph: GraphDigest::of_updates([(1, 2, false), (3, 4, false)], 1 << 20),
        };
        manifest.save(path.path()).unwrap();
        assert_eq!(ServeManifest::load(path.path()).unwrap(), manifest);

        // Overwrites are atomic replacements of the whole manifest.
        let next = ServeManifest { round: 8, covered: 200_000, ..manifest };
        next.save(path.path()).unwrap();
        assert_eq!(ServeManifest::load(path.path()).unwrap(), next);

        // Any single-byte corruption is caught by length, magic, or
        // checksum.
        let bytes = std::fs::read(path.path()).unwrap();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            std::fs::write(path.path(), &bad).unwrap();
            assert!(ServeManifest::load(path.path()).is_err(), "byte {at}");
        }
        std::fs::write(path.path(), &bytes[..20]).unwrap();
        assert!(ServeManifest::load(path.path()).is_err());
    }
}
