//! Per-layer numbers for the `--trace 1` run.
//!
//! Two sources, one per metric. Counters and stage times that only exist
//! inside a running system come from the traced pass (`from_traced_pass`).
//! Everything else is a probe: one layer's public functions, timed from
//! outside on inputs cut from the workload's own stream, so a number moves
//! when that layer's code moves and not otherwise. Store probes keep the
//! workload's universe (sketch geometry depends on it) but own a strided
//! subset of vertices, as a shard does, to bound memory. Probes that need a
//! whole system (`sharding.*`, `system.update_ns`, checkpoint and WAL) build
//! it over at most [`SYSTEM_PROBE_NODES`] vertices — the `serve_durable`
//! universe, which is where those layers are on the path — folding vertex
//! ids into it.

use crate::json::Value;
use crate::metrics::Measured;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{BATCH_UPDATES, WORKERS};
use graph_zeppelin::config::{default_rounds, BufferStrategy, LockingStrategy, StoreBackend};
use graph_zeppelin::node_sketch::{encode_other, update_index, SketchParams};
use graph_zeppelin::store::disk::DiskStore;
use graph_zeppelin::store::ram::RamStore;
use graph_zeppelin::{
    GraphZeppelin, GzConfig, IoBackendConfig, NodeSet, ShardConfig, ShardedGraphZeppelin, UpdateWal,
};
use gz_dsu::Dsu;
use gz_gutters::{BufferingSystem, GutterTree, GutterTreeConfig, LeafGutters, WorkQueue};
use gz_stream::format::StreamReader;
use gz_stream::wire::{QueryAnswer, WireMessage, WireUpdate};
use gz_stream::{EdgeUpdate, UpdateKind};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Universe of the whole-system probes.
pub const SYSTEM_PROBE_NODES: u64 = 4096;

pub struct ProbeInput<'a> {
    pub num_nodes: u64,
    pub updates: &'a [EdgeUpdate],
    pub stream: &'a Path,
    pub dir: &'a Path,
    pub smoke: bool,
}

/// Per-layer metrics the traced pass measured in place.
pub fn from_traced_pass(traced: &Value) -> Result<Vec<Measured>, String> {
    let layers = traced.get("layers").and_then(Value::as_obj).ok_or("traced pass has no layers")?;
    Ok(layers.iter().filter_map(|(name, v)| Some(Measured::new(name, v.as_f64()?, 1))).collect())
}

/// Share of the root span's wall time that no child span covers.
pub fn unattributed_share(spans: &[Span]) -> Result<f64, String> {
    let root = spans.iter().position(|s| s.parent.is_none()).ok_or("no root span")?;
    let duration = spans[root].duration_ns();
    if duration == 0 {
        return Err("root span is empty".into());
    }
    Ok(trace::self_times(spans)[root] as f64 / duration as f64)
}

/// Run `f` inside a span and return its wall time too.
fn timed<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (Duration, R) {
    let id = tracer.begin(name);
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    tracer.end(id);
    (elapsed, out)
}

fn ns_each(elapsed: Duration, count: usize) -> f64 {
    elapsed.as_nanos() as f64 / count.max(1) as f64
}

fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Every probe, in catalogue order.
pub fn probe_all(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let root = tracer.begin("layer_probes");
    let mut out = Vec::new();
    out.extend(probe_stream(input, tracer)?);
    out.extend(probe_wire(input, tracer)?);
    out.extend(probe_gutters(input, tracer)?);
    out.extend(probe_sketch(input, tracer));
    out.extend(probe_stores(input, tracer)?);
    out.push(probe_dsu(input, tracer));
    out.extend(probe_wal(input, tracer)?);
    out.extend(probe_systems(input, tracer)?);
    tracer.end(root);
    Ok(out)
}

/// The first `cap` updates (fewer in smoke runs): probes bound their own
/// work so that their counts repeat exactly.
fn prefix<'a>(input: &ProbeInput<'a>, cap: usize) -> &'a [EdgeUpdate] {
    let cap = if input.smoke { cap / 8 } else { cap };
    &input.updates[..input.updates.len().min(cap)]
}

fn params_for(num_nodes: u64) -> Arc<SketchParams> {
    let defaults = GzConfig::in_ram(num_nodes);
    Arc::new(SketchParams::new(
        num_nodes,
        default_rounds(num_nodes),
        defaults.num_columns,
        defaults.seed,
    ))
}

/// Records a leaf gutter of `GzConfig::in_ram` holds before it emits a batch.
fn leaf_gutter_capacity(num_nodes: u64, sketch_bytes: usize) -> Result<usize, String> {
    match GzConfig::in_ram(num_nodes).buffering {
        BufferStrategy::LeafOnly { capacity } => Ok(capacity.resolve(sketch_bytes)),
        _ => Err("GzConfig::in_ram no longer buffers in leaf gutters".into()),
    }
}

// --- gz_stream.format -------------------------------------------------------

fn probe_stream(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let mut reader = StreamReader::open(input.stream).map_err(|e| e.to_string())?;
    let cap = prefix(input, 4 << 20).len();
    let mut batch = Vec::new();
    let (mut read, mut calls) = (0usize, 0usize);
    let (elapsed, result) = timed(tracer, "probe.stream.read_batch", || {
        while read < cap {
            let got = reader.read_batch(&mut batch, (1 << 16).min(cap - read))?;
            if got == 0 {
                break;
            }
            black_box(&batch);
            read += got;
            calls += 1;
        }
        Ok::<(), std::io::Error>(())
    });
    result.map_err(|e| e.to_string())?;
    Ok(vec![Measured::new("stream.read_ns_per_update", ns_each(elapsed, read), calls)])
}

// --- gz_stream.wire ---------------------------------------------------------

fn probe_wire(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let frames: Vec<WireMessage> = prefix(input, 1 << 18)
        .chunks_exact(BATCH_UPDATES)
        .map(|chunk| WireMessage::UpdateBatch {
            updates: chunk
                .iter()
                .map(|up| WireUpdate { u: up.u, v: up.v, is_delete: up.kind == UpdateKind::Delete })
                .collect(),
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let (encode, result) = timed(tracer, "probe.wire.batch_encode", || {
        for frame in &frames {
            let mut bytes = Vec::new();
            frame.write_to(&mut bytes)?;
            encoded.push(bytes);
        }
        Ok::<(), std::io::Error>(())
    });
    result.map_err(|e| e.to_string())?;
    let (decode, result) = timed(tracer, "probe.wire.batch_decode", || {
        for bytes in &encoded {
            black_box(WireMessage::read_from(&mut bytes.as_slice())?);
        }
        Ok::<(), std::io::Error>(())
    });
    result.map_err(|e| e.to_string())?;

    let reply = WireMessage::QueryResult {
        answer: QueryAnswer::Components((0..input.num_nodes as u32).map(|v| v / 3).collect()),
    };
    let replies = 256;
    let mut bytes = Vec::new();
    let (reply_encode, result) = timed(tracer, "probe.wire.reply_encode", || {
        for _ in 0..replies {
            bytes.clear();
            reply.write_to(&mut bytes)?;
            black_box(&bytes);
        }
        Ok::<(), std::io::Error>(())
    });
    result.map_err(|e| e.to_string())?;
    Ok(vec![
        Measured::new("wire.batch_encode_ns", ns_each(encode, frames.len()), frames.len()),
        Measured::new("wire.batch_decode_ns", ns_each(decode, frames.len()), frames.len()),
        Measured::new("wire.reply_encode_us", ns_each(reply_encode, replies) / 1e3, replies),
    ])
}

// --- gz_gutters -------------------------------------------------------------

/// Time `insert` of both directions of every update into `gutters`, with a
/// thread draining the work queue so that a full queue is never the cost.
fn insert_all(
    gutters: &mut dyn BufferingSystem,
    queue: &Arc<WorkQueue>,
    updates: &[EdgeUpdate],
    tracer: &mut Tracer,
    span: &'static str,
) -> Duration {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(batch) = queue.pop() {
                black_box(batch);
                queue.task_done();
            }
        });
        let (elapsed, ()) = timed(tracer, span, || {
            for up in updates {
                let is_delete = up.kind == UpdateKind::Delete;
                gutters.insert(up.u, encode_other(up.v, is_delete));
                gutters.insert(up.v, encode_other(up.u, is_delete));
            }
        });
        gutters.force_flush();
        queue.wait_idle();
        queue.close();
        elapsed
    })
}

/// Universe of the gutter-tree probe at most: `kron13_disk`'s.
const TREE_PROBE_NODES: u64 = 8192;

fn probe_gutters(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let updates = prefix(input, 1 << 21);
    let sketch_bytes = params_for(input.num_nodes).node_sketch_bytes();

    // Sized exactly as the two product configurations size them.
    let BufferStrategy::LeafOnly { capacity } = GzConfig::in_ram(input.num_nodes).buffering else {
        return Err("GzConfig::in_ram no longer buffers in leaf gutters".into());
    };
    let queue = Arc::new(WorkQueue::for_workers(WORKERS));
    let mut leaf = LeafGutters::new(
        input.num_nodes as usize,
        capacity.resolve(sketch_bytes),
        Arc::clone(&queue),
    );
    let leaf_time = insert_all(&mut leaf, &queue, updates, tracer, "probe.gutters.leaf_insert");

    // The tree pre-allocates a file that grows faster than the universe
    // (0.9 GB at 8192 vertices, 2.1 GB at 16384), so its probe folds larger
    // universes into the `kron13_disk` one, the only place it is on the path.
    let tree_nodes = input.num_nodes.min(TREE_PROBE_NODES);
    let tree_updates: Vec<EdgeUpdate> = updates
        .iter()
        .map(|up| EdgeUpdate {
            u: (up.u as u64 % tree_nodes) as u32,
            v: (up.v as u64 % tree_nodes) as u32,
            ..*up
        })
        .collect();
    let tree_sketch_bytes = params_for(tree_nodes).node_sketch_bytes();
    let BufferStrategy::GutterTree { buffer_bytes, fanout, leaf_capacity, .. } =
        GzConfig::on_disk(tree_nodes, input.dir.to_path_buf()).buffering
    else {
        return Err("GzConfig::on_disk no longer buffers in a gutter tree".into());
    };
    let queue = Arc::new(WorkQueue::for_workers(WORKERS));
    let mut tree = GutterTree::new(
        GutterTreeConfig {
            num_nodes: tree_nodes as u32,
            leaf_capacity_updates: leaf_capacity.resolve(tree_sketch_bytes),
            buffer_bytes,
            fanout,
            path: input.dir.join("probe_gutter_tree.bin"),
        },
        Arc::clone(&queue),
    )
    .map_err(|e| e.to_string())?;
    let tree_time =
        insert_all(&mut tree, &queue, &tree_updates, tracer, "probe.gutters.tree_insert");

    Ok(vec![
        Measured::new(
            "gutters.leaf_insert_ns_per_update",
            ns_each(leaf_time, updates.len()),
            updates.len(),
        ),
        Measured::new(
            "gutters.tree_insert_ns_per_update",
            ns_each(tree_time, updates.len()),
            updates.len(),
        ),
    ])
}

// --- gz_sketch.cube ---------------------------------------------------------

fn probe_sketch(input: &ProbeInput, tracer: &mut Tracer) -> Vec<Measured> {
    let params = params_for(input.num_nodes);
    let indices: Vec<u64> =
        prefix(input, 1 << 19).iter().map(|up| update_index(up.u, up.v, input.num_nodes)).collect();
    let mut node = params.new_node_sketch();
    let sketch = &mut node.rounds_mut()[0];

    let (batched, ()) = timed(tracer, "probe.sketch.update_batch", || {
        for chunk in indices.chunks(1024) {
            sketch.update_batch(chunk);
        }
    });
    let singles = &indices[..indices.len() / 4];
    let (single, ()) = timed(tracer, "probe.sketch.update", || {
        for &idx in singles {
            sketch.update(idx);
        }
    });

    // A sketch holding a handful of indices, as a supernode's does late in
    // a query, so that `query` has a bucket to find.
    sketch.clear();
    sketch.update_batch(&indices[..indices.len().min(5)]);
    let other = sketch.clone();
    let reps = if input.smoke { 2_000 } else { 20_000 };
    let (query, ()) = timed(tracer, "probe.sketch.query", || {
        for _ in 0..reps {
            black_box(black_box(&*sketch).query());
        }
    });
    let (merge, ()) = timed(tracer, "probe.sketch.merge", || {
        for _ in 0..reps {
            sketch.merge(black_box(&other));
        }
    });
    let mut slice = Vec::new();
    params.serialize_round(&node, 0, &mut slice);
    let (deserialize, ()) = timed(tracer, "probe.sketch.deserialize", || {
        for _ in 0..reps {
            black_box(params.deserialize_round(0, black_box(&slice)));
        }
    });
    vec![
        Measured::new(
            "sketch.batch_update_ns_per_record",
            ns_each(batched, indices.len()),
            indices.len(),
        ),
        Measured::new("sketch.single_update_ns", ns_each(single, singles.len()), singles.len()),
        Measured::new("sketch.query_ns", ns_each(query, reps), reps),
        Measured::new("sketch.merge_ns", ns_each(merge, reps), reps),
        Measured::new("sketch.deserialize_ns_per_slice", ns_each(deserialize, reps), reps),
    ]
}

// --- gz_core.store ----------------------------------------------------------

/// Vertices a store probe owns at most.
const STORE_PROBE_SLOTS: u64 = 1024;

/// Promotion threshold of the sparse-store probe: `sparse_churn`'s own.
const SPARSE_PROBE_THRESHOLD: u32 = 64;

/// Per-vertex batches for the vertices of `owned`, as leaf gutters of the
/// product's capacity would emit them from `updates`.
fn batches_for(owned: &NodeSet, updates: &[EdgeUpdate], capacity: usize) -> Vec<(u32, Vec<u32>)> {
    let mut gutters: Vec<Vec<u32>> = vec![Vec::new(); owned.len()];
    let mut batches = Vec::new();
    let mut insert = |node: u32, record: u32| {
        if owned.contains(node) {
            let gutter = &mut gutters[owned.slot(node)];
            gutter.push(record);
            if gutter.len() >= capacity {
                batches.push((node, std::mem::take(gutter)));
            }
        }
    };
    for up in updates {
        let is_delete = up.kind == UpdateKind::Delete;
        insert(up.u, encode_other(up.v, is_delete));
        insert(up.v, encode_other(up.u, is_delete));
    }
    for (slot, gutter) in gutters.into_iter().enumerate() {
        if !gutter.is_empty() {
            batches.push((owned.node(slot), gutter));
        }
    }
    batches
}

fn probe_stores(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let params = params_for(input.num_nodes);
    let stride = input.num_nodes.div_ceil(STORE_PROBE_SLOTS).max(1) as u32;
    let owned = NodeSet::strided(input.num_nodes, 0, stride);
    let capacity = leaf_gutter_capacity(input.num_nodes, params.node_sketch_bytes())?;
    let batches = batches_for(&owned, prefix(input, 4 << 20), capacity);
    let records: usize = batches.iter().map(|(_, r)| r.len()).sum();
    let locking = LockingStrategy::DeltaSketch;

    let ram = RamStore::for_nodes(Arc::clone(&params), locking, owned);
    let (ram_time, ()) = timed(tracer, "probe.store.ram_apply", || {
        for (node, records) in &batches {
            ram.apply_batch(*node, records);
        }
    });
    drop(ram);

    // The product's own disk geometry, with the cache an eighth of the
    // groups as on `kron13_disk`.
    let StoreBackend::Disk { block_bytes, .. } =
        GzConfig::on_disk(input.num_nodes, input.dir.to_path_buf()).store
    else {
        return Err("GzConfig::on_disk no longer stores on disk".into());
    };
    let disk = DiskStore::for_nodes_with_options(
        Arc::clone(&params),
        owned,
        input.dir.join("probe_store.bin"),
        block_bytes,
        (owned.len() / 8).max(1),
        0,
        IoBackendConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let (disk_time, result) = timed(tracer, "probe.store.disk_apply", || {
        for (node, records) in &batches {
            disk.apply_batch(*node, records);
        }
        disk.flush()
    });
    result.map_err(|e| e.to_string())?;
    drop(disk);

    let sparse = RamStore::for_nodes_with_threshold(
        Arc::clone(&params),
        locking,
        owned,
        SPARSE_PROBE_THRESHOLD,
    );
    let (sparse_time, ()) = timed(tracer, "probe.store.sparse_apply", || {
        for (node, records) in &batches {
            sparse.apply_batch(*node, records);
        }
    });

    Ok(vec![
        Measured::new("store.ram_apply_ns_per_record", ns_each(ram_time, records), batches.len()),
        Measured::new("store.disk_apply_ns_per_record", ns_each(disk_time, records), batches.len()),
        Measured::new(
            "store.sparse_apply_ns_per_record",
            ns_each(sparse_time, records),
            batches.len(),
        ),
    ])
}

// --- gz_dsu -----------------------------------------------------------------

fn probe_dsu(input: &ProbeInput, tracer: &mut Tracer) -> Measured {
    let updates = prefix(input, 1 << 21);
    let mut dsu = Dsu::new(input.num_nodes as usize);
    let (elapsed, ()) = timed(tracer, "probe.dsu.union", || {
        for up in updates {
            black_box(dsu.union(up.u, up.v));
        }
    });
    Measured::new("dsu.ns_per_op", ns_each(elapsed, updates.len()), updates.len())
}

// --- gz_core.checkpoint -----------------------------------------------------

fn probe_wal(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let path = input.dir.join("probe.gzw");
    let batches: Vec<Vec<(u32, u32, bool)>> = prefix(input, 1 << 17)
        .chunks_exact(BATCH_UPDATES)
        .map(|c| c.iter().map(|up| (up.u, up.v, up.kind == UpdateKind::Delete)).collect())
        .collect();
    let appended = batches.len() * BATCH_UPDATES;
    let mut wal = UpdateWal::create(&path).map_err(|e| e.to_string())?;
    let mut append_us = Vec::with_capacity(batches.len());
    let root = tracer.begin("probe.wal.append");
    for batch in &batches {
        let started = Instant::now();
        wal.append(batch).map_err(|e| e.to_string())?;
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    tracer.end(root);
    drop(wal);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let mut replayed = 0u64;
    let (recover, result) = timed(tracer, "probe.wal.recover", || {
        UpdateWal::recover(&path, &mut |u, v, d| {
            black_box((u, v, d));
            replayed += 1;
        })
    });
    result.map_err(|e| e.to_string())?;
    if replayed as usize != appended {
        return Err(format!("WAL replayed {replayed} of {appended} updates"));
    }
    Ok(vec![
        Measured::new("wal.append_us_p50", stats::median(&append_us), append_us.len()),
        Measured::new("wal.append_us_p99", stats::percentile(&append_us, 99.0), append_us.len()),
        Measured::new("wal.bytes_per_update", bytes as f64 / appended as f64, 1),
        Measured::new("wal.recover_updates_per_s", appended as f64 / recover.as_secs_f64(), 1),
    ])
}

// --- gz_core.sharding beside gz_core.system ---------------------------------

/// `updates` folded into the [`SYSTEM_PROBE_NODES`] universe; an update whose
/// endpoints fold together is dropped.
pub fn folded(updates: &[EdgeUpdate], num_nodes: u64) -> Vec<(u32, u32, bool)> {
    updates
        .iter()
        .map(|up| {
            (
                (up.u as u64 % num_nodes) as u32,
                (up.v as u64 % num_nodes) as u32,
                up.kind == UpdateKind::Delete,
            )
        })
        .filter(|&(u, v, _)| u != v)
        .collect()
}

fn probe_systems(input: &ProbeInput, tracer: &mut Tracer) -> Result<Vec<Measured>, String> {
    let err = |e: graph_zeppelin::GzError| e.to_string();
    let num_nodes = input.num_nodes.min(SYSTEM_PROBE_NODES);
    let updates = folded(prefix(input, 1 << 20), num_nodes);

    let mut single_config = GzConfig::in_ram(num_nodes);
    single_config.num_workers = WORKERS;
    let mut single = GraphZeppelin::new(single_config).map_err(err)?;
    let (single_time, ()) = timed(tracer, "probe.system.update", || {
        for &(u, v, d) in &updates {
            single.update(u, v, d);
        }
    });
    single.shutdown();

    // One in-process shard, configured as `gz serve` configures it.
    let mut shard_config = ShardConfig::in_ram(num_nodes, 1);
    shard_config.workers_per_shard = WORKERS;
    let mut sharded = ShardedGraphZeppelin::in_process(shard_config).map_err(err)?;
    let (sharded_time, result) = timed(tracer, "probe.sharding.update", || {
        for &(u, v, d) in &updates {
            sharded.update(u, v, d)?;
        }
        Ok(())
    });
    result.map_err(err)?;
    let (seal, epoch) = timed(tracer, "probe.sharding.begin_epoch", || sharded.begin_epoch());
    let epoch = epoch.map_err(err)?;
    let (forest, outcome) =
        timed(tracer, "probe.sharding.epoch_forest", || epoch.spanning_forest());
    black_box(outcome.map_err(err)?);
    drop(epoch);
    let shard_file = [input.dir.join("probe_shard.gzs2")];
    let (save, result) =
        timed(tracer, "probe.checkpoint.shard_save", || sharded.checkpoint_shards_to(&shard_file));
    result.map_err(err)?;
    sharded.shutdown().map_err(err)?;

    let (single_ns, sharded_ns) =
        (ns_each(single_time, updates.len()), ns_each(sharded_time, updates.len()));
    Ok(vec![
        Measured::new("system.update_ns", single_ns, updates.len()),
        Measured::new("sharding.update_ns", sharded_ns, updates.len()),
        Measured::new("sharding.router_hop_ns_per_update", sharded_ns - single_ns, updates.len()),
        Measured::new("sharding.begin_epoch_ms", ms(seal), 1),
        Measured::new("sharding.epoch_forest_ms", ms(forest), 1),
        Measured::new("checkpoint.shard_save_ms", ms(save), 1),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn unattributed_share_is_the_roots_self_time() {
        let span = |name: &'static str, start_ns, end_ns, parent| Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            span("stream_to_answer", 0, 1000, None),
            span("stream.read_batch", 0, 100, Some(0)),
            span("system.update", 100, 600, Some(0)),
            span("query", 700, 950, Some(0)),
            span("system.flush", 700, 800, Some(3)),
        ];
        assert!((unattributed_share(&spans).unwrap() - 0.15).abs() < 1e-12);
        assert!(unattributed_share(&[]).is_err());
    }

    #[test]
    fn probe_batches_respect_ownership_and_capacity() {
        let owned = NodeSet::strided(8, 0, 2);
        let updates: Vec<EdgeUpdate> =
            (1..8).map(|v| EdgeUpdate::insert(0, v)).chain([EdgeUpdate::delete(2, 3)]).collect();
        let batches = batches_for(&owned, &updates, 3);
        // Vertex 0 has seven records: two full batches and a residue.
        let of_zero: Vec<usize> =
            batches.iter().filter(|(n, _)| *n == 0).map(|(_, r)| r.len()).collect();
        assert_eq!(of_zero, vec![3, 3, 1]);
        assert!(batches.iter().all(|(n, _)| n % 2 == 0));
        let total: usize = batches.iter().map(|(_, r)| r.len()).sum();
        // 0 gets 7; 2, 4, 6 get one each from vertex 0's edges; 2 gets the delete.
        assert_eq!(total, 7 + 3 + 1);
        assert!(batches.iter().any(|(n, r)| *n == 2 && r.contains(&encode_other(3, true))));
    }

    #[test]
    fn folding_keeps_ids_in_range_and_drops_collapsed_edges() {
        let ups =
            [EdgeUpdate::insert(1, 5), EdgeUpdate::insert(4097, 1), EdgeUpdate::delete(9, 4100)];
        assert_eq!(folded(&ups, 4096), vec![(1, 5, false), (9, 4, true)]);
    }
}
