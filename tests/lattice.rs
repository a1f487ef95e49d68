//! The lattice lane (DESIGN.md §6): generated operation histories, each run
//! on one point of the configuration lattice — store {RAM, disk of one-node
//! groups cached two deep} × shards {1, 3} × transport {in process, socket}
//! × workers {1, 2, 4} × τ {0, 2, 16} × buffering {leaf gutters of 1 or 3
//! records or half a sketch, gutter trees of fan-out 4, 8 or ≥ V} — and
//! checked after every op that reads the system against references no
//! configuration enters: the DSU of the exact edge set,
//! `GraphDigest::of_updates` of the toggles, and a τ = 0, one-worker RAM
//! system fed the same toggles. A failing history is shrunk by
//! [`gz_testutil::minimize`] and printed as a `replay(..)` call to paste
//! into a test. Debug builds run a fixed seed set, release builds ten times
//! as many.

use graph_zeppelin::{
    new_pipeline_resuming, serve_shard_connection, shard_checkpoint_file_name, BoruvkaOutcome,
    BufferStrategy, GraphDigest, GraphZeppelin, GutterCapacity, GzConfig, GzError, Link, Recovery,
    RetryPolicy, ShardConfig, ShardServeStats, ShardedGraphZeppelin, SocketTransport, StoreBackend,
    Stream, TransportTimeouts,
};
use gz_testutil::TempDir;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use Buffering::*;
use Op::*;

/// One point of the configuration lattice.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    disk: bool,
    shards: u32,
    socket: bool,
    workers: usize,
    tau: u32,
    buffering: Buffering,
}

/// How the router buffers: leaf gutters of so many records, leaf gutters of
/// half a sketch, or a gutter tree of a fan-out (64 ≥ every V the lane
/// draws: a tree of one level).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Buffering {
    Leaf(usize),
    HalfSketch,
    Tree(usize),
}

const SHARDS: [u32; 2] = [1, 3];
const WORKERS: [usize; 3] = [1, 2, 4];
const TAUS: [u32; 3] = [0, 2, 16];
const BUFFERINGS: [Buffering; 6] = [Leaf(1), Leaf(3), HalfSketch, Tree(4), Tree(8), Tree(64)];
const POINTS: u64 = 2 * 2 * 2 * 3 * 3 * 6;

impl Point {
    /// Point `i` of the lattice, in mixed radix.
    fn nth(mut i: u64) -> Point {
        let mut digit = |radix: u64| {
            let d = (i % radix) as usize;
            i /= radix;
            d
        };
        Point {
            disk: digit(2) == 1,
            shards: SHARDS[digit(2)],
            socket: digit(2) == 1,
            workers: WORKERS[digit(3)],
            tau: TAUS[digit(3)],
            buffering: BUFFERINGS[digit(6)],
        }
    }

    /// The restore target `seed` picks: another point with this one's
    /// shard count (a checkpoint is a file a shard) and transport.
    fn redraw(self, seed: u64) -> Point {
        let keep = |p: Point| Point { shards: self.shards, socket: self.socket, ..p };
        (seed..).map(|i| keep(Point::nth(i % POINTS))).find(|p| *p != self).unwrap()
    }

    /// Which value of each axis this point takes.
    fn axes(&self) -> [usize; 6] {
        let at = |found: Option<usize>| found.unwrap();
        [
            self.disk as usize,
            at(SHARDS.iter().position(|&s| s == self.shards)),
            self.socket as usize,
            at(WORKERS.iter().position(|&w| w == self.workers)),
            at(TAUS.iter().position(|&t| t == self.tau)),
            at(BUFFERINGS.iter().position(|&b| b == self.buffering)),
        ]
    }

    fn config(&self, n: u64, dir: &Path) -> ShardConfig {
        let mut config = ShardConfig::in_ram(n, self.shards);
        config.workers_per_shard = self.workers;
        config.sketch_threshold = self.tau;
        config.checkpoint_dir = Some(dir.to_path_buf());
        if self.disk {
            let dir = dir.to_path_buf();
            config.store = StoreBackend::Disk { dir, block_bytes: 512, cache_groups: 2 };
        }
        config.buffering = match self.buffering {
            Leaf(records) => {
                BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(records) }
            }
            HalfSketch => BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.5) },
            Tree(fanout) => BufferStrategy::GutterTree {
                buffer_bytes: 512,
                fanout,
                leaf_capacity: GutterCapacity::Updates(8),
                dir: dir.to_path_buf(),
            },
        };
        config
    }
}

/// One step of a history.
#[derive(Clone, PartialEq)]
enum Op {
    /// Toggle these edges, in order (nothing is read).
    Toggle(Vec<(u32, u32)>),
    /// Flush, then query.
    Query,
    /// Seal an epoch, toggle these edges, check the live system with the
    /// epoch held, query the epoch, drop it.
    Seal(Vec<(u32, u32)>),
    /// Checkpoint every shard, then restore into `Point::redraw(seed)`.
    Restore(u64),
    /// Kill this shard's socket worker; the next call respawns it through
    /// `Recovery` (nothing in process).
    Kill(u32),
}

/// A Rust literal, so a minimized history pastes into a test.
impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Toggle(edges) => write!(f, "Toggle(vec!{edges:?})"),
            Query => write!(f, "Query"),
            Seal(edges) => write!(f, "Seal(vec!{edges:?})"),
            Restore(seed) => write!(f, "Restore({seed:#x})"),
            Kill(shard) => write!(f, "Kill({shard})"),
        }
    }
}

/// History `seed`: a V small enough that promotions at τ ∈ {2, 16} and
/// cancelled toggles are common, a lattice point, and 3–9 ops.
fn history(seed: u64) -> (Point, u64, Vec<Op>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(4u64..33);
    let point = Point::nth(rng.gen_range(0..POINTS));
    let mut toggled = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(4..16) {
        ops.push(match rng.gen_range(0..9) {
            0..=2 => Toggle(edges(&mut rng, n as u32, &mut toggled)),
            3 => Query,
            4 | 5 => Seal(edges(&mut rng, n as u32, &mut toggled)),
            6 => Restore(rng.next_u64()),
            7 if point.socket => Kill(rng.gen_range(0..point.shards)),
            _ => Toggle(edges(&mut rng, n as u32, &mut toggled)),
        });
    }
    (point, n, ops)
}

/// 1–47 toggles: a quarter re-toggle an edge toggled before (deletions and
/// cancellations), half touch hub 0 or 1 (promotions at τ = 16).
fn edges(rng: &mut SmallRng, n: u32, toggled: &mut Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(1..48) {
        let edge = match rng.gen_range(0..4) {
            0 if !toggled.is_empty() => toggled[rng.gen_range(0..toggled.len())],
            1 | 2 => (rng.gen_range(0..2u32), rng.gen_range(0..n)),
            _ => (rng.gen_range(0..n), rng.gen_range(0..n)),
        };
        if edge.0 != edge.1 {
            toggled.push(edge);
            edges.push(edge);
        }
    }
    edges
}

/// The first check a history failed, as `check: detail`.
struct Failure(String);

impl std::fmt::Debug for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A `GzError` or an I/O error, as a failure of its own kind.
impl<E: std::fmt::Display> From<E> for Failure {
    fn from(e: E) -> Self {
        Failure(format!("error: {e}"))
    }
}

fn ensure(holds: bool, check: &str, detail: impl FnOnce() -> String) -> Result<(), Failure> {
    match holds {
        true => Ok(()),
        false => Err(Failure(format!("{check}: {}", detail()))),
    }
}

/// Everything a query answers that must not depend on the configuration.
fn same(check: &str, got: &BoruvkaOutcome, want: &BoruvkaOutcome) -> Result<(), Failure> {
    let answer =
        |o: &BoruvkaOutcome| (o.labels.clone(), o.forest.clone(), o.rounds_used, o.sketch_failures);
    let (got, want) = (answer(got), answer(want));
    ensure(got == want, check, || format!("got {got:?}, want {want:?}"))
}

/// The exact references: the live edge set and every toggle so far.
struct Exact {
    n: u64,
    live: HashSet<(u32, u32)>,
    toggles: Vec<(u32, u32, bool)>,
}

impl Exact {
    /// Toggle `(u, v)`; true when that deletes it.
    fn toggle(&mut self, (u, v): (u32, u32)) -> bool {
        let key = (u.min(v), u.max(v));
        let delete = !self.live.insert(key);
        if delete {
            self.live.remove(&key);
        }
        self.toggles.push((u, v, delete));
        delete
    }

    fn labels(&self) -> Vec<u32> {
        let mut dsu = gz_dsu::Dsu::new(self.n as usize);
        self.live.iter().for_each(|&(u, v)| _ = dsu.union(u, v));
        dsu.normalized_labels()
    }
}

/// Run `ops` on `point` over `n` vertices beside the reference, checking
/// after every op but `Toggle` (a check flushes, which would keep the
/// buffering from holding records across ops) and once more at the end. A
/// panic is a failure too.
fn replay(point: Point, n: u64, ops: &[Op]) -> Result<(), Failure> {
    let run = std::panic::AssertUnwindSafe(|| run(point, n, ops));
    std::panic::catch_unwind(run).unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().cloned();
        let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(Failure(format!("panic: {}", text.unwrap_or_default())))
    })
}

fn run(point: Point, n: u64, ops: &[Op]) -> Result<(), Failure> {
    let mut config = GzConfig::in_ram(n);
    config.num_workers = 1;
    let mut reference = GraphZeppelin::new(config)?;
    let mut exact = Exact { n, live: HashSet::new(), toggles: Vec::new() };
    let mut system = System::start(point, n, None)?;
    for op in ops {
        match op {
            Toggle(edges) => {
                for &(u, v) in edges {
                    let delete = exact.toggle((u, v));
                    reference.update(u, v, delete);
                    system.gz.update(u, v, delete)?;
                }
                continue;
            }
            Query => {}
            Seal(edges) => {
                let at_seal = reference.spanning_forest()?;
                let sealed_labels = exact.labels();
                let (pinned, reference_pinned) =
                    (system.gz.begin_epoch()?, reference.begin_epoch()?);
                for &(u, v) in edges {
                    let delete = exact.toggle((u, v));
                    reference.update(u, v, delete);
                    system.gz.update(u, v, delete)?;
                }
                system.gz.flush()?;
                reference.flush();
                // Live reads while the epoch holds the pre-images of what
                // the suffix changed, then the epoch's own answer.
                check(&mut system.gz, &mut reference, &exact)?;
                same("epoch answer", &pinned.spanning_forest()?, &at_seal)?;
                same("reference epoch answer", &reference_pinned.spanning_forest()?, &at_seal)?;
                ensure(at_seal.labels == sealed_labels, "epoch labels vs the DSU", || {
                    format!("{:?} != {sealed_labels:?}", at_seal.labels)
                })?;
            }
            Restore(seed) => system = system.restore(point.redraw(*seed), n)?,
            Kill(shard) => system.kill(*shard),
        }
        check(&mut system.gz, &mut reference, &exact)?;
    }
    check(&mut system.gz, &mut reference, &exact)?;
    system.shutdown().map(drop)
}

/// The checks after an op: the answer is the reference's and the oracle's,
/// its labels the DSU's, the graph digest the toggles', and the state
/// digest the reference's.
fn check(
    gz: &mut ShardedGraphZeppelin,
    reference: &mut GraphZeppelin,
    exact: &Exact,
) -> Result<(), Failure> {
    let want = reference.spanning_forest()?;
    same("reference vs its oracle", &reference.spanning_forest_oracle()?, &want)?;
    let labels = exact.labels();
    ensure(want.labels == labels, "labels vs the DSU", || {
        format!("{:?} != {labels:?}", want.labels)
    })?;
    same("answer", &gz.spanning_forest()?, &want)?;
    let graph = GraphDigest::of_updates(exact.toggles.iter().copied(), exact.n);
    let got = gz.graph_digest()?;
    ensure(got == graph, "graph digest", || format!("{got:?} != {graph:?}"))?;
    let (got, want) = (gz.state_digest()?, reference.state_digest()?);
    ensure(got == want, "state digest", || format!("{got:#x} != {want:#x}"))
}

type WorkerHandle = JoinHandle<Result<ShardServeStats, GzError>>;

/// A socket fleet's live workers, by shard: the worker's end of its link
/// (to kill it by) and its thread. Dropped after its fleet, it waits for
/// them, so the last checkpoint a worker cuts as it shuts down lands
/// before the fleet's directory goes.
#[derive(Default)]
struct Workers(Vec<Option<(UnixStream, WorkerHandle)>>);

impl Drop for Workers {
    fn drop(&mut self) {
        self.0.drain(..).flatten().for_each(|(_, thread)| _ = thread.join());
    }
}

/// Start shard `shard`'s worker on a thread behind a socket pair, resuming
/// its checkpoint file if there is one; hand back the coordinator's end.
fn spawn_worker(
    config: &ShardConfig,
    shard: u32,
    workers: &Mutex<Workers>,
) -> Result<Stream, GzError> {
    let (ours, theirs) = UnixStream::pair()?;
    let end = theirs.try_clone()?;
    let config = config.clone();
    let thread = std::thread::spawn(move || {
        let pipeline = new_pipeline_resuming(&config, shard)?;
        serve_shard_connection(
            &mut Link::new(Stream::Unix(theirs)),
            &pipeline,
            config.params_digest(),
        )
    });
    workers.lock().unwrap().0[shard as usize] = Some((end, thread));
    Ok(Stream::Unix(ours))
}

/// The system under test: one point's fleet, its directory (stores, trees,
/// checkpoints) and, over sockets, its workers.
struct System {
    gz: ShardedGraphZeppelin,
    workers: Arc<Mutex<Workers>>,
    dir: TempDir,
}

impl System {
    /// Start `point`'s fleet, restored from the shard checkpoints in `from`
    /// if given.
    fn start(point: Point, n: u64, from: Option<&Path>) -> Result<System, Failure> {
        let dir = TempDir::new("gz-lattice");
        let config = point.config(n, dir.path());
        let name = |i| shard_checkpoint_file_name(i, point.shards, config.seed);
        let paths: Vec<PathBuf> = (0..point.shards).map(|i| dir.join(&name(i))).collect();
        if let Some(from) = from {
            for (i, path) in paths.iter().enumerate() {
                std::fs::copy(from.join(name(i as u32)), path)?;
            }
        }
        let workers = Arc::new(Mutex::new(Workers((0..point.shards).map(|_| None).collect())));
        let gz = if point.socket {
            let links = (0..point.shards).map(|i| spawn_worker(&config, i, &workers));
            let links = links.collect::<Result<Vec<_>, _>>()?;
            let (again, respawned) = (config.clone(), Arc::clone(&workers));
            let recovery = Recovery::new(
                TransportTimeouts::all(std::time::Duration::from_secs(60)),
                RetryPolicy::default(),
                Box::new(move |shard| spawn_worker(&again, shard, &respawned)),
            );
            let transport = SocketTransport::handshake(links, config.params_digest())?;
            ShardedGraphZeppelin::with_transport(
                config,
                Box::new(transport.with_recovery(recovery)?),
            )?
        } else {
            let mut gz = ShardedGraphZeppelin::in_process(config)?;
            if from.is_some() {
                gz.resume_shards_from(&paths, None)?;
            }
            gz
        };
        Ok(System { gz, workers, dir })
    }

    /// Checkpoint, shut down, and restore into `point`.
    fn restore(mut self, point: Point, n: u64) -> Result<System, Failure> {
        self.gz.checkpoint_shards()?;
        let dir = self.shutdown()?;
        System::start(point, n, Some(dir.path()))
    }

    /// Cut shard `shard`'s link from the worker's side and wait for the
    /// worker to die of it, as a killed process would.
    fn kill(&mut self, shard: u32) {
        let worker = self.workers.lock().unwrap().0.get_mut(shard as usize).and_then(Option::take);
        if let Some((end, thread)) = worker {
            let _ = end.shutdown(std::net::Shutdown::Both);
            let _ = thread.join();
        }
    }

    /// Shut the fleet down and join its workers; hand back its directory.
    fn shutdown(self) -> Result<TempDir, Failure> {
        self.gz.shutdown()?;
        let workers = std::mem::take(&mut self.workers.lock().unwrap().0);
        for (_, thread) in workers.into_iter().flatten() {
            thread.join().map_err(|_| Failure("panic: a shard worker".into()))??;
        }
        Ok(self.dir)
    }
}

/// Shrink a failing history to ops that fail the same check, then each
/// op's edges, until neither shrinks, and render it as a `replay` call.
fn minimized(point: Point, n: u64, ops: &[Op], failure: &Failure) -> String {
    let check = |f: &Failure| f.0.split(':').next().unwrap_or_default().to_string();
    let fails = |ops: &[Op]| replay(point, n, ops).is_err_and(|f| check(&f) == check(failure));
    let mut ops = ops.to_vec();
    loop {
        let before = ops.clone();
        ops = gz_testutil::minimize(&ops, fails);
        for i in 0..ops.len() {
            let with = |edges: &[(u32, u32)]| match &ops[i] {
                Toggle(_) => Toggle(edges.to_vec()),
                Seal(_) => Seal(edges.to_vec()),
                op => op.clone(),
            };
            if let Toggle(edges) | Seal(edges) = &ops[i] {
                let edges = gz_testutil::minimize(edges, |edges| {
                    let mut shrunk = ops.clone();
                    shrunk[i] = with(edges);
                    fails(&shrunk)
                });
                ops[i] = with(&edges);
            }
        }
        if ops == before {
            break;
        }
    }
    let last = replay(point, n, &ops).err().map_or_else(String::new, |f| f.0);
    format!(
        "{failure:?}\nminimized to {} ops ({last}):\n    replay({point:?}, {n}, &{ops:?})",
        ops.len()
    )
}

#[test]
fn generated_histories_agree_on_every_configuration() {
    // Two lanes of seeds, so the lane keeps both cores of a two-core host.
    let histories = if cfg!(debug_assertions) { 200 } else { 2000 };
    let lane = |first: u64| {
        move || {
            let mut seen = [0u64; 6];
            for seed in (first..histories).step_by(2) {
                let (point, n, ops) = history(seed);
                let restored = ops.iter().filter_map(|op| match op {
                    Restore(seed) => Some(point.redraw(*seed)),
                    _ => None,
                });
                for p in std::iter::once(point).chain(restored) {
                    seen.iter_mut().zip(p.axes()).for_each(|(mask, value)| *mask |= 1 << value);
                }
                if let Err(failure) = replay(point, n, &ops) {
                    panic!("history {seed}: {}", minimized(point, n, &ops, &failure));
                }
            }
            seen
        }
    };
    let [a, b] = std::thread::scope(|scope| {
        let lanes = [0, 1].map(|first| scope.spawn(lane(first)));
        lanes.map(|lane| lane.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    });
    let seen: Vec<u64> = a.iter().zip(b).map(|(a, b)| a | b).collect();
    assert_eq!(seen, [0b11, 0b11, 0b11, 0b111, 0b111, 0b11_1111], "every axis value is drawn");
}

#[test]
fn a_worker_respawned_after_a_restore_replays_every_batch_routed_since() {
    // The lane's first find, minimized: a socket fleet restored from
    // checkpoints resumes its workers at the files' batch sequence, but the
    // coordinator's replay logs started at 0, so a worker respawned before
    // the next checkpoint skipped the first batches routed after the
    // restore — here (0, 18). The logs now start where `Resync` says.
    let point =
        Point { disk: false, shards: 1, socket: true, workers: 1, tau: 16, buffering: Tree(4) };
    let ops = [Toggle(vec![(14, 20)]), Restore(0x6d3834c2f4c406b4), Seal(vec![(0, 18)]), Kill(0)];
    replay(point, 22, &ops).unwrap();
}
