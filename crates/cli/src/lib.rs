//! `gz` — command-line front end for the GraphZeppelin reproduction.
//!
//! ```text
//! gz generate --dataset kron10 --seed 42 --out stream.gzs
//! gz generate --er 1000x5000 --out er.gzs
//! gz info stream.gzs
//! gz components stream.gzs [--workers 4] [--store ram|disk] \
//!     [--buffering leaf|tree] [--dir /tmp/gzwork] [--forest] \
//!     [--threshold T] [--stats] [--shards K] \
//!     [--connect host:port,host:port,... [--respawn]] \
//!     [--checkpoint-every N] [--batch-updates N]
//! gz checkpoint save ckpt.gzc --from stream.gzs [--workers 4] [--seed S]
//! gz checkpoint restore ckpt.gzc [--forest]
//! gz shard-worker --listen 127.0.0.1:7001 --nodes 1024 --shards 2 --index 0 \
//!     [--checkpoint shard.ckpt | --resume shard.ckpt]
//! gz serve (--listen host:port | --unix sock.path) --nodes 1024 \
//!     [--shards K] [--workers N] [--max-clients C] [--dir state/ [--resume]] \
//!     [--checkpoint-ms MS] [--timeout-ms MS] [--staleness U] [--stats]
//! gz bipartite stream.gzs
//! ```
//!
//! Every command that runs a system runs one [`ShardedGraphZeppelin`]:
//! `components` at `--shards` shards (one without it), in this process
//! unless `--connect` names shard workers, and `checkpoint save` at one.
//! `--workers` is the one thread count: the Graph Workers, and the width of
//! the pool that flushes and folds every query. `--stats` prints one block
//! on every fleet, `gz serve`'s included (`stats_lines`).
//!
//! Fault tolerance (DESIGN.md §14): `--checkpoint-every N` makes the
//! coordinator ask every shard for a durable checkpoint each `N` routed
//! batches; `--respawn` (with `--connect`) keeps a replay log and,
//! when a worker dies, reconnects with bounded backoff, resyncs from the
//! worker's restored checkpoint, and replays the missing batches. A killed
//! worker is restarted (by its supervisor) as
//! `gz shard-worker --resume <ckpt>`.
//!
//! `gz serve` (DESIGN.md §15) keeps one resident sharded system alive and
//! serves many concurrent clients over the wire protocol's front-door
//! dialect, with WAL-backed acks, periodic checkpoint rounds, overload
//! shedding, and graceful signal-driven shutdown; see [`serve`] and the
//! [`client`] library.
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is a
//! thin shell.

pub mod client;
pub mod serve;

use graph_zeppelin::checkpoint::read_checkpoint_header;
use graph_zeppelin::config::DEFAULT_SEED;
use graph_zeppelin::{
    connect_shard_tcp, serve_shard_connection, BipartitenessTester, BufferStrategy, GraphZeppelin,
    GutterCapacity, Link, Recovery, RetryPolicy, ShardConfig, ShardPipeline, ShardedGraphZeppelin,
    SocketTransport, StoreBackend, StoreCensus, Stream, TransportTimeouts,
};
use gz_stream::format::{StreamReader, StreamWriter};
use gz_stream::{Dataset, GeneratorSpec, StreamifyConfig, UpdateKind};
use std::io::Write as _;
use std::path::PathBuf;

/// Sketch store placement selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreArg {
    /// Sketches in RAM.
    Ram,
    /// Sketches in a file under `--dir`.
    Disk,
}

impl StoreArg {
    fn parse(s: &str) -> Result<StoreArg, String> {
        match s {
            "ram" => Ok(StoreArg::Ram),
            "disk" => Ok(StoreArg::Disk),
            other => Err(format!("unknown store {other} (want ram|disk)")),
        }
    }
}

/// Buffering system selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferingArg {
    /// In-RAM leaf gutters.
    Leaf,
    /// On-disk gutter tree under `--dir`.
    Tree,
}

impl BufferingArg {
    fn parse(s: &str) -> Result<BufferingArg, String> {
        match s {
            "leaf" => Ok(BufferingArg::Leaf),
            "tree" => Ok(BufferingArg::Tree),
            other => Err(format!("unknown buffering {other} (want leaf|tree)")),
        }
    }
}

/// Everything `gz components` takes.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentsArgs {
    /// Stream file.
    pub path: PathBuf,
    /// Graph Workers per shard.
    pub workers: usize,
    /// Sketch store placement.
    pub store: StoreArg,
    /// Buffering system.
    pub buffering: BufferingArg,
    /// Directory for on-disk stores / gutter trees.
    pub dir: Option<PathBuf>,
    /// Also print the spanning forest.
    pub forest: bool,
    /// Hybrid-representation promotion threshold τ: nodes stay exact
    /// sparse sets until they exceed this many live neighbors (`None`
    /// or 0 = always-dense sketches).
    pub threshold: Option<u32>,
    /// Print the `--stats` block (`stats_lines`) after the query.
    pub stats: bool,
    /// Shard the system `k` ways (`None` = one shard; in-process unless
    /// `connect` names remote workers).
    pub shards: Option<u32>,
    /// `host:port` shard-worker addresses, one per shard in shard
    /// order; empty = in-process shards.
    pub connect: Vec<String>,
    /// Ask every shard for a durable checkpoint each `N` routed
    /// batches (`None` = never checkpoint mid-stream).
    pub checkpoint_every: Option<u64>,
    /// Absolute router batch size in updates (`None` = the paper's
    /// sketch-factor default). Small batches tighten the recovery
    /// replay bound at the cost of more wire round trips.
    pub batch_updates: Option<usize>,
    /// On worker death, reconnect with bounded backoff and replay the
    /// batches the worker lost (requires `--connect`).
    pub respawn: bool,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset stream into a file.
    Generate {
        /// Dataset spec.
        dataset: DatasetArg,
        /// RNG seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Print a stream file's header and statistics.
    Info {
        /// Stream file.
        path: PathBuf,
    },
    /// Compute connected components of a stream file.
    Components(ComponentsArgs),
    /// Ingest a stream, then persist the whole sketch state to a file.
    CheckpointSave {
        /// Stream file to ingest.
        stream: PathBuf,
        /// Checkpoint output path.
        out: PathBuf,
        /// Graph Workers for the ingesting system.
        workers: usize,
        /// Master seed (must match any system the checkpoint is later
        /// merged or compared with).
        seed: u64,
    },
    /// Restore a checkpoint and answer a connectivity query from it.
    CheckpointRestore {
        /// Checkpoint file.
        path: PathBuf,
        /// Also print the spanning forest.
        forest: bool,
    },
    /// Serve one shard over TCP: bind, accept one coordinator connection,
    /// run the shard-worker event loop until `Shutdown`.
    ShardWorker {
        /// `host:port` to listen on (port 0 picks a free port).
        listen: String,
        /// Vertex universe size (must match the coordinator).
        nodes: u64,
        /// Total shard count.
        shards: u32,
        /// This worker's shard index.
        index: u32,
        /// Master seed (must match the coordinator).
        seed: u64,
        /// Graph Workers in this shard's pipeline.
        workers: usize,
        /// Sketch store placement for this shard.
        store: StoreArg,
        /// Directory for an on-disk store.
        dir: Option<PathBuf>,
        /// Hybrid-representation promotion threshold τ for this shard's
        /// store (`None` or 0 = always-dense sketches).
        threshold: Option<u32>,
        /// Write coordinator-requested checkpoints to this file.
        checkpoint: Option<PathBuf>,
        /// Restore state from this checkpoint before serving; later
        /// checkpoints overwrite the same file.
        resume: Option<PathBuf>,
    },
    /// Run the long-lived serve daemon (DESIGN.md §15).
    Serve {
        /// Everything the daemon needs; see [`serve::ServeOptions`].
        options: serve::ServeOptions,
    },
    /// Test bipartiteness of a stream file.
    Bipartite {
        /// Stream file.
        path: PathBuf,
    },
}

/// Dataset selection for `generate`.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetArg {
    /// `kronN` from the paper catalog.
    Kron(u32),
    /// Erdős–Rényi `G(n, m)` written as `NxM`.
    ErdosRenyi(u64, u64),
    /// Preferential attachment written as `NxM`.
    Preferential(u64, u64),
}

impl DatasetArg {
    fn to_dataset(&self) -> Dataset {
        match *self {
            DatasetArg::Kron(scale) => Dataset::kron(scale),
            DatasetArg::ErdosRenyi(nodes, edges) => Dataset {
                name: format!("er-{nodes}x{edges}"),
                num_vertices: nodes,
                nominal_edges: edges,
                spec: GeneratorSpec::ErdosRenyi { nodes, edges },
            },
            DatasetArg::Preferential(nodes, edges) => Dataset {
                name: format!("pa-{nodes}x{edges}"),
                num_vertices: nodes,
                nominal_edges: edges,
                spec: GeneratorSpec::Preferential { nodes, edges },
            },
        }
    }
}

/// Parse `NxM` pairs.
fn parse_pair(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s.split_once('x').ok_or_else(|| format!("expected NxM, got {s}"))?;
    Ok((
        a.parse().map_err(|_| format!("bad node count {a}"))?,
        b.parse().map_err(|_| format!("bad edge count {b}"))?,
    ))
}

/// Graph Workers when `--workers` is not given: two, but no more than the
/// host can run at once. An explicit `--workers` is taken as given.
pub(crate) fn default_workers() -> usize {
    graph_zeppelin::config::capped_at_host(2)
}

/// What a flag takes, which is what the scan and the typed getters refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No value: given or not.
    Switch,
    /// A count: an integer, and `0` is refused rather than silently
    /// clamped downstream.
    Count,
    /// An integer where `0` means something (`gz serve --staleness 0`
    /// reseals on every query, `--threshold 0` is always-dense,
    /// `--timeout-ms 0` is no deadline).
    Number,
    /// Anything else; the text is what the flag "needs" when it is last.
    Value(&'static str),
}

/// One flag of one subcommand: its spelling and its [`Kind`].
type FlagSpec = (&'static str, Kind);

const GENERATE: &[FlagSpec] = &[
    ("--dataset", Kind::Value("a value")),
    ("--er", Kind::Value("NxM")),
    ("--pa", Kind::Value("NxM")),
    ("--seed", Kind::Number),
    ("--out", Kind::Value("a path")),
];

const COMPONENTS: &[FlagSpec] = &[
    ("--workers", Kind::Count),
    ("--store", Kind::Value("ram|disk")),
    ("--buffering", Kind::Value("leaf|tree")),
    ("--dir", Kind::Value("a dir")),
    ("--forest", Kind::Switch),
    ("--threshold", Kind::Number),
    ("--stats", Kind::Switch),
    ("--shards", Kind::Count),
    ("--connect", Kind::Value("addr,addr,...")),
    ("--checkpoint-every", Kind::Count),
    ("--batch-updates", Kind::Count),
    ("--respawn", Kind::Switch),
];

const CHECKPOINT_SAVE: &[FlagSpec] = &[
    ("--from", Kind::Value("a stream file")),
    ("--workers", Kind::Count),
    ("--seed", Kind::Number),
];

const CHECKPOINT_RESTORE: &[FlagSpec] = &[("--forest", Kind::Switch)];

const SHARD_WORKER: &[FlagSpec] = &[
    ("--listen", Kind::Value("host:port")),
    ("--nodes", Kind::Number),
    ("--shards", Kind::Count),
    ("--index", Kind::Number),
    ("--seed", Kind::Number),
    ("--workers", Kind::Count),
    ("--store", Kind::Value("ram|disk")),
    ("--dir", Kind::Value("a dir")),
    ("--threshold", Kind::Number),
    ("--checkpoint", Kind::Value("a path")),
    ("--resume", Kind::Value("a path")),
];

const SERVE: &[FlagSpec] = &[
    ("--listen", Kind::Value("host:port")),
    ("--unix", Kind::Value("a socket path")),
    ("--nodes", Kind::Number),
    ("--shards", Kind::Count),
    ("--seed", Kind::Number),
    ("--workers", Kind::Count),
    ("--max-clients", Kind::Count),
    ("--dir", Kind::Value("a dir")),
    ("--resume", Kind::Switch),
    ("--checkpoint-ms", Kind::Count),
    ("--timeout-ms", Kind::Number),
    ("--staleness", Kind::Number),
    ("--stats", Kind::Switch),
];

/// The flags of one invocation, scanned against its subcommand's table.
struct Flags<'a> {
    spec: &'static [FlagSpec],
    /// Parallel to `spec`: the value given (`""` for a switch), if any.
    given: Vec<Option<&'a str>>,
}

impl<'a> Flags<'a> {
    /// The one loop over the arguments: a flag the table does not list is
    /// unknown, a value flag that comes last is missing its value, and a
    /// flag given twice is an explicit error, never a silent last-one-wins.
    fn scan(
        spec: &'static [FlagSpec],
        it: &mut std::slice::Iter<'a, String>,
    ) -> Result<Flags<'a>, String> {
        let mut given = vec![None; spec.len()];
        while let Some(arg) = it.next() {
            let at = spec
                .iter()
                .position(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match spec[at].1 {
                Kind::Switch => "",
                Kind::Count | Kind::Number => it.next().ok_or(format!("{arg} needs a value"))?,
                Kind::Value(what) => it.next().ok_or(format!("{arg} needs {what}"))?,
            };
            if given[at].replace(value).is_some() {
                return Err(format!("duplicate flag {arg}"));
            }
        }
        Ok(Flags { spec, given })
    }

    fn at(&self, flag: &str) -> usize {
        let at = self.spec.iter().position(|(name, _)| *name == flag);
        at.unwrap_or_else(|| panic!("{flag} is not in this subcommand's flag table"))
    }

    /// The flag's value, if it was given (`Some("")` for a switch).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.given[self.at(flag)]
    }

    fn given(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// A value with its own grammar (`ram|disk`, `NxM`, ...).
    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(flag).map(parse).transpose()
    }

    /// An integer flag; zero is refused where the table says [`Kind::Count`].
    fn num<T: std::str::FromStr + Default + PartialEq>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.value(flag) else { return Ok(None) };
        let n: T = value.parse().map_err(|_| format!("bad value for {flag}"))?;
        if self.spec[self.at(flag)].1 == Kind::Count && n == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(Some(n))
    }
}

/// Parse a full argument vector (without `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or(
        "missing subcommand (generate|info|components|checkpoint|shard-worker|serve|bipartite)",
    )?;
    match sub.as_str() {
        "generate" => {
            let f = Flags::scan(GENERATE, &mut it)?;
            let kron = |v: &str| {
                let scale = v.strip_prefix("kron").and_then(|s| s.parse().ok());
                scale.map(DatasetArg::Kron).ok_or(format!("unknown dataset {v} (try kron10)"))
            };
            let er = |v: &str| parse_pair(v).map(|(n, m)| DatasetArg::ErdosRenyi(n, m));
            let pa = |v: &str| parse_pair(v).map(|(n, m)| DatasetArg::Preferential(n, m));
            // The three spell one slot: a second one is a duplicate.
            let datasets =
                [f.parsed("--dataset", kron)?, f.parsed("--er", er)?, f.parsed("--pa", pa)?];
            let mut datasets = datasets.into_iter().flatten();
            let dataset = datasets.next().ok_or("need one of --dataset/--er/--pa")?;
            if datasets.next().is_some() {
                return Err("duplicate flag: pick one of --dataset/--er/--pa".into());
            }
            Ok(Command::Generate {
                dataset,
                seed: f.num("--seed")?.unwrap_or(42),
                out: f.path("--out").ok_or("need --out")?,
            })
        }
        "info" => {
            let path = it.next().ok_or("info needs a stream file")?;
            Ok(Command::Info { path: PathBuf::from(path) })
        }
        "components" => {
            let path = PathBuf::from(it.next().ok_or("components needs a stream file")?);
            let f = Flags::scan(COMPONENTS, &mut it)?;
            let addrs = |v: &str| v.split(',').map(|s| s.trim().to_string()).collect();
            let args = ComponentsArgs {
                path,
                workers: f.num("--workers")?.unwrap_or_else(default_workers),
                store: f.parsed("--store", StoreArg::parse)?.unwrap_or(StoreArg::Ram),
                buffering: f
                    .parsed("--buffering", BufferingArg::parse)?
                    .unwrap_or(BufferingArg::Leaf),
                dir: f.path("--dir"),
                forest: f.given("--forest"),
                threshold: f.num("--threshold")?,
                stats: f.given("--stats"),
                shards: f.num("--shards")?,
                connect: f.value("--connect").map(addrs).unwrap_or_default(),
                checkpoint_every: f.num("--checkpoint-every")?,
                batch_updates: f.num("--batch-updates")?,
                respawn: f.given("--respawn"),
            };
            if !args.connect.is_empty() && args.shards.is_none() {
                return Err("--connect requires --shards".into());
            }
            if args.respawn && args.connect.is_empty() {
                return Err("--respawn requires --connect (in-process shards share the \
                     coordinator's fate; there is nothing to reconnect to)"
                    .into());
            }
            Ok(Command::Components(args))
        }
        "checkpoint" => {
            let action = it.next().ok_or("checkpoint needs save|restore")?;
            match action.as_str() {
                "save" => {
                    let out = PathBuf::from(it.next().ok_or("checkpoint save needs a path")?);
                    let f = Flags::scan(CHECKPOINT_SAVE, &mut it)?;
                    Ok(Command::CheckpointSave {
                        stream: f.path("--from").ok_or("need --from <stream.gzs>")?,
                        out,
                        workers: f.num("--workers")?.unwrap_or_else(default_workers),
                        seed: f.num("--seed")?.unwrap_or(DEFAULT_SEED),
                    })
                }
                "restore" => {
                    let path = PathBuf::from(it.next().ok_or("checkpoint restore needs a path")?);
                    let f = Flags::scan(CHECKPOINT_RESTORE, &mut it)?;
                    Ok(Command::CheckpointRestore { path, forest: f.given("--forest") })
                }
                other => Err(format!("unknown checkpoint action {other} (want save|restore)")),
            }
        }
        "shard-worker" => {
            let f = Flags::scan(SHARD_WORKER, &mut it)?;
            if f.given("--checkpoint") && f.given("--resume") {
                return Err("--resume already names the checkpoint file (later \
                     checkpoints overwrite it); drop --checkpoint"
                    .into());
            }
            Ok(Command::ShardWorker {
                listen: f.value("--listen").ok_or("need --listen")?.to_string(),
                nodes: f.num("--nodes")?.ok_or("need --nodes")?,
                shards: f.num("--shards")?.ok_or("need --shards")?,
                index: f.num("--index")?.ok_or("need --index")?,
                seed: f.num("--seed")?.unwrap_or(DEFAULT_SEED),
                workers: f.num("--workers")?.unwrap_or_else(default_workers),
                store: f.parsed("--store", StoreArg::parse)?.unwrap_or(StoreArg::Ram),
                dir: f.path("--dir"),
                threshold: f.num("--threshold")?,
                checkpoint: f.path("--checkpoint"),
                resume: f.path("--resume"),
            })
        }
        "serve" => {
            let f = Flags::scan(SERVE, &mut it)?;
            let listen = match (f.value("--listen"), f.path("--unix")) {
                (Some(addr), None) => serve::ServeListen::Tcp(addr.to_string()),
                (None, Some(path)) => serve::ServeListen::Unix(path),
                (None, None) => return Err("need --listen host:port or --unix path".into()),
                (Some(_), Some(_)) => {
                    return Err("pick one of --listen and --unix, not both".into());
                }
            };
            let mut options =
                serve::ServeOptions::new(listen, f.num("--nodes")?.ok_or("need --nodes")?);
            options.dir = f.path("--dir");
            options.resume = f.given("--resume");
            if options.resume && options.dir.is_none() {
                return Err("--resume needs --dir (there is no state to resume without one)".into());
            }
            options.shards = f.num("--shards")?.unwrap_or(options.shards);
            options.seed = f.num("--seed")?.unwrap_or(options.seed);
            options.workers = f.num("--workers")?.unwrap_or(options.workers);
            options.max_clients = f.num("--max-clients")?.unwrap_or(options.max_clients);
            options.checkpoint_ms = f.num("--checkpoint-ms")?.unwrap_or(options.checkpoint_ms);
            // Some(0) is the typed spelling of "no deadline".
            options.timeout_ms = f.num("--timeout-ms")?.or(options.timeout_ms);
            options.staleness = f.num("--staleness")?.unwrap_or(options.staleness);
            options.stats = f.given("--stats");
            Ok(Command::Serve { options })
        }
        "bipartite" => {
            let path = it.next().ok_or("bipartite needs a stream file")?;
            Ok(Command::Bipartite { path: PathBuf::from(path) })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// Resolve `--store`/`--dir` into `config`'s [`StoreBackend`], creating
/// the directory: a disk store is the library's paged store
/// ([`ShardConfig::paged_store`], as [`graph_zeppelin::GzConfig::on_disk`]
/// builds it).
fn store_backend(
    config: &ShardConfig,
    store: StoreArg,
    dir: &Option<PathBuf>,
) -> Result<StoreBackend, String> {
    match store {
        StoreArg::Ram => Ok(StoreBackend::Ram),
        StoreArg::Disk => {
            let dir = dir.clone().ok_or("--store disk needs --dir")?;
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            Ok(config.paged_store(dir))
        }
    }
}

/// The one system config the components flags select: `--shards` shards
/// (one without it), each with the store, threshold and buffering given,
/// and the checkpoint cadence writing under `--dir` when the shards are in
/// this process.
fn shard_config(num_nodes: u64, args: &ComponentsArgs) -> Result<ShardConfig, String> {
    let mut config = ShardConfig::in_ram(num_nodes, args.shards.unwrap_or(1));
    config.workers_per_shard = args.workers;
    config.store = store_backend(&config, args.store, &args.dir)?;
    config.sketch_threshold = args.threshold.unwrap_or(0);
    config.checkpoint_every = args.checkpoint_every;
    if args.checkpoint_every.is_some() && args.connect.is_empty() {
        config.checkpoint_dir = args.dir.clone();
    }
    config.buffering = buffering(args)?;
    Ok(config)
}

/// The buffering selected by `--buffering`, its gutters holding
/// `--batch-updates` records when that is given (a leaf gutter, or a tree's
/// leaf) and the paper's sketch-factor default when not.
fn buffering(args: &ComponentsArgs) -> Result<BufferStrategy, String> {
    let capacity = |factor| {
        args.batch_updates.map_or(GutterCapacity::SketchFactor(factor), GutterCapacity::Updates)
    };
    Ok(match args.buffering {
        BufferingArg::Leaf => BufferStrategy::LeafOnly { capacity: capacity(0.5) },
        BufferingArg::Tree => {
            let dir = args.dir.clone().ok_or("--buffering tree needs --dir")?;
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            BufferStrategy::GutterTree {
                buffer_bytes: 1 << 20,
                fanout: 64,
                leaf_capacity: capacity(2.0),
                dir,
            }
        }
    })
}

/// Route every update of `reader`'s file into `gz`.
fn ingest_file(gz: &mut ShardedGraphZeppelin, reader: StreamReader) -> Result<(), String> {
    for update in reader {
        let u = update.map_err(|e| e.to_string())?;
        gz.update(u.u, u.v, u.kind == UpdateKind::Delete).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `gz components`, on any fleet.
fn components(args: &ComponentsArgs) -> Result<String, String> {
    let ComponentsArgs { dir, connect, checkpoint_every, .. } = args;
    // Refuse flag combinations that would silently not take effect.
    if !connect.is_empty() && args.store == StoreArg::Disk {
        return Err("with --connect, sketch stores live in the shard workers; pass \
             --store/--dir to each `gz shard-worker` instead"
            .into());
    }
    if checkpoint_every.is_some() && connect.is_empty() && dir.is_none() {
        return Err("--checkpoint-every with in-process shards needs --dir for the \
             checkpoint files (remote workers use their own --checkpoint paths)"
            .into());
    }

    let reader = StreamReader::open(&args.path).map_err(|e| e.to_string())?;
    let num_nodes = reader.header().num_vertices;
    let config = shard_config(num_nodes, args)?;
    let num_shards = config.num_shards;

    let mut gz = if connect.is_empty() {
        ShardedGraphZeppelin::in_process(config).map_err(|e| e.to_string())?
    } else {
        if connect.len() != num_shards as usize {
            return Err(format!(
                "--connect names {} workers but --shards is {num_shards}",
                connect.len()
            ));
        }
        let digest = config.params_digest();
        let transport = if args.respawn {
            // Detect dead peers instead of hanging on them, and give an
            // externally restarted worker a few seconds to come back up.
            let timeouts = TransportTimeouts {
                connect: Some(std::time::Duration::from_secs(5)),
                read: Some(std::time::Duration::from_secs(30)),
                write: Some(std::time::Duration::from_secs(30)),
            };
            let retry = RetryPolicy {
                attempts: 10,
                base: std::time::Duration::from_millis(100),
                ..RetryPolicy::default()
            };
            let addrs: Vec<String> = connect.to_vec();
            let redial = Box::new(move |shard: u32| {
                connect_shard_tcp(&addrs[shard as usize], shard, &timeouts, &retry)
            });
            SocketTransport::connect_tcp_with(connect, digest, &timeouts, &retry)
                .and_then(|plain| plain.with_recovery(Recovery::new(timeouts, retry, redial)))
        } else {
            SocketTransport::connect_tcp(connect, digest)
        };
        let transport = transport.map_err(|e| e.to_string())?;
        ShardedGraphZeppelin::with_transport(config, Box::new(transport))
            .map_err(|e| e.to_string())?
    };

    ingest_file(&mut gz, reader)?;
    // A checkpointing run always ends with one final checkpoint round, so
    // the end-of-stream state is durable regardless of cadence alignment.
    if checkpoint_every.is_some() {
        gz.checkpoint_shards().map_err(|e| e.to_string())?;
    }
    let outcome = gz.spanning_forest().map_err(|e| e.to_string())?;
    let mut out = format!(
        "{} components over {num_nodes} nodes ({} updates ingested, {num_shards} shards, \
         {} batches shipped)\n",
        outcome.num_components(),
        gz.updates_ingested(),
        gz.batches_shipped(),
    );
    if args.stats {
        out.push_str(&stats_lines(&mut gz).map_err(|e| e.to_string())?);
    }
    if args.forest {
        for e in &outcome.forest {
            out.push_str(&format!("{} {}\n", e.u(), e.v()));
        }
    }
    gz.shutdown().map_err(|e| e.to_string())?;
    Ok(out)
}

/// A store census as `--stats` prints it: the representation line, and the
/// disk store's I/O when a store touches disk.
fn census_lines(census: &StoreCensus) -> String {
    let rep = census.rep;
    let mut out = format!(
        "representation: {} promoted, {} sparse ({} neighbor entries, {} sparse bytes); \
         sketch memory {} bytes\n",
        rep.promoted,
        rep.sparse,
        rep.sparse_entries,
        rep.sparse_bytes(),
        census.sketch_bytes,
    );
    if let Some(io) = &census.io {
        out.push_str(&format!(
            "disk store: {} reads ({} bytes), {} writes ({} bytes)\n",
            io.reads(),
            io.bytes_read(),
            io.writes(),
            io.bytes_written(),
        ));
    }
    out
}

/// The `--stats` block of any system, one line each: the census of the
/// shards in this process (a worker behind a link prints its own on exit),
/// the gutter tree's I/O or the leaf gutters' records and chunk pool,
/// ingest, the column kernel and the graph digest,
/// then the recovery and link counters where the transport keeps them.
pub(crate) fn stats_lines(
    gz: &mut ShardedGraphZeppelin,
) -> Result<String, graph_zeppelin::GzError> {
    let mut out = gz.store_census()?.map(|census| census_lines(&census)).unwrap_or_default();
    if let Some(io) = gz.gutter_io() {
        out.push_str(&format!("gutter tree: {io}\n"));
    }
    if let Some(pool) = gz.gutter_pool() {
        out.push_str(&format!("gutters: {pool}\n"));
    }
    out.push_str(&format!("ingest: {}\n", gz.ingest_counters()));
    out.push_str(&format!("sketch: kernel={}\n", gz.params().kernel()));
    out.push_str(&format!("graph digest: {}\n", gz.graph_digest()?));
    if let Some(rs) = gz.recovery_stats() {
        out.push_str(&format!("recovery: {rs}\n"));
    }
    if let Some(link) = gz.link_stats() {
        out.push_str(&format!("link: {link}\n"));
    }
    Ok(out)
}

fn run_shard_worker(
    listen: &str,
    config: ShardConfig,
    index: u32,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
) -> Result<String, String> {
    let shards = config.num_shards;
    let pipeline = ShardPipeline::new(&config, index).map_err(|e| e.to_string())?;
    if let Some(path) = resume {
        // A worker killed before its first checkpoint has nothing to
        // restore; starting empty is correct (the coordinator's replay log
        // covers everything since seq 0), so a missing file is not fatal.
        if path.exists() {
            let seq = pipeline.resume_from(&path, None).map_err(|e| e.to_string())?;
            println!("shard-worker {index}/{shards} resumed {} at batch seq {seq}", path.display());
        } else {
            println!(
                "shard-worker {index}/{shards} found no checkpoint at {}; starting empty",
                path.display()
            );
            pipeline.set_checkpoint_path(path);
        }
    } else if let Some(path) = checkpoint {
        pipeline.set_checkpoint_path(path);
    }

    let listener = std::net::TcpListener::bind(listen).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Announce the bound address before blocking so a coordinator script
    // can discover an ephemeral port.
    println!("shard-worker {index}/{shards} listening on {addr}");
    std::io::stdout().flush().ok();

    let (stream, peer) = listener.accept().map_err(|e| e.to_string())?;
    let stream = Stream::tcp(stream, &TransportTimeouts::default()).map_err(|e| e.to_string())?;
    let mut link = Link::new(stream);
    let stats = serve_shard_connection(&mut link, &pipeline, config.params_digest())
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "shard {index}/{shards}: served {peer} — {} batches, {} records, {} flushes, \
         {} gathers, {} checkpoints; link: {}\n{}",
        stats.batches(),
        stats.records(),
        stats.flushes(),
        stats.gathers(),
        stats.checkpoints(),
        link.stats(),
        census_lines(&pipeline.census()).trim_end(),
    ))
}

/// Execute a command; returns the text to print.
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Generate { dataset, seed, out } => {
            let d = dataset.to_dataset();
            let result = d.stream(seed, &StreamifyConfig::default());
            let mut writer =
                StreamWriter::create(&out, d.num_vertices).map_err(|e| e.to_string())?;
            writer.write_all(&result.updates).map_err(|e| e.to_string())?;
            let header = writer.finish().map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {}: {} nodes, {} updates, {} final edges, {} nodes disconnected",
                out.display(),
                header.num_vertices,
                header.num_updates,
                result.final_edge_count,
                result.disconnected.len(),
            ))
        }
        Command::Info { path } => {
            let reader = StreamReader::open(&path).map_err(|e| e.to_string())?;
            let header = reader.header();
            // One pass: counted as they are validated, never collected. A
            // read error ends the pass and wins.
            let (mut inserts, mut deletes, mut unreadable) = (0u64, 0u64, None);
            let updates = reader.map_while(|u| u.map_err(|e| unreadable = Some(e)).ok());
            let updates = updates.inspect(|u| match u.kind {
                UpdateKind::Insert => inserts += 1,
                UpdateKind::Delete => deletes += 1,
            });
            let validated = gz_stream::update::validate_stream(header.num_vertices, updates);
            if let Some(e) = unreadable {
                return Err(e.to_string());
            }
            let final_edges = validated.map_err(|v| format!("invalid stream: {v:?}"))?;
            Ok(format!(
                "{}: {} nodes, {} updates ({} inserts, {} deletes), {} final edges, valid",
                path.display(),
                header.num_vertices,
                header.num_updates,
                inserts,
                deletes,
                final_edges.len(),
            ))
        }
        Command::Components(args) => components(&args),
        Command::CheckpointSave { stream, out, workers, seed } => {
            let reader = StreamReader::open(&stream).map_err(|e| e.to_string())?;
            let mut config = ShardConfig::in_ram(reader.header().num_vertices, 1);
            config.workers_per_shard = workers;
            config.seed = seed;
            let mut gz = ShardedGraphZeppelin::in_process(config).map_err(|e| e.to_string())?;
            ingest_file(&mut gz, reader)?;
            gz.checkpoint_shards_to(std::slice::from_ref(&out)).map_err(|e| e.to_string())?;
            let ckpt = read_checkpoint_header(&out).map_err(|e| e.to_string())?;
            Ok(format!(
                "checkpoint {}: {} nodes, {} updates, {} rounds, seed {:#x}",
                out.display(),
                ckpt.num_nodes,
                ckpt.updates_ingested,
                ckpt.rounds,
                ckpt.seed,
            ))
        }
        Command::CheckpointRestore { path, forest } => {
            let mut gz = GraphZeppelin::restore(&path).map_err(|e| e.to_string())?;
            let cc = gz.connected_components().map_err(|e| e.to_string())?;
            let mut out = format!(
                "{} components over {} nodes ({} updates restored from {})\n",
                cc.num_components(),
                gz.config().num_nodes,
                gz.updates_ingested(),
                path.display(),
            );
            if forest {
                for e in cc.spanning_forest() {
                    out.push_str(&format!("{} {}\n", e.u(), e.v()));
                }
            }
            Ok(out)
        }
        Command::ShardWorker {
            listen,
            nodes,
            shards,
            index,
            seed,
            workers,
            store,
            dir,
            threshold,
            checkpoint,
            resume,
        } => {
            let mut config = ShardConfig::in_ram(nodes, shards);
            config.seed = seed;
            config.workers_per_shard = workers;
            config.store = store_backend(&config, store, &dir)?;
            config.sketch_threshold = threshold.unwrap_or(0);
            run_shard_worker(&listen, config, index, checkpoint, resume)
        }
        Command::Serve { options } => serve::run_serve(options),
        Command::Bipartite { path } => {
            let reader = StreamReader::open(&path).map_err(|e| e.to_string())?;
            let mut tester = BipartitenessTester::new(reader.header().num_vertices, 7)
                .map_err(|e| e.to_string())?;
            for update in reader {
                let u = update.map_err(|e| e.to_string())?;
                tester.update(u.u, u.v, u.kind == UpdateKind::Delete);
            }
            let ans = tester.query().map_err(|e| e.to_string())?;
            Ok(if ans.bipartite {
                "bipartite".to_string()
            } else {
                format!("NOT bipartite ({} odd components)", ans.odd_components.len())
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_zeppelin::GzConfig;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-cli-{name}"), ".gzs")
    }

    fn parse_components(s: &str) -> Command {
        parse_args(&argv(s)).unwrap()
    }

    /// What `gz components <path>` means with no flags.
    fn bare_components(path: &std::path::Path) -> ComponentsArgs {
        match parse_components(&format!("components {}", path.display())) {
            Command::Components(args) => args,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&argv("generate --dataset kron9 --seed 7 --out /tmp/x.gzs")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: DatasetArg::Kron(9),
                seed: 7,
                out: PathBuf::from("/tmp/x.gzs"),
            }
        );
    }

    #[test]
    fn parses_er_and_pa_specs() {
        assert_eq!(
            parse_args(&argv("generate --er 100x500 --out o.gzs")).unwrap(),
            Command::Generate {
                dataset: DatasetArg::ErdosRenyi(100, 500),
                seed: 42,
                out: PathBuf::from("o.gzs"),
            }
        );
        assert!(matches!(
            parse_args(&argv("generate --pa 50x100 --out o.gzs")).unwrap(),
            Command::Generate { dataset: DatasetArg::Preferential(50, 100), .. }
        ));
    }

    /// Every row of one flag table, through the whole parser: the flag
    /// parses; given twice it is a duplicate; a value flag given last says
    /// what it needs; a count refuses zero and a number accepts it; neither
    /// takes a word. The error strings are asserted whole — they are the
    /// CLI's interface as much as the flags are. `prefix` is the invocation
    /// up to its flags and `required` the flags a bare invocation does not
    /// parse without.
    fn check_flag_table(prefix: &str, spec: &[FlagSpec], required: &[&str]) {
        // Flags that spell one slot: the required one steps aside for the
        // one under test.
        let same_slot = [&["--dataset", "--er", "--pa"][..], &["--listen", "--unix"][..]];
        for &(flag, kind) in spec {
            let slot = same_slot.iter().find(|group| group.contains(&flag));
            let rest: Vec<&str> = required
                .iter()
                .filter(|r| {
                    let name = r.split(' ').next().unwrap();
                    name != flag && !slot.is_some_and(|group| group.contains(&name))
                })
                .copied()
                .collect();
            let parse =
                |tail: String| parse_args(&argv(&format!("{prefix} {} {tail}", rest.join(" "))));
            let sample = match (flag, kind) {
                (_, Kind::Switch) => "",
                (_, Kind::Count | Kind::Number) => "3",
                ("--dataset", _) => "kron5",
                ("--er" | "--pa", _) => "10x20",
                ("--store", _) => "ram",
                ("--buffering", _) => "leaf",
                _ => "x:1", // a path, an address, an address list
            };
            let ctx = format!("{prefix} {flag}");
            let given = format!("{flag} {sample}");
            assert!(parse(given.clone()).is_ok(), "{ctx}: {:?}", parse(given.clone()));
            let twice = parse(format!("{given} {given}")).unwrap_err();
            assert_eq!(twice, format!("duplicate flag {flag}"), "{ctx}");
            let needs = match kind {
                Kind::Switch => continue,
                Kind::Count | Kind::Number => "a value",
                Kind::Value(what) => what,
            };
            let last = parse(flag.to_string()).unwrap_err();
            assert_eq!(last, format!("{flag} needs {needs}"), "{ctx}");
            if let Kind::Count | Kind::Number = kind {
                let zero = parse(format!("{flag} 0"));
                match kind {
                    Kind::Count => {
                        assert_eq!(zero.unwrap_err(), format!("{flag} must be at least 1"))
                    }
                    _ => assert!(zero.is_ok(), "{ctx}: zero means something: {zero:?}"),
                }
                let word = parse(format!("{flag} lots")).unwrap_err();
                assert_eq!(word, format!("bad value for {flag}"), "{ctx}");
            }
        }
    }

    #[test]
    fn generate_flag_table() {
        check_flag_table("generate", GENERATE, &["--dataset kron5", "--out o.gzs"]);
    }

    #[test]
    fn components_flag_table() {
        // With the flags `--respawn` needs beside it.
        check_flag_table("components s.gzs", COMPONENTS, &["--shards 2", "--connect a:1,b:2"]);
        // `--workers` is the one thread count, and staleness is `gz serve`'s.
        for flag in ["--bogus", "--query-threads", "--staleness"] {
            let err = parse_args(&argv(&format!("components s.gzs {flag} 2"))).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag}"));
        }
        // The disk store has one I/O path: there is no backend to pick.
        let err = parse_args(&argv("components s.gzs --io-backend pread")).unwrap_err();
        assert_eq!(err, "unknown flag --io-backend");
    }

    #[test]
    fn checkpoint_flag_tables() {
        check_flag_table("checkpoint save c.gzc", CHECKPOINT_SAVE, &["--from s.gzs"]);
        check_flag_table("checkpoint restore c.gzc", CHECKPOINT_RESTORE, &[]);
        let err = parse_args(&argv("checkpoint restore c.gzc --query-threads 2")).unwrap_err();
        assert_eq!(err, "unknown flag --query-threads");
    }

    #[test]
    fn shard_worker_flag_table() {
        let required = ["--listen a:1", "--nodes 8", "--shards 2", "--index 0"];
        check_flag_table("shard-worker", SHARD_WORKER, &required);
        let err = parse_args(&argv(&format!(
            "shard-worker {} --store disk --dir d --io-backend pread",
            required.join(" ")
        )))
        .unwrap_err();
        assert_eq!(err, "unknown flag --io-backend");
    }

    #[test]
    fn serve_flag_table() {
        // `--dir` beside `--resume`, which needs it.
        check_flag_table("serve", SERVE, &["--listen a:1", "--nodes 8", "--dir d"]);
    }

    #[test]
    fn parses_components() {
        // Every flag, each landing in its field.
        let cmd = parse_components(
            "components s.gzs --workers 8 --store disk --buffering tree \
             --dir /tmp/d --forest --threshold 16 --stats \
             --shards 2 --connect 127.0.0.1:7001,127.0.0.1:7002 --checkpoint-every 64 \
             --batch-updates 128 --respawn",
        );
        let expected = ComponentsArgs {
            path: PathBuf::from("s.gzs"),
            workers: 8,
            store: StoreArg::Disk,
            buffering: BufferingArg::Tree,
            dir: Some(PathBuf::from("/tmp/d")),
            forest: true,
            threshold: Some(16),
            stats: true,
            shards: Some(2),
            connect: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            checkpoint_every: Some(64),
            batch_updates: Some(128),
            respawn: true,
        };
        assert_eq!(cmd, Command::Components(expected));

        // No flags: RAM, leaf gutters, nothing optional, and two workers or
        // as many as the host can run.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bare = bare_components(std::path::Path::new("s.gzs"));
        assert_eq!(bare.path, PathBuf::from("s.gzs"));
        assert_eq!(bare.workers, cores.min(2));
        assert_eq!((bare.store, bare.buffering), (StoreArg::Ram, BufferingArg::Leaf));
        assert_eq!(bare.threshold, None);
        assert_eq!((bare.shards, bare.checkpoint_every), (None, None));
        assert!(bare.connect.is_empty() && bare.batch_updates.is_none());
        assert!(!(bare.forest || bare.stats || bare.respawn));

        // Values with a grammar of their own: every spelling lands, and
        // anything else is refused with the spellings named.
        let field = |flags: &str| match parse_components(&format!("components s.gzs {flags}")) {
            Command::Components(args) => args,
            other => panic!("{other:?}"),
        };
        assert_eq!(field("--store ram").store, StoreArg::Ram);
        assert_eq!(field("--buffering leaf").buffering, BufferingArg::Leaf);
        for (flags, spellings) in [
            ("--store floppy", "unknown store floppy (want ram|disk)"),
            ("--buffering ring", "unknown buffering ring (want leaf|tree)"),
        ] {
            let err = parse_args(&argv(&format!("components s.gzs {flags}"))).unwrap_err();
            assert_eq!(err, spellings);
        }
        // Zero where zero means something.
        assert_eq!(field("--threshold 0").threshold, Some(0), "force always-dense");
    }

    #[test]
    fn flags_that_only_work_together_say_so() {
        for (flags, needle) in [
            ("--connect 127.0.0.1:7001", "--connect requires --shards"),
            ("--shards 2 --respawn", "--respawn requires --connect"),
        ] {
            let err = parse_args(&argv(&format!("components s.gzs {flags}"))).unwrap_err();
            assert!(err.contains(needle), "{flags}: {err}");
        }
        // Flags that spell one slot are duplicates of each other.
        let err = parse_args(&argv("generate --dataset kron5 --er 10x20 --out o.gzs")).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
        // Worker side: --resume already names the checkpoint file.
        let err = parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 1 \
             --checkpoint a.ckpt --resume a.ckpt",
        ))
        .unwrap_err();
        assert!(err.contains("drop --checkpoint"), "{err}");
    }

    #[test]
    fn hybrid_threshold_matches_dense_end_to_end() {
        // Through the whole CLI: a hybrid run answers exactly like a dense
        // run, and the census reports the representation split.
        let path = tmp("hybrid");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 17,
            out: path.to_path_buf(),
        })
        .unwrap();
        let dense = execute(components_cmd(&path, None)).unwrap();
        let count =
            |s: &str| s.lines().next().unwrap().split_whitespace().next().unwrap().to_string();
        for (threshold, shards) in [(4u32, None), (64, None), (4, Some(2))] {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components(ComponentsArgs { threshold: t, .. }) = &mut cmd {
                *t = Some(threshold);
            }
            let got = execute(cmd).unwrap();
            assert_eq!(count(&got), count(&dense), "threshold={threshold} shards={shards:?}");
        }
        // The census line appears on request and adds up to the universe.
        let mut cmd = components_cmd(&path, None);
        if let Command::Components(ComponentsArgs { threshold, stats, .. }) = &mut cmd {
            *threshold = Some(4);
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        let census = out.lines().find(|l| l.starts_with("representation:")).unwrap();
        let nums: Vec<u64> = census
            .split_whitespace()
            .filter_map(|w| w.trim_start_matches('(').parse().ok())
            .collect();
        assert_eq!(nums[0] + nums[1], 32, "promoted + sparse covers kron5: {census}");
        // So does what the flush applied: kron5 fills no gutter, so every
        // record reached the store in the query's one flush.
        let ingest = out.lines().find(|l| l.starts_with("ingest: batches=")).unwrap();
        assert!(ingest.contains(" flushes=1 flush_ns="), "{ingest}");
        // And which column kernel this host ran the batches through.
        let kernel = graph_zeppelin::node_sketch::SketchParams::new(32, 1, 3, 0).kernel();
        assert!(out.contains(&format!("\nsketch: kernel={kernel}\n")), "{out}");
    }

    #[test]
    fn worker_count_changes_no_answers() {
        // End to end through the CLI: `--workers` sizes the Graph Workers
        // and the pool every flush and query runs on — a performance knob,
        // never a correctness one.
        let path = tmp("workers");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 12,
            out: path.to_path_buf(),
        })
        .unwrap();
        let run = |workers: usize, shards: Option<u32>| {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components(args) = &mut cmd {
                (args.workers, args.forest) = (workers, true);
            }
            execute(cmd).unwrap()
        };
        let reference = run(2, None);
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        for workers in [1usize, 2, 4] {
            for shards in [None, Some(2)] {
                let got = run(workers, shards);
                assert_eq!(count(&got), count(&reference), "workers={workers} {shards:?}");
                assert_eq!(forest_lines(&got), forest_lines(&reference), "{workers} {shards:?}");
            }
        }
    }

    #[test]
    fn parses_checkpoint_save_and_restore() {
        assert_eq!(
            parse_args(&argv("checkpoint save c.gzc --from s.gzs --workers 3 --seed 9")).unwrap(),
            Command::CheckpointSave {
                stream: PathBuf::from("s.gzs"),
                out: PathBuf::from("c.gzc"),
                workers: 3,
                seed: 9,
            }
        );
        assert_eq!(
            parse_args(&argv("checkpoint restore c.gzc --forest")).unwrap(),
            Command::CheckpointRestore { path: PathBuf::from("c.gzc"), forest: true }
        );
        // Defaults.
        assert!(matches!(
            parse_args(&argv("checkpoint restore c.gzc")).unwrap(),
            Command::CheckpointRestore { forest: false, .. }
        ));
        // Malformed forms are refused.
        assert!(parse_args(&argv("checkpoint")).is_err(), "missing action");
        assert!(parse_args(&argv("checkpoint frobnicate c.gzc")).is_err());
        assert!(parse_args(&argv("checkpoint save c.gzc")).is_err(), "missing --from");
        assert!(parse_args(&argv("checkpoint save c.gzc --from s.gzs --seed nope")).is_err());
        assert!(parse_args(&argv("checkpoint restore")).is_err(), "missing path");
        assert!(parse_args(&argv("checkpoint restore c.gzc --bogus")).is_err());
    }

    #[test]
    fn checkpoint_save_restore_round_trip() {
        let stream = tmp("ckpt-stream");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 8,
            out: stream.to_path_buf(),
        })
        .unwrap();
        let ckpt = gz_testutil::TempPath::new("gz-cli-ckpt", ".gzc");
        let saved = execute(Command::CheckpointSave {
            stream: stream.to_path_buf(),
            out: ckpt.to_path_buf(),
            workers: 2,
            seed: DEFAULT_SEED,
        })
        .unwrap();
        assert!(saved.contains("32 nodes"), "{saved}");

        // The restored answer must match running components directly — and
        // the materialize-everything oracle over the restored state, edge
        // for edge.
        let direct = execute(components_cmd(&stream, None)).unwrap();
        let restored =
            execute(Command::CheckpointRestore { path: ckpt.to_path_buf(), forest: true }).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        assert_eq!(count(&restored), count(&direct));
        let mut gz = GraphZeppelin::restore(ckpt.path()).unwrap();
        let oracle = assert_matches_oracle(&mut gz);
        assert_eq!(forest_lines(&restored), printed_forest(&oracle));
    }

    #[test]
    fn checkpoint_written_at_the_papers_columns_restores_under_the_default() {
        // A checkpoint from before the default moved says seven columns in
        // its header, and the header wins: `checkpoint restore` rebuilds that
        // geometry and prints the forest the seven-column system computed.
        use graph_zeppelin::config::{DEFAULT_COLUMNS, PAPER_COLUMNS};
        let mut config = GzConfig::in_ram(32);
        assert_eq!(config.num_columns, DEFAULT_COLUMNS);
        config.num_columns = PAPER_COLUMNS;
        assert_eq!(restores_under_its_own_header(config).columns, PAPER_COLUMNS);
    }

    #[test]
    fn checkpoint_written_at_the_papers_rounds_restores_under_its_header() {
        // The same for a checkpoint from before the round budget moved: its header
        // says the paper's rounds, and `checkpoint restore` rebuilds that
        // stack depth rather than reading it as the default's.
        use graph_zeppelin::config::{default_rounds, paper_rounds};
        let mut config = GzConfig::in_ram(32);
        assert_eq!(config.rounds(), default_rounds(32));
        config.num_rounds = Some(paper_rounds(32));
        assert_ne!(config.rounds(), default_rounds(32));
        assert_eq!(restores_under_its_own_header(config).rounds, paper_rounds(32));
    }

    /// Checkpoint a 32-vertex system built at `config`, restore the file
    /// through `gz checkpoint restore --forest`, and check it prints the
    /// forest the system computed. Hands back the file's header.
    fn restores_under_its_own_header(config: GzConfig) -> graph_zeppelin::CheckpointHeader {
        let mut old = GraphZeppelin::new(config).unwrap();
        for v in 0..24u32 {
            let other = (v * 5 + 3) % 31; // one of the 31 vertices that are not `v`
            old.update(v, other + (other >= v) as u32, false);
        }
        let before = old.spanning_forest().unwrap();
        let ckpt = gz_testutil::TempPath::new("gz-cli-ckpt-old", ".gzc");
        old.save_checkpoint(ckpt.path()).unwrap();

        let restored =
            execute(Command::CheckpointRestore { path: ckpt.to_path_buf(), forest: true }).unwrap();
        assert!(restored.starts_with(&format!("{} components", before.num_components())));
        assert_eq!(forest_lines(&restored), printed_forest(&before));
        read_checkpoint_header(ckpt.path()).unwrap()
    }

    /// The product query against the reference query on every field that is
    /// an answer; hands back the reference.
    fn assert_matches_oracle(gz: &mut GraphZeppelin) -> graph_zeppelin::BoruvkaOutcome {
        let oracle = gz.spanning_forest_oracle().unwrap();
        let product = gz.spanning_forest().unwrap();
        assert_eq!(product.labels, oracle.labels);
        assert_eq!(product.forest, oracle.forest);
        assert_eq!(product.rounds_used, oracle.rounds_used);
        assert_eq!(product.sketch_failures, oracle.sketch_failures);
        oracle
    }

    /// The forest lines of a `--forest` run (everything after the summary).
    fn forest_lines(out: &str) -> Vec<String> {
        out.lines().skip(1).map(str::to_string).collect()
    }

    /// What `--forest` must print for `outcome`.
    fn printed_forest(outcome: &graph_zeppelin::BoruvkaOutcome) -> Vec<String> {
        outcome.forest.iter().map(|e| format!("{} {}", e.u(), e.v())).collect()
    }

    #[test]
    fn components_match_the_oracle() {
        let path = tmp("oracle");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 6,
            out: path.to_path_buf(),
        })
        .unwrap();
        // The library-level reference over the same stream.
        let reader = StreamReader::open(path.path()).unwrap();
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(reader.header().num_vertices)).unwrap();
        gz.ingest(reader.map(|u| u.unwrap()).map(|u| (u.u, u.v, u.kind == UpdateKind::Delete)));
        let oracle = assert_matches_oracle(&mut gz);
        // One shard and three print the oracle's answer.
        for shards in [None, Some(3)] {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components(ComponentsArgs { forest, .. }) = &mut cmd {
                *forest = true;
            }
            let out = execute(cmd).unwrap();
            let count: usize = out.split_whitespace().next().unwrap().parse().unwrap();
            assert_eq!(count, oracle.num_components(), "shards={shards:?}");
            assert_eq!(forest_lines(&out), printed_forest(&oracle), "shards={shards:?}");
        }
    }

    #[test]
    fn parses_shard_worker() {
        let cmd = parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 1024 --shards 4 --index 2 \
             --seed 9 --workers 3 --store disk --dir /tmp/d --threshold 16 \
             --checkpoint /tmp/s2.ckpt",
        ))
        .unwrap();
        let full = Command::ShardWorker {
            listen: "127.0.0.1:0".into(),
            nodes: 1024,
            shards: 4,
            index: 2,
            seed: 9,
            workers: 3,
            store: StoreArg::Disk,
            dir: Some(PathBuf::from("/tmp/d")),
            threshold: Some(16),
            checkpoint: Some(PathBuf::from("/tmp/s2.ckpt")),
            resume: None,
        };
        assert_eq!(cmd, full);
        // Only what it cannot run without; `--resume` is the other spelling
        // of the checkpoint path.
        let cmd = parse_args(&argv(
            "shard-worker --listen 127.0.0.1:0 --nodes 8 --shards 2 --index 1 --resume /tmp/s1.ckpt",
        ))
        .unwrap();
        let bare = Command::ShardWorker {
            listen: "127.0.0.1:0".into(),
            nodes: 8,
            shards: 2,
            index: 1,
            seed: DEFAULT_SEED,
            workers: default_workers(),
            store: StoreArg::Ram,
            dir: None,
            threshold: None,
            checkpoint: None,
            resume: Some(PathBuf::from("/tmp/s1.ckpt")),
        };
        assert_eq!(cmd, bare);
        assert!(parse_args(&argv("shard-worker --listen 127.0.0.1:0 --nodes 8")).is_err());
    }

    #[test]
    fn disk_store_flags_take_the_librarys_paged_store() {
        // `components --store disk` (leaf gutters by default) and a shard
        // worker build `GzConfig::on_disk`'s store: 176 KiB blocks, 18
        // nodes a group at V = 8192, a cache of 1024 nodes in whole groups.
        // The leaf gutters emit those groups whole.
        let dir = gz_testutil::TempDir::new("gz-cli-disk-store");
        let d = dir.path().display();
        let Command::Components(args) =
            parse_components(&format!("components s.gzs --store disk --dir {d}"))
        else {
            panic!("components")
        };
        let config = shard_config(8192, &args).unwrap();
        let library = GzConfig::on_disk(8192, dir.path().to_path_buf()).store;
        assert_eq!(config.store, library);
        let StoreBackend::Disk { block_bytes, cache_groups, .. } = config.store else {
            panic!("disk")
        };
        assert_eq!((config.disk_groups(block_bytes), cache_groups), ((18, 456), 57));
        let Command::ShardWorker { nodes, shards, store, dir: worker_dir, .. } =
            parse_args(&argv(&format!(
                "shard-worker --listen 127.0.0.1:0 --nodes 8192 --shards 2 --index 0 \
                 --store disk --dir {d}"
            )))
            .unwrap()
        else {
            panic!("shard-worker")
        };
        let worker = ShardConfig::in_ram(nodes, shards);
        assert_eq!(store_backend(&worker, store, &worker_dir).unwrap(), library);
    }

    #[test]
    fn parses_serve() {
        // Full flag set.
        let cmd = parse_args(&argv(
            "serve --listen 127.0.0.1:7070 --nodes 1024 --shards 2 --seed 9 --workers 3 \
             --max-clients 8 --dir /tmp/state --resume --checkpoint-ms 250 --timeout-ms 0 \
             --staleness 64 --stats",
        ))
        .unwrap();
        let mut expected =
            serve::ServeOptions::new(serve::ServeListen::Tcp("127.0.0.1:7070".into()), 1024);
        expected.shards = 2;
        expected.seed = 9;
        expected.workers = 3;
        expected.max_clients = 8;
        expected.dir = Some(PathBuf::from("/tmp/state"));
        expected.resume = true;
        expected.checkpoint_ms = 250;
        expected.timeout_ms = Some(0); // 0 = no deadline, typed as Some(0)
        expected.staleness = 64;
        expected.stats = true;
        assert_eq!(cmd, Command::Serve { options: expected });

        // Defaults and the unix listener.
        match parse_args(&argv("serve --unix /tmp/gz.sock --nodes 64")).unwrap() {
            Command::Serve { options } => {
                assert_eq!(options.listen, serve::ServeListen::Unix(PathBuf::from("/tmp/gz.sock")));
                assert_eq!(options.shards, 1);
                assert_eq!(options.max_clients, 64);
                assert_eq!(options.checkpoint_ms, 1000);
                assert_eq!(options.timeout_ms, Some(30_000));
                assert!(!options.resume && !options.stats);
            }
            other => panic!("{other:?}"),
        }

        // Typed refusals.
        let err = parse_args(&argv("serve --nodes 64")).unwrap_err();
        assert!(err.contains("--listen host:port or --unix"), "{err}");
        let err = parse_args(&argv("serve --listen 127.0.0.1:0 --unix /tmp/gz.sock --nodes 64"))
            .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        let err = parse_args(&argv("serve --listen 127.0.0.1:0 --nodes 64 --resume")).unwrap_err();
        assert!(err.contains("--resume needs --dir"), "{err}");
        assert!(parse_args(&argv("serve --listen 127.0.0.1:0")).is_err(), "missing --nodes");
        let err =
            parse_args(&argv("serve --listen 127.0.0.1:0 --nodes 64 --max-clients 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_args(&argv("serve --listen a --listen b --nodes 64")).unwrap_err();
        assert!(err.contains("duplicate flag"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert!(parse_args(&argv("generate --out x.gzs")).is_err(), "no dataset");
        assert!(parse_args(&argv("generate --dataset kronfoo --out x")).is_err());
        assert!(parse_args(&argv("generate --er 100y500 --out x")).is_err());
    }

    #[test]
    fn end_to_end_generate_info_components() {
        let path = tmp("e2e");
        let msg = execute(Command::Generate {
            dataset: DatasetArg::Kron(6),
            seed: 3,
            out: path.to_path_buf(),
        })
        .unwrap();
        assert!(msg.contains("64 nodes"), "{msg}");

        let info = execute(Command::Info { path: path.to_path_buf() }).unwrap();
        assert!(info.contains("valid"), "{info}");

        let comps = execute(components_cmd(&path, None)).unwrap();
        assert!(comps.contains("components over 64 nodes"), "{comps}");
    }

    #[test]
    fn info_counts_a_stream_in_one_pass_and_refuses_a_truncated_one() {
        use gz_stream::EdgeUpdate;
        let path = tmp("info");
        let updates = [
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(2, 3),
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::insert(1, 4),
        ];
        gz_stream::format::write_stream(path.path(), 5, &updates).unwrap();
        let info = execute(Command::Info { path: path.to_path_buf() }).unwrap();
        assert!(
            info.ends_with("5 nodes, 4 updates (3 inserts, 1 deletes), 2 final edges, valid"),
            "{info}"
        );
        // A stream that breaks the model is named, not counted.
        let bad = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(0, 1)];
        gz_stream::format::write_stream(path.path(), 5, &bad).unwrap();
        let err = execute(Command::Info { path: path.to_path_buf() }).unwrap_err();
        assert!(err.starts_with("invalid stream: DoubleInsert(1"), "{err}");
        // A file cut short of its header's count is a read error, even
        // though every record it holds is valid.
        gz_stream::format::write_stream(path.path(), 5, &updates).unwrap();
        let bytes = std::fs::read(path.path()).unwrap();
        std::fs::write(path.path(), &bytes[..bytes.len() - 9]).unwrap();
        let err = execute(Command::Info { path: path.to_path_buf() }).unwrap_err();
        assert!(!err.contains("valid"), "{err}");
    }

    fn components_cmd(path: &gz_testutil::TempPath, shards: Option<u32>) -> Command {
        Command::Components(ComponentsArgs { workers: 2, shards, ..bare_components(path.path()) })
    }

    #[test]
    fn sharded_components_match_unsharded() {
        // One body on every fleet: no `--shards`, one shard and three, on
        // either store at τ 0 and 64, print the same count and graph digest;
        // at one τ, the same census line on either store and fleet; at one
        // store and τ, the same `--stats` lines, by key.
        let path = tmp("shards");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 4,
            out: path.to_path_buf(),
        })
        .unwrap();
        let dir = gz_testutil::TempDir::new("gz-cli-shards");
        let run = |shards: Option<u32>, store, tau| {
            let mut cmd = components_cmd(&path, shards);
            if let Command::Components(args) = &mut cmd {
                (args.stats, args.store, args.threshold) = (true, store, Some(tau));
                args.dir = Some(dir.path().join(format!("{shards:?}-{store:?}-{tau}")));
            }
            execute(cmd).unwrap()
        };
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        let line = |s: &str, key: &str| s.lines().find(|l| l.starts_with(key)).map(str::to_owned);
        let keys = |s: &str| -> Vec<String> {
            s.lines().skip(1).map(|l| l.split(':').next().unwrap().to_owned()).collect()
        };
        let reference = run(None, StoreArg::Ram, 0);
        assert!(line(&reference, "graph digest: ").is_some(), "{reference}");
        for store in [StoreArg::Ram, StoreArg::Disk] {
            for tau in [0, 64] {
                let single = run(None, store, tau);
                let census = line(&single, "representation: ");
                let in_ram = line(&run(None, StoreArg::Ram, tau), "representation: ");
                assert_eq!(census, in_ram, "{store:?} at τ {tau} counts as the RAM store");
                for shards in [Some(1), Some(3)] {
                    let got = run(shards, store, tau);
                    let what = format!("{shards:?} shards, {store:?}, τ {tau}: {got}");
                    assert!(got.contains(&format!("{} shards", shards.unwrap())), "{what}");
                    assert_eq!(count(&got), count(&reference), "{what}");
                    let digest = line(&got, "graph digest: ");
                    assert_eq!(digest, line(&reference, "graph digest: "), "{what}");
                    let census = line(&got, "representation: ");
                    assert_eq!(census, line(&single, "representation: "), "{what}");
                    assert_eq!(keys(&got), keys(&single), "{what}");
                }
            }
        }
    }

    #[test]
    fn sharded_components_buffer_in_a_gutter_tree() {
        // `--buffering tree` is a router lane like leaf gutters, on any
        // shard count: the same answer, and the tree's I/O on the stats.
        let path = tmp("shards-tree");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 4,
            out: path.to_path_buf(),
        })
        .unwrap();
        let dir = gz_testutil::TempDir::new("gz-cli-shards-tree");
        let single = execute(components_cmd(&path, None)).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        for shards in [1, 3] {
            let mut cmd = components_cmd(&path, Some(shards));
            if let Command::Components(args) = &mut cmd {
                (args.buffering, args.dir, args.stats) =
                    (BufferingArg::Tree, Some(dir.path().to_path_buf()), true);
            }
            let sharded = execute(cmd).unwrap();
            assert_eq!(count(&single), count(&sharded), "{shards} shards: {sharded}");
            assert!(sharded.contains("gutter tree: "), "{sharded}");
        }
    }

    #[test]
    fn sharded_checkpoint_cadence_end_to_end() {
        let path = tmp("ckpt-cadence");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 11,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, Some(2))).unwrap();

        // --checkpoint-every with in-process shards needs a directory.
        let mut cmd = components_cmd(&path, Some(2));
        if let Command::Components(ComponentsArgs { checkpoint_every, .. }) = &mut cmd {
            *checkpoint_every = Some(4);
        }
        assert!(execute(cmd).unwrap_err().contains("--dir"), "cadence without --dir");

        let ckpt_dir = gz_testutil::TempDir::new("gz-cli-ckpt-cadence");
        let mut cmd = components_cmd(&path, Some(2));
        if let Command::Components(ComponentsArgs { checkpoint_every, dir, stats, .. }) = &mut cmd {
            *checkpoint_every = Some(4);
            *dir = Some(ckpt_dir.path().to_path_buf());
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        assert_eq!(count(&reference), count(&out), "reference={reference} out={out}");
        // In-process shards have no recovering transport and no links: no
        // recovery or link line.
        assert!(!out.contains("\nrecovery: ") && !out.contains("\nlink: "), "{out}");
        // They do have a router whose batches the cadence counted.
        assert!(out.contains("\ningest: batches="), "{out}");
        // The cadence actually wrote per-shard checkpoint files.
        let files = std::fs::read_dir(ckpt_dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .count();
        assert_eq!(files, 2, "one checkpoint file per shard");
    }

    #[test]
    fn cadence_and_batch_size_run_at_one_in_process_shard() {
        // `--checkpoint-every` and `--batch-updates` without `--shards`: one
        // in-process shard answers as the default run does, and its file
        // restores to that answer and the update count.
        let path = tmp("one-shard-cadence");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 11,
            out: path.to_path_buf(),
        })
        .unwrap();
        let mut cmd = components_cmd(&path, None);
        if let Command::Components(args) = &mut cmd {
            args.forest = true;
        }
        let reference = execute(cmd).unwrap();
        let dir = gz_testutil::TempDir::new("gz-cli-one-shard-cadence");
        let mut cmd = components_cmd(&path, None);
        if let Command::Components(args) = &mut cmd {
            (args.checkpoint_every, args.batch_updates) = (Some(4), Some(8));
            (args.dir, args.forest) = (Some(dir.path().to_path_buf()), true);
        }
        let out = execute(cmd).unwrap();
        assert!(out.contains(" 1 shards, "), "{out}");
        assert_eq!(
            out.lines().next().map(count_and_updates),
            reference.lines().next().map(count_and_updates)
        );
        assert_eq!(forest_lines(&out), forest_lines(&reference));

        let file = dir.path().join(graph_zeppelin::shard_checkpoint_file_name(0, 1, DEFAULT_SEED));
        let restored = execute(Command::CheckpointRestore { path: file, forest: true }).unwrap();
        assert_eq!(
            restored.lines().next().map(count_and_updates),
            out.lines().next().map(count_and_updates)
        );
        assert_eq!(forest_lines(&restored), forest_lines(&out));
    }

    /// A summary line's component count and update count.
    fn count_and_updates(summary: &str) -> (String, String) {
        let words: Vec<&str> = summary.split_whitespace().collect();
        (words[0].to_owned(), words[4].trim_start_matches('(').to_owned())
    }

    #[test]
    fn checkpoint_save_writes_the_pinned_file() {
        // `checkpoint save` feeds a one-shard system and writes through the
        // shard checkpoint path: the bytes the facade's writer wrote for
        // this stream, header and payload.
        let stream = tmp("ckpt-pinned");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 8,
            out: stream.to_path_buf(),
        })
        .unwrap();
        let ckpt = gz_testutil::TempPath::new("gz-cli-ckpt-pinned", ".gzc");
        execute(Command::CheckpointSave {
            stream: stream.to_path_buf(),
            out: ckpt.to_path_buf(),
            workers: 2,
            seed: DEFAULT_SEED,
        })
        .unwrap();
        let bytes = std::fs::read(ckpt.path()).unwrap();
        assert_eq!(
            (bytes.len(), gz_hash::xxh64(&bytes, 0)),
            (55_868, 0x2A18_E84C_0B65_160A),
            "checkpoint bytes"
        );
    }

    #[test]
    fn sharded_rejects_silently_ignored_flags() {
        let path = tmp("shard-flags");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(4),
            seed: 1,
            out: path.to_path_buf(),
        })
        .unwrap();
        // --store disk with --connect configures nothing on the remote
        // workers: must be refused.
        let mut cmd = components_cmd(&path, Some(1));
        if let Command::Components(ComponentsArgs { store, dir, connect, .. }) = &mut cmd {
            *store = StoreArg::Disk;
            *dir = Some(std::env::temp_dir());
            *connect = vec!["127.0.0.1:1".into()];
        }
        assert!(execute(cmd).unwrap_err().contains("shard-worker"));
    }

    #[test]
    fn disk_store_stats_print_its_io() {
        // Through the whole CLI: a disk-store run answers as the RAM run
        // does, and --stats prints the store's reads and writes.
        let path = tmp("disk-stats");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 23,
            out: path.to_path_buf(),
        })
        .unwrap();
        let reference = execute(components_cmd(&path, None)).unwrap();
        let count = |s: &str| s.split_whitespace().next().unwrap().to_string();
        let workdir = gz_testutil::TempPath::new("gz-cli-disk-stats", ".d");
        let mut cmd = components_cmd(&path, None);
        if let Command::Components(ComponentsArgs { store, dir, stats, .. }) = &mut cmd {
            *store = StoreArg::Disk;
            *dir = Some(workdir.to_path_buf());
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        assert_eq!(count(&out), count(&reference), "{out}");
        let io_line = out.lines().find(|l| l.starts_with("disk store: ")).expect(&out);
        let nums: Vec<u64> =
            io_line.split(|c: char| !c.is_ascii_digit()).filter_map(|w| w.parse().ok()).collect();
        let [reads, bytes_read, writes, bytes_written] = nums[..] else { panic!("{io_line}") };
        assert_eq!(
            io_line,
            format!(
                "disk store: {reads} reads ({bytes_read} bytes), \
                 {writes} writes ({bytes_written} bytes)"
            )
        );
        // kron5's 32 nodes fit the cache: the flush writes them back and
        // the query's round reads are what move bytes in.
        assert!(reads > 0 && bytes_read > 0 && writes > 0 && bytes_written > 0, "{io_line}");
    }

    #[test]
    fn tree_stats_print_the_gutter_trees_io() {
        // kron5 never fills the tree's 1 MiB root, and the query's flush
        // partitions a depth-1 root in RAM: the tree moved no byte at all.
        let path = tmp("tree-stats");
        execute(Command::Generate {
            dataset: DatasetArg::Kron(5),
            seed: 29,
            out: path.to_path_buf(),
        })
        .unwrap();
        let workdir = gz_testutil::TempPath::new("gz-cli-tree-stats", ".d");
        let mut cmd = components_cmd(&path, None);
        if let Command::Components(ComponentsArgs { buffering, dir, stats, .. }) = &mut cmd {
            *buffering = BufferingArg::Tree;
            *dir = Some(workdir.to_path_buf());
            *stats = true;
        }
        let out = execute(cmd).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        let tree = lines.iter().position(|l| l.starts_with("gutter tree: ")).expect(&out);
        assert_eq!(
            lines[tree], "gutter tree: reads=0 writes=0 bytes_read=0 bytes_written=0",
            "{out}"
        );
        assert!(lines[tree + 1].starts_with("ingest: "), "{out}");
    }

    #[test]
    fn end_to_end_bipartite() {
        // An even cycle stream: bipartite.
        let path = tmp("bip");
        let updates: Vec<gz_stream::EdgeUpdate> =
            (0..10u32).map(|i| gz_stream::EdgeUpdate::insert(i, (i + 1) % 10)).collect();
        gz_stream::format::write_stream(path.path(), 10, &updates).unwrap();
        let out = execute(Command::Bipartite { path: path.to_path_buf() }).unwrap();
        assert_eq!(out, "bipartite");
    }

    #[test]
    fn end_to_end_not_bipartite() {
        // A 5-cycle stream: one odd component.
        let path = tmp("bip-odd");
        let updates: Vec<gz_stream::EdgeUpdate> =
            (0..5u32).map(|i| gz_stream::EdgeUpdate::insert(i, (i + 1) % 5)).collect();
        gz_stream::format::write_stream(path.path(), 5, &updates).unwrap();
        let out = execute(Command::Bipartite { path: path.to_path_buf() }).unwrap();
        assert_eq!(out, "NOT bipartite (1 odd components)");
    }

    #[test]
    fn components_with_forest_lists_edges() {
        let path = tmp("forest");
        let updates =
            vec![gz_stream::EdgeUpdate::insert(0, 1), gz_stream::EdgeUpdate::insert(1, 2)];
        gz_stream::format::write_stream(path.path(), 4, &updates).unwrap();
        let out = execute(Command::Components(ComponentsArgs {
            workers: 1,
            forest: true,
            ..bare_components(path.path())
        }))
        .unwrap();
        assert!(out.lines().count() >= 3, "{out}");
    }
}
