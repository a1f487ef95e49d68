//! Minimal in-tree stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so this shim provides the
//! API shape the workspace's benches use — `Criterion`, `benchmark_group`,
//! `bench_function` / `bench_with_input`, `Throughput`, `BenchmarkId`, the
//! `criterion_group!` / `criterion_main!` macros, and `black_box` — with a
//! simple wall-clock measurement loop instead of criterion's statistics. It
//! is enough to keep benches compiling and to get indicative numbers from
//! `cargo bench`; it makes no confidence-interval claims. Like criterion,
//! `cargo bench -- NAME` runs only the cases whose full name (`group/case`)
//! contains `NAME` ([`filter`]).

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's measured result, kept so harnesses can export
/// machine-readable baselines next to the printed report.
#[derive(Debug, Clone)]
pub struct RecordedBench {
    /// Full benchmark name (`group/case`).
    pub name: String,
    /// Best observed per-iteration time, nanoseconds.
    pub best_ns: f64,
    /// Mean per-iteration time across samples, nanoseconds.
    pub mean_ns: f64,
}

static RECORDED: Mutex<Vec<RecordedBench>> = Mutex::new(Vec::new());

/// Drain every result recorded since the last call (in execution order).
/// The real criterion writes JSON under `target/criterion`; this shim
/// exposes its measurements for the harness to persist instead.
pub fn take_recorded() -> Vec<RecordedBench> {
    std::mem::take(&mut RECORDED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Record an externally measured result — e.g. a latency percentile a
/// load-test harness computed across its own samples — alongside the
/// loop-measured benches, so it lands in the same machine-readable
/// baseline. `ns` is stored as both best and mean: a percentile is a
/// single number, not a distribution the shim re-summarizes.
pub fn record_custom(name: impl Into<String>, ns: f64) {
    let name = name.into();
    if !selected(&name) {
        return;
    }
    println!("{name:<50} recorded: {}", fmt_time(ns / 1e9));
    RECORDED.lock().unwrap_or_else(|e| e.into_inner()).push(RecordedBench {
        name,
        best_ns: ns,
        mean_ns: ns,
    });
}

/// The bench-name filter of this run: the first argument that is not a
/// flag, when the binary runs as a bench (`cargo bench` passes `--bench`;
/// a test binary that calls the shim is never narrowed by its own test
/// filter). `None` runs every case.
pub fn filter() -> Option<String> {
    static FILTER: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    FILTER.get_or_init(|| filter_of(std::env::args().skip(1))).clone()
}

fn filter_of(args: impl Iterator<Item = String>) -> Option<String> {
    let args: Vec<String> = args.collect();
    let bench = args.iter().any(|arg| arg == "--bench");
    args.into_iter().find(|arg| bench && !arg.starts_with('-'))
}

/// Whether the case named `name` runs under [`filter`]. Benches that time
/// a case by hand ([`record_custom`]) ask before doing the work.
pub fn selected(name: &str) -> bool {
    filter().is_none_or(|filter| name.contains(&filter))
}

/// Throughput annotation attached to a benchmark (reported as rate).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Identifier for a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

#[derive(Debug, Clone)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

/// The benchmark manager (builder methods consume and return `self`, matching
/// criterion's `Criterion::default().sample_size(..)` idiom).
#[derive(Debug, Clone, Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.settings.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: self.settings.clone(),
            throughput: None,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let settings = self.settings.clone();
        run_benchmark(&id.into().id, &settings, None, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let settings = self.settings.clone();
        run_benchmark(&id.id, &settings, None, |b| f(b, input));
        self
    }
}

/// A named group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        run_benchmark(&full, &self.settings, self.throughput, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_benchmark(&full, &self.settings, self.throughput, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    name: &str,
    settings: &Settings,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if !selected(name) {
        return;
    }
    // Warm-up: run single iterations until the warm-up budget is spent, and
    // use the observed per-iteration time to size the measurement batches.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < settings.warm_up_time || warm_iters == 0 {
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let budget = settings.measurement_time.as_secs_f64();
    let total_iters = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
    let iters_per_sample = (total_iters / settings.sample_size as u64).max(1);

    let mut best = f64::INFINITY;
    let mut sum = 0.0;
    for _ in 0..settings.sample_size {
        let mut b = Bencher { iters: iters_per_sample, elapsed: Duration::ZERO };
        f(&mut b);
        let per = b.elapsed.as_secs_f64() / iters_per_sample as f64;
        best = best.min(per);
        sum += per;
    }
    let mean = sum / settings.sample_size as f64;
    RECORDED.lock().unwrap_or_else(|e| e.into_inner()).push(RecordedBench {
        name: name.to_string(),
        best_ns: best * 1e9,
        mean_ns: mean * 1e9,
    });
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:>12.0} elem/s", n as f64 / mean),
        Some(Throughput::Bytes(n)) => format!("  {:>12.0} B/s", n as f64 / mean),
        None => String::new(),
    };
    println!("{name:<50} time: [{} .. {}]{rate}", fmt_time(best), fmt_time(mean));
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

/// Declares a benchmark group function, mirroring criterion's two forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> Criterion {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(2))
            .warm_up_time(Duration::from_millis(1))
    }

    #[test]
    fn bench_function_runs_closure() {
        let mut c = fast_config();
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn group_bench_with_input() {
        let mut c = fast_config();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4));
        group.sample_size(2);
        let data = vec![1u64, 2, 3, 4];
        group.bench_with_input(BenchmarkId::from_parameter("n=4"), &data, |b, d| {
            b.iter(|| d.iter().sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn custom_results_are_recorded_verbatim() {
        let _ = take_recorded(); // isolate from parallel shim tests
        record_custom("load/p99", 1234.5);
        let recorded = take_recorded();
        let case = recorded.iter().find(|r| r.name == "load/p99").expect("custom recorded");
        assert_eq!(case.best_ns, 1234.5);
        assert_eq!(case.mean_ns, 1234.5);
    }

    #[test]
    fn the_filter_is_a_bench_runs_first_plain_argument() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_of(args(&["gz_ingest", "--bench"]).into_iter()),
            Some("gz_ingest".into())
        );
        assert_eq!(filter_of(args(&["--bench"]).into_iter()), None, "no filter: every case");
        assert_eq!(filter_of(args(&["some_test"]).into_iter()), None, "a test run is not a bench");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn results_are_recorded_and_drained() {
        let mut c = fast_config();
        let _ = take_recorded(); // isolate from parallel shim tests
        c.bench_function("recorded-case", |b| b.iter(|| black_box(2 + 2)));
        let recorded = take_recorded();
        let case =
            recorded.iter().find(|r| r.name == "recorded-case").expect("bench result recorded");
        assert!(case.best_ns > 0.0 && case.mean_ns >= case.best_ns);
    }
}
