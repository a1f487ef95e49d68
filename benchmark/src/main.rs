//! `gz_benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! gz_benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1]
//!                  [--smoke] [--scratch DIR] [--out RESULTS.json]
//! gz_benchmark compare A.json B.json [--spec BENCHMARK.json] [--force]
//! ```
//!
//! `run` prints every metric by name, unit and sample count, then one JSON
//! object as its last line. Without `--workload` it runs all four workloads
//! one after the other.

mod batch;
mod compare;
mod host;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The value after `--name`, removed from the list.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.args.iter().position(|a| a == name) else { return Ok(None) };
        if at + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        self.args.remove(at);
        Ok(Some(self.args.remove(at)))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)?
            .map(|v| v.parse::<T>().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn take_switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    /// What is left must be exactly `count` positional arguments.
    fn positional(self, count: usize) -> Result<Vec<String>, String> {
        if let Some(flag) = self.args.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown flag {flag}"));
        }
        if self.args.len() != count {
            return Err(format!("expected {count} arguments, got {}", self.args.len()));
        }
        Ok(self.args)
    }
}

fn trace_flag(flags: &mut Flags) -> Result<bool, String> {
    match flags.take("--trace")?.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace takes 0 or 1, not `{other}`")),
    }
}

/// Run the subcommand; the process exit code on success.
fn dispatch(mut args: Vec<String>) -> Result<i32, String> {
    if args.is_empty() {
        return Err("need a subcommand: run or compare".into());
    }
    let command = args.remove(0);
    let mut flags = Flags { args };
    match command.as_str() {
        "run" => {
            let workload = flags.take("--workload")?;
            let options = run::RunOptions {
                workload: String::new(),
                seed: flags.take_parsed("--seed")?.ok_or("run needs --seed")?,
                seconds: flags.take_parsed("--seconds")?.unwrap_or(12.0),
                trace: trace_flag(&mut flags)?,
                smoke: flags.take_switch("--smoke"),
                scratch: flags.take("--scratch")?.map(PathBuf::from),
                out: flags.take("--out")?.map(PathBuf::from),
            };
            flags.positional(0)?;
            let names: Vec<String> = match workload {
                Some(name) => vec![name],
                None => workloads::NAMES.iter().map(|n| n.to_string()).collect(),
            };
            // Wrong answers are a result, not a malfunction: the printed line
            // says `correct: false` and the exit code stays 0.
            for workload in names {
                run::run(&run::RunOptions { workload, ..options.clone() })?;
            }
            Ok(0)
        }
        "compare" => {
            let spec = flags.take("--spec")?.map(PathBuf::from);
            let force = flags.take_switch("--force");
            let files = flags.positional(2)?;
            let within =
                compare::compare(files[0].as_ref(), files[1].as_ref(), spec.as_deref(), force)?;
            Ok(if within { 0 } else { 2 })
        }
        // One pass of a batch workload; `run` starts these itself.
        "child-batch" => {
            let kind = flags.take("--kind")?.ok_or("child-batch needs --kind")?;
            let args = batch::PassArgs {
                kind: batch::kind_from_flag(&kind).ok_or(format!("unknown --kind {kind}"))?,
                sketch_threshold: flags.take_parsed("--threshold")?.unwrap_or(0),
                stream: flags.take("--stream")?.ok_or("child-batch needs --stream")?.into(),
                queries: flags.take_parsed("--queries")?.ok_or("child-batch needs --queries")?,
                dir: flags.take("--dir")?.ok_or("child-batch needs --dir")?.into(),
                labels_out: flags.take("--labels")?.ok_or("child-batch needs --labels")?.into(),
                trace: trace_flag(&mut flags)?,
            };
            flags.positional(0)?;
            println!("{}", batch::run_pass(&args)?.to_json());
            Ok(0)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("gz_benchmark: {message}");
            std::process::exit(1);
        }
    }
}
