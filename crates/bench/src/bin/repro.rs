//! `repro`: regenerate every table and figure of the GraphZeppelin paper.
//!
//! ```text
//! repro                         # all figures at small scale
//! repro --figure fig4           # one figure
//! repro --figure fig11 --scale medium
//! repro --list                  # figure ids
//! ```
//!
//! Output is plain text tables; EXPERIMENTS.md holds the runs that are
//! committed, with the paper's numbers beside them.

use gz_bench::figures::{run_figure, ALL_FIGURES};
use gz_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure: Option<String> = None;
    let mut scale = Scale::Small;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" | "-f" => {
                i += 1;
                figure = Some(args.get(i).cloned().unwrap_or_else(|| usage("missing figure id")));
            }
            "--scale" | "-s" => {
                i += 1;
                let s = args.get(i).cloned().unwrap_or_else(|| usage("missing scale"));
                scale = Scale::parse(&s).unwrap_or_else(|| usage("scale must be small|medium"));
            }
            "--list" | "-l" => {
                for f in ALL_FIGURES {
                    println!("{f}");
                }
                return;
            }
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    let started = std::time::Instant::now();
    let mut failed: Vec<&str> = Vec::new();
    match &figure {
        Some(id) => match run_figure(id, scale) {
            Some(true) => {}
            Some(false) => failed.push(id),
            None => usage(&format!("unknown figure {id}; try --list")),
        },
        None => {
            println!("# GraphZeppelin reproduction — all figures at {scale:?} scale\n");
            for id in ALL_FIGURES {
                let fig_start = std::time::Instant::now();
                if run_figure(id, scale) == Some(false) {
                    failed.push(id);
                }
                println!("[{id} done in {:.1?}]\n", fig_start.elapsed());
            }
        }
    }
    eprintln!("total wall time: {:.1?}", started.elapsed());
    if !failed.is_empty() {
        eprintln!("error: {} failed its own check", failed.join(", "));
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--figure <id>] [--scale small|medium] [--list]\n\
         figures: {}",
        ALL_FIGURES.join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
