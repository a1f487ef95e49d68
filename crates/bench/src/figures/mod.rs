//! One module per table/figure of the paper's evaluation.
//!
//! Each module exposes `run(scale)` which prints the regenerated
//! table/series to stdout. The `repro` binary dispatches on figure ids; the
//! mapping to the paper is recorded in DESIGN.md §5 and the measured output
//! lives in EXPERIMENTS.md.

pub mod ablations;
pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod io_model;
pub mod reliability;

use crate::harness::Scale;

/// All figure ids, in paper order.
pub const ALL_FIGURES: &[&str] = &[
    "fig1",
    "fig4",
    "fig5",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "reliability",
    "io",
    "ablations",
];

/// Run one figure by id. `None` for unknown ids; `Some(false)` when the
/// figure checks its own output and the check failed (`fig5`, `fig11` and
/// `reliability` do).
pub fn run_figure(id: &str, scale: Scale) -> Option<bool> {
    match id {
        "fig1" => fig01::run(scale),
        "fig4" => fig04::run(scale),
        "fig5" => return Some(fig05::run(scale)),
        "fig10" => fig10::run(scale),
        "fig11" => return Some(fig11::run(scale)),
        "fig12" => fig12::run(scale),
        "fig13" => fig13::run(scale),
        "fig14" => fig14::run(scale),
        "fig15" => fig15::run(scale),
        "fig16" => fig16::run(scale),
        "reliability" => return Some(reliability::run(scale)),
        "io" => io_model::run(scale),
        "ablations" => ablations::run(scale),
        _ => return None,
    }
    Some(true)
}
