//! # ivn-bench — the figure-reproduction harness
//!
//! One module per table/figure of the paper's evaluation. Each module
//! regenerates the figure's rows/series as plain text (the `reproduce`
//! binary prints them through [`registry`]; integration tests assert on
//! the parsed shapes). `quick = true` trims Monte-Carlo counts for
//! CI-speed runs; `quick = false` uses paper-scale trial counts.
//!
//! The mapping from figures to modules is the experiment index in
//! DESIGN.md §4.

mod ablations;
mod fig02_diode;
mod fig03_tissue_loss;
mod fig04_conduction;
mod fig06_freq_cdf;
mod fig09_gain_vs_antennas;
mod fig10_gain_stability;
mod fig11_media;
mod fig12_ratio_cdf;
mod fig13_range;
mod fig15_invivo;
mod tbl_freqs;

pub mod campaign;
pub mod inventory;
pub mod pipeline;
pub mod registry;
pub mod sentinel;
pub mod trace_analysis;

/// Standard header printed before each figure's output.
pub(crate) fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// `reproduce <name> --quick`: the built-in scenario through the registry.
#[cfg(test)]
fn render_quick(name: &str) -> String {
    let s = ivn_core::scenario::builtin(name).expect("builtin");
    registry::render(&s, true).expect(name)
}
