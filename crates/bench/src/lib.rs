//! # ivn-bench — the figure-reproduction harness
//!
//! One module per table/figure of the paper's evaluation. Each module
//! exposes a `run(quick: bool) -> String` that regenerates the figure's
//! rows/series as plain text (the `reproduce` binary prints them;
//! integration tests assert on the parsed shapes). `quick = true` trims
//! Monte-Carlo counts for CI-speed runs; `quick = false` uses
//! paper-scale trial counts.
//!
//! The mapping from figures to modules is the experiment index in
//! DESIGN.md §4.

pub mod fig02_diode;
pub mod fig03_tissue_loss;
pub mod fig04_conduction;
pub mod fig06_freq_cdf;
pub mod fig09_gain_vs_antennas;
pub mod fig10_gain_stability;
pub mod fig11_media;
pub mod fig12_ratio_cdf;
pub mod fig13_range;
pub mod fig15_invivo;
pub mod tbl_freqs;

pub mod ablations;
pub mod campaign;
pub mod inventory;
pub mod pipeline;
pub mod registry;
pub mod sentinel;
pub mod trace_analysis;

/// Formats a row of columns with fixed widths for terminal tables.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// A horizontal rule sized for `n` columns of `width`.
pub fn rule(n: usize, width: usize) -> String {
    "-".repeat(n * (width + 2))
}

/// Standard header printed before each figure's output.
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}
