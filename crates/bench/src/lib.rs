#![warn(missing_docs)]

//! # kylix-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VII), each exposing a function that *runs* the
//! experiment (on the virtual-time simulator and/or the analytic
//! models) and returns structured rows. The `figures` binary prints
//! them; the crate's tests pin the qualitative shapes the paper reports
//! (who wins, roughly by how much, what is monotone).
//!
//! ## Scaling discipline
//!
//! The paper's testbed held ~100 MB of reduced data per node; running
//! that through a simulator thousands of times is pointless when the
//! physics is scale-free. Every experiment therefore runs at a
//! configurable *scale divisor* `s`: dataset sizes shrink by `s`, and
//! all **time constants** of the NIC model (per-message overhead,
//! latency, per-message CPU) shrink by the same `s` while bandwidths
//! are unchanged — so every ratio the paper reports (packet size vs
//! minimum efficient size, overhead share vs wire share, compute vs
//! communication) is preserved exactly. [`scaling::scaled_nic`]
//! implements this; EXPERIMENTS.md documents it per experiment.

pub mod ablation;
pub mod fault_sweep;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod json;
pub mod merge;
pub mod scaling;
pub mod straggler;
pub mod table1;
pub mod workload;

/// Render a sequence of (label, value) pairs as an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
