//! `btfluid` — regenerate any figure of "Analyzing Multiple File
//! Downloading in BitTorrent" (Tian/Wu/Ng, ICPP 2006) or drive the
//! peer-level simulator.
//!
//! ```text
//! btfluid fig2       MTCD vs MTSD online time per file over correlation
//! btfluid fig3       per-class times at p = 0.1 and p = 1.0
//! btfluid fig4a      CMFSD online time per file over the (p, ρ) grid
//! btfluid fig4b      per-class CMFSD vs MFCD at p = 0.9
//! btfluid fig4c      per-class CMFSD vs MFCD at p = 0.1
//! btfluid validate   fluid model vs discrete-event simulation (X3)
//! btfluid adapt      Adapt under cheaters (X4, the paper's future work)
//! btfluid transient  flash-crowd settling (X5 ablation)
//! btfluid sim        one raw simulation run
//! btfluid scenario   non-stationary scenarios: flash crowds, churn, faults
//! btfluid all        every fluid-model figure in sequence
//! ```

mod args;
mod commands;
mod errors;
mod perf;
mod run;

use btfluid_telemetry::{diag, Level};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            diag!(Level::Error, "btfluid: {e}");
            ExitCode::from(e.code)
        }
    }
}
