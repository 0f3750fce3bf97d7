//! Regenerates **Figure 3** of the paper: the all-insert workload, sweeping
//! the number of mappings and comparing the `NAIVE`, `COARSE` and `PRECISE`
//! cascading-abort algorithms on (a) the number of aborts, (b) the number of
//! cascading abort requests and (c) the slowdown of `PRECISE` over `COARSE`.
//!
//! ```text
//! cargo run -p youtopia-bench --bin fig3 --release            # reduced scale
//! cargo run -p youtopia-bench --bin fig3 --release -- --paper # paper scale
//! ```

use youtopia_bench::{parse_figure_options, run_figure};
use youtopia_workload::WorkloadKind;

fn main() {
    let options = match parse_figure_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: fig3 [--paper|--quick] [--runs N] [--updates N] [--seed N] [--no-naive] [--threads N] [--csv]"
            );
            std::process::exit(2);
        }
    };
    match run_figure(&options, WorkloadKind::AllInserts, "Figure 3 — all-insert workload") {
        Ok(report) => println!("{report}"),
        Err(message) => {
            eprintln!("experiment failed: {message}");
            std::process::exit(1);
        }
    }
}
