//! Regenerates **Figure 4** of the paper: the mixed workload (80 % inserts,
//! 20 % deletes), sweeping the number of mappings and comparing the `NAIVE`,
//! `COARSE` and `PRECISE` cascading-abort algorithms on (a) the number of
//! aborts, (b) the number of cascading abort requests and (c) the slowdown of
//! `PRECISE` over `COARSE`.
//!
//! ```text
//! cargo run -p youtopia-bench --bin fig4 --release            # reduced scale
//! cargo run -p youtopia-bench --bin fig4 --release -- --paper # paper scale
//! ```

use youtopia_bench::{parse_figure_options, run_figure};
use youtopia_workload::WorkloadKind;

fn main() {
    let options = match parse_figure_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: fig4 [--paper|--quick] [--runs N] [--updates N] [--seed N] [--no-naive] [--threads N] [--csv]"
            );
            std::process::exit(2);
        }
    };
    match run_figure(&options, WorkloadKind::Mixed, "Figure 4 — mixed workload") {
        Ok(report) => println!("{report}"),
        Err(message) => {
            eprintln!("experiment failed: {message}");
            std::process::exit(1);
        }
    }
}
