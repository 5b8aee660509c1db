//! `twindrivers-repro` — the one front end that regenerates the paper's
//! evaluation; each artefact is a function of [`figures`].
//!
//! ```text
//! twindrivers-repro netperf [tx|rx]     figures 5/6
//! twindrivers-repro breakdown [tx|rx]   figures 7/8
//! twindrivers-repro webserver           figure 9
//! twindrivers-repro upcalls             figure 10
//! twindrivers-repro table1              table 1
//! twindrivers-repro effort              §6.5 line counts
//! twindrivers-repro ablations           design-choice costs
//! twindrivers-repro rewrite             rewriter statistics
//! twindrivers-repro all                 everything above
//! ```
//!
//! `TWIN_BENCH_PACKETS` sets the packets per measurement (default 300).

use std::process::ExitCode;
use twindrivers_repro::figures;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some(named) = figures::resolve(&args) else {
        eprintln!("{}", figures::USAGE);
        return ExitCode::FAILURE;
    };
    let packets = twin_bench::packets();
    for (.., figure) in named {
        match figure(packets) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
