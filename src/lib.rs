//! The library half of `twindrivers-repro`: [`figures`] regenerates the
//! paper's evaluation; the binary only parses the command line.

pub mod figures;
pub use twindrivers;
