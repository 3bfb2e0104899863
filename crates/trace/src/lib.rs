//! Throughput-trace substrate for the `mpc-dash` workspace.
//!
//! The evaluation in Yin et al. (SIGCOMM 2015) drives every experiment from a
//! network-throughput trace `C_t` (Section 7.1.1). This crate provides:
//!
//! * [`Trace`] — a piecewise-constant throughput signal with the integration
//!   primitives the streaming model needs (`C_k` is the *average* throughput
//!   over a download interval, Eq. (2));
//! * [`datasets`] — seeded generators for the three trace families the paper
//!   evaluates on. The original FCC broadband and Norwegian HSDPA datasets
//!   are not redistributable, so we generate statistically matched stand-ins
//!   (see DESIGN.md §3 for the substitution argument); the synthetic
//!   hidden-Markov dataset follows the paper's own description exactly;
//! * [`stats`] — CDFs, percentiles and summary statistics used to reproduce
//!   Figure 7;
//! * [`io`] — a plain-text loader so users can feed in real measurement
//!   exports.
//!
//! Time is in seconds, throughput in kbps, data volume in kilobits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod datasets;
pub mod io;
pub mod stats;
mod trace;

pub use datasets::{Dataset, FccConfig, HsdpaConfig, SyntheticConfig};
pub use trace::{Trace, TraceCursor, TraceError};
