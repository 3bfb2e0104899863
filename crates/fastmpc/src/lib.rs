//! FastMPC — using MPC in practice without an online solver (Section 5).
//!
//! The exact MPC controller solves a discrete optimization before every
//! chunk, which is too heavy for low-end devices and requires bundling
//! solver logic with the player. FastMPC replaces the online solve with an
//! **offline-enumerated decision table**:
//!
//! 1. the state space — (current buffer level, previous bitrate, predicted
//!    throughput) — is **binned** ([`BinSpec`], Section 5.2 "compaction via
//!    binning"; bin keys are implicit in the row index, so nothing but the
//!    decisions is stored);
//! 2. each bin centroid's instance is solved exactly offline
//!    ([`FastMpcTable::generate`], standing in for the paper's CPLEX runs);
//! 3. the decision vector is **run-length encoded** ([`Rle`], Section 5.2
//!    "table compression" — neighbouring scenarios share optima, so RLE
//!    shrinks the table to tens of kilobytes);
//! 4. online, the player does a **binary-search lookup**
//!    ([`FastMpc`], [`Rle::get`]) — no solver, microseconds per decision.
//!
//! With the paper's parameters (100 buffer bins × 5 previous bitrates ×
//! 100 throughput bins) the table has exactly the 50,000 rows of Figure 5.
//! Table-size accounting for Table 1 is provided by
//! [`FastMpcTable::full_size_bytes`] and [`FastMpcTable::rle_size_bytes`].
//!
//! The enumeration is one in-order sweep: (buffer, previous level) rows
//! fan out across threads via `abr-par`, and each row solves its
//! throughput bins in order in one scratch, so each cell's search starts
//! from its neighbour's plan; every cell still equals a cold solve. Tables
//! ship in a compact binary format ([`FastMpcTable::to_bytes`], [`codec`]).
//!
//! Generated tables live in one [`TableStore`], keyed by a content hash
//! ([`table_key`]) and generated exactly once per key. Unbounded (the
//! default), it is the harness's process-wide table memo; with a byte
//! budget, it bounds the resident (hot) set of a fleet-scale catalog,
//! spills evictees to disk, and serves them back zero-copy as mmap'd
//! [`TableView`]s (see [`store`] and [`view`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bins;
pub mod codec;
mod controller;
mod rle;
pub mod store;
mod table;
pub mod view;

pub use bins::BinSpec;
pub use codec::CodecError;
pub use controller::FastMpc;
pub use rle::Rle;
pub use store::{table_key, TableHandle, TableStore, TableStoreConfig, TableStoreStats};
pub use table::{FastMpcTable, TableConfig};
pub use view::TableView;
