//! Cost model and reporting utilities for the Midway DSM reproduction.
//!
//! This crate holds the paper's measured primitive-operation costs
//! (Table 1), helpers to sweep model parameters (the page-fault service
//! time axis of Figures 3 and 4), and plain-text table/CSV rendering used
//! by the benchmark harnesses.

mod cost;
mod fmt;
mod sweep;
mod table;

pub use cost::CostModel;
pub use fmt::{fmt_f64, fmt_u64};
pub use sweep::FaultSweep;
pub use table::TextTable;
