//! Redundant engine-level circuits for the end-to-end benchmark.
//!
//! [`ic3_workloads`] builds circuits that are deliberately redundant in the
//! ways real HWMCC netlists are — duplicated cones, shadow registers, stuck
//! configuration latches — so the benchmark in `perfbench/` measures what
//! `plic3-prep` saves the IC3 engine, not just the SAT backend.
//!
//! # Example
//!
//! ```
//! use plic3_bench::ic3_workloads::redundant_rings;
//!
//! // Three copies of a five-cell token ring: fifteen latches before
//! // preprocessing merges the copies onto one ring.
//! let aig = redundant_rings(3, 5);
//! assert_eq!(aig.num_latches(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ic3_workloads;
