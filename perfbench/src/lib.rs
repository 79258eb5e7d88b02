//! End-to-end and per-layer benchmark of the PLIC3 pipeline.
//!
//! Each case goes from a generated circuit to an independently checked
//! verdict through the public API of every layer: `plic3_prep`
//! (preprocessing), `plic3_ts` (encoding), `plic3` (IC3) or `plic3_bmc`
//! (BMC, k-induction), and `plic3_check` / trace replay (checking). The
//! benchmark times those calls from outside and reads the counters the
//! layers already expose; nothing inside the program is changed.
//!
//! * [`cases`] — the workloads and their instances,
//! * [`pipeline`] — one case under one engine configuration,
//! * [`run`] — passes over a workload and the metrics taken from them,
//! * [`trace`] — in-memory spans around each layer call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod pipeline;
pub mod run;
pub mod trace;
