//! The experiment harness: reproduces every table and figure of
//! *Predicting Lemmas in Generalization of IC3* (DAC 2024).
//!
//! The paper's evaluation consists of:
//!
//! * **Table 1** — cases solved (total / safe / unsafe) per configuration,
//! * **Table 2** — average success rates `SR_lp`, `SR_fp`, `SR_adv` of the
//!   prediction-enabled configurations,
//! * **Figure 2** — cases solved within a given time limit, per configuration,
//! * **Figure 3** — per-case runtime scatter of each base configuration against
//!   its prediction-enabled counterpart,
//! * **Figure 4** — per-case runtime ratio (base / prediction) against the
//!   success rate of avoiding dropped variables `SR_adv`, with the cumulative
//!   number of improved cases.
//!
//! [`run_experiment`] executes the benchmark [`Suite`](plic3_benchmarks::Suite)
//! under all six configurations of the paper ([`Configuration`]) with per-case
//! resource budgets, and the `table1`/`table2`/`fig2`/`fig3`/`fig4` modules turn
//! the collected [`ExperimentData`] into the corresponding artifact (ASCII
//! rendering plus CSV rows). The `plic3-exp` binary drives the whole thing.
//!
//! # Example
//!
//! ```
//! use plic3_benchmarks::Suite;
//! use plic3_harness::{run_experiment, table1, Configuration, RunnerConfig};
//! use std::time::Duration;
//!
//! let suite = Suite::quick().filter(|b| b.family() == "counter");
//! let runner = RunnerConfig {
//!     timeout: Duration::from_secs(2),
//!     ..RunnerConfig::default()
//! };
//! let data = run_experiment(&suite, &[Configuration::Ric3, Configuration::Ric3Pl], &runner);
//! let table = table1::build(&data);
//! assert_eq!(table.rows.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod report;
mod runner;
pub mod table1;
pub mod table2;

pub use runner::{
    run_case, run_experiment, CaseResult, Configuration, ExperimentData, RunnerConfig, Verdict,
};
