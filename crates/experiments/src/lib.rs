//! # `experiments` — the paper's evaluation, one runner per exhibit
//!
//! Each module regenerates one table or figure of the ICPP 2008 paper:
//!
//! | module | exhibit | content |
//! |---|---|---|
//! | [`fig1`] | Figure 1 | per-structure AVF profile (IQ/ROB/RF/FU) by workload group |
//! | [`fig2`] | Figure 2 | ready-queue-length histogram + per-length ACE share (CPU-A) |
//! | [`table1`] | Table 1 | PC-based ACE identification accuracy per benchmark |
//! | [`table2`] | Table 2 | simulated machine configuration |
//! | [`table3`] | Table 3 | the nine SMT workload mixes |
//! | [`fig5`] | Figure 5 | normalized IQ AVF and throughput IPC of VISA / +opt1 / +opt2 (ICOUNT) |
//! | [`fig6`] | Figure 6 | the same under STALL / FLUSH / DG / PDG baselines |
//! | [`fig8`] | Figures 8 & 9 | DVM PVE and performance at 0.7–0.3 × MaxIQ_AVF (ICOUNT / FLUSH) |
//! | [`fig10`] | Figure 10 | PVE comparison of all schemes at every threshold |
//! | [`ablations`] | — | sensitivity of the paper's design constants (DESIGN §6) |
//!
//! All runners share an [`ExperimentContext`]: per-benchmark profiled
//! (ACE-hint-tagged) programs, standard warmup, and the measurement
//! budget. Independent simulations fan out across a thread pool sized to
//! the host ([`parallel::parallel_map`]) — simulations share nothing
//! mutable, so the fan-out is embarrassingly parallel.

pub mod ablations;
pub mod bench;
pub mod chaos;
pub mod checkpoint;
pub mod cli;
pub mod context;
pub mod exhibits;
pub mod faultinject;
pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod manifest;
pub mod parallel;
pub mod quick;
pub mod report;
pub mod reportcmd;
pub mod runner;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;

pub use bench::{BenchBaseline, BENCH_SCHEMA_VERSION};
pub use chaos::{
    cmd_chaos, run_chaos, ChaosArgs, ChaosReport, ChaosTotals, RoundReport, CHAOS_SCHEMA_VERSION,
};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, run_measured_checkpointed, CheckpointPolicy, MeasuredRun,
    C_SELFCHECK_FAILED, C_SNAPSHOTS_RESTORED, C_SNAPSHOTS_SKIPPED_CORRUPT, C_SNAPSHOTS_WRITTEN,
    DEFAULT_SNAPSHOT_EVERY,
};
pub use context::{ExperimentContext, ExperimentParams};
pub use exhibits::{Exhibit, EXHIBITS};
pub use faultinject::{FaultInjectReport, FAULT_SCHEMA_VERSION};
pub use manifest::RunManifest;
pub use report::Rendered;
pub use reportcmd::{cmd_report, register_inject, register_manifest, ArtifactDirs, ReportArgs};
pub use runner::{run_scheme, run_scheme_checkpointed, run_scheme_salted, RunOutcome};
pub use serve::{cmd_serve, cmd_serve_client, ServeArgs, ServeClientArgs};
