//! Statistical soft-error fault injection for the SMT simulator.
//!
//! This crate is the *empirical* side of the reliability story: where
//! the `avf` crate computes vulnerability analytically (ACE analysis
//! over a fault-free run), this crate measures it by experiment —
//! Monte-Carlo single-event upsets in live issue-queue, reorder-buffer
//! and register-file state, each classified differentially against a
//! golden run of the same seed:
//!
//! | Outcome    | Meaning                                                 |
//! |------------|---------------------------------------------------------|
//! | `Masked`   | architecturally invisible (dead bit, squashed victim, …) |
//! | `Sdc`      | retired sink stream diverges silently                   |
//! | `Detected` | malformed critical state reaches retirement checks      |
//! | `Hang`     | forward progress lost; commit watchdog fires            |
//!
//! The non-masked fraction over uniformly sampled `(cycle, entry, bit)`
//! sites estimates the structure's AVF; [`run_campaign`] reports it
//! with a Wilson 95 % interval so the ACE-analysis model can be
//! validated (or falsified) seed by seed.
//!
//! [`digest`] holds the golden-run machinery: commit-stream capture,
//! the commit-order architectural emulator, the sink-stream digest that
//! defines "architecturally identical", and the golden trace that
//! judges a value fault by differential replay of the victim thread
//! alone. [`campaign`] holds the sampler, the classification split
//! (differential replay for value faults, trials forked from the golden
//! pipeline for faults that mutate it), and the statistics. No trial
//! starts from cycle zero.

pub mod campaign;
pub mod digest;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignResult, Outcome, SplitMix64, StructureStats,
};
pub use digest::{
    golden_digest, mix, replay, ArchEmulator, CommitRec, FateObserver, FaultDirective,
    GoldenRecorder, GoldenTrace, SinkDigest, Tandem, Verdict,
};
