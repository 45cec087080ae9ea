//! The repository benchmark: three workloads, end-to-end host metrics with
//! tracing off, and a traced run that splits wall time across the
//! simulator's layers.
//!
//! Everything here drives the simulator through the `bft-simulator` facade
//! and wraps its public plug-in points from outside the library; see
//! `perfbench/README.md` for the metrics and how to run it.

mod alloc;
pub mod host;
pub mod layers;
pub mod report;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;
