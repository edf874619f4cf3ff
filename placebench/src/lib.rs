//! Converged-run placement benchmark for the ComPLx placer.
//!
//! Each workload generates a design, writes it as a Bookshelf bundle, and
//! times the public entry points on those files: `bookshelf::read_aux` +
//! `validate::validate` (set-up), then `ComplxPlacer::place` (bootstrap,
//! λ loop, legalization, detailed placement). Every placement is checked
//! by the independent oracle. A traced run reports the span tree and
//! counters the placer already emits, per layer. See `README.md`.

pub mod diff;
pub mod gate;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workload;
