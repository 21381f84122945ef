//! Simulation substrate shared by every `givetake` crate.
//!
//! The paper's measurement pipeline is cadence-driven: search polls every
//! 30 minutes, chat polls every 7.5 minutes, two-second stream recordings,
//! daily crawls, weekly volume buckets. Reproducing its figures requires
//! *virtual* time that every simulator advances in lock-step, plus
//! deterministic randomness so a given seed regenerates every table
//! bit-for-bit.
//!
//! This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — seconds-since-epoch timestamps with
//!   civil-calendar conversions (no `std::time` wall-clock involvement);
//! * [`RngFactory`] — a labelled fan-out of deterministic RNG streams;
//! * [`dist`] — the heavy-tailed samplers (log-normal, Pareto, Zipf)
//!   the world generator needs and that `rand` alone lacks;
//! * [`faults`] — seeded fault plans and the [`Gated`] call gate every
//!   simulated substrate consults;
//! * [`hash`] — a fast, seedless hasher for interning maps.

pub mod dist;
pub mod faults;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod time;

pub use faults::{
    ChaosProfile, CircuitBreaker, DegradationStats, Denied, FaultKind, FaultPlan, FaultWindow,
    Gated, RetryPolicy, Substrate,
};
pub use rng::RngFactory;
pub use time::{CivilDate, SimDuration, SimTime};
