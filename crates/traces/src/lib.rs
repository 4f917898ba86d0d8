//! # horse-traces — Azure-style serverless trace model
//!
//! §5.4 of the paper drives its colocation experiment "with arrival times
//! derived from a 30 s chunk of the Azure Cloud serverless real-world
//! traces". The Azure Public Dataset cannot be redistributed with this
//! repository, so this crate provides (documented substitution,
//! DESIGN.md §2):
//!
//! * [`Trace`] — the dataset's shape: per-function minute-resolution
//!   invocation counts, with a parser/writer for the published CSV schema
//!   (`HashOwner,HashApp,HashFunction,1,…,1440`) so the real files drop
//!   in when available;
//! * [`SynthConfig`] — a synthetic generator reproducing the published
//!   statistics of the 2019 Azure traces: heavy-tailed per-function
//!   popularity (Zipf apps, log-normal rates) and diurnal modulation;
//! * [`ArrivalSampler`] — expansion of minute counts into nanosecond
//!   arrival timestamps for any chunk of the day.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrivals;
mod synth;
mod trace;

pub use arrivals::{Arrival, ArrivalSampler};
pub use synth::SynthConfig;
pub use trace::{Trace, TraceFunction, TraceParseError};
