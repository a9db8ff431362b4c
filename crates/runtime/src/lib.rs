//! # lakehouse-runtime
//!
//! The serverless runtime substrate (paper §4.5) as a cost model. A run's
//! steps execute in-process; for each DAG stage the runtime charges, on one
//! simulated clock ([`SimClock`]), what the paper's containers would cost:
//!
//! * **multi-language support with flexible dependencies** — an
//!   [`EnvSpec`] pins an interpreter version plus an arbitrary package set
//!   per function, and a start fetches its packages through a disk cache
//!   over a power-law package universe ([`packages`]);
//! * **container start-up** — the SOCK breakdown (image pull, sandbox
//!   create, runtime boot, package fetch and import, handler init) of a
//!   cold, warm or resumed start ([`startup`]);
//! * **pausing functions** — container freeze/resume so startup time becomes
//!   negligible after first initialization ([`container`]).
//!
//! [`Runtime::charge`] is the one entry point a run uses: `(env, reuse,
//! pool state) → StartupBreakdown`, charged on the clock. Nothing sleeps,
//! so benches reproduce the paper's cold-vs-300ms-warm claims
//! deterministically, without Docker.

pub mod clock;
pub mod container;
pub mod packages;
pub mod runtime;
pub mod startup;

pub use clock::SimClock;
pub use container::{Container, ContainerManager, ContainerState, PoolPolicy, StartupKind};
pub use packages::{EnvSpec, PackageCache, PackageUniverse};
pub use runtime::{Reuse, Runtime};
pub use startup::{StartupBreakdown, StartupModel};
