//! The runtime as a cost model: what starting one stage's container costs
//! on the simulated clock.
//!
//! A run executes its steps in-process; the runtime only charges what the
//! paper's serverless layer would have cost around them (§4.2, §4.5): the
//! SOCK-style start-up, the freeze after a pooled container's work, and the
//! package fetches behind a start.

use crate::clock::SimClock;
use crate::container::{ContainerManager, PoolPolicy};
use crate::packages::{EnvSpec, PackageCache, PackageUniverse};
use crate::startup::{StartupBreakdown, StartupModel};

/// Packages in the synthetic universe a stage's requirements map onto.
const PACKAGE_UNIVERSE_SIZE: usize = 2_000;
/// Request skew of that universe (SOCK reports ≈ 1 for PyPI).
const PACKAGE_ZIPF_EXPONENT: f64 = 1.1;
/// Seed of the universe's package sizes.
const PACKAGE_UNIVERSE_SEED: u64 = 42;
/// The worker's local disk cache of packages.
const PACKAGE_CACHE_BYTES: u64 = 20 * 1024 * 1024 * 1024;

/// How a stage uses its container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// Take the environment's pooled container (resuming it when frozen) and
    /// freeze it again afterwards: fused stages and materialization.
    Pooled,
    /// Start a fresh container and drop it afterwards: the naive
    /// one-function-per-node baseline (§4.4.2).
    Stateless,
}

/// The serverless runtime: a freeze-policy container pool over the paper's
/// start-up model and package cache, charging one shared clock.
pub struct Runtime {
    containers: ContainerManager,
    clock: SimClock,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new()
    }
}

impl Runtime {
    pub fn new() -> Runtime {
        let clock = SimClock::new();
        let containers = ContainerManager::new(
            StartupModel::paper_defaults(),
            PoolPolicy::Freeze,
            PackageUniverse::synthetic(
                PACKAGE_UNIVERSE_SIZE,
                PACKAGE_ZIPF_EXPONENT,
                PACKAGE_UNIVERSE_SEED,
            ),
            PackageCache::new(PACKAGE_CACHE_BYTES),
            clock.clone(),
        );
        Runtime { containers, clock }
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    pub fn containers(&self) -> &ContainerManager {
        &self.containers
    }

    /// Charge one container's start-up for `env` on the clock and return its
    /// breakdown. `Pooled` acquires and releases (the release freezes, 25 ms
    /// on the clock); `Stateless` is a fresh start, never released.
    pub fn charge(&self, env: &EnvSpec, reuse: Reuse) -> StartupBreakdown {
        match reuse {
            Reuse::Pooled => {
                let container = self.containers.acquire(env);
                let startup = container.startup.clone();
                self.containers.release(container);
                startup
            }
            Reuse::Stateless => self.containers.acquire_stateless(env).startup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const FREEZE: Duration = Duration::from_millis(25);

    fn env() -> EnvSpec {
        EnvSpec::new("py311", vec!["pkg-00000".into()])
    }

    #[test]
    fn a_pooled_charge_is_a_start_then_a_freeze() {
        let rt = Runtime::new();
        let cold = rt.charge(&env(), Reuse::Pooled);
        assert!(cold.image_fetch > Duration::ZERO, "first start is cold");
        assert_eq!(rt.clock().now(), cold.total() + FREEZE);
        assert_eq!(rt.containers().start_counts(), (1, 0, 0));
    }

    #[test]
    fn a_second_pooled_charge_resumes() {
        let rt = Runtime::new();
        let cold = rt.charge(&env(), Reuse::Pooled);
        let resumed = rt.charge(&env(), Reuse::Pooled);
        assert_eq!(resumed, StartupModel::paper_defaults().frozen_resume());
        assert_eq!(
            rt.clock().now(),
            cold.total() + resumed.total() + 2 * FREEZE
        );
        assert_eq!(rt.containers().start_counts(), (1, 0, 1));
    }

    #[test]
    fn a_stateless_charge_neither_resumes_nor_freezes() {
        let rt = Runtime::new();
        let cold = rt.charge(&env(), Reuse::Stateless);
        let warm = rt.charge(&env(), Reuse::Stateless);
        assert_eq!(warm.image_fetch, Duration::ZERO, "the image is local now");
        assert!(
            warm.runtime_boot > Duration::ZERO,
            "but the runtime boots again"
        );
        assert_eq!(rt.clock().now(), cold.total() + warm.total());
        assert_eq!(rt.containers().start_counts(), (1, 1, 0));
    }
}
