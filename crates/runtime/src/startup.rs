//! SOCK-style container startup latency model.
//!
//! SOCK (Oakes et al., ATC'18) decomposes container startup into image
//! provisioning, sandbox creation, runtime boot, and package import. The
//! paper's custom containers hit ~300 ms by keeping images local and runtimes
//! pre-booted, and make resume "negligible" by freezing initialized
//! containers (§4.2, §4.5). This model reproduces those three regimes.

use crate::packages::{EnvSpec, PackageCache, PackageUniverse};
use std::time::Duration;

/// Components of one container start, for breakdown reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StartupBreakdown {
    pub image_fetch: Duration,
    pub sandbox_create: Duration,
    pub runtime_boot: Duration,
    pub package_fetch: Duration,
    pub package_import: Duration,
    pub handler_init: Duration,
}

impl StartupBreakdown {
    /// The six components by name, in start-up order.
    pub fn components(&self) -> [(&'static str, Duration); 6] {
        [
            ("image_fetch", self.image_fetch),
            ("sandbox_create", self.sandbox_create),
            ("runtime_boot", self.runtime_boot),
            ("package_fetch", self.package_fetch),
            ("package_import", self.package_import),
            ("handler_init", self.handler_init),
        ]
    }

    pub fn total(&self) -> Duration {
        self.components().iter().map(|&(_, d)| d).sum()
    }
}

/// Latency parameters for the three startup regimes.
#[derive(Debug, Clone)]
pub struct StartupModel {
    /// Pulling + unpacking a base image when absent locally (docker pull).
    pub image_fetch_cold: Duration,
    /// Creating namespaces/cgroups/overlayfs (SOCK's sandbox cost).
    pub sandbox_create: Duration,
    /// Booting the interpreter (CPython exec + site init).
    pub runtime_boot: Duration,
    /// Handler/function initialization once the runtime is up.
    pub handler_init: Duration,
    /// Restoring a frozen (paused) container.
    pub resume_frozen: Duration,
}

impl StartupModel {
    /// Defaults calibrated to the paper's narrative: cold starts in the
    /// multi-second range (Spark-cluster-like when images are cold), the
    /// warm-pool path ≈ 300 ms, frozen resume in the tens of milliseconds.
    pub fn paper_defaults() -> StartupModel {
        StartupModel {
            image_fetch_cold: Duration::from_millis(2_800),
            sandbox_create: Duration::from_millis(120),
            runtime_boot: Duration::from_millis(150),
            handler_init: Duration::from_millis(30),
            resume_frozen: Duration::from_millis(12),
        }
    }

    /// A cold start: nothing local, so the image is pulled before the warm
    /// path runs.
    pub fn cold_start(
        &self,
        env: &EnvSpec,
        universe: &PackageUniverse,
        cache: &mut PackageCache,
    ) -> StartupBreakdown {
        StartupBreakdown {
            image_fetch: self.image_fetch_cold,
            ..self.warm_start(env, universe, cache)
        }
    }

    /// A warm start: image local, sandbox pooled; runtime boots and imports
    /// packages, fetched through the (usually warm) cache, mutating its
    /// state. This is the paper's "300 ms" path.
    pub fn warm_start(
        &self,
        env: &EnvSpec,
        universe: &PackageUniverse,
        cache: &mut PackageCache,
    ) -> StartupBreakdown {
        let mut b = StartupBreakdown {
            sandbox_create: self.sandbox_create,
            runtime_boot: self.runtime_boot,
            handler_init: self.handler_init,
            ..Default::default()
        };
        for pkg in env.packages.iter().filter_map(|name| universe.get(name)) {
            let (_, fetch_t) = cache.fetch(pkg);
            b.package_fetch += fetch_t;
            b.package_import += pkg.import_time;
        }
        b
    }

    /// Resuming a frozen container: everything is already initialized.
    pub fn frozen_resume(&self) -> StartupBreakdown {
        StartupBreakdown {
            handler_init: self.resume_frozen,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (StartupModel, PackageUniverse, PackageCache) {
        (
            StartupModel::paper_defaults(),
            PackageUniverse::synthetic(50, 1.1, 7),
            PackageCache::new(10 * 1024 * 1024 * 1024),
        )
    }

    #[test]
    fn regimes_are_ordered() {
        let (m, u, mut cache) = fixture();
        let env = EnvSpec::new("py311", vec!["pkg-00000".into(), "pkg-00001".into()]);
        let cold = m.cold_start(&env, &u, &mut cache);
        let warm = m.warm_start(&env, &u, &mut cache); // cache now warm
        let frozen = m.frozen_resume();
        assert!(cold.total() > warm.total());
        assert!(warm.total() > frozen.total());
        assert!(frozen.total() < Duration::from_millis(50));
    }

    #[test]
    fn cold_start_is_seconds() {
        let (m, u, mut cache) = fixture();
        let env = EnvSpec::new("py311", vec!["pkg-00000".into()]);
        let cold = m.cold_start(&env, &u, &mut cache);
        assert!(cold.total() >= Duration::from_secs(2));
    }

    #[test]
    fn warm_start_near_300ms_with_warm_cache() {
        let (m, u, mut cache) = fixture();
        let env = EnvSpec::new("py311", vec!["pkg-00000".into()]);
        // Prime the cache.
        m.cold_start(&env, &u, &mut cache);
        let warm = m.warm_start(&env, &u, &mut cache);
        assert!(
            warm.total() >= Duration::from_millis(200)
                && warm.total() <= Duration::from_millis(600),
            "warm start {:?} not in the ~300ms regime",
            warm.total()
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let (m, u, mut cache) = fixture();
        let env = EnvSpec::new("py311", vec!["pkg-00002".into()]);
        let b = m.cold_start(&env, &u, &mut cache);
        let sum = b.image_fetch
            + b.sandbox_create
            + b.runtime_boot
            + b.package_fetch
            + b.package_import
            + b.handler_init;
        assert_eq!(b.total(), sum);
        assert!(b.components().iter().all(|&(_, d)| d > Duration::ZERO));
    }

    #[test]
    fn bare_env_has_no_package_cost() {
        let (m, u, mut cache) = fixture();
        let b = m.warm_start(&EnvSpec::bare("py311"), &u, &mut cache);
        assert_eq!(b.package_fetch, Duration::ZERO);
        assert_eq!(b.package_import, Duration::ZERO);
    }
}
