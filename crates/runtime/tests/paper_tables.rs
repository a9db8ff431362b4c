//! The paper's §4.2 and §4.5 tables (EXPERIMENTS.md), rebuilt through the
//! public API the `startup_latency` and `package_cache` bins use and pinned
//! to the nanosecond and the byte, so a change to the runtime that moves a
//! printed digit fails here first.

use lakehouse_runtime::{
    ContainerManager, EnvSpec, PackageCache, PackageUniverse, PoolPolicy, SimClock,
    StartupBreakdown, StartupModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The bins' universe: 2 000 packages, Zipf 1.1, seed 7.
fn universe() -> PackageUniverse {
    PackageUniverse::synthetic(2_000, 1.1, 7)
}

/// `startup_latency`'s manager: a 20 GiB package cache.
fn manager(policy: PoolPolicy, clock: SimClock) -> ContainerManager {
    ContainerManager::new(
        StartupModel::paper_defaults(),
        policy,
        universe(),
        PackageCache::new(20 * 1024 * 1024 * 1024),
        clock,
    )
}

fn env() -> EnvSpec {
    EnvSpec::new("python3.11", vec!["pkg-00000".into(), "pkg-00003".into()])
}

/// Image fetch, sandbox create, runtime boot, package fetch, package
/// import, handler init.
fn nanos(b: &StartupBreakdown) -> [u128; 6] {
    b.components().map(|(_, d)| d.as_nanos())
}

#[test]
fn startup_breakdown_per_regime() {
    let m = manager(PoolPolicy::Freeze, SimClock::new());
    let cold = m.acquire(&env());
    let cold_b = cold.startup.clone();
    m.release(cold);
    let resumed = m.acquire(&env());
    // A second container of the same env while the first is held: the
    // warm (image local) path.
    let warm = m.acquire(&env());

    let ms = 1_000_000;
    assert_eq!(
        nanos(&cold_b),
        [
            2_800 * ms,
            120 * ms,
            150 * ms,
            315_484_109,
            1_157_000,
            30 * ms
        ]
    );
    assert_eq!(
        nanos(&warm.startup),
        [0, 120 * ms, 150 * ms, 1_474_299, 1_157_000, 30 * ms]
    );
    assert_eq!(nanos(&resumed.startup), [0, 0, 0, 0, 0, 12 * ms]);
}

#[test]
fn fifty_invocations_per_pool_policy() {
    // (policy, summed start-up, clock incl. freezes, (cold, warm, resume)).
    let expected = [
        (PoolPolicy::None, 18_245_574_760, 18_245_574_760, (1, 49, 0)),
        (PoolPolicy::Warm, 4_886_641_109, 4_886_641_109, (1, 49, 0)),
        (PoolPolicy::Freeze, 4_004_641_109, 5_254_641_109, (1, 0, 49)),
    ];
    for (policy, startup_nanos, clock_nanos, counts) in expected {
        let clock = SimClock::new();
        let m = manager(policy, clock.clone());
        let mut total = Duration::ZERO;
        for _ in 0..50 {
            let c = m.acquire(&env());
            total += c.startup.total();
            m.release(c);
        }
        assert_eq!(total.as_nanos(), startup_nanos, "{policy:?}");
        assert_eq!(clock.now().as_nanos(), clock_nanos, "{policy:?}");
        assert_eq!(m.start_counts(), counts, "{policy:?}");
    }
}

#[test]
fn package_cache_sweep() {
    let universe = universe();
    let mut rng = StdRng::seed_from_u64(99);
    let stream: Vec<_> = (0..5_000)
        .filter_map(|_| universe.sample_popular(&mut rng))
        .collect();
    assert_eq!(stream.len(), 5_000);

    // (capacity, hits, bytes downloaded, summed fetch time).
    let expected = [
        (0, 0, 39_764_619_746, 1_548_062_413_782),
        (1 << 30, 3_335, 12_978_768_338, 521_711_084_399),
        (4 << 30, 4_030, 7_010_933_809, 298_805_810_997),
        (16 << 30, 4_139, 6_394_861_408, 271_324_381_419),
        (64 << 30, 4_139, 6_394_861_408, 271_324_381_419),
    ];
    for (capacity, hits, bytes_downloaded, fetch_nanos) in expected {
        let mut cache = PackageCache::new(capacity);
        let mut total = Duration::ZERO;
        for pkg in &stream {
            total += cache.fetch(pkg).1;
        }
        assert_eq!(cache.hits(), hits, "{capacity}");
        assert_eq!(cache.misses(), 5_000 - hits, "{capacity}");
        assert_eq!(cache.bytes_downloaded(), bytes_downloaded, "{capacity}");
        assert_eq!(total.as_nanos(), fetch_nanos, "{capacity}");
    }
}
