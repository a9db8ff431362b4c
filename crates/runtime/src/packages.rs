//! Package universe and cache.
//!
//! The paper (§4.5) exploits "the power-law in package utilization (SOCK)"
//! to bound download times with a local disk cache. We model a universe of
//! packages whose request popularity is Zipf-distributed and whose sizes are
//! lognormal, plus an LRU byte-budget cache that records hits/misses and the
//! simulated download time saved.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal, Zipf};
use std::collections::HashMap;
use std::time::Duration;

/// An execution environment: interpreter version plus pinned packages —
/// what the paper's `@requirements({'pandas': '2.0.0'})` decorator produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnvSpec {
    /// e.g. "python3.11" (we simulate, so the string is opaque identity).
    pub interpreter: String,
    /// Sorted package names (order-insensitive identity).
    pub packages: Vec<String>,
}

impl EnvSpec {
    pub fn new(interpreter: impl Into<String>, mut packages: Vec<String>) -> EnvSpec {
        packages.sort();
        packages.dedup();
        EnvSpec {
            interpreter: interpreter.into(),
            packages,
        }
    }

    /// The bare interpreter with no packages.
    pub fn bare(interpreter: impl Into<String>) -> EnvSpec {
        EnvSpec::new(interpreter, vec![])
    }
}

/// One package: name, compressed size, and import (load) cost.
#[derive(Debug, Clone)]
pub struct PackageInfo {
    pub name: String,
    pub size_bytes: u64,
    /// CPU time to import once downloaded (numpy-style heavy imports).
    pub import_time: Duration,
}

/// A synthetic package registry with Zipf popularity.
#[derive(Debug, Default)]
pub struct PackageUniverse {
    packages: Vec<PackageInfo>,
    index: HashMap<String, usize>,
    /// Request popularity over ranks `1..=len`; `None` when the universe is
    /// empty or its exponent is negative or NaN.
    popularity: Option<Zipf>,
}

impl PackageUniverse {
    /// Build a universe of `n` packages with deterministic sizes.
    ///
    /// Sizes ~ lognormal (median ~2 MB, heavy tail to hundreds of MB, like
    /// PyPI); import times scale with size. `zipf_exponent` controls request
    /// skew (SOCK reports ≈ 1 for PyPI downloads).
    pub fn synthetic(n: usize, zipf_exponent: f64, seed: u64) -> PackageUniverse {
        // Constant parameters in range: `new` fails only on a NaN or a
        // negative sigma.
        let Ok(size_dist) = LogNormal::new((2_000_000f64).ln(), 1.5) else {
            return PackageUniverse::default();
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packages = Vec::with_capacity(n);
        let mut index = HashMap::with_capacity(n);
        for i in 0..n {
            let size = size_dist.sample(&mut rng).min(500e6) as u64;
            let name = format!("pkg-{i:05}");
            index.insert(name.clone(), i);
            packages.push(PackageInfo {
                name,
                size_bytes: size.max(10_000),
                import_time: Duration::from_micros(500 + size / 20_000),
            });
        }
        PackageUniverse {
            packages,
            index,
            popularity: Zipf::new(n as u64, zipf_exponent).ok(),
        }
    }

    pub fn len(&self) -> usize {
        self.packages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&PackageInfo> {
        self.index.get(name).map(|&i| &self.packages[i])
    }

    /// Sample a package by Zipf popularity (rank 1 = most popular =
    /// `pkg-00000`); `None` when there is no popularity to sample.
    pub fn sample_popular(&self, rng: &mut StdRng) -> Option<&PackageInfo> {
        let rank = self.popularity.as_ref()?.sample(rng) as usize; // 1-based
        self.packages.get(rank - 1)
    }
}

/// Where a package came from on an install request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    DiskCache,
    Registry,
}

/// An LRU package cache with a byte budget, simulating the paper's
/// "efficient local, disk-based cache".
#[derive(Debug)]
pub struct PackageCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// LRU order: front = least recently used.
    lru: Vec<String>,
    sizes: HashMap<String, u64>,
    hits: u64,
    misses: u64,
    bytes_downloaded: u64,
    /// Registry bandwidth for download-time simulation.
    registry_bandwidth: u64,
    /// Per-request registry latency.
    registry_latency: Duration,
    /// Disk read bandwidth for cache hits.
    disk_bandwidth: u64,
}

impl PackageCache {
    pub fn new(capacity_bytes: u64) -> PackageCache {
        PackageCache {
            capacity_bytes,
            used_bytes: 0,
            lru: Vec::new(),
            sizes: HashMap::new(),
            hits: 0,
            misses: 0,
            bytes_downloaded: 0,
            registry_bandwidth: 40 * 1024 * 1024, // 40 MB/s from PyPI
            registry_latency: Duration::from_millis(120),
            disk_bandwidth: 2 * 1024 * 1024 * 1024, // 2 GB/s NVMe
        }
    }

    /// Fetch a package, returning (source, simulated time to make it
    /// available locally).
    pub fn fetch(&mut self, pkg: &PackageInfo) -> (FetchSource, Duration) {
        if self.sizes.contains_key(&pkg.name) {
            // Hit: refresh LRU position, charge a disk read.
            self.lru.retain(|n| n != &pkg.name);
            self.lru.push(pkg.name.clone());
            self.hits += 1;
            let t = Duration::from_secs_f64(pkg.size_bytes as f64 / self.disk_bandwidth as f64);
            return (FetchSource::DiskCache, t);
        }
        self.misses += 1;
        self.bytes_downloaded += pkg.size_bytes;
        let t = self.registry_latency
            + Duration::from_secs_f64(pkg.size_bytes as f64 / self.registry_bandwidth as f64);
        // Admit (evicting LRU entries) only if it can ever fit.
        if pkg.size_bytes <= self.capacity_bytes {
            while self.used_bytes + pkg.size_bytes > self.capacity_bytes {
                let victim = self.lru.remove(0);
                let sz = self.sizes.remove(&victim).unwrap_or(0);
                self.used_bytes -= sz;
            }
            self.used_bytes += pkg.size_bytes;
            self.sizes.insert(pkg.name.clone(), pkg.size_bytes);
            self.lru.push(pkg.name.clone());
        }
        (FetchSource::Registry, t)
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of requests served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn bytes_downloaded(&self) -> u64 {
        self.bytes_downloaded
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_spec_canonicalizes() {
        let a = EnvSpec::new("py311", vec!["b".into(), "a".into(), "a".into()]);
        let b = EnvSpec::new("py311", vec!["a".into(), "b".into()]);
        assert_eq!(a, b);
    }

    #[test]
    fn universe_is_deterministic() {
        let a = PackageUniverse::synthetic(100, 1.1, 7);
        let b = PackageUniverse::synthetic(100, 1.1, 7);
        assert_eq!(
            a.get("pkg-00042").unwrap().size_bytes,
            b.get("pkg-00042").unwrap().size_bytes
        );
        assert!(a.get("nope").is_none());
    }

    #[test]
    fn zipf_sampling_is_skewed() {
        let u = PackageUniverse::synthetic(1000, 1.1, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = HashMap::new();
        for _ in 0..5000 {
            let name = &u.sample_popular(&mut rng).unwrap().name;
            *counts.entry(name.clone()).or_insert(0) += 1;
        }
        // Head package should be requested far more than a tail package.
        let head = counts.get("pkg-00000").copied().unwrap_or(0);
        let tail = counts.get("pkg-00900").copied().unwrap_or(0);
        assert!(head > 100, "head={head}");
        assert!(head > tail * 5);
    }

    #[test]
    fn an_empty_universe_samples_nothing() {
        let u = PackageUniverse::synthetic(0, 1.1, 7);
        assert!(u.is_empty());
        assert!(u.sample_popular(&mut StdRng::seed_from_u64(1)).is_none());
    }

    #[test]
    fn cache_hit_after_miss() {
        let u = PackageUniverse::synthetic(10, 1.1, 7);
        let mut cache = PackageCache::new(10 * 1024 * 1024 * 1024);
        let pkg = u.get("pkg-00000").unwrap();
        let (src1, t1) = cache.fetch(pkg);
        let (src2, t2) = cache.fetch(pkg);
        assert_eq!(src1, FetchSource::Registry);
        assert_eq!(src2, FetchSource::DiskCache);
        assert!(t2 < t1, "cache hit must be faster: {t2:?} vs {t1:?}");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction() {
        let mut cache = PackageCache::new(300);
        let mk = |name: &str, size| PackageInfo {
            name: name.into(),
            size_bytes: size,
            import_time: Duration::ZERO,
        };
        cache.fetch(&mk("a", 100));
        cache.fetch(&mk("b", 100));
        cache.fetch(&mk("c", 100));
        // Touch a so b becomes LRU.
        cache.fetch(&mk("a", 100));
        // d evicts b.
        cache.fetch(&mk("d", 100));
        let (src_b, _) = cache.fetch(&mk("b", 100)); // miss again
        assert_eq!(src_b, FetchSource::Registry);
        let (src_a, _) = cache.fetch(&mk("a", 100));
        // a may have been evicted when b re-entered (capacity 300, holding
        // c, d, b) — whichever way, the cache never exceeds its budget.
        let _ = src_a;
        assert!(cache.used_bytes() <= 300);
    }

    #[test]
    fn oversized_package_never_cached() {
        let mut cache = PackageCache::new(50);
        let big = PackageInfo {
            name: "big".into(),
            size_bytes: 1000,
            import_time: Duration::ZERO,
        };
        cache.fetch(&big);
        let (src, _) = cache.fetch(&big);
        assert_eq!(src, FetchSource::Registry);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn popular_workload_gets_high_hit_rate() {
        // The paper's claim: power-law utilization + disk cache → most
        // requests hit the cache.
        let u = PackageUniverse::synthetic(2000, 1.1, 7);
        let mut cache = PackageCache::new(20 * 1024 * 1024 * 1024);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            cache.fetch(u.sample_popular(&mut rng).unwrap());
        }
        assert!(
            cache.hit_rate() > 0.6,
            "hit rate {} too low for zipf workload",
            cache.hit_rate()
        );
    }
}
