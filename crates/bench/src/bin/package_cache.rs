//! **§4.5 claim — package cache**: "we were able to exploit the power-law in
//! package utilization (SOCK) to limit overall download times with an
//! efficient local, disk-based cache."
//!
//! Reproduction: replay a Zipf-distributed stream of environment builds over
//! a 2000-package universe and sweep the disk-cache budget, reporting hit
//! rate, bytes downloaded, and total fetch time vs. an uncached baseline.
//!
//! Regenerate: `cargo run -p lakehouse-bench --bin package_cache`

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use lakehouse_bench::print_rows;
use lakehouse_runtime::{PackageCache, PackageUniverse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    println!("=== §4.5: power-law package utilization + disk cache ===");
    let universe = PackageUniverse::synthetic(2_000, 1.1, 7);
    const REQUESTS: usize = 5_000;

    // Pre-draw the request stream once so every cache size sees the same
    // workload.
    let mut rng = StdRng::seed_from_u64(99);
    let stream: Vec<String> = (0..REQUESTS)
        .filter_map(|_| universe.sample_popular(&mut rng))
        .map(|pkg| pkg.name.clone())
        .collect();

    let mut rows = Vec::new();
    for &(label, capacity) in &[
        ("no cache", 0u64),
        ("1 GB", 1 << 30),
        ("4 GB", 4u64 << 30),
        ("16 GB", 16u64 << 30),
        ("64 GB", 64u64 << 30),
    ] {
        let mut cache = PackageCache::new(capacity);
        let mut total = Duration::ZERO;
        for name in &stream {
            let pkg = universe.get(name).expect("package exists");
            let (_, t) = cache.fetch(pkg);
            total += t;
        }
        rows.push(vec![
            label.into(),
            format!("{:.1}%", cache.hit_rate() * 100.0),
            format!("{:.2}", cache.bytes_downloaded() as f64 / 1e9),
            format!("{:.1}", total.as_secs_f64()),
        ]);
    }
    print_rows(
        &format!("{REQUESTS} Zipf(1.1) package fetches over a 2000-package universe"),
        &[
            "disk cache",
            "hit rate",
            "GB downloaded",
            "total fetch time s",
        ],
        &rows,
    );
    println!(
        "\nPaper claim check: with a modest disk cache, the power-law workload \
         turns most fetches into hits, collapsing download time versus the \
         uncached baseline (compare the first and last rows)."
    );
}
