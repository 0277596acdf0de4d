//! Block-cache economics: what the paged storage engine buys and costs.
//!
//! Two questions, one on-disk index:
//!
//! 1. **Cold vs warm QPS** — how much faster is a warm shared LRU of
//!    partition images than reading and validating each partition from
//!    the filesystem on every scan?
//! 2. **Hit rate** — what fraction of sealed reads a budget-bound cache
//!    actually serves from memory under a realistic query workload.
//!
//! Emits `BENCH_cache.json`. Scale with `CLIMBER_N` / `CLIMBER_QUERIES`
//! / `CLIMBER_CACHE_MB`, or pass `--quick` for the CI smoke scale.
//! Under `CLIMBER_BENCH_STRICT=1` warm cached QPS must reach >= 1.3x
//! the uncached baseline — relaxed (with the reason logged) on a
//! single-core runner, where the cache can only save the disk+validate
//! work that already shares the lone core with the scans.

use climber_bench::runner::dataset;
use climber_bench::table::{f2, Table};
use climber_bench::{default_k, env_usize, experiment_config, QUERY_SEED};
use climber_core::series::gen::{query_workload, Domain};
use climber_core::{CacheConfig, Climber, RecoveryPolicy, SearchRequest};
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick {
        4_000
    } else {
        env_usize("CLIMBER_N", 20_000)
    };
    let total = env_usize("CLIMBER_QUERIES", if quick { 256 } else { 512 });
    let k = default_k();
    let reps = if quick { 2 } else { 3 };
    let budget = env_usize("CLIMBER_CACHE_MB", 256) << 20;
    println!("==========================================================================");
    println!("Cache — cold vs warm QPS, hit rate");
    println!("workload: {total} requests, K={k}, Adaptive-4X, best of {reps}");
    println!(
        "scale: N={n}, budget {} MiB{} (CLIMBER_N / CLIMBER_QUERIES / CLIMBER_CACHE_MB)",
        budget >> 20,
        if quick { " [--quick]" } else { "" }
    );
    println!("==========================================================================");

    let ds = dataset(Domain::RandomWalk, n);
    let config = experiment_config(n);
    let dir = std::env::temp_dir().join(format!("climber-bench-cache-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();

    let t = Instant::now();
    drop(Climber::build_on_disk(&ds, &dir, config).unwrap());
    let build_secs = t.elapsed().as_secs_f64();
    println!("built on-disk index in {build_secs:.2}s");

    let qids = query_workload(&ds, total, QUERY_SEED);
    let requests: Vec<SearchRequest> = qids
        .iter()
        .map(|&q| SearchRequest::new(ds.get(q), k).adaptive(4))
        .collect();
    let pass = |c: &Climber<climber_core::dfs::store::DiskStore>| {
        let t = Instant::now();
        for req in &requests {
            let out = c.search(req);
            assert!(out.results.len() <= k);
        }
        t.elapsed().as_secs_f64()
    };

    // 1a. Uncached baseline: every sealed scan reads and validates the
    // partition from the filesystem.
    let uncached = Climber::open_rw(&dir).unwrap();
    let uncached_secs = (0..reps)
        .map(|_| pass(&uncached))
        .min_by(f64::total_cmp)
        .expect("reps >= 1");
    let uncached_qps = total as f64 / uncached_secs;
    println!("uncached: {uncached_qps:.1} QPS");
    drop(uncached);

    // 1b. Cached: the cold pass right after the open (pre-warmed by the
    // open's own validation reads), then the steady warm state.
    let cc = CacheConfig::default().with_capacity_bytes(budget);
    let (cached, report) = Climber::open_with_cache(&dir, RecoveryPolicy::Strict, cc).unwrap();
    let warmed_bytes = report.warmed_bytes;
    let cold_secs = pass(&cached);
    let cold_qps = total as f64 / cold_secs;
    let warm_secs = (0..reps)
        .map(|_| pass(&cached))
        .min_by(f64::total_cmp)
        .expect("reps >= 1");
    let warm_qps = total as f64 / warm_secs;
    let stats = cached
        .block_cache()
        .expect("cached open attaches a cache")
        .stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    let speedup = warm_qps / uncached_qps;
    println!(
        "cached: cold {cold_qps:.1} QPS, warm {warm_qps:.1} QPS ({speedup:.2}x uncached), \
         hit rate {:.1}%, warmed {:.1} MB",
        hit_rate * 100.0,
        warmed_bytes as f64 / 1e6
    );
    drop(cached);

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["build_s".into(), f2(build_secs)]);
    table.row(vec!["uncached_qps".into(), f2(uncached_qps)]);
    table.row(vec!["cold_qps".into(), f2(cold_qps)]);
    table.row(vec!["warm_qps".into(), f2(warm_qps)]);
    table.row(vec!["warm_over_uncached".into(), f2(speedup)]);
    table.row(vec!["hit_rate".into(), f2(hit_rate)]);
    table.print();

    // BENCH_*.json record (consumed by tooling; schema kept flat).
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"cache\",\n  \"n\": {n},\n  \"queries\": {total},\n  \"k\": {k},\n  \"budget_bytes\": {budget},\n"
    );
    let _ = writeln!(json, "  \"build_secs\": {build_secs:.4},");
    let _ = write!(
        json,
        "  \"uncached_qps\": {uncached_qps:.2},\n  \"cold_qps\": {cold_qps:.2},\n  \"warm_qps\": {warm_qps:.2},\n"
    );
    let _ = write!(
        json,
        "  \"warm_over_uncached\": {speedup:.4},\n  \"hit_rate\": {hit_rate:.4},\n  \"warmed_bytes\": {warmed_bytes}\n}}\n"
    );
    let path =
        std::env::var("CLIMBER_BENCH_JSON").unwrap_or_else(|_| "BENCH_cache.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    fs::remove_dir_all(&dir).ok();

    if std::env::var("CLIMBER_BENCH_STRICT").as_deref() == Ok("1") {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        if cores > 1 {
            assert!(
                speedup >= 1.3,
                "warm cached QPS {warm_qps:.1} is only {speedup:.2}x uncached {uncached_qps:.1}, \
                 below the 1.3x floor"
            );
        } else {
            println!(
                "strict gate relaxed: single-core runner (warm {speedup:.2}x uncached) — the \
                 cache saves read+validate work that shares the lone core with the scans"
            );
        }
    }
}
