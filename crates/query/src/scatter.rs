//! Scatter-side primitives for multi-shard query execution.
//!
//! A sharded index holds N record-disjoint stores under one shared
//! skeleton. Executing a query batch against it decomposes into exactly
//! the phases the partition-major batch engine ([`crate::batch`]) already
//! runs against a single store — and this module factors those phases out
//! so the single-store executor and a shard fan-out run the *same code*:
//!
//! * [`plan_queries`] — plan every query once against the shared skeleton
//!   (plans depend only on the skeleton and the query, so one planning
//!   pass serves every shard);
//! * [`scan_shard`] — the partition-major planned scan of one store:
//!   open each selected partition once, read each selected cluster
//!   once, score it against every interested query. Returns one
//!   [`TopK`] per query plus the scan accounting ([`ShardScan`]);
//! * [`expand_shard_partition`] — the within-partition expansion fallback
//!   for one `(store, partition)` pair, used by a gather loop that must
//!   interleave expansion across shards in plan order.
//!
//! ## Cross-shard shared-bound pruning
//!
//! [`scan_shard`] takes the per-query [`SharedBound`]s from the caller
//! instead of creating its own. A shard fan-out passes the *same* bound
//! array to every shard, so a shard that has already collected `k`
//! candidates publishes its k-th distance and every other shard
//! early-abandons against the best global bound — the cross-shard pruning
//! half of a scatter-gather top-k. This is sound for bit-identical
//! results: a bound is only ever published by a heap holding `k` real
//! candidates, so any record abandoned against it is provably outside the
//! global top-k; and `records_scanned` counts the merged candidate
//! stream, not the offers, so the accounting is bound-independent.
//!
//! ## Resident-first scheduling
//!
//! [`scan_shard`] queues the partitions its store reports
//! [resident](climber_dfs::store::PartitionStore::is_resident) in the
//! block cache ahead of the ones that must be read. A batch therefore hits
//! what the previous batch left behind before its own misses start
//! evicting, instead of evicting those partitions on the way to them.
//! Visit order changes neither results nor counters: a [`TopK`]'s content
//! does not depend on the order of its offers.

use crate::adaptive::plan_adaptive;
use crate::batch::BatchStrategy;
use crate::engine::query_seed;
use crate::knn::plan_knn;
use crate::od_smallest::plan_od_smallest;
use crate::plan::QueryPlan;
use crate::refine::{expand_partition, scan_range, Candidates};
use crate::updates::UpdateView;
use climber_dfs::format::{ClusterBuf, TrieNodeId};
use climber_dfs::quant::{QuantCache, QuantizedCluster};
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_index::skeleton::IndexSkeleton;
use climber_repr::paa::paa;
use climber_series::topk::{SharedBound, TopK};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Work discovered for one partition: cluster → the queries that chose it.
type PartitionWork = BTreeMap<TrieNodeId, Vec<usize>>;

/// Records scored per cache block in the partition-major scan: at 256
/// points a record is 1 KiB, so a block stays L1-resident while every
/// interested query of the batch scans it.
pub(crate) const SCAN_BLOCK_RECORDS: usize = 16;

/// Segments of the shared PAA prefilter (see [`scan_block_prefiltered`]).
pub(crate) const PREFILTER_SEGMENTS: usize = 16;

/// Minimum queries sharing a cluster before its PAA signatures are worth
/// computing: below this the signature pass costs about what it saves.
pub(crate) const PREFILTER_MIN_QUERIES: usize = 4;

/// Plans every query independently, in parallel, against `skeleton`:
/// the batch engine's planning phase, exposed so a shard fan-out can plan
/// **once** on the shared skeleton and execute the same plans on every
/// shard. `partition_cap`, when set, truncates each plan deterministically
/// (ascending partition id) — the budget semantics of
/// [`SearchRequest::with_budget`](crate::search::SearchRequest::with_budget).
pub fn plan_queries(
    skeleton: &IndexSkeleton,
    queries: &[Vec<f32>],
    k: usize,
    strategy: BatchStrategy,
    partition_cap: Option<usize>,
) -> Vec<QueryPlan> {
    let signatures = skeleton.extract_signatures(queries);
    (0..queries.len())
        .into_par_iter()
        .map(|qi| {
            let sig = &signatures[qi];
            let seed = query_seed(&queries[qi]);
            let mut plan = match strategy {
                BatchStrategy::Knn => plan_knn(skeleton, sig, seed),
                BatchStrategy::Adaptive { factor } => plan_adaptive(skeleton, sig, k, factor, seed),
                BatchStrategy::OdSmallest => plan_od_smallest(skeleton, sig),
            };
            if let Some(cap) = partition_cap {
                plan.truncate_partitions(cap);
            }
            plan
        })
        .collect()
}

/// The result of one store's planned partition-major scan: per-query
/// heaps and scan counters, plus which planned partitions failed to open.
#[derive(Debug)]
pub struct ShardScan {
    /// One heap per query, holding that query's best candidates from this
    /// store's planned clusters.
    pub tops: Vec<TopK>,
    /// Per-query records scanned (merged candidate stream length).
    pub scanned: Vec<u64>,
    /// Planned partitions that failed to open (treated as empty —
    /// fault tolerance, same as the sequential engine).
    pub failed: BTreeSet<PartitionId>,
    /// Distinct partitions successfully opened by the scan.
    pub partitions_opened: usize,
    /// Records physically decoded from partition bytes.
    pub records_decoded: u64,
}

/// Scores one block of decoded records against one query, first pruning
/// with the Keogh PAA lower bound computed from signatures shared by every
/// query of the batch.
///
/// Soundness (results stay bit-identical to the unfiltered scan):
/// per-segment Cauchy–Schwarz gives `len_s · (mean_x − mean_y)² ≤
/// Σ_s (x_j − y_j)²`, so `floor(n/w) · Σ (paa_x − paa_y)² ≤ sq_ed(x, y)`
/// even for uneven segment splits (the floor weight under-weights the
/// longer leading segments). A record is skipped only when this lower
/// bound exceeds the query's current bound with a relative safety margin
/// (1e-9, many orders above f64 rounding), and any such record is provably
/// not in the final top-k — exactly like an `ed_early_abandon` rejection,
/// just ~n/w times cheaper.
#[allow(clippy::too_many_arguments)]
fn scan_block_prefiltered(
    query: &[f32],
    query_paa: &[f64],
    cands: Candidates<'_>,
    paas: &[f64],
    segments: usize,
    scale: f64,
    range: std::ops::Range<usize>,
    top: &mut TopK,
    shared: &SharedBound,
) {
    for i in range {
        let bound = top.bound_with(shared);
        if bound.is_finite() {
            let rp = &paas[i * segments..(i + 1) * segments];
            let mut lb = 0.0f64;
            for (a, b) in query_paa.iter().zip(rp.iter()) {
                let d = a - b;
                lb += d * d;
            }
            if lb * scale > bound * (1.0 + 1e-9) {
                continue;
            }
        }
        if let Some((id, d)) = cands.score(i, query, bound) {
            top.offer(id, d);
        }
    }
    top.publish_bound(shared);
}

/// Executes the planned partition-major scan against one store: the
/// batch engine's fan-out phase, factored out so a single-store batch and
/// an N-shard scatter run the identical loop. Partitions selected by any
/// plan are fanned out across threads via the [`rayon::scope`] work
/// queue, the store's cache-resident partitions first (see the module
/// docs); each is opened once, and each needed cluster is scored against
/// every interested query behind the shared PAA prefilter. Sealed
/// clusters are scored straight from their record bytes in the partition
/// image; only clusters merged with `updates` or served through `quant`
/// are decoded, once, into a reused buffer.
///
/// `bounds` must hold one [`SharedBound`] per query; passing the same
/// array for every shard of a fan-out enables cross-shard pruning (see
/// the module docs for the soundness argument).
///
/// `quant`, when present and enabled, serves sealed cluster decodes from
/// the 8-bit quantized record cache: on a hit, only the records whose
/// admissible quantized lower bound cannot rule them out for at least one
/// interested query are promoted to exact `f32` — every skipped record
/// provably lies outside that query's current bound, i.e. exactly the
/// records an `ed_early_abandon` rejection would drop, so outcomes are
/// unchanged. Clusters touched by updates always bypass the cache.
pub fn scan_shard<S: PartitionStore>(
    store: &S,
    queries: &[Vec<f32>],
    k: usize,
    plans: &[QueryPlan],
    bounds: &[SharedBound],
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> ShardScan {
    let nq = queries.len();
    assert_eq!(plans.len(), nq, "one plan per query");
    assert_eq!(bounds.len(), nq, "one shared bound per query");

    // Per-query PAA signatures for the shared prefilter (empty when the
    // query is too short to segment — the scan then runs unfiltered).
    let qpaas: Vec<Vec<f64>> = queries
        .par_iter()
        .map(|q| {
            let segs = PREFILTER_SEGMENTS.min(q.len());
            if segs == 0 {
                Vec::new()
            } else {
                paa(q, segs)
            }
        })
        .collect();

    // Regroup the union of all plans by partition, then by cluster.
    let mut work: BTreeMap<PartitionId, PartitionWork> = BTreeMap::new();
    for (qi, plan) in plans.iter().enumerate() {
        for (&pid, clusters) in &plan.reads {
            let per_cluster = work.entry(pid).or_default();
            for &node in clusters {
                per_cluster.entry(node).or_default().push(qi);
            }
        }
    }

    // Shared per-query state for the partition-major pass.
    let heaps: Vec<Mutex<TopK>> = (0..nq).map(|_| Mutex::new(TopK::new(k))).collect();
    let scanned: Vec<AtomicU64> = (0..nq).map(|_| AtomicU64::new(0)).collect();
    let failed: Mutex<BTreeSet<PartitionId>> = Mutex::new(BTreeSet::new());
    let opened = AtomicUsize::new(0);
    let decoded = AtomicU64::new(0);

    // Fan partitions out across threads; skewed partition sizes balance
    // over the scope's shared work queue. The queue is FIFO, so the
    // cache-resident partitions go first and hit before this batch's own
    // misses start evicting.
    let (resident, cold): (Vec<_>, Vec<_>) =
        work.iter().partition(|(pid, _)| store.is_resident(**pid));
    rayon::scope(|s| {
        for (&pid, per_cluster) in resident.into_iter().chain(cold) {
            let (heaps, bounds, scanned) = (&heaps, &bounds, &scanned);
            let (failed, opened, decoded) = (&failed, &opened, &decoded);
            let qpaas = &qpaas;
            s.spawn(move |_| {
                let Ok(reader) = store.open(pid) else {
                    failed.lock().unwrap().insert(pid);
                    return;
                };
                opened.fetch_add(1, Ordering::Relaxed);
                let series_len = reader.series_len();
                let segments = PREFILTER_SEGMENTS.min(series_len);
                let scale = (series_len / segments) as f64;
                let mut buf = ClusterBuf::new();
                let mut paas: Vec<f64> = Vec::new();
                let mut scratch: Vec<f32> = Vec::new();
                let mut locals: Vec<Option<TopK>> = vec![None; queries.len()];
                let mut touched: Vec<usize> = Vec::new();
                // Sealed clusters may be served from the quantized record
                // cache; clusters touched by updates never are.
                let cache = match updates {
                    None => quant.filter(|c| c.is_enabled()),
                    Some(_) => None,
                };
                for (&node, interested) in per_cluster {
                    let bytes = reader.cluster_bytes(node).unwrap_or(0);
                    let view;
                    // `counted` is the logical candidate-stream length
                    // every interested query charges to records_scanned;
                    // on a quantized hit it stays the full sealed cluster
                    // count even though `buf` holds only the survivors.
                    let (cands, counted) = if updates.is_none() && cache.is_none() {
                        // A sealed cluster is scored straight off the
                        // (possibly block-cached) partition image.
                        let Some(v) = reader.cluster_view(node) else {
                            continue;
                        };
                        view = v;
                        store.stats().on_read(bytes as u64);
                        store.stats().on_records_read(view.len() as u64);
                        (Candidates::Sealed(&view), view.len() as u64)
                    } else if let Some(qc) = cache.and_then(|c| c.get(pid, node)) {
                        // Quantized hit: promote the union of survivors
                        // across all interested queries, each judged
                        // against its own bound at cluster entry (local
                        // heap bound ∧ shared bound — both are k-th
                        // distances over real candidates, so any record
                        // skipped for every query is provably outside
                        // every final top-k).
                        buf.clear();
                        if let Some(recs) = reader.cluster_records(node) {
                            let thresholds: Vec<f64> = interested
                                .iter()
                                .map(|&qi| {
                                    let own =
                                        locals[qi].as_ref().map_or(f64::INFINITY, |t| t.bound());
                                    own.min(bounds[qi].get())
                                })
                                .collect();
                            for i in 0..qc.len() {
                                let keep = interested.iter().zip(&thresholds).any(|(&qi, &t)| {
                                    queries[qi].len() != qc.series_len()
                                        || !qc.lb_exceeds(i, &queries[qi], t)
                                });
                                if keep {
                                    recs.push_into(i, &mut buf);
                                }
                            }
                            let record_size = (8 + qc.series_len() * 4) as u64;
                            let promoted = buf.len() as u64;
                            store.stats().on_read(promoted * record_size);
                            store.stats().on_records_read(promoted);
                        }
                        (Candidates::Decoded(&buf), qc.len() as u64)
                    } else {
                        // Physical decode; with updates active the sealed
                        // records are tombstone-filtered at decode time and
                        // the delta cluster under the same (partition, node)
                        // key is appended, so everything downstream — the
                        // shared prefilter, the block loop, the per-query
                        // scans — sees one merged candidate stream.
                        buf.clear();
                        let physical = match updates {
                            None => reader.read_cluster_into(node, &mut buf),
                            Some(u) => {
                                let tomb = u.tombstones.read();
                                let p = reader
                                    .read_cluster_into_if(node, &mut buf, |id| !tomb.contains(id));
                                u.delta.read_cluster_into(pid, node, &mut buf, |id| {
                                    !tomb.contains(id)
                                });
                                p
                            }
                        };
                        store.stats().on_read(bytes as u64);
                        store.stats().on_records_read(physical);
                        if let Some(c) = cache {
                            if let Some(qc) = QuantizedCluster::from_buf(&buf) {
                                c.insert(pid, node, qc);
                            }
                        }
                        (Candidates::Decoded(&buf), buf.len() as u64)
                    };
                    let n = cands.len();
                    decoded.fetch_add(n as u64, Ordering::Relaxed);
                    // PAA signatures for the prefilter: computed once per
                    // cluster, shared by every query scanning it — but
                    // only when enough queries share the cluster to
                    // amortise the signature pass.
                    let prefilter = interested.len() >= PREFILTER_MIN_QUERIES;
                    paas.clear();
                    if prefilter {
                        for i in 0..n {
                            cands.paa_into(i, segments, &mut paas, &mut scratch);
                        }
                    }
                    for &qi in interested {
                        if locals[qi].is_none() {
                            locals[qi] = Some(TopK::new(k));
                            touched.push(qi);
                        }
                        scanned[qi].fetch_add(counted, Ordering::Relaxed);
                    }
                    // Score in small record blocks: the block stays
                    // cache-resident while every interested query scans
                    // it. Per query the record visit order is unchanged,
                    // so offers — and results — are identical to one
                    // full pass (see `scan_range`).
                    let mut lo = 0usize;
                    while lo < n {
                        let hi = (lo + SCAN_BLOCK_RECORDS).min(n);
                        for &qi in interested {
                            let top = locals[qi].as_mut().expect("created above");
                            if prefilter
                                && qpaas[qi].len() == segments
                                && queries[qi].len() == series_len
                            {
                                scan_block_prefiltered(
                                    &queries[qi],
                                    &qpaas[qi],
                                    cands,
                                    &paas,
                                    segments,
                                    scale,
                                    lo..hi,
                                    top,
                                    &bounds[qi],
                                );
                            } else {
                                scan_range(&queries[qi], cands, lo..hi, top, &bounds[qi]);
                            }
                        }
                        lo = hi;
                    }
                }
                for qi in touched {
                    let local = locals[qi].take().expect("touched implies created");
                    let mut global = heaps[qi].lock().unwrap();
                    global.merge(local);
                    global.publish_bound(&bounds[qi]);
                }
            });
        }
    });

    ShardScan {
        tops: heaps.into_iter().map(|m| m.into_inner().unwrap()).collect(),
        scanned: scanned.into_iter().map(AtomicU64::into_inner).collect(),
        failed: failed.into_inner().unwrap(),
        partitions_opened: opened.into_inner(),
        records_decoded: decoded.into_inner(),
    }
}

/// Runs the within-partition expansion fallback for one `(store,
/// partition)` pair: opens the partition and scans every cluster the plan
/// did not select (sealed first, then delta-only nodes), offering records
/// into `top`. Returns the records scanned, or `None` when the partition
/// fails to open (the caller counts that shard as degraded rather than
/// aborting the gather).
///
/// A shard fan-out calls this per shard with a **fresh** heap and merges
/// it back: [`TopK::merge`] does not deduplicate, so expansion candidates
/// must never share a heap with records already merged globally — shard
/// stores are record-disjoint and expansion clusters are disjoint from
/// planned ones, so a fresh local per `(shard, partition)` is exactly
/// right.
pub fn expand_shard_partition<S: PartitionStore>(
    store: &S,
    pid: PartitionId,
    planned: &[TrieNodeId],
    query: &[f32],
    top: &mut TopK,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> Option<u64> {
    let Ok(reader) = store.open(pid) else {
        return None;
    };
    Some(expand_partition(
        &reader,
        pid,
        planned,
        query,
        top,
        store.stats(),
        updates,
        quant,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRequest;
    use crate::engine::KnnEngine;
    use climber_dfs::store::MemStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_series::dataset::Dataset;
    use climber_series::gen::Domain;

    fn build(n: usize) -> (IndexSkeleton, MemStore, Dataset) {
        let ds = Domain::RandomWalk.generate(n, 17);
        let store = MemStore::new();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(80)
            .with_alpha(0.4)
            .with_epsilon(1)
            .with_seed(5)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    #[test]
    fn plan_queries_matches_sequential_planning() {
        let (skeleton, store, ds) = build(400);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries: Vec<Vec<f32>> = (0..8u64).map(|i| ds.get(i * 37).to_vec()).collect();
        let plans = plan_queries(&skeleton, &queries, 10, BatchStrategy::Knn, None);
        for (q, plan) in queries.iter().zip(&plans) {
            assert_eq!(plan, &engine.knn(q, 10).plan);
        }
        // A cap truncates exactly like a request budget.
        let capped = plan_queries(&skeleton, &queries, 10, BatchStrategy::OdSmallest, Some(1));
        assert!(capped.iter().all(|p| p.num_partitions() <= 1));
    }

    #[test]
    fn scan_shard_heaps_match_batch_outcomes() {
        let (skeleton, store, ds) = build(500);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries: Vec<Vec<f32>> = (0..10u64).map(|i| ds.get(i * 41).to_vec()).collect();
        let k = 8;
        let plans = plan_queries(
            &skeleton,
            &queries,
            k,
            BatchStrategy::Adaptive { factor: 4 },
            None,
        );
        let bounds: Vec<SharedBound> = (0..queries.len()).map(|_| SharedBound::new()).collect();
        let scan = scan_shard(&store, &queries, k, &plans, &bounds, None, None);
        assert!(scan.failed.is_empty());
        let batch = engine.batch(&BatchRequest::adaptive(&queries, k, 4));
        for (qi, top) in scan.tops.into_iter().enumerate() {
            // Heaps that reached k need no expansion: they already ARE
            // the per-query outcome of the batch engine.
            if top.len() >= k {
                assert_eq!(top.into_sorted(), batch.outcomes[qi].results, "query {qi}");
                assert_eq!(scan.scanned[qi], batch.outcomes[qi].records_scanned);
            }
        }
    }

    /// Delegates to a store and logs each open as `(partition, resident
    /// when opened)`.
    struct Logged<'a, S> {
        inner: &'a S,
        opens: Mutex<Vec<(PartitionId, bool)>>,
    }

    impl<'a, S: PartitionStore> Logged<'a, S> {
        fn new(inner: &'a S) -> Self {
            Self {
                inner,
                opens: Mutex::new(Vec::new()),
            }
        }

        fn take(&self) -> Vec<(PartitionId, bool)> {
            std::mem::take(&mut self.opens.lock().unwrap())
        }
    }

    impl<S: PartitionStore> PartitionStore for Logged<'_, S> {
        fn put(&self, id: PartitionId, bytes: bytes::Bytes) -> std::io::Result<()> {
            self.inner.put(id, bytes)
        }

        fn open(&self, id: PartitionId) -> std::io::Result<climber_dfs::format::PartitionReader> {
            let resident = self.inner.is_resident(id);
            self.opens.lock().unwrap().push((id, resident));
            self.inner.open(id)
        }

        fn ids(&self) -> Vec<PartitionId> {
            self.inner.ids()
        }

        fn stats(&self) -> &climber_dfs::stats::IoStats {
            self.inner.stats()
        }

        fn is_resident(&self, id: PartitionId) -> bool {
            self.inner.is_resident(id)
        }
    }

    fn texmex_queries(ds: &Dataset, range: std::ops::Range<u64>) -> Vec<Vec<f32>> {
        range.map(|i| ds.get(i * 7 % 1_500).to_vec()).collect()
    }

    #[test]
    fn batches_hit_what_the_previous_batch_left_resident() {
        use climber_dfs::page::{charge_of, BlockCache, CacheConfig};
        use climber_dfs::store::DiskStore;
        use std::sync::Arc;
        let dir =
            std::env::temp_dir().join(format!("climber-query-resident-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ds = Domain::TexMex.generate(1_500, 23);
        let disk = DiskStore::new(&dir).unwrap();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(40)
            .with_seed(5)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &disk);
        // A block cache holding about a quarter of the index.
        let index_bytes: usize = disk
            .ids()
            .into_iter()
            .map(|pid| charge_of(disk.open(pid).unwrap().raw_bytes().len()))
            .sum();
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(index_bytes / 4));
        disk.attach_cache(Arc::new(cache));
        let store = Logged::new(&disk);
        let engine = KnnEngine::new(&skeleton, &store);
        let (k, factor) = (5, 4);

        let warm_up = texmex_queries(&ds, 0..48);
        engine.batch(&BatchRequest::adaptive(&warm_up, k, factor).with_threads(1));
        let resident: BTreeSet<PartitionId> = disk
            .ids()
            .into_iter()
            .filter(|&p| disk.is_resident(p))
            .collect();
        store.take();
        let queries = texmex_queries(&ds, 48..96);
        let batch = engine.batch(&BatchRequest::adaptive(&queries, k, factor).with_threads(1));
        // The planned scan opens each planned partition once; any opens
        // after it are the expansion fallback, which replays the
        // sequential engine's plan-order loop and is not reordered.
        let planned: BTreeSet<PartitionId> = batch
            .outcomes
            .iter()
            .flat_map(|o| o.plan.reads.keys().copied())
            .collect();
        let opens = store.take();
        let scan = &opens[..planned.len()];
        assert!(scan.iter().all(|(p, _)| planned.contains(p)));

        let reused = scan.iter().filter(|(p, _)| resident.contains(p)).count();
        assert!(
            reused > 0,
            "the batches share no partition: the test proves nothing"
        );
        assert!(
            scan.iter().any(|&(_, hit)| !hit),
            "the batch never missed: the cache is not tight"
        );
        for &(pid, hit) in scan {
            assert!(
                hit || !resident.contains(&pid),
                "partition {pid} was resident when the batch started, yet missed"
            );
        }
        for (q, out) in queries.iter().zip(&batch.outcomes) {
            assert_eq!(out, &engine.knn_adaptive(q, k, factor));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_without_residency_keep_ascending_partition_order() {
        let (skeleton, mem, ds) = build(500);
        let store = Logged::new(&mem);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries: Vec<Vec<f32>> = (0..16u64).map(|i| ds.get(i * 29).to_vec()).collect();
        let batch = engine.batch(&BatchRequest::adaptive(&queries, 5, 4).with_threads(1));
        let planned: BTreeSet<PartitionId> = batch
            .outcomes
            .iter()
            .flat_map(|o| o.plan.reads.keys().copied())
            .collect();
        let opens: Vec<PartitionId> = store.take().into_iter().map(|(p, _)| p).collect();
        assert!(planned.len() > 1);
        assert_eq!(
            opens[..planned.len()],
            planned.iter().copied().collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn expand_shard_partition_reports_missing_partition() {
        let (_, store, _) = build(200);
        let mut top = TopK::new(3);
        let missing = expand_shard_partition(&store, 9_999, &[], &[0.0; 4], &mut top, None, None);
        assert!(missing.is_none());
        let pid = store.ids()[0];
        let q = vec![0.0f32; store.open(pid).unwrap().series_len()];
        let n = expand_shard_partition(&store, pid, &[], &q, &mut top, None, None);
        assert!(n.is_some());
        assert_eq!(n.unwrap(), store.open(pid).unwrap().record_count());
    }
}
