//! Batched, multi-threaded query execution (the QPS-oriented engine).
//!
//! The per-query engine answers one query at a time: plan, then walk the
//! plan's partitions, decoding every selected cluster for that one query.
//! Under a query *stream* this wastes most of the I/O and decode work —
//! nearby queries select overlapping partitions, and each one re-opens and
//! re-decodes the same bytes.
//!
//! [`KnnEngine::batch`](crate::engine::KnnEngine::batch) instead takes a
//! whole [`BatchRequest`] and executes it **partition-major**:
//!
//! 1. every query is planned independently (in parallel — planning is pure
//!    CPU over the in-memory skeleton);
//! 2. the union of all plans is regrouped *by partition*: for each
//!    partition, which clusters are needed, and for each cluster, which
//!    queries selected it;
//! 3. partitions are fanned out across threads via the work-queue
//!    [`rayon::scope`], block-cache-resident partitions first. Each
//!    partition is opened **once**, and each needed cluster is scored
//!    against every interested query straight from its record bytes in
//!    the partition image (only clusters merged with updates or served
//!    through the quantized cache are decoded, once, into a reused
//!    buffer) — in small cache-resident record blocks, behind a
//!    per-cluster Keogh PAA prefilter whose signatures are computed once
//!    and shared by all the cluster's queries (the soundness argument
//!    lives on
//!    `scan_block_prefiltered` in [`crate::scatter`], where phases 1–3
//!    now live so a sharded index can run the identical scan per shard).
//!    Each query keeps its own `TopK` heap and
//!    early-abandon bound; workers refining the same query on different
//!    partitions cooperate through a lock-free shared bound;
//! 4. per-query heaps are merged and the within-partition expansion
//!    fallback (rarely needed) replays the sequential engine's exact loop.
//!
//! **Equivalence guarantee:** the returned [`QueryOutcome`]s are
//! bit-identical — results, distances, `records_scanned`,
//! `partitions_opened`, and plan — to calling the sequential engine once
//! per query, for any batch size and thread count. The distance kernel,
//! tie-breaks, and expansion order are shared with the per-query path, and
//! a [`TopK`](climber_series::topk::TopK)'s content is insertion-order
//! independent; threading only
//! changes how much early-abandon work is skipped, never what survives.
//! The property test `batch_equivalence.rs` asserts this across random
//! datasets, batch sizes, and thread counts.

use crate::plan::QueryOutcome;
use crate::scatter::{expand_shard_partition, plan_queries, scan_shard, ShardScan};
use crate::updates::UpdateView;
use climber_dfs::quant::QuantCache;
use climber_dfs::store::PartitionStore;
use climber_index::skeleton::IndexSkeleton;
use climber_series::topk::SharedBound;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Which search strategy a batch runs (one strategy for the whole batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// CLIMBER-kNN (Algorithm 3) per query.
    Knn,
    /// CLIMBER-kNN-Adaptive with the given partition-cap factor
    /// (2 = Adaptive-2X, 4 = Adaptive-4X) per query.
    Adaptive {
        /// Partition cap multiplier over the plain plan.
        factor: usize,
    },
    /// The OD-Smallest full-group scan per query (ablation baseline).
    OdSmallest,
}

impl BatchStrategy {
    /// Whether this strategy uses the within-partition expansion fallback
    /// when the planned scan comes up short of `k`. Public so a sharded
    /// gather loop can replay the same fallback decision the single-store
    /// executor makes.
    pub fn expands(self) -> bool {
        !matches!(self, BatchStrategy::OdSmallest)
    }
}

/// A batch of kNN queries to execute together, partition-major.
///
/// ```
/// use climber_dfs::store::MemStore;
/// use climber_index::builder::IndexBuilder;
/// use climber_index::config::IndexConfig;
/// use climber_query::batch::BatchRequest;
/// use climber_query::engine::KnnEngine;
/// use climber_series::gen::Domain;
///
/// let ds = Domain::RandomWalk.generate(400, 7);
/// let store = MemStore::new();
/// let cfg = IndexConfig::default().with_pivots(32).with_capacity(80);
/// let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
/// let engine = KnnEngine::new(&skeleton, &store);
///
/// let queries: Vec<Vec<f32>> = (0..8u64).map(|i| ds.get(i * 50).to_vec()).collect();
/// let batch = engine.batch(&BatchRequest::knn(&queries, 10).with_threads(4));
///
/// // Identical to running the sequential engine once per query.
/// assert_eq!(batch.outcomes.len(), 8);
/// for (q, out) in queries.iter().zip(&batch.outcomes) {
///     assert_eq!(*out, engine.knn(q, 10));
/// }
/// // ... while doing strictly less physical work.
/// assert!(batch.records_decoded <= batch.records_scanned);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    queries: &'a [Vec<f32>],
    k: usize,
    strategy: BatchStrategy,
    threads: usize,
    partition_cap: Option<usize>,
}

impl<'a> BatchRequest<'a> {
    /// A batch running CLIMBER-kNN for every query.
    pub fn knn(queries: &'a [Vec<f32>], k: usize) -> Self {
        Self::new(queries, k, BatchStrategy::Knn)
    }

    /// A batch running CLIMBER-kNN-Adaptive (`factor` = 2 or 4 in the
    /// paper) for every query.
    pub fn adaptive(queries: &'a [Vec<f32>], k: usize, factor: usize) -> Self {
        Self::new(queries, k, BatchStrategy::Adaptive { factor })
    }

    /// A batch running the OD-Smallest ablation scan for every query.
    pub fn od_smallest(queries: &'a [Vec<f32>], k: usize) -> Self {
        Self::new(queries, k, BatchStrategy::OdSmallest)
    }

    /// A batch with an explicit [`BatchStrategy`]. The queries are
    /// borrowed, not copied — a request is a cheap view a serving loop
    /// can rebuild per burst.
    ///
    /// # Panics
    /// If `k == 0`, or the strategy is `Adaptive` with `factor == 0`.
    pub fn new(queries: &'a [Vec<f32>], k: usize, strategy: BatchStrategy) -> Self {
        assert!(k > 0, "k must be positive");
        if let BatchStrategy::Adaptive { factor } = strategy {
            assert!(factor > 0, "factor must be positive");
        }
        Self {
            queries,
            k,
            strategy,
            threads: 0,
            partition_cap: None,
        }
    }

    /// Sets the worker thread count (`0` = use the machine's available
    /// parallelism, the default). The vendored rayon shim additionally
    /// caps live workers at the hardware thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The queries, in result order.
    pub fn queries(&self) -> &'a [Vec<f32>] {
        self.queries
    }

    /// The answer size per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The strategy applied to every query.
    pub fn strategy(&self) -> BatchStrategy {
        self.strategy
    }

    /// The configured worker thread count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Caps every per-query plan at `cap` distinct partitions, truncated
    /// deterministically (ascending partition id) before execution — the
    /// batch-side counterpart of a [`SearchRequest`] budget, applied
    /// identically so budgeted outcomes stay bit-identical between the
    /// sequential and the batched executor.
    ///
    /// [`SearchRequest`]: crate::search::SearchRequest
    #[must_use]
    pub fn with_partition_cap(mut self, cap: usize) -> Self {
        self.partition_cap = Some(cap);
        self
    }

    /// The configured per-plan partition cap, if any.
    pub fn partition_cap(&self) -> Option<usize> {
        self.partition_cap
    }
}

/// The result of executing a [`BatchRequest`]: per-query outcomes plus the
/// batch-level physical I/O the partition-major execution actually paid.
///
/// `outcomes[i]` is bit-identical to running query `i` alone through the
/// sequential engine; the aggregate counters show the sharing win:
/// `records_scanned` is the *logical* work (what per-query execution would
/// read), `records_decoded` the *physical* work after each cluster is
/// read once for all its queries.
///
/// ```
/// use climber_dfs::store::MemStore;
/// use climber_index::builder::IndexBuilder;
/// use climber_index::config::IndexConfig;
/// use climber_query::batch::BatchRequest;
/// use climber_query::engine::KnnEngine;
/// use climber_series::gen::Domain;
///
/// let ds = Domain::RandomWalk.generate(300, 11);
/// let store = MemStore::new();
/// let (skeleton, _) = IndexBuilder::new(
///     IndexConfig::default().with_pivots(32).with_capacity(60),
/// )
/// .build(&ds, &store);
/// let engine = KnnEngine::new(&skeleton, &store);
///
/// // 20 queries drawn from the same region overlap heavily in their
/// // plans, so each decoded record serves several per-query scans.
/// let queries: Vec<Vec<f32>> = (0..20u64).map(|i| ds.get(i % 10).to_vec()).collect();
/// let outcome = engine.batch(&BatchRequest::adaptive(&queries, 5, 4));
///
/// assert_eq!(outcome.outcomes.len(), 20);
/// assert!(outcome.sharing_factor() >= 1.0);
/// assert_eq!(
///     outcome.records_scanned,
///     outcome.outcomes.iter().map(|o| o.records_scanned).sum::<u64>(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per query, in request order.
    pub outcomes: Vec<QueryOutcome>,
    /// Physical partition opens performed (each shared partition opened
    /// once, plus any re-opens by the expansion fallback).
    pub partitions_opened: usize,
    /// Records physically decoded from partition bytes.
    pub records_decoded: u64,
    /// Sum of the per-query `records_scanned` (the logical work).
    pub records_scanned: u64,
}

impl BatchOutcome {
    /// How many times each physically decoded record was reused across
    /// queries on average (`>= 1`; higher = more sharing).
    pub fn sharing_factor(&self) -> f64 {
        if self.records_decoded == 0 {
            1.0
        } else {
            self.records_scanned as f64 / self.records_decoded as f64
        }
    }
}

/// Executes a batch request against a skeleton + store, merging the
/// mutable segments of `updates` (delta clusters + tombstone filter) into
/// every cluster scan when present. Called through
/// [`KnnEngine::batch`](crate::engine::KnnEngine::batch).
pub(crate) fn execute<S: PartitionStore>(
    skeleton: &IndexSkeleton,
    store: &S,
    req: &BatchRequest<'_>,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> BatchOutcome {
    let nq = req.queries.len();
    if nq == 0 {
        return BatchOutcome {
            outcomes: Vec::new(),
            partitions_opened: 0,
            records_decoded: 0,
            records_scanned: 0,
        };
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(req.threads)
        .build()
        .expect("thread pool");
    pool.install(|| execute_pooled(skeleton, store, req, updates, quant))
}

fn execute_pooled<S: PartitionStore>(
    skeleton: &IndexSkeleton,
    store: &S,
    req: &BatchRequest<'_>,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> BatchOutcome {
    let nq = req.queries.len();
    let k = req.k;

    // Phase 0 — plan every query independently, in parallel (shared with
    // the sharded executor, which plans once for all shards).
    let plans = plan_queries(skeleton, req.queries, k, req.strategy, req.partition_cap);

    // Phase 1 — the planned partition-major scan. The single-store batch
    // is the one-shard special case of the scatter path: one fresh bound
    // array, one store, the same fan-out loop.
    let bounds: Vec<SharedBound> = (0..nq).map(|_| SharedBound::new()).collect();
    let ShardScan {
        tops,
        scanned,
        failed,
        partitions_opened: opened,
        records_decoded,
    } = scan_shard(store, req.queries, k, &plans, &bounds, updates, quant);
    let decoded = AtomicU64::new(records_decoded);

    // Phase 2 — finalize each query (in parallel across queries): replay
    // the sequential engine's within-partition expansion when short of k,
    // then sort. Expansion re-opens the partition (the sequential path
    // still holds it open), which only affects physical stats, not the
    // outcome.
    let items: Vec<(usize, _)> = tops.into_iter().enumerate().collect();
    let expands = req.strategy.expands();
    let reopens = AtomicUsize::new(0);
    let outcomes: Vec<QueryOutcome> = items
        .into_par_iter()
        .map(|(qi, mut top)| {
            let plan = &plans[qi];
            let query = &req.queries[qi];
            let partitions_opened = plan
                .reads
                .keys()
                .filter(|pid| !failed.contains(pid))
                .count();
            let mut records_scanned = scanned[qi];
            if expands && top.len() < k {
                for (pid, planned) in &plan.reads {
                    if failed.contains(pid) {
                        continue;
                    }
                    let Some(n) = expand_shard_partition(
                        store, *pid, planned, query, &mut top, updates, quant,
                    ) else {
                        continue;
                    };
                    reopens.fetch_add(1, Ordering::Relaxed);
                    records_scanned += n;
                    // Expansion decodes per query, so it counts as
                    // physical work too — like the re-opens above.
                    decoded.fetch_add(n, Ordering::Relaxed);
                    if top.len() >= k {
                        break;
                    }
                }
            }
            QueryOutcome {
                results: top.into_sorted(),
                partitions_opened,
                records_scanned,
                plan: plan.clone(),
            }
        })
        .collect();

    let records_scanned = outcomes.iter().map(|o| o.records_scanned).sum();
    BatchOutcome {
        outcomes,
        partitions_opened: opened + reopens.load(Ordering::Relaxed),
        records_decoded: decoded.load(Ordering::Relaxed),
        records_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KnnEngine;
    use climber_dfs::store::MemStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_series::dataset::Dataset;
    use climber_series::gen::Domain;

    fn build(domain: Domain, n: usize) -> (IndexSkeleton, MemStore, Dataset) {
        let ds = domain.generate(n, 91);
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

    fn queries_of(ds: &Dataset, n: usize) -> Vec<Vec<f32>> {
        (0..n as u64)
            .map(|i| ds.get((i * 37) % ds.num_series() as u64).to_vec())
            .collect()
    }

    #[test]
    fn batch_knn_identical_to_sequential() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries = queries_of(&ds, 12);
        for threads in [1, 2, 5] {
            let batch = engine.batch(&BatchRequest::knn(&queries, 10).with_threads(threads));
            assert_eq!(batch.outcomes.len(), queries.len());
            for (q, out) in queries.iter().zip(&batch.outcomes) {
                assert_eq!(out, &engine.knn(q, 10), "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_adaptive_identical_to_sequential() {
        let (skeleton, store, ds) = build(Domain::Eeg, 350);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries = queries_of(&ds, 9);
        // large k forces the adaptive cross-partition expansion AND the
        // within-partition fallback
        let batch = engine.batch(&BatchRequest::adaptive(&queries, 120, 4).with_threads(3));
        for (q, out) in queries.iter().zip(&batch.outcomes) {
            assert_eq!(out, &engine.knn_adaptive(q, 120, 4));
        }
    }

    #[test]
    fn batch_od_smallest_identical_to_sequential() {
        let (skeleton, store, ds) = build(Domain::Dna, 300);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries = queries_of(&ds, 6);
        let batch = engine.batch(&BatchRequest::od_smallest(&queries, 25).with_threads(2));
        for (q, out) in queries.iter().zip(&batch.outcomes) {
            assert_eq!(out, &engine.od_smallest(q, 25));
        }
    }

    #[test]
    fn batch_decodes_less_than_it_scans() {
        let (skeleton, store, ds) = build(Domain::TexMex, 500);
        let engine = KnnEngine::new(&skeleton, &store);
        // clustered data: many queries land in the same partitions
        let queries = queries_of(&ds, 40);
        let batch = engine.batch(&BatchRequest::adaptive(&queries, 10, 4));
        assert!(batch.records_decoded > 0);
        assert!(
            batch.records_decoded < batch.records_scanned,
            "no sharing: decoded {} vs scanned {}",
            batch.records_decoded,
            batch.records_scanned
        );
        assert!(batch.sharing_factor() > 1.0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (skeleton, store, _) = build(Domain::RandomWalk, 200);
        let engine = KnnEngine::new(&skeleton, &store);
        let batch = engine.batch(&BatchRequest::knn(&[], 5));
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.partitions_opened, 0);
    }

    #[test]
    fn single_query_batch_matches_single_query() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 300);
        let engine = KnnEngine::new(&skeleton, &store);
        let q = ds.get(11).to_vec();
        let qs = vec![q.clone()];
        let batch = engine.batch(&BatchRequest::knn(&qs, 7).with_threads(8));
        assert_eq!(batch.outcomes[0], engine.knn(&q, 7));
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let (skeleton, store, ds) = build(Domain::Eeg, 300);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries = queries_of(&ds, 8);
        let a = engine.batch(&BatchRequest::adaptive(&queries, 30, 2).with_threads(1));
        let b = engine.batch(&BatchRequest::adaptive(&queries, 30, 2).with_threads(4));
        let c = engine.batch(&BatchRequest::adaptive(&queries, 30, 2).with_threads(8));
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(b.outcomes, c.outcomes);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        BatchRequest::knn(&[], 0);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_factor_rejected() {
        BatchRequest::adaptive(&[], 5, 0);
    }
}
