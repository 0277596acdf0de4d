//! The query engine: one object tying skeleton + store + the three search
//! strategies together.

use crate::adaptive::plan_adaptive;
use crate::batch::{BatchOutcome, BatchRequest, BatchStrategy};
use crate::knn::plan_knn;
use crate::od_smallest::plan_od_smallest;
use crate::plan::QueryOutcome;
use crate::refine::refine;
use crate::search::{SearchMode, SearchRequest};
use crate::updates::UpdateView;
use climber_dfs::quant::QuantCache;
use climber_dfs::store::PartitionStore;
use climber_index::skeleton::IndexSkeleton;
use climber_series::resample::resample_linear;

/// Executes kNN queries against a built CLIMBER index.
///
/// By default the engine serves the sealed partitions alone. Attaching an
/// [`UpdateView`] with [`with_updates`](Self::with_updates) makes every
/// search strategy — sequential and batched — merge the delta segment's
/// clusters into the candidate stream and filter tombstoned ids before
/// the top-k heap.
#[derive(Debug, Clone, Copy)]
pub struct KnnEngine<'a, S: PartitionStore> {
    skeleton: &'a IndexSkeleton,
    store: &'a S,
    updates: Option<UpdateView<'a>>,
    quant: Option<&'a QuantCache>,
}

impl<'a, S: PartitionStore> KnnEngine<'a, S> {
    /// Creates an engine over a skeleton and its partition store.
    pub fn new(skeleton: &'a IndexSkeleton, store: &'a S) -> Self {
        Self {
            skeleton,
            store,
            updates: None,
            quant: None,
        }
    }

    /// Attaches the index's mutable segments: every query merges delta
    /// clusters and filters tombstones from here on.
    #[must_use]
    pub fn with_updates(mut self, updates: UpdateView<'a>) -> Self {
        self.updates = Some(updates);
        self
    }

    /// Attaches a quantized record cache: sealed cluster scans are served
    /// from 8-bit codes with exact promotion of the survivors whenever the
    /// cache is enabled. Results stay bit-identical either way — the cache
    /// only changes how much physical decode work a scan pays.
    #[must_use]
    pub fn with_quant(mut self, quant: &'a QuantCache) -> Self {
        self.quant = Some(quant);
        self
    }

    /// The skeleton in use.
    pub fn skeleton(&self) -> &IndexSkeleton {
        self.skeleton
    }

    /// The attached update view, if any.
    pub fn updates(&self) -> Option<UpdateView<'a>> {
        self.updates
    }

    /// CLIMBER-kNN (Algorithm 3): single best trie node, within-partition
    /// expansion when short of `k`.
    pub fn knn(&self, query: &[f32], k: usize) -> QueryOutcome {
        let sig = self.skeleton.extract_signature(query);
        let plan = plan_knn(self.skeleton, &sig, query_seed(query));
        refine(self.store, &plan, query, k, true, self.updates, self.quant)
    }

    /// CLIMBER-kNN-Adaptive with partition cap `factor ×` the plain plan
    /// (2 = Adaptive-2X, 4 = Adaptive-4X).
    pub fn knn_adaptive(&self, query: &[f32], k: usize, factor: usize) -> QueryOutcome {
        let sig = self.skeleton.extract_signature(query);
        let plan = plan_adaptive(self.skeleton, &sig, k, factor, query_seed(query));
        refine(self.store, &plan, query, k, true, self.updates, self.quant)
    }

    /// OD-Smallest: scan every partition of every OD-tied group
    /// (the Figure 11(b) ablation baseline).
    pub fn od_smallest(&self, query: &[f32], k: usize) -> QueryOutcome {
        let sig = self.skeleton.extract_signature(query);
        let plan = plan_od_smallest(self.skeleton, &sig);
        refine(self.store, &plan, query, k, false, self.updates, self.quant)
    }

    /// Executes a whole [`BatchRequest`] partition-major across threads:
    /// each partition selected by *any* query of the batch is opened once,
    /// and each needed cluster read once and scored against every query
    /// that selected it. Outcomes are bit-identical to calling
    /// [`knn`](Self::knn) / [`knn_adaptive`](Self::knn_adaptive)
    /// / [`od_smallest`](Self::od_smallest) once per query — see
    /// [`crate::batch`] for the execution model and the throughput
    /// characteristics.
    pub fn batch(&self, request: &BatchRequest<'_>) -> BatchOutcome {
        crate::batch::execute(self.skeleton, self.store, request, self.updates, self.quant)
    }

    /// Executes one unified [`SearchRequest`] sequentially.
    ///
    /// This is the single entry point behind every strategy-specific
    /// method: the request's [`SearchMode`] selects the planner,
    /// [`SearchMode::Resampled`] first stretches the query to the indexed
    /// series length, and an optional budget truncates the plan
    /// (deterministically, ascending partition id) before refinement.
    ///
    /// # Panics
    /// If [`SearchRequest::validate`] fails — network callers validate
    /// first and map failures onto a typed bad-request response.
    pub fn search(&self, req: &SearchRequest) -> QueryOutcome {
        if let Err(e) = req.validate() {
            panic!("{e}");
        }
        let strategy = strategy_of(req.mode);
        if matches!(req.mode, SearchMode::Resampled(_)) {
            let target = self.series_len_hint().unwrap_or(req.query.len());
            let full = resample_linear(&req.query, target);
            self.search_planned(&full, req.k, strategy, req.budget)
        } else {
            self.search_planned(&req.query, req.k, strategy, req.budget)
        }
    }

    /// Executes a slice of [`SearchRequest`]s through the partition-major
    /// batch engine.
    ///
    /// Requests with the same `(mode strategy, k, budget)` shape are
    /// grouped into one [`BatchRequest`] each, so every partition any of
    /// them selects is opened once and every shared cluster read once.
    /// Outcomes come back in request order and are **bit-identical** to
    /// calling [`search`](Self::search) once per request — the batch
    /// engine's equivalence guarantee, with budgets applied identically on
    /// both paths.
    ///
    /// # Panics
    /// If any request fails [`SearchRequest::validate`].
    pub fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        if reqs.len() <= 1 {
            return reqs.iter().map(|r| self.search(r)).collect();
        }
        for req in reqs {
            if let Err(e) = req.validate() {
                panic!("{e}");
            }
        }
        // Group compatible requests; linear scan because batches are small
        // (a serving micro-batch) and `BatchStrategy` is a tiny Copy key.
        type GroupKey = (BatchStrategy, usize, Option<u32>);
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let key = (strategy_of(req.mode), req.k, req.budget);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        // The indexed length costs a partition open, so it is looked up
        // only once a resampled request needs it.
        let len_hint = std::cell::OnceCell::new();
        let mut outcomes: Vec<Option<QueryOutcome>> = reqs.iter().map(|_| None).collect();
        for ((strategy, k, budget), idxs) in groups {
            let queries: Vec<Vec<f32>> = idxs
                .iter()
                .map(|&i| {
                    let req = &reqs[i];
                    if matches!(req.mode, SearchMode::Resampled(_)) {
                        let target = len_hint.get_or_init(|| self.series_len_hint());
                        resample_linear(&req.query, target.unwrap_or(req.query.len()))
                    } else {
                        req.query.clone()
                    }
                })
                .collect();
            let mut breq = BatchRequest::new(&queries, k, strategy);
            if let Some(b) = budget {
                breq = breq.with_partition_cap(b as usize);
            }
            let batch = self.batch(&breq);
            for (idx, out) in idxs.into_iter().zip(batch.outcomes) {
                outcomes[idx] = Some(out);
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every request belongs to exactly one group"))
            .collect()
    }

    /// Plans with the given strategy, applies the budget, refines.
    fn search_planned(
        &self,
        query: &[f32],
        k: usize,
        strategy: BatchStrategy,
        budget: Option<u32>,
    ) -> QueryOutcome {
        let sig = self.skeleton.extract_signature(query);
        let seed = query_seed(query);
        let mut plan = match strategy {
            BatchStrategy::Knn => plan_knn(self.skeleton, &sig, seed),
            BatchStrategy::Adaptive { factor } => {
                plan_adaptive(self.skeleton, &sig, k, factor, seed)
            }
            BatchStrategy::OdSmallest => plan_od_smallest(self.skeleton, &sig),
        };
        if let Some(b) = budget {
            plan.truncate_partitions(b as usize);
        }
        refine(
            self.store,
            &plan,
            query,
            k,
            strategy.expands(),
            self.updates,
            self.quant,
        )
    }

    /// The indexed series length, recovered from any stored partition
    /// (`None` on an empty store).
    fn series_len_hint(&self) -> Option<usize> {
        let pid = *self.store.ids().first()?;
        self.store.open(pid).ok().map(|r| r.series_len())
    }
}

/// Maps a request's [`SearchMode`] onto the batch engine's strategy; the
/// resample preprocessing of [`SearchMode::Resampled`] happens before the
/// strategy runs, so it maps to plain Adaptive.
pub fn strategy_of(mode: SearchMode) -> BatchStrategy {
    match mode {
        SearchMode::Exact => BatchStrategy::Knn,
        SearchMode::Adaptive(f) | SearchMode::Resampled(f) => {
            BatchStrategy::Adaptive { factor: f as usize }
        }
        SearchMode::Smallest => BatchStrategy::OdSmallest,
    }
}

/// Deterministic per-query seed for tie-breaks: hash of the query bytes.
pub(crate) fn query_seed(query: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in query {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::store::MemStore;
    use climber_index::builder::IndexBuilder;
    use climber_index::config::IndexConfig;
    use climber_series::gen::{query_workload, Domain};
    use climber_series::ground_truth::exact_knn;
    use climber_series::recall::recall_of_results;

    fn build(
        domain: Domain,
        n: usize,
    ) -> (IndexSkeleton, MemStore, climber_series::dataset::Dataset) {
        let ds = domain.generate(n, 47);
        let store = MemStore::new();
        let cfg = IndexConfig::default()
            .with_paa_segments(8)
            .with_pivots(48)
            .with_prefix_len(6)
            .with_capacity(80)
            .with_alpha(0.4)
            .with_epsilon(1)
            .with_seed(21)
            .with_workers(2);
        let (skeleton, _) = IndexBuilder::new(cfg).build(&ds, &store);
        (skeleton, store, ds)
    }

    #[test]
    fn self_queries_find_themselves() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let engine = KnnEngine::new(&skeleton, &store);
        let mut found = 0;
        for qid in query_workload(&ds, 20, 1) {
            let out = engine.knn(ds.get(qid), 10);
            if out.results.iter().any(|&(id, d)| id == qid && d == 0.0) {
                found += 1;
            }
        }
        // The query IS an indexed record; CLIMBER's plan covers the node
        // the record was placed under whenever the primary group matches,
        // which is the overwhelming majority of self-queries.
        assert!(found >= 16, "only {found}/20 self-queries found themselves");
    }

    #[test]
    fn knn_returns_k_results_sorted() {
        let (skeleton, store, ds) = build(Domain::Eeg, 300);
        let engine = KnnEngine::new(&skeleton, &store);
        let out = engine.knn(ds.get(5), 25);
        assert_eq!(out.results.len(), 25);
        for w in out.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn recall_beats_random_partition_guessing() {
        let (skeleton, store, ds) = build(Domain::TexMex, 500);
        let engine = KnnEngine::new(&skeleton, &store);
        // k small relative to n: at 500 records the 20th "neighbour" is
        // already nearly random, so probe the regime the index is for.
        let k = 5;
        let mut total = 0.0;
        let mut scanned = 0u64;
        let queries = query_workload(&ds, 15, 2);
        for &qid in &queries {
            let out = engine.knn_adaptive(ds.get(qid), k, 4);
            let exact = exact_knn(&ds, ds.get(qid), k);
            total += recall_of_results(&out.results, &exact);
            scanned += out.records_scanned;
        }
        let mean = total / queries.len() as f64;
        let frac = scanned as f64 / (queries.len() as f64 * 500.0);
        // Clustered SIFT-like data is CLIMBER's best case: recall must be
        // well above the fraction of data actually scanned.
        assert!(mean > 0.45, "mean recall {mean:.3} too low");
        assert!(
            mean > 1.5 * frac,
            "no locality lift: recall {mean:.3} vs scanned {frac:.3}"
        );
    }

    #[test]
    fn adaptive_recall_at_least_knn_recall_on_average() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
        let engine = KnnEngine::new(&skeleton, &store);
        let k = 120; // larger than most trie nodes → adaptive should help
        let queries = query_workload(&ds, 12, 3);
        let (mut r_knn, mut r_adp) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            r_knn += recall_of_results(&engine.knn(ds.get(qid), k).results, &exact);
            r_adp += recall_of_results(&engine.knn_adaptive(ds.get(qid), k, 4).results, &exact);
        }
        assert!(
            r_adp >= r_knn - 1e-9,
            "adaptive {} worse than knn {}",
            r_adp,
            r_knn
        );
    }

    #[test]
    fn od_smallest_reads_most_and_recalls_most() {
        let (skeleton, store, ds) = build(Domain::Dna, 400);
        let engine = KnnEngine::new(&skeleton, &store);
        let k = 50;
        let queries = query_workload(&ds, 10, 4);
        let (mut scan_knn, mut scan_ods) = (0u64, 0u64);
        let (mut rec_knn, mut rec_ods) = (0.0, 0.0);
        for &qid in &queries {
            let exact = exact_knn(&ds, ds.get(qid), k);
            let a = engine.knn(ds.get(qid), k);
            let b = engine.od_smallest(ds.get(qid), k);
            scan_knn += a.records_scanned;
            scan_ods += b.records_scanned;
            rec_knn += recall_of_results(&a.results, &exact);
            rec_ods += recall_of_results(&b.results, &exact);
        }
        assert!(
            scan_ods >= scan_knn,
            "OD-Smallest must scan at least as much"
        );
        assert!(
            rec_ods >= rec_knn - 1e-9,
            "OD-Smallest must recall at least as much"
        );
    }

    #[test]
    fn queries_are_deterministic() {
        let (skeleton, store, ds) = build(Domain::Eeg, 200);
        let engine = KnnEngine::new(&skeleton, &store);
        let q = ds.get(9);
        assert_eq!(engine.knn(q, 10), engine.knn(q, 10));
        assert_eq!(engine.knn_adaptive(q, 50, 2), engine.knn_adaptive(q, 50, 2));
    }

    #[test]
    fn search_matches_every_legacy_entry_point() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let engine = KnnEngine::new(&skeleton, &store);
        let q = ds.get(13).to_vec();
        let k = 12;
        assert_eq!(
            engine.search(&SearchRequest::new(q.clone(), k).exact()),
            engine.knn(&q, k)
        );
        assert_eq!(
            engine.search(&SearchRequest::new(q.clone(), k).adaptive(4)),
            engine.knn_adaptive(&q, k, 4)
        );
        assert_eq!(
            engine.search(&SearchRequest::new(q.clone(), k).smallest()),
            engine.od_smallest(&q, k)
        );
        // resampled at a shorter length still returns k sorted results
        let short = resample_linear(&q, q.len() / 2);
        let out = engine.search(&SearchRequest::new(short, k).resampled(2));
        assert_eq!(out.results.len(), k);
    }

    #[test]
    fn search_many_is_bit_identical_to_search_per_request() {
        let (skeleton, store, ds) = build(Domain::Eeg, 350);
        let engine = KnnEngine::new(&skeleton, &store);
        // A deliberately heterogeneous batch: mixed modes, ks, budgets,
        // and a resampled short query — the serving layer's worst case.
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            let q = ds.get(i * 31).to_vec();
            reqs.push(match i % 5 {
                0 => SearchRequest::new(q, 10).exact(),
                1 => SearchRequest::new(q, 10).adaptive(4),
                2 => SearchRequest::new(q, 25).adaptive(4).with_budget(3),
                3 => SearchRequest::new(resample_linear(&q, 100), 10).resampled(2),
                _ => SearchRequest::new(q, 5).smallest(),
            });
        }
        let many = engine.search_many(&reqs);
        assert_eq!(many.len(), reqs.len());
        for (req, out) in reqs.iter().zip(&many) {
            assert_eq!(out, &engine.search(req), "req {req:?}");
        }
    }

    #[test]
    fn search_many_opens_only_what_its_batches_open() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 400);
        let engine = KnnEngine::new(&skeleton, &store);
        let queries: Vec<Vec<f32>> = (0..8u64).map(|i| ds.get(i * 43).to_vec()).collect();
        let reqs: Vec<SearchRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| match i % 2 {
                0 => SearchRequest::new(q.clone(), 10).adaptive(4),
                _ => SearchRequest::new(q.clone(), 10).exact(),
            })
            .collect();
        let before = store.stats().snapshot();
        engine.search_many(&reqs);
        let opened = store.stats().snapshot().since(&before).partitions_opened;
        // The same requests as the batches `search_many` groups them into.
        let even: Vec<Vec<f32>> = queries.iter().step_by(2).cloned().collect();
        let odd: Vec<Vec<f32>> = queries.iter().skip(1).step_by(2).cloned().collect();
        let batches = engine
            .batch(&BatchRequest::adaptive(&even, 10, 4))
            .partitions_opened
            + engine.batch(&BatchRequest::knn(&odd, 10)).partitions_opened;
        assert_eq!(opened, batches as u64, "no open beyond the batches' own");
    }

    #[test]
    fn budget_caps_partitions_opened() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 500);
        let engine = KnnEngine::new(&skeleton, &store);
        // find a query whose OD-Smallest plan spans several partitions
        let q = (0..50u64)
            .map(|i| ds.get(i * 7).to_vec())
            .find(|q| {
                engine
                    .search(&SearchRequest::new(q.clone(), 150).smallest())
                    .plan
                    .num_partitions()
                    > 1
            })
            .expect("some query must span several partitions");
        let capped = engine.search(&SearchRequest::new(q, 150).smallest().with_budget(1));
        assert!(capped.partitions_opened <= 1);
        assert!(capped.plan.num_partitions() <= 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn search_rejects_zero_k() {
        let (skeleton, store, _) = build(Domain::RandomWalk, 200);
        KnnEngine::new(&skeleton, &store).search(&SearchRequest::new(vec![1.0f32], 0));
    }

    #[test]
    fn works_after_skeleton_roundtrip() {
        let (skeleton, store, ds) = build(Domain::RandomWalk, 200);
        let restored = IndexSkeleton::from_bytes(&skeleton.to_bytes()).unwrap();
        let engine = KnnEngine::new(&restored, &store);
        let out = engine.knn(ds.get(3), 5);
        assert_eq!(out.results.len(), 5);
        let engine0 = KnnEngine::new(&skeleton, &store);
        assert_eq!(out, engine0.knn(ds.get(3), 5));
    }
}
