//! Record-level ED refinement (§VI, "Localized Record-Level Similarity").
//!
//! Given a plan, load each partition's selected trie-node clusters (the
//! partition header makes each cluster independently addressable), compare
//! every record against the raw query with early-abandoning squared ED, and
//! rank the top `k`.
//!
//! CLIMBER-kNN additionally "expands the search within the same partition"
//! when the selected clusters hold fewer than `k` records: the remaining
//! clusters of the already-opened partitions are read before giving up on
//! `k` results — no extra partitions are touched.
//!
//! Two scanning paths live here:
//!
//! * the **per-query** path ([`refine`]) — one query walks its plan;
//! * the **partition-major** primitives (`scan_range`,
//!   `expand_partition`) — shared with [`crate::batch`], which opens each
//!   partition once and scores each selected cluster against every query
//!   of a batch that selected it.
//!
//! Both read a sealed cluster through a [`ClusterView`] and score each
//! record straight from its little-endian bytes in the (possibly
//! block-cached) partition image with [`ed_early_abandon_le`] — no decode
//! pass, no copy. That kernel is bit-identical to [`ed_early_abandon`] on the
//! decoded values, and both paths feed the same [`TopK`], so their
//! results are bit-identical.
//!
//! ## Updates
//!
//! When the engine carries an [`UpdateView`], every cluster scan becomes a
//! *merged* scan: the sealed cluster's records (minus tombstoned ids) and
//! the delta-segment cluster under the same `(partition, node)` key are
//! decoded into one [`ClusterBuf`] candidate stream, and only that stream
//! is scored. Tombstones are filtered **before** any distance is offered
//! to the [`TopK`], so a deleted record can neither appear in an answer
//! nor displace a survivor; `records_scanned` counts the merged stream —
//! exactly what a from-scratch conversion of the surviving records under
//! the same skeleton would scan.

use crate::plan::{QueryOutcome, QueryPlan};
use crate::updates::UpdateView;
use climber_dfs::format::{ClusterBuf, PartitionReader, TrieNodeId};
use climber_dfs::page::ClusterView;
use climber_dfs::quant::{QuantCache, QuantizedCluster};
use climber_dfs::stats::IoStats;
use climber_dfs::store::{PartitionId, PartitionStore};
use climber_repr::paa::paa_into;
use climber_series::kernels::{ed_early_abandon, ed_early_abandon_le};
use climber_series::topk::{SharedBound, TopK};

/// One cluster's candidate records, in storage order, as a scan reads
/// them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Candidates<'a> {
    /// A sealed cluster, scored straight from its little-endian record
    /// bytes in the (possibly block-cached) partition image.
    Sealed(&'a ClusterView),
    /// A decoded stream: a delta-merged cluster, or the records the
    /// quantized prefilter promoted.
    Decoded(&'a ClusterBuf),
}

impl Candidates<'_> {
    /// Number of candidate records.
    #[inline]
    pub(crate) fn len(self) -> usize {
        match self {
            Candidates::Sealed(view) => view.len(),
            Candidates::Decoded(buf) => buf.len(),
        }
    }

    /// Scores record `i` against `query`: its id and squared distance, or
    /// `None` once the distance is known to exceed `bound`.
    #[inline]
    pub(crate) fn score(self, i: usize, query: &[f32], bound: f64) -> Option<(u64, f64)> {
        match self {
            Candidates::Sealed(view) => {
                let (id, values) = view.record(i);
                ed_early_abandon_le(query, values, bound).map(|d| (id, d))
            }
            Candidates::Decoded(buf) => {
                let (id, values) = buf.get(i);
                ed_early_abandon(query, values, bound).map(|d| (id, d))
            }
        }
    }

    /// Appends the `segments`-segment PAA of record `i` to `out`; a sealed
    /// record is decoded into `scratch` first.
    pub(crate) fn paa_into(
        self,
        i: usize,
        segments: usize,
        out: &mut Vec<f64>,
        scratch: &mut Vec<f32>,
    ) {
        match self {
            Candidates::Sealed(view) => {
                view.values_into(i, scratch);
                paa_into(scratch, segments, out);
            }
            Candidates::Decoded(buf) => paa_into(buf.get(i).1, segments, out),
        }
    }
}

/// Offers every candidate to `top` in storage order, abandoning against
/// the heap's own bound — the per-query scan of one cluster.
fn offer_all(cands: Candidates<'_>, query: &[f32], top: &mut TopK) {
    for i in 0..cands.len() {
        if let Some((id, d)) = cands.score(i, query, top.bound()) {
            top.offer(id, d);
        }
    }
}

/// Executes `plan` against `store`, returning the top-`k` records by
/// squared ED.
///
/// `expand_within_partitions` enables the within-partition fallback
/// described above (used by CLIMBER-kNN and the adaptive variants).
/// `updates`, when present, merges delta clusters into every scan and
/// filters tombstones out of the candidate stream. `quant`, when present
/// and enabled, serves sealed cluster scans from the 8-bit quantized
/// record cache (see `scan_cluster` for the equivalence argument).
#[allow(clippy::too_many_arguments)]
pub fn refine<S: PartitionStore>(
    store: &S,
    plan: &QueryPlan,
    query: &[f32],
    k: usize,
    expand_within_partitions: bool,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> QueryOutcome {
    assert!(k > 0, "k must be positive");
    let mut top = TopK::new(k);
    let mut records_scanned = 0u64;
    let mut partitions_opened = 0usize;
    let mut buf = ClusterBuf::new();

    // First pass: the planned clusters.
    let mut openers: Vec<(u32, PartitionReader)> = Vec::new();
    for (&pid, clusters) in &plan.reads {
        let Ok(reader) = store.open(pid) else {
            continue; // partition vanished: treat as empty (fault tolerance)
        };
        partitions_opened += 1;
        for &node in clusters {
            records_scanned += scan_cluster(
                &reader,
                pid,
                node,
                query,
                &mut top,
                &mut buf,
                store.stats(),
                updates,
                quant,
            );
        }
        openers.push((pid, reader));
    }

    // Within-partition expansion: read the clusters not in the plan from
    // partitions that are already open.
    if expand_within_partitions && top.len() < k {
        for (pid, reader) in &openers {
            let planned = &plan.reads[pid];
            records_scanned += expand_partition(
                reader,
                *pid,
                planned,
                query,
                &mut top,
                store.stats(),
                updates,
                quant,
            );
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
}

/// Scans one `(partition, node)` cluster, offering candidates into `top`.
/// Returns the logical records scanned (what `records_scanned` reports).
///
/// Without updates this is the original sealed visit. With updates, the
/// sealed records that survive the tombstone filter and the delta cluster
/// under the same key are merged into `buf` and scored from there — one
/// candidate stream, identical visit order per record, so results match
/// the sealed path bit for bit whenever the segments are empty.
///
/// When `quant` is present and enabled, the sealed path is served through
/// the quantized record cache instead: a cached cluster is prefiltered on
/// its 8-bit codes and only the records the admissible lower bound cannot
/// rule out are decoded to exact `f32` and scored. A record is skipped
/// only when `lb > bound`, which (by admissibility, `lb <= sq_ed`) implies
/// its true distance exceeds the bound — exactly the records an
/// `ed_early_abandon` rejection would drop — so the surviving top-k is
/// bit-identical to the uncached scan. Updates always bypass the cache:
/// quantized entries reflect sealed bytes only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_cluster(
    reader: &PartitionReader,
    pid: PartitionId,
    node: TrieNodeId,
    query: &[f32],
    top: &mut TopK,
    buf: &mut ClusterBuf,
    stats: &IoStats,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> u64 {
    let bytes = reader.cluster_bytes(node).unwrap_or(0);
    let Some(u) = updates else {
        if let Some(cache) = quant.filter(|c| c.is_enabled()) {
            return scan_cluster_quantized(reader, pid, node, query, top, buf, stats, cache);
        }
        // Sealed scan straight off the (possibly block-cached) partition
        // image: a refcount bump and a slice, no record memcpy, records
        // visited in storage order.
        let Some(view) = reader.cluster_view(node) else {
            return 0;
        };
        offer_all(Candidates::Sealed(&view), query, top);
        stats.on_read(bytes as u64);
        stats.on_records_read(view.len() as u64);
        return view.len() as u64;
    };
    buf.clear();
    let physical = {
        let tomb = u.tombstones.read();
        let n = reader.read_cluster_into_if(node, buf, |id| !tomb.contains(id));
        u.delta
            .read_cluster_into(pid, node, buf, |id| !tomb.contains(id));
        n
    };
    stats.on_read(bytes as u64);
    stats.on_records_read(physical);
    offer_all(Candidates::Decoded(buf), query, top);
    buf.len() as u64
}

/// The sealed cluster scan served through the quantized record cache.
///
/// Hit: scan the cached 8-bit codes; a record whose quantized lower bound
/// exceeds the heap's current bound is skipped without touching its `f32`
/// bytes, and only the survivors are scored exactly, straight from their
/// record bytes.
/// Miss: decode the whole cluster as usual, score it, and quantize it into
/// the cache for the next visit.
///
/// `records_scanned` stays the full cluster count on both paths — the
/// cache changes how much physical decode work a scan pays, never the
/// logical candidate stream — while the [`IoStats`] record/byte counters
/// report only what was actually decoded (the honest physical I/O).
#[allow(clippy::too_many_arguments)]
fn scan_cluster_quantized(
    reader: &PartitionReader,
    pid: PartitionId,
    node: TrieNodeId,
    query: &[f32],
    top: &mut TopK,
    buf: &mut ClusterBuf,
    stats: &IoStats,
    cache: &QuantCache,
) -> u64 {
    if let Some(qc) = cache.get(pid, node) {
        let Some(view) = reader.cluster_view(node) else {
            return 0;
        };
        let record_size = (8 + qc.series_len() * 4) as u64;
        let mut promoted = 0u64;
        for i in 0..qc.len() {
            if query.len() == qc.series_len() && qc.lb_exceeds(i, query, top.bound()) {
                continue;
            }
            promoted += 1;
            if let Some((id, d)) = Candidates::Sealed(&view).score(i, query, top.bound()) {
                top.offer(id, d);
            }
        }
        stats.on_read(promoted * record_size);
        stats.on_records_read(promoted);
        return qc.len() as u64;
    }
    let bytes = reader.cluster_bytes(node).unwrap_or(0);
    buf.clear();
    let n = reader.read_cluster_into(node, buf);
    stats.on_read(bytes as u64);
    stats.on_records_read(n);
    offer_all(Candidates::Decoded(buf), query, top);
    if let Some(qc) = QuantizedCluster::from_buf(buf) {
        cache.insert(pid, node, qc);
    }
    n
}

/// Scans every cluster of an already-opened partition that `planned` did
/// not select — sealed clusters first, then delta-only clusters routed to
/// this partition (nodes the sealed file has never seen) — offering
/// records into `top`. Returns the records scanned.
///
/// This is the within-partition expansion of CLIMBER-kNN, factored out so
/// the sequential path and the batched path execute the *identical* loop —
/// the equivalence guarantee of `batch` depends on it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_partition(
    reader: &PartitionReader,
    pid: PartitionId,
    planned: &[TrieNodeId],
    query: &[f32],
    top: &mut TopK,
    stats: &IoStats,
    updates: Option<UpdateView<'_>>,
    quant: Option<&QuantCache>,
) -> u64 {
    let mut scanned = 0u64;
    let mut buf = ClusterBuf::new();
    let sealed = reader.cluster_ids();
    for &node in &sealed {
        if planned.contains(&node) {
            continue;
        }
        scanned += scan_cluster(
            reader, pid, node, query, top, &mut buf, stats, updates, quant,
        );
    }
    if let Some(u) = updates {
        for node in u.delta.nodes_for(pid) {
            if planned.contains(&node) || sealed.contains(&node) {
                continue;
            }
            scanned += scan_cluster(
                reader, pid, node, query, top, &mut buf, stats, updates, quant,
            );
        }
    }
    scanned
}

/// Scores a range of a cluster's candidates against one query: the
/// partition-major inner loop. Abandons with the tighter of the
/// collector's own bound and the [`SharedBound`] published by workers
/// refining the same query on other partitions, then publishes back.
///
/// The batch executor scores clusters in small record blocks so the block
/// stays cache-resident while every interested query scans it. For one
/// query, iterating blocks in order visits records in exactly the same
/// order as one full pass, so the offers — and therefore the results —
/// are identical.
pub(crate) fn scan_range(
    query: &[f32],
    cands: Candidates<'_>,
    range: std::ops::Range<usize>,
    top: &mut TopK,
    shared: &SharedBound,
) {
    for i in range {
        if let Some((id, d)) = cands.score(i, query, top.bound_with(shared)) {
            top.offer(id, d);
        }
    }
    top.publish_bound(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_dfs::format::PartitionWriter;
    use climber_dfs::store::{MemStore, PartitionStore};
    use climber_series::distance::sq_ed;

    /// A store with one partition: cluster 1 = records 0..4 near zero,
    /// cluster 2 = records 10..14 far away.
    fn toy_store() -> MemStore {
        let store = MemStore::new();
        let mut w = PartitionWriter::new(0, 2);
        let near: Vec<(u64, Vec<f32>)> = (0..4).map(|i| (i, vec![i as f32 * 0.1, 0.0])).collect();
        let far: Vec<(u64, Vec<f32>)> = (10..14)
            .map(|i| (i, vec![100.0 + i as f32, 100.0]))
            .collect();
        w.push_cluster(1, near.iter().map(|(id, v)| (*id, v.as_slice())));
        w.push_cluster(2, far.iter().map(|(id, v)| (*id, v.as_slice())));
        store.put(0, w.finish()).unwrap();
        store
    }

    fn plan_for(clusters: &[u64]) -> QueryPlan {
        let mut p = QueryPlan::default();
        for &c in clusters {
            p.add_read(0, c);
        }
        p
    }

    #[test]
    fn refine_ranks_by_distance() {
        let store = toy_store();
        let out = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 2, false, None, None);
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.results[0].0, 0);
        assert_eq!(out.results[1].0, 1);
        assert!((out.results[1].1 - sq_ed(&[0.0, 0.0], &[0.1, 0.0])).abs() < 1e-9);
        assert_eq!(out.records_scanned, 4);
        assert_eq!(out.partitions_opened, 1);
    }

    #[test]
    fn expansion_fires_only_when_short_of_k() {
        let store = toy_store();
        // k=6 > 4 records in cluster 1 → expansion reads cluster 2 too.
        let out = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, true, None, None);
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.records_scanned, 8);
        // without expansion we stop at 4
        let out2 = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 6, false, None, None);
        assert_eq!(out2.results.len(), 4);
    }

    #[test]
    fn expansion_not_used_when_k_satisfied() {
        let store = toy_store();
        let out = refine(&store, &plan_for(&[1]), &[0.0, 0.0], 3, true, None, None);
        assert_eq!(out.records_scanned, 4, "must not touch cluster 2");
    }

    #[test]
    fn missing_partition_is_tolerated() {
        let store = toy_store();
        let mut p = plan_for(&[1]);
        p.add_read(99, 1); // nonexistent partition
        let out = refine(&store, &p, &[0.0, 0.0], 2, false, None, None);
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn missing_cluster_is_tolerated() {
        let store = toy_store();
        let out = refine(&store, &plan_for(&[42]), &[0.0, 0.0], 2, false, None, None);
        assert!(out.results.is_empty());
        assert_eq!(out.records_scanned, 0);
    }

    #[test]
    fn results_are_squared_distances_sorted() {
        let store = toy_store();
        let out = refine(
            &store,
            &plan_for(&[1, 2]),
            &[0.0, 0.0],
            8,
            false,
            None,
            None,
        );
        for w in out.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(out.results.len(), 8);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let store = toy_store();
        refine(&store, &plan_for(&[1]), &[0.0, 0.0], 0, false, None, None);
    }

    #[test]
    fn tombstoned_records_never_reach_topk() {
        use climber_dfs::segment::{DeltaSegment, TombstoneSet};
        let store = toy_store();
        let delta = DeltaSegment::new();
        let tombstones = TombstoneSet::new();
        tombstones.delete(0); // the nearest record to the query
        let view = UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        };
        let out = refine(
            &store,
            &plan_for(&[1]),
            &[0.0, 0.0],
            2,
            false,
            Some(view),
            None,
        );
        assert!(
            out.results.iter().all(|&(id, _)| id != 0),
            "deleted record served: {:?}",
            out.results
        );
        assert_eq!(out.results[0].0, 1, "survivors fill the answer");
        assert_eq!(out.records_scanned, 3, "scan counts survivors only");
    }

    #[test]
    fn delta_records_merge_into_planned_clusters() {
        use climber_dfs::segment::{DeltaSegment, TombstoneSet};
        let store = toy_store();
        let delta = DeltaSegment::new();
        // route a new nearest record into (partition 0, cluster 1)
        delta.append(0, 1, 500, &[0.01, 0.0]);
        // ... and one into a cluster the sealed partition doesn't have
        delta.append(0, 77, 501, &[0.02, 0.0]);
        let tombstones = TombstoneSet::new();
        let view = UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        };
        let out = refine(
            &store,
            &plan_for(&[1]),
            &[0.0, 0.0],
            2,
            false,
            Some(view),
            None,
        );
        assert_eq!(out.results[0].0, 0, "exact sealed match still first");
        assert_eq!(out.results[1].0, 500, "delta record ranks second");
        assert_eq!(out.records_scanned, 5, "4 sealed + 1 delta");

        // the delta-only cluster 77 is reachable via expansion
        let out = refine(
            &store,
            &plan_for(&[1]),
            &[0.0, 0.0],
            10,
            true,
            Some(view),
            None,
        );
        assert!(out.results.iter().any(|&(id, _)| id == 501));
        assert_eq!(out.records_scanned, 10, "8 sealed + 2 delta");

        // a deleted delta record is filtered like any other
        tombstones.delete(500);
        let out = refine(
            &store,
            &plan_for(&[1]),
            &[0.0, 0.0],
            2,
            false,
            Some(view),
            None,
        );
        assert_eq!(out.results[0].0, 0);
        assert_eq!(out.records_scanned, 4);
    }

    #[test]
    fn empty_update_view_matches_sealed_path_exactly() {
        use climber_dfs::segment::{DeltaSegment, TombstoneSet};
        let store = toy_store();
        let delta = DeltaSegment::new();
        let tombstones = TombstoneSet::new();
        let view = UpdateView {
            delta: &delta,
            tombstones: &tombstones,
        };
        assert!(view.is_noop());
        for (k, expand) in [(2usize, false), (6, true), (8, false)] {
            let a = refine(&store, &plan_for(&[1]), &[0.1, 0.0], k, expand, None, None);
            let b = refine(
                &store,
                &plan_for(&[1]),
                &[0.1, 0.0],
                k,
                expand,
                Some(view),
                None,
            );
            assert_eq!(a, b, "k={k} expand={expand}");
        }
    }

    #[test]
    fn scan_decoded_matches_per_record_visit() {
        let store = toy_store();
        let reader = store.open(0).unwrap();
        let mut buf = ClusterBuf::new();
        reader.read_cluster_into(1, &mut buf);
        reader.read_cluster_into(2, &mut buf);

        let q = [0.3f32, 0.1];
        let shared = SharedBound::new();
        let mut via_buf = TopK::new(3);
        scan_range(
            &q,
            Candidates::Decoded(&buf),
            0..buf.len(),
            &mut via_buf,
            &shared,
        );

        let mut via_view = TopK::new(3);
        let views_shared = SharedBound::new();
        for node in [1u64, 2] {
            let view = reader.cluster_view(node).unwrap();
            let cands = Candidates::Sealed(&view);
            scan_range(&q, cands, 0..cands.len(), &mut via_view, &views_shared);
        }

        let mut via_visit = TopK::new(3);
        for node in [1u64, 2] {
            reader.for_each_in_cluster(node, |id, vals| {
                if let Some(d) = ed_early_abandon(&q, vals, via_visit.bound()) {
                    via_visit.offer(id, d);
                }
            });
        }
        let want = via_visit.into_sorted();
        assert_eq!(via_buf.into_sorted(), want);
        assert_eq!(via_view.into_sorted(), want);
        // A full heap published its bound.
        assert!(shared.get() < f64::INFINITY);
    }
}
