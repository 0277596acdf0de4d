//! Bounded top-k selection by distance (a max-heap of size `k`).
//!
//! Used by the ground-truth scan, by every query algorithm's final ED
//! refinement, and by the baselines. Ties on distance are broken by series id
//! so results are deterministic regardless of visit order.

use crate::series::SeriesId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Heap entry ordered by (distance desc, id desc) so that `peek()` is the
/// *worst* of the current top-k and pops first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    dist: f64,
    id: SeriesId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Distances come from sq_ed and are never NaN; total_cmp keeps this
        // robust anyway.
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector of the `k` smallest-distance `(id, dist)` pairs.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Entry>,
}

impl TopK {
    /// Creates a collector for the `k` nearest results.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of results currently held (`<= k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no results have been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current pruning bound: the distance of the worst kept result, or
    /// `f64::INFINITY` while fewer than `k` results are held.
    ///
    /// Candidates with distance `> bound()` can be skipped; candidates equal
    /// to the bound may still displace the worst entry via the id tie-break.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |e| e.dist)
        }
    }

    /// Offers a candidate; keeps it only if it belongs in the top-k.
    /// Returns true when the candidate was kept.
    pub fn offer(&mut self, id: SeriesId, dist: f64) -> bool {
        let entry = Entry { dist, id };
        if self.heap.len() < self.k {
            self.heap.push(entry);
            return true;
        }
        // Full: replace the worst entry in place when strictly better
        // under the (dist, id) order — one sift-down when the `PeekMut`
        // drops, instead of a pop plus a push.
        let mut worst = self.heap.peek_mut().expect("heap is full, k > 0");
        if entry < *worst {
            *worst = entry;
            true
        } else {
            false
        }
    }

    /// Consumes the collector, returning results sorted ascending by
    /// `(distance, id)`.
    pub fn into_sorted(self) -> Vec<(SeriesId, f64)> {
        let mut v: Vec<Entry> = self.heap.into_vec();
        v.sort_unstable();
        v.into_iter().map(|e| (e.id, e.dist)).collect()
    }

    /// Merges another collector into this one (used to combine per-worker
    /// partial results).
    pub fn merge(&mut self, other: TopK) {
        for e in other.heap {
            self.offer(e.id, e.dist);
        }
    }

    /// Publishes this collector's bound into `shared` — but only once the
    /// collector is full, because a partial heap's worst distance is not
    /// yet an upper bound on the final k-th distance.
    #[inline]
    pub fn publish_bound(&self, shared: &SharedBound) {
        if self.heap.len() >= self.k {
            shared.tighten(self.bound());
        }
    }

    /// The effective pruning bound when cooperating with other workers on
    /// the *same* query: the tighter of this collector's own bound and the
    /// shared bound published by the others.
    #[inline]
    pub fn bound_with(&self, shared: &SharedBound) -> f64 {
        self.bound().min(shared.get())
    }
}

/// A pruning bound shared between workers refining the *same* query over
/// different partitions (lock-free; an atomic min over `f64` bits).
///
/// Safety of sharing: any *full* [`TopK`]'s bound is the k-th best distance
/// over a subset of the candidates, which is always `>=` the final k-th
/// best distance over all candidates. Pruning candidates strictly worse
/// than such a bound can therefore never evict a true top-k member, so
/// results stay bit-identical to a sequential scan regardless of thread
/// timing — only the amount of early-abandoned work varies.
///
/// Distances are non-negative (squared ED), so the IEEE-754 bit patterns
/// order identically to the values and a `fetch_min` on the raw bits
/// implements an atomic numeric min.
#[derive(Debug)]
pub struct SharedBound(AtomicU64);

impl SharedBound {
    /// A fresh bound: `f64::INFINITY` (nothing can be pruned yet).
    pub fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The current shared bound.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(AtomicOrdering::Relaxed))
    }

    /// Lowers the bound to `bound` if it is tighter than the current value.
    ///
    /// # Panics
    /// If `bound` is negative or NaN (squared distances never are).
    #[inline]
    pub fn tighten(&self, bound: f64) {
        assert!(bound >= 0.0, "shared bound must be a non-negative distance");
        self.0.fetch_min(bound.to_bits(), AtomicOrdering::Relaxed);
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0, 9.0), (1, 1.0), (2, 5.0), (3, 3.0), (4, 7.0)] {
            t.offer(id, d);
        }
        let out = t.into_sorted();
        assert_eq!(
            out.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![1, 3, 2]
        );
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f64::INFINITY);
        t.offer(0, 1.0);
        assert_eq!(t.bound(), f64::INFINITY);
        t.offer(1, 2.0);
        assert_eq!(t.bound(), 2.0);
        t.offer(2, 0.5);
        assert_eq!(t.bound(), 1.0);
    }

    #[test]
    fn ties_broken_by_smaller_id() {
        let mut t = TopK::new(2);
        t.offer(5, 1.0);
        t.offer(3, 1.0);
        t.offer(1, 1.0);
        let out = t.into_sorted();
        assert_eq!(
            out.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn deterministic_under_any_insertion_order() {
        let pairs = [(0u64, 2.0), (1, 1.0), (2, 3.0), (3, 1.0), (4, 0.0)];
        let mut expected: Option<Vec<(SeriesId, f64)>> = None;
        // try a few permutations
        let orders = [
            [0usize, 1, 2, 3, 4],
            [4, 3, 2, 1, 0],
            [2, 0, 4, 1, 3],
            [1, 4, 0, 3, 2],
        ];
        for order in orders {
            let mut t = TopK::new(3);
            for &i in &order {
                t.offer(pairs[i].0, pairs[i].1);
            }
            let got = t.into_sorted();
            match &expected {
                None => expected = Some(got),
                Some(e) => assert_eq!(&got, e),
            }
        }
    }

    #[test]
    fn merge_combines_partials() {
        let mut a = TopK::new(2);
        a.offer(0, 5.0);
        a.offer(1, 4.0);
        let mut b = TopK::new(2);
        b.offer(2, 1.0);
        b.offer(3, 9.0);
        a.merge(b);
        let out = a.into_sorted();
        assert_eq!(
            out.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![2, 1]
        );
    }

    #[test]
    fn offer_returns_whether_kept() {
        let mut t = TopK::new(1);
        assert!(t.offer(0, 2.0));
        assert!(t.offer(1, 1.0));
        assert!(!t.offer(2, 3.0));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.offer(7, 3.0);
        let out = t.into_sorted();
        assert_eq!(out, vec![(7, 3.0)]);
    }

    #[test]
    fn shared_bound_is_an_atomic_min() {
        let s = SharedBound::new();
        assert_eq!(s.get(), f64::INFINITY);
        s.tighten(5.0);
        assert_eq!(s.get(), 5.0);
        s.tighten(9.0); // looser: ignored
        assert_eq!(s.get(), 5.0);
        s.tighten(1.5);
        assert_eq!(s.get(), 1.5);
        s.tighten(0.0);
        assert_eq!(s.get(), 0.0);
    }

    #[test]
    fn partial_heap_never_publishes() {
        let s = SharedBound::new();
        let mut t = TopK::new(3);
        t.offer(0, 1.0);
        t.offer(1, 2.0);
        t.publish_bound(&s); // only 2 of 3 held: not a valid upper bound
        assert_eq!(s.get(), f64::INFINITY);
        t.offer(2, 3.0);
        t.publish_bound(&s);
        assert_eq!(s.get(), 3.0);
    }

    #[test]
    fn bound_with_takes_the_tighter_side() {
        let s = SharedBound::new();
        s.tighten(2.0);
        let mut t = TopK::new(1);
        assert_eq!(t.bound_with(&s), 2.0); // own bound is INF
        t.offer(0, 0.5);
        assert_eq!(t.bound_with(&s), 0.5); // own bound now tighter
    }

    #[test]
    fn shared_bound_concurrent_tighten() {
        let s = SharedBound::new();
        std::thread::scope(|scope| {
            for i in 0..8u32 {
                let s = &s;
                scope.spawn(move || {
                    for j in 0..1000u32 {
                        s.tighten(f64::from(i * 1000 + j) + 1.0);
                    }
                });
            }
        });
        assert_eq!(s.get(), 1.0);
    }
}
