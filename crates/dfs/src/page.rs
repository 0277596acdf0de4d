//! Paged storage: fixed-size pages, a sharded byte-budgeted LRU block
//! cache, and zero-copy cluster views.
//!
//! The uncached read path re-reads whole partitions from disk on every
//! batch; at scale, data-series search is dominated by that storage I/O,
//! not by distance math. This module restructures `climber-dfs` around two
//! cooperating pieces:
//!
//! * **[`BlockCache`]** — a sharded, byte-budgeted LRU over whole
//!   partition images, accounted in fixed-size [`PAGE_SIZE`] pages and
//!   shared across queries, batches, and shards through one `Arc`. A hit
//!   serves the partition's bytes without touching the filesystem; the
//!   refcounted [`Bytes`] image means every reader opened over it is
//!   zero-copy.
//! * **[`ClusterView`]** — an *owned* zero-copy view of one trie-node
//!   cluster: a refcounted slice of the cached partition image that can
//!   outlive the [`PartitionReader`] it came from. Scan loops score each
//!   record's little-endian value bytes in place instead of decoding
//!   records into a `ClusterBuf`.
//!
//! Cached images are the partition files' bytes as stored: the v1 layout
//! of [`crate::format`] is the only partition format, so a hit needs no
//! decode step before a reader borrows it.
//!
//! Byte budgeting is unified with the quantized record cache through a
//! shared [`CacheLedger`]: quantized codes and cached blocks draw from the
//! same budget, so enabling one never double-accounts the other and
//! releasing either (maintenance, `set_quant_enabled(false)`) frees real
//! headroom.

use crate::format::PartitionReader;
use crate::store::PartitionId;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Size of one cache page (64 KiB). Cached partition images are charged
/// in whole pages — `ceil(len / PAGE_SIZE)` pages each — so the budget
/// accounting mirrors a page-granular buffer pool even though an image is
/// stored contiguously for zero-copy reads.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Number of independently locked cache shards. Eight is plenty: the
/// map operations under each lock are O(1) hash probes, and partition
/// opens are orders of magnitude rarer than record scans.
const CACHE_SHARDS: usize = 8;

/// Default cache budget: 256 MiB, matching the quantized cache's default.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Pages needed to hold `len` bytes (at least one).
pub fn pages_of(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE).max(1)
}

/// The byte charge of caching a `len`-byte image: whole pages.
pub fn charge_of(len: usize) -> usize {
    pages_of(len) * PAGE_SIZE
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of the paged storage engine, passed to
/// `Climber::open_with_cache` / `ShardedClimber::open_with_cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget shared by cached blocks *and* quantized codes (whole
    /// [`PAGE_SIZE`] pages per cached image).
    pub capacity_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

impl CacheConfig {
    /// Sets the shared byte budget.
    #[must_use]
    pub fn with_capacity_bytes(mut self, capacity_bytes: usize) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }
}

// ---------------------------------------------------------------------------
// Shared byte-budget ledger
// ---------------------------------------------------------------------------

/// The unified byte-budget ledger: one `used` counter charged by every
/// cache drawing from the budget (the block cache's resident pages and
/// the quantized cache's code tables), so the two never double-account
/// the same budget and releasing either frees real headroom.
#[derive(Debug)]
pub struct CacheLedger {
    used: AtomicUsize,
    capacity: usize,
}

impl CacheLedger {
    /// A ledger with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            used: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `cost` more bytes fit without exceeding the budget.
    pub fn would_fit(&self, cost: usize) -> bool {
        self.used().saturating_add(cost) <= self.capacity
    }

    /// Charges `n` bytes.
    pub fn charge(&self, n: usize) {
        self.used.fetch_add(n, Ordering::Relaxed);
    }

    /// Releases `n` bytes (saturating — a release can never underflow).
    pub fn release(&self, n: usize) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

/// Key of a cached block: the owning store's token (so one shared cache
/// serves many stores/shards without id collisions) and the partition id.
type BlockKey = (u64, PartitionId);

#[derive(Debug)]
struct CacheEntry {
    /// The partition image; refcounted, so readers and views opened over
    /// it are zero-copy.
    bytes: Bytes,
    /// Page-rounded byte charge against the ledger.
    charge: usize,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// Point-in-time counters of a [`BlockCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that had to read the filesystem.
    pub misses: u64,
    /// Blocks evicted to stay inside the budget.
    pub evictions: u64,
    /// Bytes warmed from cold-open validation reads.
    pub warmed_bytes: u64,
    /// Page-rounded bytes of resident blocks (what the ledger is charged).
    pub resident_bytes: u64,
}

/// Allocates a store token: the namespace half of a [`BlockCache`] key.
/// Monotone and process-global, so two stores can never collide even when
/// they share one cache.
pub fn next_store_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A sharded, byte-budgeted LRU cache of whole partition images, shared
/// across queries, batches, and shards through one `Arc`.
///
/// * **Hit path**: a refcounted [`Bytes`] clone — no filesystem touch, no
///   copy; `PartitionReader::open` over it re-validates the header and
///   borrows the cached pages.
/// * **Budget**: whole [`PAGE_SIZE`] pages per image, charged against a
///   [`CacheLedger`] that the quantized cache shares, evicting the least
///   recently used blocks (never quantized codes) once the combined
///   usage exceeds the budget.
/// * **Coherence**: stores invalidate a partition's entry on every
///   rewrite, quarantine, and re-admission; staged (`.new`) and
///   quarantined partitions bypass the cache entirely.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<HashMap<BlockKey, CacheEntry>>>,
    ledger: Arc<CacheLedger>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warmed_bytes: AtomicU64,
    resident_bytes: AtomicUsize,
}

impl BlockCache {
    /// A cache with `config`'s byte budget.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            ledger: Arc::new(CacheLedger::new(config.capacity_bytes)),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warmed_bytes: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
        }
    }

    /// The shared byte-budget ledger (attach it to a `QuantCache` so both
    /// caches draw from one budget).
    pub fn ledger(&self) -> Arc<CacheLedger> {
        Arc::clone(&self.ledger)
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.ledger.capacity()
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<HashMap<BlockKey, CacheEntry>> {
        // Partition ids are small and sequential; mix the token in so two
        // stores' partitions spread across different shards.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(key.1))
            .rotate_left(17);
        &self.shards[(h as usize) % CACHE_SHARDS]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the cached image of `(token, pid)`, refreshing its LRU
    /// position. Counts a hit or a miss.
    pub fn get(&self, token: u64, pid: PartitionId) -> Option<Bytes> {
        let key = (token, pid);
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.bytes.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True when the image of `(token, pid)` is resident. A pure probe:
    /// it moves neither the LRU order nor the hit/miss counters, so a
    /// scheduler can ask which partitions would hit before opening any.
    pub fn contains(&self, token: u64, pid: PartitionId) -> bool {
        let key = (token, pid);
        self.shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&key)
    }

    fn account_insert(&self, entry: &CacheEntry) {
        self.ledger.charge(entry.charge);
        self.resident_bytes
            .fetch_add(entry.charge, Ordering::Relaxed);
    }

    fn account_remove(&self, entry: &CacheEntry) {
        self.ledger.release(entry.charge);
        self.resident_bytes
            .fetch_sub(entry.charge, Ordering::Relaxed);
    }

    /// Inserts (or replaces) the image of `(token, pid)`, then evicts
    /// least-recently-used blocks until the shared ledger fits the budget
    /// again. Returns the number of evictions this insert triggered.
    /// Images larger than the whole budget are not cached.
    pub fn insert(&self, token: u64, pid: PartitionId, bytes: Bytes) -> u64 {
        let charge = charge_of(bytes.len());
        if charge > self.ledger.capacity() {
            return 0;
        }
        let key = (token, pid);
        let entry = CacheEntry {
            bytes,
            charge,
            last_used: self.next_tick(),
        };
        {
            let mut map = self
                .shard_of(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(old) = map.insert(key, entry) {
                self.account_remove(&old);
            }
        }
        self.account_insert_by_key(&key);
        self.evict_to_fit()
    }

    fn account_insert_by_key(&self, key: &BlockKey) {
        let map = self
            .shard_of(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = map.get(key) {
            self.account_insert(entry);
        }
    }

    /// Inserts only when the image fits the budget *without* evicting
    /// anything — the cold-open warming path, which must never churn a
    /// cache another index is already using. Returns whether the bytes
    /// were cached; on success they count toward `warmed_bytes`.
    pub fn try_warm(&self, token: u64, pid: PartitionId, bytes: Bytes) -> bool {
        let charge = charge_of(bytes.len());
        if !self.ledger.would_fit(charge) {
            return false;
        }
        let key = (token, pid);
        let raw_len = bytes.len();
        let entry = CacheEntry {
            bytes,
            charge,
            last_used: self.next_tick(),
        };
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = map.insert(key, entry) {
            self.account_remove(&old);
        }
        drop(map);
        self.account_insert_by_key(&key);
        self.warmed_bytes
            .fetch_add(raw_len as u64, Ordering::Relaxed);
        true
    }

    /// Evicts globally-least-recently-used blocks until the shared ledger
    /// is within budget (quantized bytes count against it too, but only
    /// blocks are evictable here). Returns how many blocks were evicted.
    fn evict_to_fit(&self) -> u64 {
        let mut evicted = 0u64;
        while self.ledger.used() > self.ledger.capacity() {
            // Find the global LRU victim with one pass over the shards.
            let mut victim: Option<(BlockKey, u64)> = None;
            for shard in &self.shards {
                let map = shard.lock().unwrap_or_else(PoisonError::into_inner);
                for (key, entry) in map.iter() {
                    if victim.map_or(true, |(_, t)| entry.last_used < t) {
                        victim = Some((*key, entry.last_used));
                    }
                }
            }
            let Some((key, _)) = victim else {
                // Nothing evictable (the overage is quantized bytes).
                break;
            };
            let mut map = self
                .shard_of(&key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(old) = map.remove(&key) {
                self.account_remove(&old);
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops the cached image of `(token, pid)`, if resident — called by
    /// stores on rewrite, quarantine, and re-admission.
    pub fn invalidate(&self, token: u64, pid: PartitionId) {
        let key = (token, pid);
        let mut map = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = map.remove(&key) {
            self.account_remove(&old);
        }
    }

    /// Drops every cached block of store `token`.
    pub fn invalidate_store(&self, token: u64) {
        for shard in &self.shards {
            let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
            map.retain(|key, entry| {
                if key.0 == token {
                    self.account_remove(entry);
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A near-consistent snapshot of the cache's counters and gauges.
    pub fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            warmed_bytes: self.warmed_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-copy cluster views
// ---------------------------------------------------------------------------

/// An **owned** zero-copy view over one trie-node cluster's encoded
/// records: a refcounted slice of the (possibly cached) partition image.
///
/// Unlike `ClusterRecords<'_>`, which borrows its `PartitionReader`, a
/// `ClusterView` can outlive the reader — scan loops hold the view (and
/// thereby pin the cached pages). [`record`](Self::record) hands out a
/// record's id and its little-endian value bytes without copying them;
/// `climber_series::kernels::ed_early_abandon_le` scores those bytes in
/// place, so a sealed cluster scan never decodes into an `f32` buffer.
/// [`values_into`](Self::values_into) is the decoding accessor, for
/// callers that need the `f32` values themselves.
#[derive(Debug, Clone)]
pub struct ClusterView {
    bytes: Bytes,
    series_len: usize,
    count: usize,
}

impl ClusterView {
    pub(crate) fn new(bytes: Bytes, series_len: usize, count: usize) -> Self {
        debug_assert_eq!(bytes.len(), count * (8 + series_len * 4));
        Self {
            bytes,
            series_len,
            count,
        }
    }

    /// Number of records in the cluster.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the cluster holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Length of every stored series.
    #[inline]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Series id of record `i` — an 8-byte read, no value decoding.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.record(i).0
    }

    /// Record `i` as its series id and its `4 · series_len` little-endian
    /// `f32` value bytes, borrowed from the partition image — no copy, no
    /// decode.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn record(&self, i: usize) -> (u64, &[u8]) {
        let record_size = 8 + self.series_len * 4;
        let rec = &self.bytes[i * record_size..(i + 1) * record_size];
        let (id, values) = rec.split_at(8);
        let id = id.try_into().expect("split_at(8) leaves 8 id bytes");
        (u64::from_le_bytes(id), values)
    }

    /// Decodes the values of record `i` into `out` (cleared first).
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn values_into(&self, i: usize, out: &mut Vec<f32>) {
        out.clear();
        out.extend(
            self.record(i)
                .1
                .chunks_exact(4)
                .map(|chunk| f32::from_le_bytes(chunk.try_into().expect("4-byte chunk"))),
        );
    }
}

impl PartitionReader {
    /// An owned zero-copy view of cluster `node_id`, or `None` when the
    /// node is absent. The view shares the reader's refcounted image —
    /// when that image came from a [`BlockCache`] hit, the view borrows
    /// cached pages directly.
    pub fn cluster_view(&self, node_id: crate::format::TrieNodeId) -> Option<ClusterView> {
        let (bytes, count) = self.cluster_bytes_owned(node_id)?;
        Some(ClusterView::new(bytes, self.series_len(), count as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::PartitionWriter;

    fn sample_partition(seed: u64, clusters: usize, per_cluster: usize, len: usize) -> Bytes {
        let mut w = PartitionWriter::new(seed, len);
        let mut id = seed * 1000;
        let mut x = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        for c in 0..clusters {
            let mut recs: Vec<(u64, Vec<f32>)> = Vec::new();
            for _ in 0..per_cluster {
                let mut vals = Vec::with_capacity(len);
                let mut v = 0.0f32;
                for _ in 0..len {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    v += ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
                    vals.push(v);
                }
                recs.push((id, vals));
                id += 1 + (x % 3);
            }
            w.push_cluster(100 + c as u64, recs.iter().map(|(i, v)| (*i, v.as_slice())));
        }
        w.finish()
    }

    #[test]
    fn cache_hits_misses_and_lru_eviction() {
        // Budget of 3 pages: each tiny image charges one page.
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(3 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.get(token, 1).is_none());
        cache.insert(token, 1, img(1));
        cache.insert(token, 2, img(2));
        cache.insert(token, 3, img(3));
        assert_eq!(cache.len(), 3);
        // Touch 1 and 2 so 3 is the LRU victim.
        assert!(cache.get(token, 1).is_some());
        assert!(cache.get(token, 2).is_some());
        let evicted = cache.insert(token, 4, img(4));
        assert_eq!(evicted, 1);
        assert!(cache.get(token, 3).is_none(), "LRU entry evicted");
        assert!(cache.get(token, 1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.hits >= 3);
        assert!(stats.misses >= 2);
        assert_eq!(stats.resident_bytes, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn contains_probes_without_touching_lru_or_counters() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(2 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        cache.insert(token, 1, img(1));
        cache.insert(token, 2, img(2));
        let before = cache.stats();
        assert!(cache.contains(token, 1));
        assert!(!cache.contains(token, 3));
        assert!(!cache.contains(next_store_token(), 1));
        assert_eq!(cache.stats(), before, "a probe counts nothing");
        // Probing 1 did not refresh it: it is still the LRU victim.
        cache.insert(token, 3, img(3));
        assert!(!cache.contains(token, 1));
        assert!(cache.contains(token, 2) && cache.contains(token, 3));
    }

    #[test]
    fn cache_tokens_namespace_partition_ids() {
        let cache = BlockCache::new(CacheConfig::default());
        let (a, b) = (next_store_token(), next_store_token());
        let img = sample_partition(5, 1, 1, 2);
        cache.insert(a, 7, img.clone());
        assert!(cache.get(a, 7).is_some());
        assert!(cache.get(b, 7).is_none());
        cache.invalidate(a, 7);
        assert!(cache.get(a, 7).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn warming_never_evicts() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(2 * PAGE_SIZE));
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        assert!(cache.try_warm(token, 1, img(1)));
        assert!(cache.try_warm(token, 2, img(2)));
        // Budget full: warming refuses instead of evicting.
        assert!(!cache.try_warm(token, 3, img(3)));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.warmed_bytes, (img(1).len() + img(2).len()) as u64);
    }

    #[test]
    fn ledger_is_shared_and_saturating() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(4 * PAGE_SIZE));
        let ledger = cache.ledger();
        assert_eq!(ledger.used(), 0);
        // A foreign charge (e.g. the quantized cache) counts against the
        // same budget and can be evicted around.
        ledger.charge(3 * PAGE_SIZE);
        let token = next_store_token();
        let img = |seed| sample_partition(seed, 1, 2, 4);
        cache.insert(token, 1, img(1));
        cache.insert(token, 2, img(2));
        // 3 foreign pages + 2 block pages > 4: blocks evict down to 1.
        assert_eq!(cache.len(), 1);
        ledger.release(10 * PAGE_SIZE);
        assert_eq!(ledger.used(), 0, "release saturates at zero");
        assert!(!ledger.would_fit(usize::MAX));
    }

    #[test]
    fn oversized_images_bypass_the_cache() {
        let cache = BlockCache::new(CacheConfig::default().with_capacity_bytes(PAGE_SIZE));
        let token = next_store_token();
        let big = sample_partition(9, 8, 200, 16);
        assert!(big.len() > PAGE_SIZE);
        assert_eq!(cache.insert(token, 1, big.clone()), 0);
        assert!(cache.is_empty());
        assert!(!cache.try_warm(token, 1, big.clone()));
    }

    #[test]
    fn cluster_view_matches_reader_decode() {
        let v1 = sample_partition(21, 3, 7, 9);
        let reader = PartitionReader::open(v1).unwrap();
        for node in reader.cluster_ids() {
            let view = reader.cluster_view(node).unwrap();
            assert_eq!(view.len() as u32, reader.cluster_len(node).unwrap());
            assert_eq!(view.series_len(), reader.series_len());
            let mut via_reader = Vec::new();
            reader.for_each_in_cluster(node, |id, vals| via_reader.push((id, vals.to_vec())));
            assert_eq!(via_reader.len(), view.len());
            let mut scratch = Vec::new();
            for (i, (id, vals)) in via_reader.iter().enumerate() {
                assert_eq!(view.id(i), *id);
                view.values_into(i, &mut scratch);
                assert_eq!(&scratch, vals);
                let (rec_id, rec) = view.record(i);
                assert_eq!(rec_id, *id);
                let le: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(rec, &le[..]);
            }
        }
        assert!(reader.cluster_view(999_999).is_none());
    }

    #[test]
    fn page_accounting_rounds_up() {
        assert_eq!(pages_of(0), 1);
        assert_eq!(pages_of(1), 1);
        assert_eq!(pages_of(PAGE_SIZE), 1);
        assert_eq!(pages_of(PAGE_SIZE + 1), 2);
        assert_eq!(charge_of(PAGE_SIZE + 1), 2 * PAGE_SIZE);
    }
}
