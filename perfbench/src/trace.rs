//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while a run measures and are written out once at
//! the end. Nothing here is inside the program: every span wraps a call
//! the benchmark makes into a crate's public API, or a call the program
//! makes back into a public trait the benchmark implements
//! (`PartitionStore`, `SearchBackend`).

use climber_core::dfs::stats::IoStats;
use climber_core::dfs::store::{DiskStore, PartitionId, PartitionStore};
use climber_core::query::plan::QueryOutcome;
use climber_core::{BackendHealth, BlockCache, Climber, IoSnapshot, SearchBackend, SearchRequest};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
}

/// An in-memory span store with one clock.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Opens a span whose end is set by [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn end(&self, id: usize) {
        let now = self.now();
        self.spans.lock().expect("tracer lock poisoned")[id].end_ns = now;
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times in µs of every span named `name`: its duration minus
    /// the durations of its child spans. Children of one span never
    /// overlap here, because every parent runs its children in sequence.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns: HashMap<usize, u64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&i).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// A `PartitionStore` that times every `open` of the store it wraps and
/// records it as a `dfs.fetch_hit` or `dfs.fetch_miss` span, classified
/// by whether the block cache's miss counter moved during the call.
pub struct TimedStore<'a> {
    inner: &'a DiskStore,
    cache: Option<Arc<BlockCache>>,
    tracer: &'a Tracer,
    parent: AtomicUsize,
    request: AtomicU64,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a DiskStore, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            cache: inner.block_cache(),
            tracer,
            parent: AtomicUsize::new(usize::MAX),
            request: AtomicU64::new(0),
        }
    }

    /// Sets the span and request the next opens belong to.
    pub fn set_context(&self, parent: usize, request: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.request.store(request, Ordering::Relaxed);
    }

    fn misses(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.stats().misses)
    }
}

impl PartitionStore for TimedStore<'_> {
    fn put(&self, id: PartitionId, bytes: bytes::Bytes) -> io::Result<()> {
        self.inner.put(id, bytes)
    }

    fn open(&self, id: PartitionId) -> io::Result<climber_core::dfs::format::PartitionReader> {
        let misses = self.misses();
        let start = self.tracer.now();
        let reader = self.inner.open(id);
        let end = self.tracer.now();
        // Without a cache every open reads the filesystem.
        let name = if self.cache.is_none() || self.misses() > misses {
            "dfs.fetch_miss"
        } else {
            "dfs.fetch_hit"
        };
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.record(
            name,
            start,
            end,
            (parent != usize::MAX).then_some(parent),
            self.request.load(Ordering::Relaxed),
        );
        reader
    }

    fn ids(&self) -> Vec<PartitionId> {
        self.inner.ids()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn quarantined(&self) -> Vec<PartitionId> {
        self.inner.quarantined()
    }

    fn block_cache(&self) -> Option<Arc<BlockCache>> {
        self.cache.clone()
    }
}

/// One call the server made into its backend.
pub struct BackendCall {
    pub start_ns: u64,
    pub end_ns: u64,
    /// [`query_key`] of each request in the micro-batch.
    pub keys: Vec<u64>,
}

/// A `SearchBackend` handed to `Server::start` in the traced run: it
/// forwards each micro-batch to the index and records when the call
/// started and ended and which queries it carried.
pub struct TracedBackend {
    pub inner: Arc<Climber<DiskStore>>,
    pub tracer: Arc<Tracer>,
    pub calls: Mutex<Vec<BackendCall>>,
}

impl SearchBackend for TracedBackend {
    fn search_many(&self, reqs: &[SearchRequest]) -> Vec<QueryOutcome> {
        let start_ns = self.tracer.now();
        let out = self.inner.search_many(reqs);
        let end_ns = self.tracer.now();
        let keys = reqs.iter().map(|r| query_key(&r.query)).collect();
        self.calls
            .lock()
            .expect("backend call log poisoned")
            .push(BackendCall {
                start_ns,
                end_ns,
                keys,
            });
        out
    }

    fn health(&self) -> BackendHealth {
        SearchBackend::health(&*self.inner)
    }

    fn io(&self) -> IoSnapshot {
        self.inner.serve_io()
    }
}

/// FNV-1a over the query's bits. Doubles as the planner's tie-break seed,
/// which the index derives from the query bytes the same way.
pub fn query_key(query: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in query {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
