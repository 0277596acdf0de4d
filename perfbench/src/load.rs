//! The closed-loop load each workload drives, untraced or traced, plus
//! the correctness check every returned answer goes through.

use crate::cpu;
use crate::trace::{query_key, TimedStore, TracedBackend, Tracer};
use climber_core::dfs::store::DiskStore;
use climber_core::query::adaptive::plan_adaptive;
use climber_core::query::plan::QueryOutcome;
use climber_core::query::refine::refine;
use climber_core::series::kernels;
use climber_core::series::Dataset;
use climber_core::{
    BatchRequest, Climber, MaintenanceReport, SearchBackend, SearchRequest, UpdateView,
};
use climber_serve::{ServeClient, ServeConfig, Server};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Answer size of every workload (the paper's default).
pub const K: usize = 100;
/// Adaptive-4X, the paper's default search mode.
pub const FACTOR: usize = 4;

pub type Index = Climber<DiskStore>;

pub fn request(query: &[f32]) -> SearchRequest {
    SearchRequest::new(query, K).adaptive(FACTOR)
}

/// Failed checks and failed operations of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Answers with fewer than `K` results.
    pub short_answers: u64,
}

impl Tally {
    pub fn violation(&mut self, msg: String) {
        if self.violations.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.violations.push(msg);
    }

    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    eprintln!("{what} failed: {e}");
                }
                None
            }
        }
    }
}

/// Checks one answer: ascending by distance, each distance equal to the
/// kernel's squared ED between the query and the stored row with that
/// id, and `K` results, or every record scanned when the planned
/// partitions held fewer than `K` (the planner gives up rather than open
/// more partitions; such answers are counted as short).
pub fn check_answer(tally: &mut Tally, data: &Dataset, query: &[f32], out: &QueryOutcome) {
    let results = &out.results;
    let want_len = (out.records_scanned as usize).min(K);
    if results.len() != want_len {
        tally.violation(format!(
            "{} results, expected {want_len} ({} records scanned)",
            results.len(),
            out.records_scanned
        ));
    }
    if results.len() < K {
        tally.short_answers += 1;
    }
    if results.windows(2).any(|w| w[0].1 > w[1].1) {
        tally.violation("results are not ascending by distance".into());
    }
    for &(id, dist) in results {
        if id as usize >= data.num_series() {
            tally.violation(format!("result id {id} was never stored"));
            continue;
        }
        let want = kernels::sq_ed(query, data.get(id));
        if dist.to_bits() != want.to_bits() {
            tally.violation(format!("id {id}: distance {dist} != sq_ed {want}"));
        }
    }
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// One request a client sent, on the tracer's clock.
pub struct Sent {
    pub query: usize,
    pub send_ns: u64,
    pub recv_ns: u64,
}

pub struct ServeRun {
    pub elapsed_s: f64,
    pub sent: Vec<Sent>,
    /// Answers kept for the check after the timed region.
    pub answers: Vec<(usize, QueryOutcome)>,
    pub mean_batch: f64,
    /// Process CPU seconds from the clients' start to their end: server
    /// and clients together.
    pub cpu_s: f64,
    /// Served outcomes of the verification sample, fetched after the
    /// timed region through a fresh client.
    pub sample: Vec<Option<QueryOutcome>>,
}

/// What one closed-loop client sent and got back.
struct ClientLog {
    sent: Vec<Sent>,
    answers: Vec<(usize, QueryOutcome)>,
    attempted: u64,
    failed: u64,
}

/// `clients` closed-loop `ServeClient`s against a `climber-serve` with the
/// default `ServeConfig`, for `seconds`. Client `c` sends queries
/// `c, c + clients, ...`, so no two in-flight requests share a query.
pub fn serve_load<B: SearchBackend + 'static>(
    backend: Arc<B>,
    queries: &[Vec<f32>],
    clients: usize,
    seconds: f64,
    sample: &[Vec<f32>],
    clock: &Tracer,
    tally: &mut Tally,
) -> ServeRun {
    let server = match Server::start(backend, "127.0.0.1:0", ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            tally.op::<(), _>("server start", Err(e));
            return ServeRun {
                elapsed_s: seconds,
                sent: Vec::new(),
                answers: Vec::new(),
                mean_batch: 0.0,
                cpu_s: 0.0,
                sample: Vec::new(),
            };
        }
    };
    let addr = server.local_addr();
    let reqs: Vec<SearchRequest> = queries.iter().map(|q| request(q)).collect();
    let barrier = Barrier::new(clients + 1);
    let logs: Mutex<Vec<ClientLog>> = Mutex::new(Vec::new());
    let cpu_start = std::thread::scope(|s| {
        for c in 0..clients {
            let (reqs, barrier, logs) = (&reqs, &barrier, &logs);
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).ok();
                // Warm-up: connection, handler thread and first batches.
                for j in 0..8 {
                    if let Some(cl) = client.as_mut() {
                        let _ = cl.search(&reqs[(c + j * clients) % reqs.len()]);
                    }
                }
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                let (mut sent, mut answers, mut attempted, mut failed) =
                    (Vec::new(), Vec::new(), 0u64, 0u64);
                let mut j = 0;
                while Instant::now() < deadline {
                    let qi = (c + j * clients) % reqs.len();
                    j += 1;
                    attempted += 1;
                    let send_ns = clock.now();
                    let out = match client.as_mut() {
                        Some(cl) => cl.search(&reqs[qi]).ok(),
                        None => None,
                    };
                    let recv_ns = clock.now();
                    match out {
                        Some(o) => {
                            sent.push(Sent {
                                query: qi,
                                send_ns,
                                recv_ns,
                            });
                            answers.push((qi, o));
                        }
                        None => failed += 1,
                    }
                }
                logs.lock().expect("client logs poisoned").push(ClientLog {
                    sent,
                    answers,
                    attempted,
                    failed,
                });
            });
        }
        barrier.wait();
        cpu::process()
    });
    let cpu_s = cpu::process() - cpu_start;
    let logs = logs.into_inner().expect("client logs poisoned");
    let stats = server.stats();
    let mut verifier = ServeClient::connect(addr);
    let sample = sample
        .iter()
        .map(|q| match verifier.as_mut() {
            Ok(cl) => tally.op("served search", cl.search(&request(q))),
            Err(_) => None,
        })
        .collect();
    drop(verifier);
    server.shutdown();
    let (mut sent, mut answers) = (Vec::new(), Vec::new());
    let mut first_send = u64::MAX;
    let mut last_recv = 0u64;
    for ClientLog {
        sent: s,
        answers: a,
        attempted,
        failed,
    } in logs
    {
        tally.attempted += attempted;
        tally.failed += failed;
        if let (Some(f), Some(l)) = (s.first(), s.last()) {
            first_send = first_send.min(f.send_ns);
            last_recv = last_recv.max(l.recv_ns);
        }
        sent.extend(s);
        answers.extend(a);
    }
    ServeRun {
        elapsed_s: last_recv.saturating_sub(first_send) as f64 / 1e9,
        sent,
        answers,
        mean_batch: stats.mean_batch,
        cpu_s,
        sample,
    }
}

/// Per-request serve spans from a traced serve run: the request
/// (send to receive) with three children: the wait until the backend
/// call carrying it started, the backend call, and the response.
pub fn serve_spans(tracer: &Tracer, backend: &TracedBackend, run: &ServeRun, queries: &[Vec<f32>]) {
    let calls = backend.calls.lock().expect("backend call log poisoned");
    // Backend calls per query key, in start order.
    let mut by_key: std::collections::HashMap<u64, Vec<usize>> = Default::default();
    for (i, call) in calls.iter().enumerate() {
        for &k in &call.keys {
            by_key.entry(k).or_default().push(i);
        }
    }
    for (rid, s) in run.sent.iter().enumerate() {
        let key = query_key(&queries[s.query]);
        let Some(&ci) = by_key.get(&key).and_then(|v| {
            v.iter()
                .find(|&&i| calls[i].start_ns >= s.send_ns && calls[i].end_ns <= s.recv_ns)
        }) else {
            continue;
        };
        let call = &calls[ci];
        let rid = rid as u64;
        let root = tracer.record("serve.request", s.send_ns, s.recv_ns, None, rid);
        tracer.record(
            "serve.queue_wait",
            s.send_ns,
            call.start_ns,
            Some(root),
            rid,
        );
        tracer.record("serve.backend", call.start_ns, call.end_ns, Some(root), rid);
        tracer.record("serve.response", call.end_ns, s.recv_ns, Some(root), rid);
    }
}

// ---------------------------------------------------------------------------
// batch_cold
// ---------------------------------------------------------------------------

pub struct BatchRun {
    /// Seconds spent inside the batch calls.
    pub busy_s: f64,
    /// Duration of each batch call, in µs.
    pub batch_us: Vec<f64>,
    pub queries: u64,
    pub sharing: Vec<f64>,
    pub opens: u64,
    /// Process CPU seconds inside the batch calls.
    pub cpu_s: f64,
}

/// One caller issuing `Climber::search_many` (traced: `Climber::batch`,
/// which reports the sharing counters) in batches of `batch`, cycling
/// through the held-out queries, until `seconds` of calls have run.
/// Answers are checked between calls, off the clock.
pub fn batch_load(
    index: &Index,
    data: &Dataset,
    queries: &[Vec<f32>],
    batch: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> BatchRun {
    let mut run = BatchRun {
        busy_s: 0.0,
        batch_us: Vec::new(),
        queries: 0,
        sharing: Vec::new(),
        opens: 0,
        cpu_s: 0.0,
    };
    let batches = (queries.len() / batch).max(1);
    let mut b = 0usize;
    // One untimed warm-up batch, then measure.
    let mut warm = true;
    while warm || run.busy_s < seconds {
        let lo = (b % batches) * batch;
        let chunk = &queries[lo..(lo + batch).min(queries.len())];
        b += 1;
        let (outcomes, dt) = match tracer {
            None => {
                let reqs: Vec<SearchRequest> = chunk.iter().map(|q| request(q)).collect();
                let c = cpu::process();
                let t = Instant::now();
                let out = index.search_many(&reqs);
                let dt = t.elapsed().as_secs_f64();
                if !warm {
                    run.cpu_s += cpu::process() - c;
                }
                (out, dt)
            }
            Some(tr) => {
                let id = tr.begin("core.batch", None, b as u64);
                let t = Instant::now();
                let out = index.batch(&BatchRequest::adaptive(chunk, K, FACTOR));
                let dt = t.elapsed().as_secs_f64();
                tr.end(id);
                if !warm {
                    run.sharing.push(out.sharing_factor());
                    run.opens += out.partitions_opened as u64;
                }
                (out.outcomes, dt)
            }
        };
        if !warm {
            run.busy_s += dt;
            run.batch_us.push(dt * 1e6);
            run.queries += chunk.len() as u64;
            tally.attempted += chunk.len() as u64;
        }
        warm = false;
        for (q, o) in chunk.iter().zip(&outcomes) {
            check_answer(tally, data, q, o);
        }
    }
    run
}

// ---------------------------------------------------------------------------
// The per-query pipeline, traced layer by layer
// ---------------------------------------------------------------------------

/// Runs one query as `Climber::search` does, one public call per layer:
/// `IndexSkeleton::extract_signature`, `plan_adaptive`, then `refine`
/// over a [`TimedStore`], each inside its own span.
pub fn traced_search(
    index: &Index,
    store: &TimedStore<'_>,
    tracer: &Tracer,
    query: &[f32],
    rid: u64,
) -> QueryOutcome {
    let root = tracer.begin("query", None, rid);
    let s = tracer.begin("index.signature", Some(root), rid);
    let sig = index.skeleton().extract_signature(query);
    tracer.end(s);
    let p = tracer.begin("query.plan", Some(root), rid);
    let plan = plan_adaptive(index.skeleton(), &sig, K, FACTOR, query_key(query));
    tracer.end(p);
    let updates = UpdateView {
        delta: index.delta(),
        tombstones: index.tombstones(),
    };
    let updates = (!updates.is_noop()).then_some(updates);
    let r = tracer.begin("query.refine", Some(root), rid);
    store.set_context(r, rid);
    let out = refine(
        store,
        &plan,
        query,
        K,
        true,
        updates,
        Some(index.quant_cache()),
    );
    tracer.end(r);
    tracer.end(root);
    out
}

// ---------------------------------------------------------------------------
// ingest_mixed and the write phase
// ---------------------------------------------------------------------------

/// Rows appended per `append_batch` call.
pub const APPEND_BATCH: usize = 64;
/// Searches after each append.
pub const SEARCHES_PER_APPEND: usize = 8;
/// Rows appended between flushes.
pub const FLUSH_EVERY: usize = 8_000;
/// Fewest flushes a mixed run makes, however fast the host.
pub const MIN_FLUSHES: usize = 5;

/// One append-search-flush cycle of [`ingest_load`].
pub struct Cycle {
    pub traced: bool,
    /// Seconds inside append, search and flush calls.
    pub busy_s: f64,
    pub rows: u64,
    /// Duration of each search, in µs.
    pub search_us: Vec<f64>,
    /// CPU time of the calling thread in each search, in µs.
    pub search_cpu_us: Vec<f64>,
    /// Process CPU seconds inside the append and flush calls.
    pub write_cpu_s: f64,
}

#[derive(Default)]
pub struct IngestRun {
    pub cycles: Vec<Cycle>,
    /// Seconds inside append, search and flush calls.
    pub busy_s: f64,
    pub rows: u64,
    pub searches: u64,
    pub flush_reports: Vec<MaintenanceReport>,
    pub flush_bytes_written: u64,
    /// [`work_of`] each search.
    pub query_work: Vec<(f64, f64, f64)>,
}

/// Partitions opened, records scanned, and records scanned per result
/// returned: the work one query did.
pub fn work_of(o: &QueryOutcome) -> (f64, f64, f64) {
    (
        o.partitions_opened as f64,
        o.records_scanned as f64,
        o.records_scanned as f64 / o.results.len().max(1) as f64,
    )
}

/// Appends rows in cycles of [`FLUSH_EVERY`], each cycle ending in a
/// flush. With `searches`, every `append_batch` is followed by
/// [`SEARCHES_PER_APPEND`] sequential searches (traced: the per-layer
/// pipeline). Cycles repeat until at least `seconds` of calls and
/// `min_flushes` flushes have run. Appended rows are pushed onto `live`
/// so answers can be checked against every stored row. With a tracer,
/// every cycle is traced, or with `alternate` every second one, so traced
/// and untraced cycles see an index of the same size.
#[allow(clippy::too_many_arguments)]
pub fn ingest_load(
    index: &Index,
    live: &mut Dataset,
    domain: climber_core::series::gen::Domain,
    seed: u64,
    queries: &[Vec<f32>],
    searches: bool,
    seconds: f64,
    min_flushes: usize,
    tracer: Option<&Tracer>,
    alternate: bool,
    tally: &mut Tally,
) -> IngestRun {
    let mut run = IngestRun::default();
    let all = tracer;
    let mut qi = 0usize;
    let mut cycle = 0u64;
    while run.cycles.len() < min_flushes || run.busy_s < seconds {
        // Rows for this cycle are generated off the clock.
        let rows = crate::data::fresh_rows(domain, FLUSH_EVERY, seed, cycle);
        let tracer = all.filter(|_| !alternate || cycle % 2 == 1);
        let store = tracer.map(|t| TimedStore::new(index.store(), t));
        cycle += 1;
        let (busy0, rows0) = (run.busy_s, run.rows);
        let (mut search_us, mut search_cpu_us, mut write_cpu_s) = (Vec::new(), Vec::new(), 0.0);
        for chunk in rows.chunks(APPEND_BATCH) {
            let span = tracer.map(|t| t.begin("dfs.append", None, run.rows));
            let c = cpu::process();
            let t = Instant::now();
            let ids = index.append_batch(chunk);
            let dt = t.elapsed().as_secs_f64();
            write_cpu_s += cpu::process() - c;
            if let (Some(t), Some(id)) = (tracer, span) {
                t.end(id);
            }
            run.busy_s += dt;
            if let Some(ids) = tally.op("append_batch", ids) {
                let expect = live.num_series() as u64;
                if ids != (expect..expect + chunk.len() as u64).collect::<Vec<_>>() {
                    tally.violation(format!(
                        "append ids {:?}.. not sequential from {expect}",
                        ids.first()
                    ));
                }
                for r in chunk {
                    live.push(r);
                }
            }
            run.rows += chunk.len() as u64;
            if !searches {
                continue;
            }
            for _ in 0..SEARCHES_PER_APPEND {
                let q = &queries[qi % queries.len()];
                qi += 1;
                let c = cpu::thread();
                let t = Instant::now();
                let out = match (&store, tracer) {
                    (Some(st), Some(tr)) => traced_search(index, st, tr, q, qi as u64),
                    _ => index.search(&request(q)),
                };
                let dt = t.elapsed().as_secs_f64();
                search_cpu_us.push((cpu::thread() - c) * 1e6);
                run.busy_s += dt;
                search_us.push(dt * 1e6);
                run.searches += 1;
                run.query_work.push(work_of(&out));
                tally.attempted += 1;
                check_answer(tally, live, q, &out);
                if tracer.is_some() && qi.is_multiple_of(64) {
                    let direct = index.search(&request(q));
                    if direct != out {
                        tally.violation(
                            "traced pipeline answer differs from Climber::search".into(),
                        );
                    }
                }
            }
        }
        let before = index.serve_io().bytes_written;
        let span = tracer.map(|t| t.begin("dfs.flush", None, cycle));
        let c = cpu::process();
        let t = Instant::now();
        let report = index.flush();
        let dt = t.elapsed().as_secs_f64();
        write_cpu_s += cpu::process() - c;
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        run.busy_s += dt;
        run.flush_bytes_written += index.serve_io().bytes_written.saturating_sub(before);
        if let Some(r) = tally.op("flush", report) {
            run.flush_reports.push(r);
        }
        run.cycles.push(Cycle {
            traced: tracer.is_some(),
            busy_s: run.busy_s - busy0,
            rows: run.rows - rows0,
            search_us,
            search_cpu_us,
            write_cpu_s,
        });
    }
    run
}

/// Checks that a cold `Climber::open` of `dir` answers `sample` exactly
/// as the live handle does: acknowledged appends survived flush and
/// reopen.
pub fn check_reopen(index: &Index, dir: &std::path::Path, sample: &[Vec<f32>], tally: &mut Tally) {
    let Some(cold) = tally.op("cold open", Climber::open(dir)) else {
        return;
    };
    for q in sample {
        let req = request(q);
        if cold.search(&req) != index.search(&req) {
            tally.violation("cold reopen answers differently from the live index".into());
            return;
        }
    }
}
