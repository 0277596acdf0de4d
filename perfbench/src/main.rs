//! The repository's benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It generates the data and held-out queries from the seed, builds the
//! index through the public API with the paper-default geometry, drives
//! the workload in a closed loop, checks every answer, and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, taken from spans the benchmark records around
//! its calls into each crate (see `README.md` beside this file).

mod cpu;
mod data;
mod load;
mod trace;

use climber_core::dfs::format::{Decode, Encode};
use climber_core::dfs::store::PartitionStore;
use climber_core::query::plan::QueryOutcome;
use climber_core::series::gen::Domain;
use climber_core::series::ground_truth::exact_knn_batch;
use climber_core::series::kernels;
use climber_core::series::recall::recall_of_results;
use climber_core::series::Dataset;
use climber_core::{BatchRequest, CacheConfig, Climber, IoSnapshot, RecoveryPolicy};
use load::{Index, Tally, K};
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{TimedStore, TracedBackend, Tracer};

/// Indexed rows per workload.
const DEFAULT_ROWS: usize = 200_000;
/// Held-out queries generated beside the data.
const QUERIES: usize = 4_096;
/// Queries whose answers are compared with brute force and with a
/// second path through the program.
const SAMPLE: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batch size of `batch_cold`.
const BATCH: usize = 256;
/// Queries in the traced per-layer sweep.
const SWEEP: usize = 512;
/// Seconds of serving in the traced serve probe on workloads whose load
/// does not serve.
const SERVE_PROBE_S: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeWarm,
    BatchCold,
    BatchWarm,
    IngestMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve_warm" => Some(Self::ServeWarm),
            "batch_cold" => Some(Self::BatchCold),
            "batch_warm" => Some(Self::BatchWarm),
            "ingest_mixed" => Some(Self::IngestMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeWarm => "serve_warm",
            Self::BatchCold => "batch_cold",
            Self::BatchWarm => "batch_warm",
            Self::IngestMixed => "ingest_mixed",
        }
    }

    fn domain(self) -> Domain {
        match self {
            Self::BatchCold | Self::BatchWarm => Domain::TexMex,
            _ => Domain::RandomWalk,
        }
    }

    /// Block-cache budget: a quarter of the index directory for
    /// `batch_cold`, otherwise larger than the whole index.
    fn cache_budget(self, index_bytes: u64) -> usize {
        match self {
            Self::BatchCold => (index_bytes / 4) as usize,
            _ => (index_bytes * 2 + (64 << 20)) as usize,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rows = DEFAULT_ROWS;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("seconds"))?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            // Only the smoke test shrinks the data.
            "--rows" => rows = value.parse().map_err(|_| bad("rows"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 || rows < 2_000 {
        return Err("--seconds must be positive and --rows at least 2000".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        rows,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_warm|batch_cold|batch_warm|ingest_mixed --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    fs::remove_dir_all(&work).ok();
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Metrics of one run, in print order. Those `BENCHMARK.json` declares
/// go into the result line; the others are printed for reading only.
#[derive(Default)]
struct Metrics {
    declared: Vec<(&'static str, f64, &'static str)>,
    printed: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.declared.push((name, value, unit));
    }

    fn print_only(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.printed.push((name, value, unit));
    }
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let n = args.rows;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut tally = Tally::default();
    let cpu_at_start = host_cpu();

    let t = Instant::now();
    let data::Inputs { data, queries } = data::generate(w.domain(), n, QUERIES, args.seed);
    eprintln!(
        "generated {} + {} series in {:.2}s",
        n,
        QUERIES,
        t.elapsed().as_secs_f64()
    );
    let len = data.series_len();

    // Set-up: build, save and cold open, several times; the last handle
    // serves the run.
    let dir = work.join("index");
    let config = climber_bench::experiment_config(n);
    let (mut setup_s, mut open_ms) = (Vec::new(), Vec::new());
    let mut opened = None;
    let mut budget = 0usize;
    for _ in 0..SETUP_REPS {
        drop(opened.take());
        fs::remove_dir_all(&dir).ok();
        let t = Instant::now();
        let built = Climber::build_on_disk(&data, &dir, config)
            .map_err(|e| format!("build failed: {e}"))?;
        drop(built);
        let build_s = t.elapsed().as_secs_f64();
        budget = w.cache_budget(dir_bytes(&dir));
        let t = Instant::now();
        let (index, _) = Climber::open_with_cache(
            &dir,
            RecoveryPolicy::Strict,
            CacheConfig::default().with_capacity_bytes(budget),
        )
        .map_err(|e| format!("open failed: {e}"))?;
        let open_s = t.elapsed().as_secs_f64();
        setup_s.push(build_s + open_s);
        open_ms.push(open_s * 1e3);
        opened = Some(index);
    }
    let index = Arc::new(opened.expect("SETUP_REPS > 0"));
    let built_bytes = dir_bytes(&dir);
    eprintln!("set-up {:?} s", setup_s);

    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rows\":{n},\"queries\":{QUERIES},\
         \"k\":{K},\"mode\":\"adaptive-{}x\",\"series_len\":{len},\"nproc\":{nproc},\"tier\":\"{}\",\
         \"git_rev\":\"{}\",\"cache_budget_bytes\":{budget},\"index_bytes\":{built_bytes}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load::FACTOR,
        kernels::current().name(),
        git_rev()
    );
    println!("meta {meta}");

    let metrics = if args.trace {
        traced(
            args, &index, data, &queries, &dir, &open_ms, nproc, &mut tally, work,
        )?
    } else {
        untraced(
            args, &index, data, &queries, &dir, nproc, &mut tally, &setup_s,
        )
    };

    // Timings on a shared host move with its neighbours: say how much
    // CPU they took from this run.
    if let (Some(a), Some(b)) = (cpu_at_start, host_cpu()) {
        let total: u64 = b.iter().zip(&a).map(|(x, y)| x - y).sum::<u64>().max(1);
        let share = |i: usize| (b[i] - a[i]) as f64 * 100.0 / total as f64;
        println!(
            "host during the run: steal {:.1}%, iowait {:.1}%",
            share(7),
            share(4)
        );
    }
    let correct = tally.violations.is_empty();
    println!("{:<34} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &metrics.declared {
        println!("{name:<34} {value:>16.4}  {unit}");
    }
    for (name, value, unit) in &metrics.printed {
        println!("{name:<34} {value:>16.4}  {unit}  (wall clock; printed, not gated)");
    }
    println!(
        "error_rate {} ({} failed of {} attempted); {} answers short of k; checks {}",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        tally.short_answers,
        if correct {
            "passed".to_string()
        } else {
            format!("FAILED ({} violations)", tally.violations.len())
        }
    );
    let body: Vec<String> = metrics
        .declared
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    Ok(correct)
}

/// The untraced run: the end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    index: &Arc<Index>,
    mut live: Dataset,
    queries: &[Vec<f32>],
    dir: &Path,
    nproc: usize,
    tally: &mut Tally,
    setup_s: &[f64],
) -> Metrics {
    let w = args.workload;
    let sample = &queries[..SAMPLE];
    let len = live.series_len();
    let mut m = Metrics::default();
    let (segments, answers, cpu_us_per_query): (Vec<Segment>, Vec<QueryOutcome>, f64);
    let mut ingest_rates = None;
    let mut disk_ratio = dir_bytes(dir) as f64 / (live.num_series() * len * 4) as f64;
    let clock = Tracer::new();
    match w {
        Workload::ServeWarm => {
            let run = load::serve_load(
                Arc::clone(index),
                queries,
                nproc,
                args.seconds,
                sample,
                &clock,
                tally,
            );
            for (qi, out) in &run.answers {
                load::check_answer(tally, &live, &queries[*qi], out);
            }
            segments = serve_segments(&run);
            cpu_us_per_query = run.cpu_s * 1e6 / run.sent.len().max(1) as f64;
            answers = served_sample(index, sample, run.sample, tally);
            eprintln!("serve: mean batch {:.2}", run.mean_batch);
        }
        Workload::BatchCold | Workload::BatchWarm => {
            let run = load::batch_load(index, &live, queries, BATCH, args.seconds, None, tally);
            cpu_us_per_query = run.cpu_s * 1e6 / run.queries as f64;
            segments = run
                .batch_us
                .chunks(run.batch_us.len().div_ceil(SEGMENTS).max(1))
                .map(|c| Segment {
                    done: (c.len() * BATCH) as u64,
                    busy_s: c.iter().sum::<f64>() / 1e6,
                    lat_us: c.to_vec(),
                })
                .collect();
            answers = batched_sample(index, queries, sample.len(), tally);
        }
        Workload::IngestMixed => {
            let run = load::ingest_load(
                index,
                &mut live,
                w.domain(),
                args.seed,
                queries,
                true,
                args.seconds,
                load::MIN_FLUSHES,
                None,
                false,
                tally,
            );
            segments = run
                .cycles
                .iter()
                .map(|c| Segment {
                    done: c.search_us.len() as u64,
                    busy_s: c.busy_s,
                    lat_us: c.search_us.clone(),
                })
                .collect();
            load::check_reopen(index, dir, sample, tally);
            disk_ratio = dir_bytes(dir) as f64 / (live.num_series() * len * 4) as f64;
            answers = sample
                .iter()
                .map(|q| index.search(&load::request(q)))
                .collect();
            ingest_rates = Some(write_rates(&run));
            // The median: on some data a few queries scan a huge cluster,
            // and a mean would follow them.
            let per_search: Vec<f64> = first_cycles(&run)
                .iter()
                .flat_map(|c| c.search_cpu_us.clone())
                .collect();
            cpu_us_per_query = median(&per_search);
        }
    }
    // Brute-force ground truth over the live rows, off the clock.
    let t = Instant::now();
    let recall = mean_recall(&answers, &exact_knn_batch(&live, sample, K));
    eprintln!(
        "ground truth for {} queries in {:.2}s",
        sample.len(),
        t.elapsed().as_secs_f64()
    );
    for (q, a) in sample.iter().zip(&answers) {
        load::check_answer(tally, &live, q, a);
    }
    // The write phase: appends and flushes with no queries beside them,
    // on the workloads whose load does not write.
    let (rows_per_s, cpu_us_per_row) = ingest_rates.unwrap_or_else(|| {
        let run = load::ingest_load(
            index,
            &mut live,
            w.domain(),
            args.seed,
            queries,
            false,
            0.0,
            load::MIN_FLUSHES,
            None,
            false,
            tally,
        );
        load::check_reopen(index, dir, sample, tally);
        write_rates(&run)
    });
    // Each timing is the median over the run's segments, which keeps
    // a passing stall of the host from setting a whole run's figure.
    let per = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    println!(
        "{} latency samples in {} segments; per segment qps/p50/p99:",
        segments.iter().map(|s| s.lat_us.len()).sum::<usize>(),
        segments.len()
    );
    for s in &segments {
        println!(
            "  {:.1} / {:.1} / {:.1}",
            s.done as f64 / s.busy_s,
            quantile_of(&s.lat_us, 0.5),
            quantile_of(&s.lat_us, 0.99)
        );
    }
    m.put("cpu_us_per_query", cpu_us_per_query, "us");
    m.put("ingest_cpu_us_per_row", cpu_us_per_row, "us");
    m.put("recall_at_k", recall, "ratio");
    m.put("setup_s", median(setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("disk_bytes_per_user_byte", disk_ratio, "ratio");
    m.print_only("qps", per(&|s| s.done as f64 / s.busy_s), "1/s");
    m.print_only("query_p50_us", per(&|s| quantile_of(&s.lat_us, 0.50)), "us");
    m.print_only("query_p99_us", per(&|s| quantile_of(&s.lat_us, 0.99)), "us");
    m.print_only("ingest_rows_per_s", rows_per_s, "1/s");
    m
}

/// Segments a run's timings are split into.
const SEGMENTS: usize = 5;

/// One stretch of a run: operations completed, seconds they took, and
/// the latency of each.
struct Segment {
    done: u64,
    busy_s: f64,
    lat_us: Vec<f64>,
}

/// A serve run cut into [`SEGMENTS`] equal stretches of wall time, each
/// request placed by when its answer arrived.
fn serve_segments(run: &load::ServeRun) -> Vec<Segment> {
    let t0 = run.sent.iter().map(|s| s.send_ns).min().unwrap_or(0);
    let t1 = run.sent.iter().map(|s| s.recv_ns).max().unwrap_or(0);
    let width = (t1 - t0).div_ceil(SEGMENTS as u64).max(1);
    let mut segs: Vec<Segment> = (0..SEGMENTS)
        .map(|_| Segment {
            done: 0,
            busy_s: width as f64 / 1e9,
            lat_us: Vec::new(),
        })
        .collect();
    for s in &run.sent {
        let seg = &mut segs[(((s.recv_ns - t0) / width) as usize).min(SEGMENTS - 1)];
        seg.done += 1;
        seg.lat_us.push((s.recv_ns - s.send_ns) as f64 / 1e3);
    }
    segs
}

/// Rows appended per second of append and flush calls (wall clock), and
/// process CPU µs per row inside them: medians over the flush cycles.
fn write_rates(run: &load::IngestRun) -> (f64, f64) {
    let cycles = first_cycles(run);
    let rows_per_s: Vec<f64> = cycles.iter().map(|c| c.rows as f64 / c.busy_s).collect();
    let cpu_us_per_row: Vec<f64> = cycles
        .iter()
        .map(|c| c.write_cpu_s * 1e6 / c.rows as f64)
        .collect();
    println!("per flush cycle rows/s: {rows_per_s:.0?}; cpu us/row: {cpu_us_per_row:.2?}");
    (median(&rows_per_s), median(&cpu_us_per_row))
}

/// The first [`load::MIN_FLUSHES`] flush cycles, which every run makes:
/// each flush costs more as the index grows, so a figure over more cycles
/// would depend on how fast the host ran.
fn first_cycles(run: &load::IngestRun) -> &[load::Cycle] {
    &run.cycles[..run.cycles.len().min(load::MIN_FLUSHES)]
}

/// Served outcomes of the sample, each checked against direct
/// `Climber::search`.
fn served_sample(
    index: &Index,
    sample: &[Vec<f32>],
    served: Vec<Option<QueryOutcome>>,
    tally: &mut Tally,
) -> Vec<QueryOutcome> {
    let mut out = Vec::new();
    for (q, s) in sample.iter().zip(served) {
        let direct = index.search(&load::request(q));
        match s {
            Some(s) if s == direct => out.push(s),
            Some(_) => tally.violation("served outcome differs from Climber::search".into()),
            None => {}
        }
    }
    out
}

/// One `search_many` batch, each outcome checked against per-request
/// `search`; returns the first `sample` outcomes.
fn batched_sample(
    index: &Index,
    queries: &[Vec<f32>],
    sample: usize,
    tally: &mut Tally,
) -> Vec<QueryOutcome> {
    let reqs: Vec<_> = queries[..BATCH.min(queries.len())]
        .iter()
        .map(|q| load::request(q))
        .collect();
    let batched = index.search_many(&reqs);
    for (r, b) in reqs.iter().zip(&batched) {
        if index.search(r) != *b {
            tally.violation("search_many outcome differs from per-request search".into());
            break;
        }
    }
    batched.into_iter().take(sample).collect()
}

/// The traced run: the per-layer metrics, the residual and the
/// tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    index: &Arc<Index>,
    mut live: Dataset,
    queries: &[Vec<f32>],
    dir: &Path,
    open_ms: &[f64],
    nproc: usize,
    tally: &mut Tally,
    work: &Path,
) -> Result<Metrics, String> {
    let w = args.workload;
    let sample = &queries[..SAMPLE];
    let len = live.series_len();
    let tracer = Arc::new(Tracer::new());
    let probe = Tracer::new();

    // The same load untraced, then traced: the tracing overhead.
    let (qps_untraced, qps_traced, e2e_us, io_delta, traced_queries);
    let mut serve_calls: Option<Arc<TracedBackend>> = None;
    let mut ingest = None;
    // Sharing factors, partition opens and queries of `Climber::batch`
    // calls.
    let (mut sharing, mut batch_opens, mut batch_queries) = (Vec::new(), 0u64, 0u64);
    match w {
        Workload::ServeWarm => {
            let plain = load::serve_load(
                Arc::clone(index),
                queries,
                nproc,
                args.seconds,
                &[],
                &tracer,
                tally,
            );
            qps_untraced = plain.sent.len() as f64 / plain.elapsed_s;
            let backend = Arc::new(TracedBackend {
                inner: Arc::clone(index),
                tracer: Arc::clone(&tracer),
                calls: Mutex::new(Vec::new()),
            });
            let io0 = index.serve_io();
            let run = load::serve_load(
                Arc::clone(&backend),
                queries,
                nproc,
                args.seconds,
                sample,
                &tracer,
                tally,
            );
            io_delta = io_since(&index.serve_io(), &io0);
            for (qi, out) in &run.answers {
                load::check_answer(tally, &live, &queries[*qi], out);
            }
            served_sample(index, sample, run.sample.clone(), tally);
            load::serve_spans(&tracer, &backend, &run, queries);
            qps_traced = run.sent.len() as f64 / run.elapsed_s;
            traced_queries = run.sent.len() as u64;
            e2e_us = mean(&tracer.durations_us("serve.request"));
            serve_calls = Some(backend);
        }
        Workload::BatchCold | Workload::BatchWarm => {
            let plain = load::batch_load(index, &live, queries, BATCH, args.seconds, None, tally);
            qps_untraced = plain.queries as f64 / plain.busy_s;
            let io0 = index.serve_io();
            let run = load::batch_load(
                index,
                &live,
                queries,
                BATCH,
                args.seconds,
                Some(&tracer),
                tally,
            );
            io_delta = io_since(&index.serve_io(), &io0);
            qps_traced = run.queries as f64 / run.busy_s;
            traced_queries = run.queries;
            (sharing, batch_opens, batch_queries) = (run.sharing, run.opens, run.queries);
            e2e_us = run.busy_s * 1e6 / run.queries as f64;
            batched_sample(index, queries, 0, tally);
        }
        Workload::IngestMixed => {
            // Untraced and traced cycles alternate, so both see the index
            // grow alike.
            let io0 = index.serve_io();
            let run = load::ingest_load(
                index,
                &mut live,
                w.domain(),
                args.seed,
                queries,
                true,
                2.0 * args.seconds,
                2 * load::MIN_FLUSHES,
                Some(&tracer),
                true,
                tally,
            );
            io_delta = io_since(&index.serve_io(), &io0);
            let qps_of = |traced: bool| {
                let (s, b) = run
                    .cycles
                    .iter()
                    .filter(|c| c.traced == traced)
                    .fold((0, 0.0), |(s, b), c| (s + c.search_us.len(), b + c.busy_s));
                s as f64 / b
            };
            qps_untraced = qps_of(false);
            qps_traced = qps_of(true);
            traced_queries = run.searches;
            e2e_us = mean(&tracer.durations_us("query"));
            load::check_reopen(index, dir, sample, tally);
            ingest = Some(run);
        }
    }

    // The sweep: the layers the load does not time one by one, each
    // called directly on the same index and queries.
    let sweep = &queries[..SWEEP.min(queries.len())];
    let store = TimedStore::new(index.store(), &tracer);
    let mut pipeline = Vec::new();
    if w != Workload::IngestMixed {
        for (i, q) in sweep.iter().enumerate() {
            let out = load::traced_search(index, &store, &tracer, q, i as u64);
            if out != index.search(&load::request(q)) {
                tally.violation("traced pipeline answer differs from Climber::search".into());
            }
            load::check_answer(tally, &live, q, &out);
            pipeline.push(out);
        }
    }
    let mut outcomes = Vec::new();
    for (i, q) in sweep.iter().enumerate() {
        let req = load::request(q);
        let start = tracer.now();
        let out = index.search(&req);
        tracer.record("core.search", start, tracer.now(), None, i as u64);
        outcomes.push(out);
    }
    for (i, (q, out)) in sweep.iter().zip(&outcomes).enumerate() {
        let wire = out.encode_vec();
        let req = load::request(q);
        let start = tracer.now();
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let decoded = QueryOutcome::decode_vec(black_box(&wire));
        tracer.record("serve.codec", start, tracer.now(), None, i as u64);
        if decoded.as_ref() != Ok(out) {
            tally.violation("QueryOutcome does not survive encode/decode".into());
        }
    }
    // Batch counters at the batch size the load forms, where the load
    // does not call `Climber::batch` itself.
    if !matches!(w, Workload::BatchCold | Workload::BatchWarm) {
        let batch = match w {
            Workload::ServeWarm => nproc,
            _ => load::SEARCHES_PER_APPEND,
        };
        for chunk in sweep.chunks(batch) {
            let out = index.batch(&BatchRequest::adaptive(chunk, K, load::FACTOR));
            sharing.push(out.sharing_factor());
            batch_opens += out.partitions_opened as u64;
            batch_queries += chunk.len() as u64;
        }
    }
    let sq_ed_ns = time_sq_ed(&tracer, &live, sweep);

    // Probes for layers this workload's load does not reach.
    if w != Workload::ServeWarm {
        let backend = Arc::new(TracedBackend {
            inner: Arc::clone(index),
            tracer: Arc::clone(&tracer),
            calls: Mutex::new(Vec::new()),
        });
        let run = load::serve_load(
            Arc::clone(&backend),
            queries,
            nproc,
            SERVE_PROBE_S,
            &[],
            &tracer,
            tally,
        );
        for (qi, out) in &run.answers {
            load::check_answer(tally, &live, &queries[*qi], out);
        }
        load::serve_spans(&tracer, &backend, &run, queries);
        serve_calls = Some(backend);
    }
    let writes = match ingest {
        Some(run) => run,
        None => {
            let run = load::ingest_load(
                index,
                &mut live,
                w.domain(),
                args.seed,
                queries,
                false,
                0.0,
                load::MIN_FLUSHES,
                Some(&tracer),
                false,
                tally,
            );
            load::check_reopen(index, dir, sample, tally);
            run
        }
    };
    if tracer.count("dfs.fetch_miss") == 0 {
        // Every open hit: time misses on a second handle whose cache
        // holds nothing.
        let (cold, _) = Climber::open_with_cache(
            dir,
            RecoveryPolicy::Strict,
            CacheConfig::default().with_capacity_bytes(0),
        )
        .map_err(|e| format!("probe open failed: {e}"))?;
        let st = TimedStore::new(cold.store(), &probe);
        for pid in cold.store().ids().into_iter().take(SWEEP) {
            let _ = st.open(pid);
        }
    }
    if tracer.count("dfs.fetch_hit") == 0 {
        let st = TimedStore::new(index.store(), &probe);
        for pid in index.store().ids().into_iter().take(SWEEP) {
            for _ in 0..2 {
                let _ = st.open(pid);
            }
        }
    }

    // ---- metrics
    let backend = serve_calls.expect("every traced run serves");
    let calls = backend.calls.lock().expect("backend call log poisoned");
    let backend_us: Vec<f64> = calls
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e3)
        .collect();
    let mean_batch =
        calls.iter().map(|c| c.keys.len()).sum::<usize>() as f64 / calls.len().max(1) as f64;
    drop(calls);
    let rewritten: Vec<f64> = writes
        .flush_reports
        .iter()
        .map(|f| f.partitions_rewritten as f64)
        .collect();
    let append_us = tracer.durations_us("dfs.append");
    let flush_ms: Vec<f64> = tracer
        .durations_us("dfs.flush")
        .iter()
        .map(|u| u / 1e3)
        .collect();
    let fetch = |name: &str| {
        let own = tracer.durations_us(name);
        if own.is_empty() {
            probe.durations_us(name)
        } else {
            own
        }
    };
    let pipeline_queries = tracer.count("query").max(1) as f64;
    let per_query = |name: &str| tracer.durations_us(name).iter().sum::<f64>() / pipeline_queries;
    let layer_sum_us = per_query("index.signature")
        + per_query("query.plan")
        + tracer.self_times_us("query.refine").iter().sum::<f64>() / pipeline_queries
        + per_query("dfs.fetch_hit")
        + per_query("dfs.fetch_miss")
        + if w == Workload::ServeWarm {
            mean(&tracer.durations_us("serve.codec"))
        } else {
            0.0
        };
    // Work per query of the pipeline queries: the sweep's, or on
    // `ingest_mixed` the traced load's own.
    let pipeline: Vec<(f64, f64, f64)> = if pipeline.is_empty() {
        writes.query_work.clone()
    } else {
        pipeline.iter().map(load::work_of).collect()
    };
    let q = traced_queries.max(1) as f64;
    let hits_misses = (io_delta.cache_hits + io_delta.cache_misses).max(1) as f64;

    let mut m = Metrics::default();
    m.put(
        "serve.queue_wait_us",
        median(&tracer.durations_us("serve.queue_wait")),
        "us",
    );
    m.put("serve.backend_us", median(&backend_us), "us");
    m.put(
        "serve.response_us",
        median(&tracer.durations_us("serve.response")),
        "us",
    );
    m.put("serve.mean_batch", mean_batch, "count");
    m.put(
        "serve.codec_us",
        median(&tracer.durations_us("serve.codec")),
        "us",
    );
    m.put(
        "core.search_us",
        median(&tracer.durations_us("core.search")),
        "us",
    );
    m.put(
        "index.signature_us",
        median(&tracer.durations_us("index.signature")),
        "us",
    );
    m.put(
        "query.plan_us",
        median(&tracer.durations_us("query.plan")),
        "us",
    );
    m.put(
        "query.refine_us",
        median(&tracer.self_times_us("query.refine")),
        "us",
    );
    let col = |f: fn(&(f64, f64, f64)) -> f64| mean(&pipeline.iter().map(f).collect::<Vec<_>>());
    m.put("query.partitions_per_query", col(|s| s.0), "count");
    m.put("query.records_per_query", col(|s| s.1), "count");
    m.put("query.records_per_result", col(|s| s.2), "ratio");
    m.put("batch.sharing_factor", mean(&sharing), "ratio");
    m.put(
        "batch.opens_per_query",
        batch_opens as f64 / batch_queries.max(1) as f64,
        "count",
    );
    m.put("dfs.fetch_hit_us", median(&fetch("dfs.fetch_hit")), "us");
    m.put("dfs.fetch_miss_us", median(&fetch("dfs.fetch_miss")), "us");
    m.put(
        "dfs.cache_hit_rate",
        io_delta.cache_hits as f64 / hits_misses,
        "ratio",
    );
    m.put(
        "dfs.evictions_per_query",
        io_delta.cache_evictions as f64 / q,
        "count",
    );
    m.put(
        "dfs.bytes_read_per_query",
        io_delta.bytes_read as f64 / q,
        "B",
    );
    m.put(
        "dfs.append_us_per_row",
        median(&append_us) / load::APPEND_BATCH as f64,
        "us",
    );
    m.put("dfs.flush_ms", median(&flush_ms), "ms");
    m.put("dfs.flush_partitions_rewritten", mean(&rewritten), "count");
    m.put(
        "dfs.flush_write_amp",
        writes.flush_bytes_written as f64 / (writes.rows as usize * len * 4).max(1) as f64,
        "ratio",
    );
    m.put("dfs.open_ms", median(open_ms), "ms");
    m.put("series.sq_ed_ns", sq_ed_ns, "ns");
    m.put("trace.e2e_us", e2e_us, "us");
    m.put("trace.layer_sum_us", layer_sum_us, "us");
    m.put("trace.residual_us", e2e_us - layer_sum_us, "us");
    m.put("trace.qps_untraced", qps_untraced, "1/s");
    m.put("trace.qps_traced", qps_traced, "1/s");
    m.put(
        "trace.overhead_pct",
        (qps_untraced / qps_traced - 1.0) * 100.0,
        "%",
    );

    let path =
        work.parent()
            .unwrap_or(work)
            .join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
    let spans = tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace {} spans -> {}", spans, path.display());
    Ok(m)
}

/// Times `kernels::sq_ed` at the workload's series length: blocks of
/// calls against a few stored rows that stay in cache, so the kernel and
/// not memory sets the figure; median ns per call.
fn time_sq_ed(tracer: &Tracer, data: &Dataset, queries: &[Vec<f32>]) -> f64 {
    const ROWS: usize = 64;
    const REPS: usize = 16;
    let rows: Vec<&[f32]> = (0..ROWS).map(|i| data.get(i as u64)).collect();
    let mut per_call = Vec::new();
    for (b, q) in queries.iter().take(64).enumerate() {
        let start = tracer.now();
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..REPS {
            for r in &rows {
                acc += kernels::sq_ed(black_box(q), black_box(r));
            }
        }
        black_box(acc);
        per_call.push(t.elapsed().as_nanos() as f64 / (ROWS * REPS) as f64);
        tracer.record("series.sq_ed", start, tracer.now(), None, b as u64);
    }
    median(&per_call)
}

fn io_since(now: &IoSnapshot, then: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        bytes_read: now.bytes_read - then.bytes_read,
        bytes_written: now.bytes_written - then.bytes_written,
        cache_hits: now.cache_hits - then.cache_hits,
        cache_misses: now.cache_misses - then.cache_misses,
        cache_evictions: now.cache_evictions - then.cache_evictions,
        ..IoSnapshot::default()
    }
}

fn mean_recall(answers: &[QueryOutcome], truth: &[Vec<(u64, f64)>]) -> f64 {
    let r: Vec<f64> = answers
        .iter()
        .zip(truth)
        .map(|(a, t)| recall_of_results(&a.results, t))
        .collect();
    mean(&r)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

fn quantile_of(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

/// Linear-interpolated quantile of sorted data.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Bytes of every file in an index directory.
fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's cumulative CPU time counters (`/proc/stat`, first line):
/// user, nice, system, idle, iowait, irq, softirq, steal.
fn host_cpu() -> Option<Vec<u64>> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then_some(fields)
}

/// The checked-out commit, read from `.git` when there is one.
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}
