//! The certification service's benchmark.
//!
//! One command starts an in-process `dpc_service::serve` on loopback,
//! drives one of three seeded closed-loop workloads against it over
//! real TCP connections, checks every answer, and prints every metric
//! by name and unit. With `--trace 0` the metrics are the end-to-end
//! ones a caller sees; with `--trace 1` a separate traced run prints
//! the per-layer ledger (see [`ledger`]).
//!
//! ```text
//! cargo run --release --manifest-path certbench/Cargo.toml -- \
//!     --workload hit-large --seed 1 --seconds 10 --trace 0
//! ```

pub mod check;
pub mod ledger;
pub mod load;
pub mod report;
pub mod workload;

use check::KeyBook;
use dpc_service::SchemeRegistry;
use dpc_service::{CacheConfig, SegmentConfig, ServeConfig, ServerHandle, StatsSnapshot};
use load::{Source, Window, WindowOut};
use report::{histogram_quantile_us, quantile, Metrics};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Item, Sizes, Workload, Zipf};

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Flip a byte of this response (connection 0) to prove the checks.
    pub corrupt: Option<u64>,
    /// Directory for the store, temporary files and the span dump.
    pub out_dir: PathBuf,
}

/// What a run reports.
pub struct Report {
    /// Every answer and every re-verification passed.
    pub correct: bool,
    /// Requests attempted (timed windows, warm-ups and re-verifications).
    pub attempted: u64,
    /// Attempts that failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Metrics,
    /// Run stamp: cores, commit, profile, seed, workload parameters.
    pub stamp: Vec<(String, String)>,
    /// Lines for people: units, sample counts, failure messages.
    pub notes: Vec<String>,
}

/// The end-to-end metrics `--trace 0` prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("certify_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_frac", "ratio"),
    ("max_cert_bits", "bits"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metric stems: span name, and whether the metric is
/// the span's whole duration rather than its self time.
pub const LAYERS: [(&str, &str, bool); 22] = [
    ("graph.bfs", "graph.bfs", false),
    ("planar.lr", "planar.lr", false),
    ("planar.tembed", "planar.tembed", false),
    ("core.tree_certs", "core.tree_certs", false),
    ("graph.degeneracy", "graph.degeneracy", false),
    ("core.assemble", "core.prove", false),
    ("core.verify", "core.verify", false),
    ("runtime.sim", "runtime.run", false),
    ("wire.suffix_encode", "wire.suffix_encode", false),
    ("cache.insert", "cache.insert", false),
    ("wire.request_encode", "wire.request_encode", false),
    ("wire.response_decode", "wire.response_decode", false),
    ("wire.request_decode", "wire.request_decode", false),
    ("wire.keyed", "wire.keyed", false),
    ("canon.hash", "canon.hash", false),
    ("cache.lookup", "cache.lookup", false),
    ("wire.body_from_suffix", "wire.body_from_suffix", false),
    ("client.roundtrip", "client.roundtrip", true),
    ("store.put", "store.put", false),
    ("store.get", "store.get", false),
    ("store.to_entry", "store.to_entry", false),
    ("tiered.lookup_cold", "tiered.lookup_cold", true),
];

/// Hot-tier budget of the `miss-prove` server.
const MISS_CACHE_BYTES: usize = 64 << 20;

/// A started server and the inputs it was set up with.
struct Setup {
    server: Option<ServerHandle>,
    items: Vec<Item>,
    book: Option<KeyBook>,
    zipf: Option<Zipf>,
    store_dir: Option<PathBuf>,
    params: Vec<(String, String)>,
    failed: u64,
    attempted: u64,
}

impl Setup {
    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    fn stats(&self) -> StatsSnapshot {
        self.server.as_ref().expect("server running").stats()
    }

    fn source<'a>(&'a self, opts: &'a Options) -> Source<'a> {
        match opts.workload {
            Workload::HitLarge => Source::RoundRobin(&self.items),
            Workload::MissProve => Source::Fresh {
                seed: opts.seed,
                sizes: &opts.sizes,
            },
            Workload::MixedSmall => Source::Zipf {
                items: &self.items,
                zipf: self
                    .zipf
                    .as_ref()
                    .expect("mixed-small has a key distribution"),
                seed: opts.seed,
            },
        }
    }

    /// Stops the server and removes its store; the inputs stay.
    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = self.store_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.stop();
    }
}

fn param(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

/// Builds a workload's inputs and server, and lets its caches fill:
/// graph generation, warm-up certifications, store pre-fill and server
/// (re)start — everything `setup_s` times.
fn setup(opts: &Options, round: usize) -> io::Result<Setup> {
    let sizes = &opts.sizes;
    let conns = sizes.connections;
    let mut s = Setup {
        server: None,
        items: Vec::new(),
        book: None,
        zipf: None,
        store_dir: None,
        params: vec![param("connections", conns)],
        failed: 0,
        attempted: 0,
    };
    match opts.workload {
        Workload::HitLarge => {
            s.items = workload::hit_large_items(opts.seed, sizes);
            let server = dpc_service::serve("127.0.0.1:0", ServeConfig::default())?;
            let book = KeyBook::new(s.items.len());
            let keys: Vec<usize> = (0..s.items.len()).collect();
            // first pass proves, second pass is a warm-up round of hits
            for _ in 0..2 {
                s.failed += load::prefill(server.addr(), &s.items, &keys, &book, conns, 1)?;
                s.attempted += keys.len() as u64;
            }
            s.params.extend([
                param("keys", s.items.len()),
                param("grid_side", sizes.hit_grid_side),
                param("n", sizes.hit_n),
                param("cache_budget_bytes", CacheConfig::default().byte_budget),
                param("window", 1),
            ]);
            s.server = Some(server);
            s.book = Some(book);
        }
        Workload::MissProve => {
            // warm-up proves on inputs the timed load never sends
            let warm: Vec<Item> = (0..workload::MISS_CYCLE)
                .map(|i| workload::miss_item(opts.seed, 1 << 20, i, sizes))
                .collect();
            // a bounded hot tier, so memory plateaus instead of growing
            // with the number of requests the window completes
            let cfg = ServeConfig {
                cache: CacheConfig {
                    byte_budget: MISS_CACHE_BYTES,
                    ..CacheConfig::default()
                },
                ..ServeConfig::default()
            };
            let server = dpc_service::serve("127.0.0.1:0", cfg)?;
            let book = KeyBook::new(warm.len());
            let keys: Vec<usize> = (0..warm.len()).collect();
            s.failed += load::prefill(server.addr(), &warm, &keys, &book, conns, 1)?;
            s.attempted += keys.len() as u64;
            s.params.extend([
                param("small_n", sizes.miss_small_n),
                param("large_n", sizes.miss_large_n),
                param("grid_side", sizes.miss_grid_side),
                param("cycle", workload::MISS_CYCLE),
                param("cache_budget_bytes", MISS_CACHE_BYTES),
                param("window", 1),
            ]);
            s.server = Some(server);
        }
        Workload::MixedSmall => {
            let keys = sizes.keys;
            s.items = (0..keys as u64)
                .map(|k| workload::mixed_item(opts.seed, k, sizes))
                .collect();
            let dir = opts
                .out_dir
                .join(format!("store-{}-{round}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            s.store_dir = Some(dir.clone());
            let mut cfg = ServeConfig {
                store: Some(SegmentConfig::new(&dir)),
                ..ServeConfig::default()
            };
            // pre-fill half of the keyspace through a first server,
            // which also measures the hot tier's cost per entry
            let prefilled: Vec<usize> = (0..keys)
                .filter(|&k| workload::mixed_prefilled(k))
                .collect();
            let book = KeyBook::new(keys);
            let first = dpc_service::serve("127.0.0.1:0", cfg.clone())?;
            s.failed += load::prefill(
                first.addr(),
                &s.items,
                &prefilled,
                &book,
                conns,
                sizes.pipeline,
            )?;
            s.attempted += prefilled.len() as u64;
            let st = first.stats();
            let per_entry = st.cache_bytes / st.cache_entries.max(1);
            first.shutdown();
            // restart with a hot tier of about a quarter of the keyspace:
            // warm_load fills it from the store, the rest stays cold
            cfg.cache.byte_budget = (per_entry as usize * keys / 4).max(1);
            let server = dpc_service::serve("127.0.0.1:0", cfg.clone())?;
            s.params.extend([
                param("keys", keys),
                param("prefilled", prefilled.len()),
                param("n", sizes.small_n),
                param("zipf_s", sizes.zipf_s),
                param("cache_budget_bytes", cfg.cache.byte_budget),
                param("window", sizes.pipeline),
            ]);
            s.zipf = Some(Zipf::new(keys, sizes.zipf_s));
            s.server = Some(server);
            s.book = Some(book);
        }
    }
    Ok(s)
}

fn window<'a>(
    s: &'a Setup,
    source: &'a Source<'a>,
    opts: &Options,
    secs: f64,
    epoch: Instant,
) -> WindowOut {
    load::run(&Window {
        addr: s.addr(),
        source,
        book: s.book.as_ref(),
        connections: opts.sizes.connections,
        pipeline: opts.workload.pipeline(&opts.sizes),
        duration: Duration::from_secs_f64(secs),
        corrupt: opts.corrupt,
        seed: opts.seed,
        epoch,
        trace: opts.trace,
    })
}

/// Re-runs the verification round on the window's seeded sample of
/// returned assignments; every disagreement is a failure.
fn reverify(out: &mut WindowOut, source: &Source, registry: &SchemeRegistry) {
    let kept = std::mem::take(&mut out.kept);
    for k in &kept {
        out.attempted += 1;
        if let Err(e) = check::reverify(registry, &source.input(k.input), k) {
            out.fail(e);
        }
    }
}

fn latencies_us(out: &WindowOut) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ns() as f64 / 1e3)
        .collect()
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> io::Result<Report> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        stamp: vec![
            param("workload", opts.workload.name()),
            param("seed", opts.seed),
            param("seconds", opts.seconds),
            param("trace", opts.trace as u8),
            param("nproc", report::nproc()),
            param("git_sha", report::git_sha()),
            param(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            ),
        ],
        notes: Vec::new(),
    };
    if opts.trace {
        traced(opts, &mut report)?;
    } else {
        untraced(opts, &mut report)?;
    }
    report.correct = report.failed == 0;
    Ok(report)
}

fn absorb(report: &mut Report, out: &WindowOut) {
    report.attempted += out.attempted;
    report.failed += out.failed;
    report
        .notes
        .extend(out.failures.iter().map(|f| format!("FAILED: {f}")));
}

fn untraced(opts: &Options, report: &mut Report) -> io::Result<()> {
    let registry = SchemeRegistry::standard();
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut current: Option<Setup> = None;
    for round in 0..opts.sizes.setups.max(1) {
        if let Some(mut old) = current.take() {
            old.stop();
        }
        let t = Instant::now();
        let s = setup(opts, round)?;
        setup_s.push(t.elapsed().as_secs_f64());
        report.attempted += s.attempted;
        report.failed += s.failed;
        current = Some(s);
    }
    let mut s = current.expect("at least one setup");
    let source = s.source(opts);
    let before = s.stats();
    let mut out = window(&s, &source, opts, opts.seconds, epoch);
    let after = s.stats();
    reverify(&mut out, &source, &registry);
    s.stop();
    absorb(report, &out);
    report.stamp.extend(s.params.iter().cloned());

    let mut lat = latencies_us(&out);
    let completed = out.samples.iter().filter(|s| s.ok && s.in_window).count();
    let m = &mut report.metrics;
    m.put("setup_s", quantile(&mut setup_s, 0.5), "s");
    m.put("certify_rps", completed as f64 / out.seconds, "req/s");
    m.put("latency_p50_us", quantile(&mut lat, 0.50), "us");
    m.put("latency_p90_us", quantile(&mut lat, 0.90), "us");
    m.put("latency_p99_us", quantile(&mut lat, 0.99), "us");
    m.put(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    m.put("max_cert_bits", out.max_cert_bits as f64, "bits");
    m.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    let beyond_p99 = lat.len() - (0.99 * lat.len() as f64).ceil() as usize;
    report.notes.push(format!(
        "latency samples: {} ({} beyond p99); failed_frac {} of {} attempted; server proves in window: {}",
        lat.len(),
        beyond_p99,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
        after.proves.saturating_sub(before.proves),
    ));
    let stages = after.stages.diff(&before.stages);
    let p50s: Vec<String> = stages
        .named()
        .iter()
        .map(|(name, h)| format!("{name} {:.0}", histogram_quantile_us(h, 0.5)))
        .collect();
    report.notes.push(format!(
        "server stage p50s in the window (us, coarse): {}",
        p50s.join(", ")
    ));
    Ok(())
}

fn traced(opts: &Options, report: &mut Report) -> io::Result<()> {
    let registry = SchemeRegistry::standard();
    let epoch = Instant::now();
    let mut s = setup(opts, 0)?;
    report.attempted += s.attempted;
    report.failed += s.failed;
    let source = s.source(opts);
    let before = s.stats();
    let mut traced = window(&s, &source, opts, opts.seconds * 0.6, epoch);
    let after = s.stats();
    reverify(&mut traced, &source, &registry);
    s.stop();
    absorb(report, &traced);
    report.stamp.extend(s.params.iter().cloned());

    // replay the traced requests in send order until the budget is spent
    let replay_dir = opts.out_dir.join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&replay_dir);
    let cached_answers = traced.samples.iter().filter(|x| x.ok && x.cached).count();
    let promotes = after.store_promotes.saturating_sub(before.store_promotes);
    let cold_share = promotes as f64 / cached_answers.max(1) as f64;
    let mut replay = ledger::Replay::new(
        &registry,
        epoch,
        &replay_dir,
        opts.workload == Workload::MixedSmall,
    )?;
    let mut samples: Vec<_> = traced
        .samples
        .iter()
        .filter(|x| x.ok && x.traced)
        .cloned()
        .collect();
    samples.sort_by_key(|x| x.t[0]);
    let budget = Duration::from_secs_f64(opts.seconds * 0.25);
    let replay_start = Instant::now();
    let source = s.source(opts);
    let mut recon = Vec::new();
    for sample in &samples {
        let rt = replay.spans.live(sample);
        if recon.is_empty() || replay_start.elapsed() < budget {
            let item = source.input(sample.input);
            recon.push(replay.request(sample, rt, &item, cold_share));
        }
    }
    let _ = std::fs::remove_dir_all(&replay_dir);
    report.failed += replay.failures.len() as u64;
    report
        .notes
        .extend(replay.failures.iter().map(|f| format!("FAILED: {f}")));

    let spans = &replay.spans;
    let self_ns = spans.self_times();
    let m = &mut report.metrics;
    for (stem, span, inclusive) in LAYERS {
        let mut vals: Vec<f64> = spans
            .list
            .iter()
            .zip(&self_ns)
            .filter(|(sp, _)| sp.name == span)
            .map(|(sp, &own)| if inclusive { sp.dur() } else { own } as f64 / 1e3)
            .collect();
        let busy: f64 = vals.iter().sum::<f64>() / 1e3;
        m.put(format!("{stem}_us"), quantile(&mut vals, 0.5), "us");
        m.put(format!("{stem}.busy_ms"), busy, "ms");
    }

    // server counters of the traced window
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hits = d(after.cache_hits, before.cache_hits);
    let lookups = hits + d(after.cache_misses, before.cache_misses);
    let certifies = d(after.certify, before.certify);
    let batches = d(after.batches, before.batches);
    let batched = d(after.batched_certifies, before.batched_certifies);
    m.put("cache.hit_ratio", hits / lookups, "ratio");
    m.put("cache.lookups", lookups, "count");
    m.put(
        "cache.evictions",
        d(after.cache_evictions, before.cache_evictions),
        "count",
    );
    m.put(
        "store.promotes",
        d(after.store_promotes, before.store_promotes),
        "count",
    );
    m.put(
        "store.demotes",
        d(after.store_demotes, before.store_demotes),
        "count",
    );
    m.put(
        "store.appends",
        d(after.store_records, before.store_records),
        "count",
    );
    m.put("server.proves", d(after.proves, before.proves), "count");
    // every certify is in one worker batch: folded ones in `batches`,
    // the rest alone
    m.put(
        "server.batch_size",
        certifies / (batches + certifies - batched).max(1.0),
        "req/batch",
    );
    m.put("server.batches", batches, "count");
    let stages = after.stages.diff(&before.stages);
    for (name, h) in stages.named() {
        m.put(
            format!("server.{name}_p50_us"),
            histogram_quantile_us(h, 0.5),
            "us",
        );
    }
    let n = traced.samples.len().max(1) as f64;
    let req_bytes: f64 = traced.samples.iter().map(|x| x.req_bytes as f64).sum();
    let resp_bytes: f64 = traced.samples.iter().map(|x| x.resp_bytes as f64).sum();
    m.put("wire.request_bytes", req_bytes / n, "bytes");
    m.put("wire.response_bytes", resp_bytes / n, "bytes");

    // reconciliation over the replayed requests, and tracing overhead
    let mut lat: Vec<f64> = recon.iter().map(|r| r.latency as f64 / 1e3).collect();
    let mut layers: Vec<f64> = recon.iter().map(|r| r.layers as f64 / 1e3).collect();
    let lat_p50 = quantile(&mut lat, 0.5);
    let layers_p50 = quantile(&mut layers, 0.5);
    let half = |t: bool| -> Vec<f64> {
        traced
            .samples
            .iter()
            .filter(|x| x.ok && x.traced == t)
            .map(|x| x.latency_ns() as f64 / 1e3)
            .collect()
    };
    let traced_p50 = quantile(&mut half(true), 0.5);
    let untraced_p50 = quantile(&mut half(false), 0.5);
    m.put("recon.latency_p50_us", lat_p50, "us");
    m.put("recon.layers_p50_us", layers_p50, "us");
    m.put("recon.gap_us", lat_p50 - layers_p50, "us");
    m.put("trace.latency_p50_us", traced_p50, "us");
    m.put("trace.untraced_p50_us", untraced_p50, "us");
    m.put("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    m.put("trace.replayed", recon.len() as f64, "count");
    m.put("trace.spans", spans.list.len() as f64, "count");

    let dump = opts.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    spans.write_jsonl(&dump)?;
    report.notes.push(format!(
        "traced {} requests, replayed {}; cold share of cached answers {cold_share:.3} \
         ({promotes} promotes / {cached_answers} cached); spans written to {}; run took {:.1}s",
        traced.samples.len(),
        recon.len(),
        dump.display(),
        epoch.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// The default output directory, relative to the working directory.
pub fn default_out_dir() -> &'static Path {
    Path::new(".certbench")
}
