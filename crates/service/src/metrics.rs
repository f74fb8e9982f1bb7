//! Service counters, per-stage latency histograms, the slow-request
//! log, and the Prometheus text renderer.
//!
//! Everything on the hot path is lock-free (`AtomicU64` with relaxed
//! ordering — counters need atomicity, not ordering) so requests
//! never serialize on a metrics mutex. Latencies go into a
//! power-of-two histogram: bucket `i` counts requests that took
//! `[2^i, 2^(i+1))` microseconds, and quantiles are read back as the
//! lower bound of the bucket where the cumulative count crosses the
//! target — integer in, integer out, no floating-point accumulation.
//!
//! Beyond the end-to-end latency histogram, every request is traced
//! through five pipeline stages ([`STAGE_NAMES`]): a [`Trace`] is
//! stamped when the frame is decoded and rides with the request to
//! the final write flush, depositing one observation per stage into
//! [`StageMetrics`]. Requests whose stage total crosses the server's
//! `--slow-ms` threshold additionally leave a full breakdown in the
//! capped [`SlowLog`]. The only lock in this module guards that log,
//! and it is touched exclusively by slow requests and `SlowLog`
//! snapshots.

use crate::wire::RequestKind;
use dpc_runtime::{get_uvarint, put_uvarint, DecodeError};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of power-of-two latency buckets (covers up to ~2^39 µs).
pub const LATENCY_BUCKETS: usize = 40;

/// Lock-free latency histogram with power-of-two microsecond buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Immutable bucket counts, as shipped in a Stats response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts observations in `[2^i, 2^(i+1))` µs
    /// (bucket 0 covers `[0, 2)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of observations, saturating at `u64::MAX` (a
    /// decoded histogram holds whatever a peer sent).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0, |sum, &b| sum.saturating_add(b))
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds: the lower bound
    /// of the bucket where the cumulative count reaches `ceil(q * n)`.
    /// Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        1u64 << (self.buckets.len() - 1).min(63)
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Adds another histogram bucket-wise, saturating (the shorter
    /// side is zero-padded). Power-of-two buckets make fleet aggregation
    /// exact: the merged quantiles are the quantiles of the pooled
    /// observations, bucket-resolution included.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Bucket-wise saturating subtraction of an earlier snapshot of
    /// the *same* histogram: the observations recorded between the
    /// two snapshots. This is what `dpc top` renders per poll
    /// interval.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| b.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// The five traced pipeline stages, in request order. Index `i` here
/// matches field order in [`StageMetrics`] / [`StageSnapshot`] and
/// the v5 wire order.
pub const STAGE_NAMES: [&str; 5] = [
    "read_decode",
    "queue_wait",
    "service",
    "reorder_wait",
    "write_flush",
];

/// Lock-free per-stage latency histograms, one per traced stage. Only
/// requests a worker answers are traced, so every stage counts the
/// same requests as the `latency` histogram.
#[derive(Debug, Default)]
pub struct StageMetrics {
    /// Frame bytes available → request decoded.
    pub read_decode: LatencyHistogram,
    /// Enqueued → dequeued by a worker.
    pub queue_wait: LatencyHistogram,
    /// Dequeued → response body built (cache/store lookup, batch,
    /// prove).
    pub service: LatencyHistogram,
    /// Response ready → eligible to write (pipelined predecessors
    /// flushed first).
    pub reorder_wait: LatencyHistogram,
    /// Write-eligible → frame fully handed to the kernel.
    pub write_flush: LatencyHistogram,
}

impl StageMetrics {
    /// A point-in-time copy of every stage histogram.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            read_decode: self.read_decode.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            reorder_wait: self.reorder_wait.snapshot(),
            write_flush: self.write_flush.snapshot(),
        }
    }
}

/// Immutable per-stage histograms, as shipped in the Stats v5 tail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Frame bytes available → request decoded.
    pub read_decode: HistogramSnapshot,
    /// Enqueued → dequeued by a worker.
    pub queue_wait: HistogramSnapshot,
    /// Dequeued → response body built.
    pub service: HistogramSnapshot,
    /// Response ready → eligible to write.
    pub reorder_wait: HistogramSnapshot,
    /// Write-eligible → frame fully handed to the kernel.
    pub write_flush: HistogramSnapshot,
}

impl StageSnapshot {
    /// The stages paired with their [`STAGE_NAMES`] labels, in wire
    /// order.
    pub fn named(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            (STAGE_NAMES[0], &self.read_decode),
            (STAGE_NAMES[1], &self.queue_wait),
            (STAGE_NAMES[2], &self.service),
            (STAGE_NAMES[3], &self.reorder_wait),
            (STAGE_NAMES[4], &self.write_flush),
        ]
    }

    /// Adds another node's stage histograms bucket-wise.
    pub fn absorb(&mut self, other: &StageSnapshot) {
        self.read_decode.absorb(&other.read_decode);
        self.queue_wait.absorb(&other.queue_wait);
        self.service.absorb(&other.service);
        self.reorder_wait.absorb(&other.reorder_wait);
        self.write_flush.absorb(&other.write_flush);
    }

    /// Stage-wise [`HistogramSnapshot::diff`] against an earlier
    /// snapshot.
    pub fn diff(&self, earlier: &StageSnapshot) -> StageSnapshot {
        StageSnapshot {
            read_decode: self.read_decode.diff(&earlier.read_decode),
            queue_wait: self.queue_wait.diff(&earlier.queue_wait),
            service: self.service.diff(&earlier.service),
            reorder_wait: self.reorder_wait.diff(&earlier.reorder_wait),
            write_flush: self.write_flush.diff(&earlier.write_flush),
        }
    }
}

/// One worker-answered request's identity and accumulated stage
/// timings, stamped at decode and threaded along the reply path to the
/// final write. Microsecond stage fields are filled in as each stage
/// completes; the reorder/write stages are measured (and the slow-log
/// decision made) when the connection writes the response.
#[derive(Debug, Clone, Copy)]
pub struct Trace {
    /// `connection_id << 32 | sequence` — unique per request within
    /// one server process.
    pub trace_id: u64,
    /// Request wire tag (a [`RequestKind`] discriminant).
    pub kind: u8,
    /// Scheme wire id, or 0 for requests that carry no scheme.
    pub scheme: u16,
    /// When the request frame was decoded (birth of the trace).
    pub born: Instant,
    /// Frame bytes available → decoded.
    pub read_decode_us: u64,
    /// Enqueued → dequeued.
    pub queue_wait_us: u64,
    /// Dequeued → response built.
    pub service_us: u64,
}

impl Trace {
    /// A fresh trace born now, with all stage timings zero.
    pub fn new(trace_id: u64, kind: u8, scheme: u16) -> Trace {
        Trace {
            trace_id,
            kind,
            scheme,
            born: Instant::now(),
            read_decode_us: 0,
            queue_wait_us: 0,
            service_us: 0,
        }
    }
}

/// Upper bound on retained slow-request entries; the oldest entry is
/// dropped when a new one arrives at capacity.
pub const SLOW_LOG_CAP: usize = 128;

/// One slow request's full stage breakdown, as shipped in a SlowLog
/// response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlowLogEntry {
    /// `connection_id << 32 | sequence` of the offending request.
    pub trace_id: u64,
    /// Request wire tag (a [`RequestKind`] discriminant).
    pub kind: u8,
    /// Scheme wire id, or 0 for requests that carry no scheme.
    pub scheme: u16,
    /// How long ago the entry was recorded, stamped when the log is
    /// snapshotted for a response.
    pub age_us: u64,
    /// Sum of the five stage timings.
    pub total_us: u64,
    /// Frame bytes available → decoded.
    pub read_decode_us: u64,
    /// Enqueued → dequeued.
    pub queue_wait_us: u64,
    /// Dequeued → response built.
    pub service_us: u64,
    /// Response built → eligible to write.
    pub reorder_wait_us: u64,
    /// Write-eligible → flushed to the kernel.
    pub write_flush_us: u64,
}

impl SlowLogEntry {
    /// The request kind's name ([`RequestKind::name`]), or `"?"` for a
    /// tag no kind has.
    pub fn kind_name(&self) -> &'static str {
        RequestKind::from_tag(self.kind as u64).map_or("?", RequestKind::name)
    }

    /// Appends the wire encoding of one slow-log entry (10 uvarints).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.trace_id,
            self.kind as u64,
            self.scheme as u64,
            self.age_us,
            self.total_us,
            self.read_decode_us,
            self.queue_wait_us,
            self.service_us,
            self.reorder_wait_us,
            self.write_flush_us,
        ] {
            put_uvarint(out, v);
        }
    }

    /// Decodes one entry from the front of `buf`, advancing it.
    pub fn decode_from(buf: &mut &[u8]) -> Result<SlowLogEntry, DecodeError> {
        let trace_id = get_uvarint(buf)?;
        let kind = get_uvarint(buf)?;
        let scheme = get_uvarint(buf)?;
        if kind > u8::MAX as u64 || scheme > u16::MAX as u64 {
            return Err(DecodeError::OutOfBits);
        }
        let mut e = SlowLogEntry {
            trace_id,
            kind: kind as u8,
            scheme: scheme as u16,
            ..SlowLogEntry::default()
        };
        for field in [
            &mut e.age_us,
            &mut e.total_us,
            &mut e.read_decode_us,
            &mut e.queue_wait_us,
            &mut e.service_us,
            &mut e.reorder_wait_us,
            &mut e.write_flush_us,
        ] {
            *field = get_uvarint(buf)?;
        }
        Ok(e)
    }
}

/// Capped in-memory log of requests whose stage total crossed the
/// server's slow threshold. The mutex is off the fast path: only
/// slow requests and `dpc slowlog` snapshots take it.
#[derive(Debug)]
pub struct SlowLog {
    threshold_us: u64,
    entries: Mutex<VecDeque<(Instant, SlowLogEntry)>>,
}

impl SlowLog {
    /// A log that records requests slower than `threshold_us`
    /// (0 disables recording entirely).
    pub fn new(threshold_us: u64) -> SlowLog {
        SlowLog {
            threshold_us,
            entries: Mutex::new(VecDeque::with_capacity(8)),
        }
    }

    /// The configured threshold in microseconds (0 = disabled).
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Records one slow request, evicting the oldest entry at
    /// capacity. `entry.age_us` is ignored; age is stamped at
    /// snapshot time.
    pub fn record(&self, entry: SlowLogEntry) {
        if self.threshold_us == 0 {
            return;
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        if entries.len() >= SLOW_LOG_CAP {
            entries.pop_front();
        }
        entries.push_back((Instant::now(), entry));
    }

    /// The retained entries, newest first, with `age_us` stamped.
    pub fn snapshot(&self) -> Vec<SlowLogEntry> {
        let entries = self.entries.lock().expect("slow log poisoned");
        entries
            .iter()
            .rev()
            .map(|(at, e)| {
                let mut e = e.clone();
                e.age_us = at.elapsed().as_micros().min(u64::MAX as u128) as u64;
                e
            })
            .collect()
    }
}

/// Live counters of one registered scheme (indexed by registry slot).
#[derive(Debug, Default)]
pub struct SchemeMetrics {
    /// Certify requests routed to this scheme.
    pub certify: AtomicU64,
    /// Certificate-cache hits under this scheme's keys.
    pub hits: AtomicU64,
    /// Certificate-cache misses under this scheme's keys.
    pub misses: AtomicU64,
    /// Honest-prover executions for this scheme.
    pub proves: AtomicU64,
    /// Certify latency under this scheme (queue + service).
    pub latency: LatencyHistogram,
}

impl SchemeMetrics {
    /// A point-in-time copy of the counters, as the table row of the
    /// scheme with wire id `id`.
    pub(crate) fn snapshot(&self, id: u16, name: &str) -> SchemeStats {
        SchemeStats {
            id,
            name: name.to_string(),
            certify: self.certify.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            proves: self.proves.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// How a Stats scalar counts: the Prometheus type it exports as, and
/// how [`StatsSnapshot::absorb`] folds it across a fleet.
enum Kind {
    /// A count since boot; the fleet's is the sum.
    Counter,
    /// A level right now; the fleet's is the sum.
    Gauge,
    /// A high-water mark; the fleet's is the worst node's.
    MaxGauge,
}

/// One row of the Stats field table, as data for the codec, the fleet
/// fold and the Prometheus renderer.
struct Field {
    /// The Stats wire version whose trailing tail carries the field.
    version: u8,
    kind: Kind,
    /// The Prometheus series: a family name, plus labels when several
    /// fields share one family.
    series: &'static str,
    /// The Prometheus help text, also the field's rustdoc.
    help: &'static str,
}

/// Generates everything a scalar Stats field needs from one row of the
/// table below:
/// - the [`Metrics`] atomic, for rows whose source is `atomic`, and its
///   load in `Metrics::snapshot`;
/// - the [`StatsSnapshot`] field, documented by the help text;
/// - the row in `FIELDS`, which drives the wire codec, the fleet fold
///   and `/metrics`, and the value in `StatsSnapshot::scalars`.
///
/// A row reads `version name: Kind, source, "series", "help";`, after
/// optional `///` lines that extend the rustdoc. Rows are in wire order,
/// so a tail boundary falls wherever `version` changes. `source` is
/// `atomic` for a counter the request paths bump, or `cache`, `store`
/// or `queue` for a value `server::snapshot` fills in.
macro_rules! stats_fields {
    ($(
        $(#[$doc:meta])*
        $version:literal $name:ident: $kind:ident, $source:ident, $series:literal, $help:literal;
    )*) => {
        metrics_atomics!([] $([$help $(#[$doc])*] $name $source;)*);

        /// A point-in-time copy of every counter, as shipped in a Stats
        /// response. Cache, store and queue fields are filled in by the
        /// server from those components' own counters.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct StatsSnapshot {
            $(
                #[doc = $help]
                $(#[$doc])*
                #[doc = concat!("Stats v", $version, "; `/metrics`: `", $series, "`.")]
                pub $name: u64,
            )*
            /// Request latency histogram, on the wire right after the v2
            /// counters.
            pub latency: HistogramSnapshot,
            /// Per-scheme counters, one row per registered scheme, on the
            /// wire right after the latency histogram.
            pub per_scheme: Vec<SchemeStats>,
            /// Per-stage latency histograms, at the head of the v5 tail.
            pub stages: StageSnapshot,
        }

        /// The scalar Stats fields, in wire order.
        const FIELDS: &[Field] = &[$(Field {
            version: $version,
            kind: Kind::$kind,
            series: $series,
            help: $help,
        }),*];

        impl StatsSnapshot {
            /// The scalar fields' values, in [`FIELDS`] order.
            fn scalars(&self) -> [u64; FIELDS.len()] {
                [$(self.$name),*]
            }

            /// The scalar fields, in [`FIELDS`] order.
            fn scalars_mut(&mut self) -> [&mut u64; FIELDS.len()] {
                [$(&mut self.$name),*]
            }
        }
    };
}

/// Collects the `atomic` rows of [`stats_fields!`] into [`Metrics`].
macro_rules! metrics_atomics {
    ([$($atomic:tt)*] [$help:literal $(#[$doc:meta])*] $name:ident atomic; $($rest:tt)*) => {
        metrics_atomics!([$($atomic)* [$help $(#[$doc])*] $name] $($rest)*);
    };
    ($atomic:tt [$($row:tt)*] $name:ident $(cache)? $(store)? $(queue)?; $($rest:tt)*) => {
        metrics_atomics!($atomic $($rest)*);
    };
    ([$([$help:literal $(#[$doc:meta])*] $name:ident)*]) => {
        /// Live server counters.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $name: AtomicU64,
            )*
            /// End-to-end request latency (queue + service).
            pub latency: LatencyHistogram,
            /// Per-scheme counters, one slot per registry entry.
            pub per_scheme: Vec<SchemeMetrics>,
            /// Per-stage request latency (v5).
            pub stages: StageMetrics,
        }

        impl Metrics {
            /// Loads every atomic and histogram into a snapshot. The
            /// per-scheme rows and the fields the server fills from the
            /// cache, the store and the queue stay empty.
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    latency: self.latency.snapshot(),
                    stages: self.stages.snapshot(),
                    ..StatsSnapshot::default()
                }
            }
        }
    };
}

stats_fields! {
    // v2 prefix: requests, the hot cache and the worker pool
    2 certify: Counter, atomic, "dpc_requests_total{kind=\"certify\"}",
        "Requests received, by wire kind.";
    2 check: Counter, atomic, "dpc_requests_total{kind=\"check\"}",
        "Requests received, by wire kind.";
    2 gen: Counter, atomic, "dpc_requests_total{kind=\"gen\"}",
        "Requests received, by wire kind.";
    2 soundness: Counter, atomic, "dpc_requests_total{kind=\"soundness\"}",
        "Requests received, by wire kind.";
    2 stats: Counter, atomic, "dpc_requests_total{kind=\"stats\"}",
        "Requests received, by wire kind.";
    2 errors: Counter, atomic, "dpc_errors_total", "Malformed requests answered with an error.";
    2 cache_hits: Counter, cache, "dpc_cache_hits_total", "Cache hits.";
    2 cache_misses: Counter, cache, "dpc_cache_misses_total", "Cache misses.";
    2 cache_evictions: Counter, cache, "dpc_cache_evictions_total", "Cache evictions.";
    2 cache_entries: Gauge, cache, "dpc_cache_entries", "Live cache entries.";
    2 cache_bytes: Gauge, cache, "dpc_cache_bytes", "Bytes charged against the cache budget.";
    2 batches: Counter, atomic, "dpc_batches_total", "Worker batches with more than one certify.";
    2 batched_certifies: Counter, atomic, "dpc_batched_certifies_total",
        "Certify requests that rode in a multi-request batch.";
    /// Cache misses plus bypasses.
    2 proves: Counter, atomic, "dpc_proves_total", "Honest-prover executions.";

    // v3 tail: the cold tier; all zero without a store
    3 store_hits: Counter, store, "dpc_store_hits_total", "Cold-tier lookups that found a record.";
    3 store_misses: Counter, store, "dpc_store_misses_total", "Cold-tier lookups that found nothing.";
    3 store_demotes: Counter, store, "dpc_store_demotes_total",
        "Hot-tier evictions demoted to the cold tier instead of lost.";
    3 store_promotes: Counter, store, "dpc_store_promotes_total",
        "Cold hits promoted back into the hot tier.";
    3 store_records: Gauge, store, "dpc_store_records", "Live records in the cold tier.";
    3 store_bytes: Gauge, store, "dpc_store_bytes", "Live record bytes in the cold tier.";
    /// Nonzero exactly when a store is attached.
    3 store_segments: Gauge, store, "dpc_store_segments", "Cold-tier segment files.";
    /// Up to this many demoted certificates are not in the store, and
    /// they re-prove after a restart.
    3 store_write_errors: Counter, store, "dpc_store_write_errors_total",
        "Write-behind appends that failed.";

    // v4 tail: the accept path
    4 conns_open: Gauge, atomic, "dpc_conns_open", "Currently open connections.";
    4 conns_accepted: Counter, atomic, "dpc_conns_accepted_total",
        "Connections accepted since boot.";
    /// One per reactor accept burst, so accepted connections over this
    /// count reads as connections per wakeup. Always 0 in threaded
    /// mode, whose accept call blocks.
    4 accept_eagain: Counter, atomic, "dpc_accept_eagain_total",
        "Accept attempts that returned EAGAIN.";
    4 idle_timeouts: Counter, atomic, "dpc_idle_timeouts_total",
        "Connections closed by the idle timeout.";

    // v5 tail, after the five stage histograms: back-pressure
    /// Reactor only: the threaded reader blocks in `push` instead.
    5 queue_full_stalls: Counter, atomic, "dpc_queue_full_stalls_total",
        "Jobs parked on their connection because the queue was full.";
    5 read_interest_drops: Counter, atomic, "dpc_read_interest_drops_total",
        "Read-interest drops while a job was parked.";
    5 read_interest_restores: Counter, atomic, "dpc_read_interest_restores_total",
        "Read-interest restores after a parked job enqueued.";
    /// Completions that land while the loop is awake don't count, so
    /// over responses this reads as wakeups per response.
    5 inbox_wakeups: Counter, atomic, "dpc_inbox_wakeups_total",
        "Worker completions that had to wake an event loop.";
    5 queue_depth: Gauge, queue, "dpc_queue_depth", "Jobs waiting in the worker queue.";

    // v6 tail: replication
    /// Replica writes, read-repair backfills and peer anti-entropy all
    /// land here.
    6 repl_push_merged: Counter, atomic, "dpc_repl_push_merged_total",
        "Records absorbed from StorePush frames.";
    6 repl_push_duplicates: Counter, atomic, "dpc_repl_push_duplicates_total",
        "StorePush records that were already present.";
    6 repl_pushed: Counter, atomic, "dpc_repl_pushed_total",
        "Records pushed to peers that lacked them.";
    6 repl_sweeps: Counter, atomic, "dpc_repl_sweeps_total",
        "Completed anti-entropy sweep rounds.";
    /// A sweep retries on its next round, so a transient nonzero value
    /// heals itself.
    6 repl_errors: Counter, atomic, "dpc_repl_errors_total",
        "Failed peer exchanges during sweeps.";

    // v7 tail: chunked uploads and distributed proving
    7 chunk_sessions: Counter, atomic, "dpc_chunk_sessions_total",
        "Chunked graph-upload sessions opened.";
    7 chunk_chunks: Counter, atomic, "dpc_chunk_chunks_total",
        "GraphChunk frames accepted into a session.";
    7 chunk_bytes: Counter, atomic, "dpc_chunk_bytes_total",
        "Payload bytes streamed through chunk sessions.";
    /// Replaced by a new Begin, killed by a protocol error, or abandoned
    /// when the connection closed.
    7 chunk_aborts: Counter, atomic, "dpc_chunk_aborts_total",
        "Chunk sessions aborted or abandoned.";
    /// Raised with `fetch_max`. Bounded by one varint (< 10 bytes), which
    /// shows reassembly memory is O(chunk), not O(graph encoding).
    7 chunk_carry_peak: MaxGauge, atomic, "dpc_chunk_carry_peak_bytes",
        "Peak stream-decoder carry buffer across chunk sessions.";
    7 delegated_proves: Counter, atomic, "dpc_delegated_proves_total",
        "Graph components delegated to ring peers.";
    7 delegated_errors: Counter, atomic, "dpc_delegated_errors_total",
        "Delegations that fell back to a local prove.";
    /// One per merged certification, not one per component.
    7 outcome_merges: Counter, atomic, "dpc_outcome_merges_total",
        "Component outcomes folded into one merged Outcome.";

    // v8 tail: the store auditor and interactive sessions
    8 audit_sweeps: Counter, atomic, "dpc_audit_sweeps_total",
        "Completed audit sweeps over the stored certificates.";
    8 audit_sampled: Counter, atomic, "dpc_audit_sampled_total",
        "Stored records sampled by the auditor.";
    /// A fingerprint mismatch, an inconsistent outcome, or a per-node
    /// verifier reject.
    8 audit_failed: Counter, atomic, "dpc_audit_failed_total",
        "Sampled records that were CRC-valid but failed re-verification.";
    /// Tracks the failures unless a quarantine itself errored.
    8 audit_quarantined: Counter, atomic, "dpc_audit_quarantined_total",
        "Failed records purged from both cache tiers.";
    8 interactive_sessions: Counter, atomic, "dpc_interactive_sessions_total",
        "Interactive (dMAM) wire sessions opened.";
    8 interactive_rejects: Counter, atomic, "dpc_interactive_rejects_total",
        "Interactive verdicts that rejected at least one node.";
}

impl Metrics {
    /// Fresh zeroed counters with no per-scheme slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh zeroed counters with one per-scheme slot per registry
    /// entry.
    pub fn with_scheme_slots(slots: usize) -> Self {
        Metrics {
            per_scheme: (0..slots).map(|_| SchemeMetrics::default()).collect(),
            ..Metrics::default()
        }
    }
}

/// A point-in-time copy of one scheme's counters, as shipped in the
/// per-scheme table of a Stats response.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemeStats {
    /// Stable wire id of the scheme.
    pub id: u16,
    /// Scheme name, echoed by the server.
    pub name: String,
    /// Certify requests routed to the scheme.
    pub certify: u64,
    /// Cache hits under the scheme's keys.
    pub hits: u64,
    /// Cache misses under the scheme's keys.
    pub misses: u64,
    /// Honest-prover executions for the scheme.
    pub proves: u64,
    /// Certify latency histogram of the scheme.
    pub latency: HistogramSnapshot,
}

/// Upper bound on per-scheme table rows accepted on decode.
const MAX_SCHEME_ROWS: usize = 4096;

fn encode_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_uvarint(out, h.buckets.len() as u64);
    for &b in &h.buckets {
        put_uvarint(out, b);
    }
}

fn decode_histogram(buf: &mut &[u8]) -> Result<HistogramSnapshot, DecodeError> {
    let buckets = get_uvarint(buf)? as usize;
    if buckets > LATENCY_BUCKETS {
        // our histograms are fixed-width; more buckets is corruption
        return Err(DecodeError::OutOfBits);
    }
    Ok(HistogramSnapshot {
        buckets: (0..buckets)
            .map(|_| get_uvarint(buf))
            .collect::<Result<_, _>>()?,
    })
}

impl SchemeStats {
    /// Appends the wire encoding of one table row.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.id as u64);
        dpc_runtime::put_string(out, &self.name);
        for v in [self.certify, self.hits, self.misses, self.proves] {
            put_uvarint(out, v);
        }
        encode_histogram(out, &self.latency);
    }

    /// Decodes one table row from the front of `buf`, advancing it.
    pub fn decode_from(buf: &mut &[u8]) -> Result<SchemeStats, DecodeError> {
        let id = get_uvarint(buf)?;
        if id > u16::MAX as u64 {
            return Err(DecodeError::OutOfBits);
        }
        let mut s = SchemeStats {
            id: id as u16,
            name: dpc_runtime::get_string(buf)?,
            ..SchemeStats::default()
        };
        for field in [&mut s.certify, &mut s.hits, &mut s.misses, &mut s.proves] {
            *field = get_uvarint(buf)?;
        }
        s.latency = decode_histogram(buf)?;
        Ok(s)
    }

    /// Adds another row's counters and latency into this one (same
    /// scheme measured on another node), saturating.
    pub fn absorb(&mut self, other: &SchemeStats) {
        self.certify = self.certify.saturating_add(other.certify);
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.proves = self.proves.saturating_add(other.proves);
        self.latency.absorb(&other.latency);
    }
}

/// The trailing tails of the Stats layout: runs of [`FIELDS`] rows that
/// share a wire version, oldest first. The first is the v2 prefix.
fn tails() -> impl Iterator<Item = &'static [Field]> {
    FIELDS.chunk_by(|a, b| a.version == b.version)
}

// A row out of version order would land mid-layout and shift every
// later field for older decoders.
const _: () = {
    assert!(
        FIELDS[0].version == 2,
        "the table starts with the v2 prefix"
    );
    let mut i = 1;
    while i < FIELDS.len() {
        assert!(
            FIELDS[i - 1].version <= FIELDS[i].version,
            "rows must be in wire order"
        );
        i += 1;
    }
};

impl StatsSnapshot {
    /// Total requests received: the sum of the `dpc_requests_total`
    /// series.
    pub fn requests_total(&self) -> u64 {
        FIELDS
            .iter()
            .zip(self.scalars())
            .filter(|(field, _)| field.series.starts_with("dpc_requests_total{"))
            .fold(0, |sum, (_, v)| sum.saturating_add(v))
    }

    /// The row of a scheme, by name.
    pub fn scheme(&self, name: &str) -> Option<&SchemeStats> {
        self.per_scheme.iter().find(|s| s.name == name)
    }

    /// Appends the wire encoding: the v2 prefix, then each later
    /// version's tail strictly after the one before, so every older
    /// decoder still reads its own prefix.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut values = self.scalars().into_iter();
        for tail in tails() {
            // the five stage histograms open the v5 tail
            if tail[0].version == 5 {
                for (_, h) in self.stages.named() {
                    encode_histogram(out, h);
                }
            }
            for v in values.by_ref().take(tail.len()) {
                put_uvarint(out, v);
            }
            // the latency histogram and per-scheme rows close the v2
            // prefix
            if tail[0].version == 2 {
                encode_histogram(out, &self.latency);
                put_uvarint(out, self.per_scheme.len() as u64);
                for row in &self.per_scheme {
                    row.encode_into(out);
                }
            }
        }
    }

    /// Decodes a snapshot from the front of `buf`, advancing it. A body
    /// from an older server ends before the tails it predates, and
    /// their fields decode as zeros.
    pub fn decode_from(buf: &mut &[u8]) -> Result<StatsSnapshot, DecodeError> {
        let mut s = StatsSnapshot::default();
        let mut values = [0; FIELDS.len()];
        let mut slots = values.iter_mut();
        for tail in tails() {
            if tail[0].version > 2 && buf.is_empty() {
                break;
            }
            if tail[0].version == 5 {
                s.stages = StageSnapshot {
                    read_decode: decode_histogram(buf)?,
                    queue_wait: decode_histogram(buf)?,
                    service: decode_histogram(buf)?,
                    reorder_wait: decode_histogram(buf)?,
                    write_flush: decode_histogram(buf)?,
                };
            }
            for slot in slots.by_ref().take(tail.len()) {
                *slot = get_uvarint(buf)?;
            }
            if tail[0].version == 2 {
                s.latency = decode_histogram(buf)?;
                let rows = get_uvarint(buf)? as usize;
                if rows > MAX_SCHEME_ROWS {
                    return Err(DecodeError::OutOfBits);
                }
                s.per_scheme = (0..rows)
                    .map(|_| SchemeStats::decode_from(buf))
                    .collect::<Result<_, _>>()?;
            }
        }
        for (field, v) in s.scalars_mut().into_iter().zip(values) {
            *field = v;
        }
        Ok(s)
    }

    /// Folds another node's snapshot into this one: the fleet view
    /// `dpc cluster-stats` renders. Counters and gauges sum (gauges
    /// like cached entries or stored records become fleet totals), a
    /// high-water mark takes the worst node's, latency histograms add
    /// bucket-wise, and per-scheme rows merge by scheme id — a scheme
    /// registered on only some nodes still gets one row. Sums saturate,
    /// since the other snapshot came off the wire.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        let pairs = self.scalars_mut().into_iter().zip(other.scalars());
        for ((mine, theirs), field) in pairs.zip(FIELDS) {
            *mine = match field.kind {
                Kind::Counter | Kind::Gauge => mine.saturating_add(theirs),
                Kind::MaxGauge => (*mine).max(theirs),
            };
        }
        self.latency.absorb(&other.latency);
        for row in &other.per_scheme {
            match self.per_scheme.iter_mut().find(|r| r.id == row.id) {
                Some(mine) => mine.absorb(row),
                None => self.per_scheme.push(row.clone()),
            }
        }
        self.stages.absorb(&other.stages);
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} (certify {}, check {}, gen {}, soundness {}, stats {}, errors {})",
            self.requests_total(),
            self.certify,
            self.check,
            self.gen,
            self.soundness,
            self.stats,
            self.errors,
        )?;
        writeln!(
            f,
            "cache: {} hits, {} misses, {} evictions, {} entries, {} bytes",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_entries,
            self.cache_bytes,
        )?;
        if self.store_segments > 0 {
            writeln!(
                f,
                "store: {} records, {} bytes, {} segments; cold hits {}, \
                 cold misses {}, demotions {}, promotions {}{}",
                self.store_records,
                self.store_bytes,
                self.store_segments,
                self.store_hits,
                self.store_misses,
                self.store_demotes,
                self.store_promotes,
                if self.store_write_errors > 0 {
                    format!(
                        " (WARNING: {} write-behind failures — that many \
                         certificates are not persisted)",
                        self.store_write_errors
                    )
                } else {
                    String::new()
                },
            )?;
        }
        if self.conns_accepted > 0 || self.conns_open > 0 {
            writeln!(
                f,
                "connections: {} open, {} accepted, {} accept retries, {} idle-timeouts",
                self.conns_open, self.conns_accepted, self.accept_eagain, self.idle_timeouts,
            )?;
        }
        writeln!(
            f,
            "prover: {} executions; batching: {} batches covering {} requests",
            self.proves, self.batches, self.batched_certifies,
        )?;
        write!(
            f,
            "latency: {} samples, p50 {} us, p99 {} us",
            self.latency.count(),
            self.latency.p50_us(),
            self.latency.p99_us(),
        )?;
        if self.stages.named().iter().any(|(_, h)| h.count() > 0) {
            for (name, h) in self.stages.named() {
                write!(
                    f,
                    "\nstage {:<12} {} samples, p50 {} us, p99 {} us",
                    name,
                    h.count(),
                    h.p50_us(),
                    h.p99_us(),
                )?;
            }
        }
        // "any nonzero" is spelled with `|`: a sum could overflow on a
        // fleet fold that saturated
        if (self.queue_full_stalls
            | self.read_interest_drops
            | self.read_interest_restores
            | self.inbox_wakeups
            | self.queue_depth)
            != 0
        {
            write!(
                f,
                "\nbackpressure: {} queue-full stalls, {} read-interest drops, \
                 {} restores, {} inbox wakeups, {} queued now",
                self.queue_full_stalls,
                self.read_interest_drops,
                self.read_interest_restores,
                self.inbox_wakeups,
                self.queue_depth,
            )?;
        }
        if (self.repl_push_merged
            | self.repl_push_duplicates
            | self.repl_pushed
            | self.repl_sweeps
            | self.repl_errors)
            != 0
        {
            write!(
                f,
                "\nreplication: {} absorbed, {} duplicates, {} pushed to peers, \
                 {} sweeps, {} sweep errors",
                self.repl_push_merged,
                self.repl_push_duplicates,
                self.repl_pushed,
                self.repl_sweeps,
                self.repl_errors,
            )?;
        }
        if (self.chunk_sessions | self.chunk_aborts) != 0 {
            write!(
                f,
                "\nchunked uploads: {} sessions, {} chunks, {} bytes, \
                 {} aborted, carry peak {} bytes",
                self.chunk_sessions,
                self.chunk_chunks,
                self.chunk_bytes,
                self.chunk_aborts,
                self.chunk_carry_peak,
            )?;
        }
        if (self.delegated_proves | self.delegated_errors | self.outcome_merges) != 0 {
            write!(
                f,
                "\ndistributed: {} components delegated, {} delegation \
                 failures, {} outcome merges",
                self.delegated_proves, self.delegated_errors, self.outcome_merges,
            )?;
        }
        if (self.audit_sweeps | self.audit_sampled) != 0 {
            write!(
                f,
                "\naudit: {} sweeps, {} sampled, {} failed, {} quarantined",
                self.audit_sweeps, self.audit_sampled, self.audit_failed, self.audit_quarantined,
            )?;
        }
        if (self.interactive_sessions | self.interactive_rejects) != 0 {
            write!(
                f,
                "\ninteractive: {} sessions, {} rejecting verdicts",
                self.interactive_sessions, self.interactive_rejects,
            )?;
        }
        for s in &self.per_scheme {
            write!(
                f,
                "\nscheme {:>3} {:<18} {} certifies, {} hits, {} misses, {} proves, p50 {} us",
                s.id,
                s.name,
                s.certify,
                s.hits,
                s.misses,
                s.proves,
                s.latency.p50_us(),
            )?;
        }
        Ok(())
    }
}

/// Renders a snapshot in Prometheus text exposition format 0.0.4 —
/// what `dpc serve --metrics-addr` serves to scrapers. Pure function
/// so the rendering is unit-testable without a socket.
///
/// Histogram buckets hold integer microseconds in `[2^i, 2^(i+1))`,
/// so the cumulative count through bucket `i` is exactly the number
/// of observations `<= 2^(i+1) - 1` — that value (1, 3, 7, 15, …) is
/// the emitted inclusive `le` bound. No `_sum` series is emitted —
/// the source histograms record bucket counts only. Counters end in
/// `_total`; gauges don't.
pub fn prometheus_text(s: &StatsSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(4096);
    let header = |out: &mut String, name: &str, kind: &str, help: &str| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    };
    let mut last_family = "";
    for (field, value) in FIELDS.iter().zip(s.scalars()) {
        let labels_at = field.series.find('{').unwrap_or(field.series.len());
        let (family, labels) = field.series.split_at(labels_at);
        if family != last_family {
            let kind = match field.kind {
                Kind::Counter => "counter",
                Kind::Gauge | Kind::MaxGauge => "gauge",
            };
            header(&mut out, family, kind, field.help);
            last_family = family;
        }
        let _ = writeln!(out, "{family}{labels} {value}");
    }
    let mut histogram = |name: &str, help: &str, series: &[(&str, &HistogramSnapshot)]| {
        header(&mut out, name, "histogram", help);
        for (label, h) in series {
            let sep = if label.is_empty() { "" } else { "," };
            let last_nonzero = h
                .buckets
                .iter()
                .rposition(|&b| b > 0)
                .map(|i| i + 1)
                .unwrap_or(0);
            let mut cum = 0u64;
            for (i, &b) in h.buckets[..last_nonzero].iter().enumerate() {
                cum = cum.saturating_add(b);
                let le = (1u64 << (i + 1)) - 1;
                let _ = writeln!(out, "{name}_bucket{{{label}{sep}le=\"{le}\"}} {cum}");
            }
            let count = h.count();
            let _ = writeln!(out, "{name}_bucket{{{label}{sep}le=\"+Inf\"}} {count}");
            if label.is_empty() {
                let _ = writeln!(out, "{name}_count {count}");
            } else {
                let _ = writeln!(out, "{name}_count{{{label}}} {count}");
            }
        }
    };
    histogram(
        "dpc_request_duration_us",
        "End-to-end request latency (enqueue to response built), microseconds.",
        &[("", &s.latency)],
    );
    let stage_series: Vec<(String, &HistogramSnapshot)> = s
        .stages
        .named()
        .iter()
        .map(|&(name, h)| (format!("stage=\"{name}\""), h))
        .collect();
    histogram(
        "dpc_stage_duration_us",
        "Per-stage request latency, microseconds.",
        &stage_series
            .iter()
            .map(|(l, h)| (l.as_str(), *h))
            .collect::<Vec<_>>(),
    );
    if !s.per_scheme.is_empty() {
        type SchemeField = fn(&SchemeStats) -> u64;
        let families: [(&str, &str, SchemeField); 3] = [
            (
                "dpc_scheme_certify_total",
                "Certify requests routed to the scheme.",
                |r| r.certify,
            ),
            (
                "dpc_scheme_hits_total",
                "Cache hits under the scheme's keys.",
                |r| r.hits,
            ),
            (
                "dpc_scheme_proves_total",
                "Honest-prover executions for the scheme.",
                |r| r.proves,
            ),
        ];
        for (name, help, get) in families {
            header(&mut out, name, "counter", help);
            for row in &s.per_scheme {
                let _ = writeln!(out, "{name}{{scheme=\"{}\"}} {}", row.name, get(row));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(2));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2, "[0, 2) us");
        assert_eq!(s.buckets[1], 2, "[2, 4) us");
        assert_eq!(s.buckets[9], 1, "[512, 1024) us");
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn quantiles_are_bucket_lower_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_millis(100)); // bucket 16
        let s = h.snapshot();
        assert_eq!(s.p50_us(), 64);
        assert_eq!(s.p99_us(), 64);
        assert_eq!(s.quantile_us(1.0), 1 << 16);
        assert_eq!(HistogramSnapshot::default().p50_us(), 0);
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(7));
        let snapshot = StatsSnapshot {
            certify: 10,
            cache_hits: 9,
            cache_bytes: 1 << 30,
            latency: h.snapshot(),
            per_scheme: vec![
                SchemeStats {
                    id: 0,
                    name: "planarity".into(),
                    certify: 7,
                    hits: 5,
                    misses: 2,
                    proves: 2,
                    latency: h.snapshot(),
                },
                SchemeStats {
                    id: 8,
                    name: "mod-counter".into(),
                    certify: 3,
                    ..SchemeStats::default()
                },
            ],
            store_hits: 11,
            store_misses: 4,
            store_demotes: 2,
            store_promotes: 9,
            store_records: 40,
            store_bytes: 1 << 16,
            store_segments: 2,
            store_write_errors: 1,
            conns_open: 3,
            conns_accepted: 12,
            accept_eagain: 5,
            idle_timeouts: 1,
            stages: StageSnapshot {
                queue_wait: h.snapshot(),
                write_flush: h.snapshot(),
                ..StageSnapshot::default()
            },
            queue_full_stalls: 2,
            inbox_wakeups: 6,
            queue_depth: 1,
            repl_push_merged: 13,
            repl_push_duplicates: 4,
            repl_pushed: 9,
            repl_sweeps: 3,
            repl_errors: 1,
            chunk_sessions: 2,
            chunk_chunks: 17,
            chunk_bytes: 1 << 22,
            chunk_aborts: 1,
            chunk_carry_peak: 9,
            delegated_proves: 6,
            delegated_errors: 1,
            outcome_merges: 2,
            audit_sweeps: 5,
            audit_sampled: 20,
            audit_failed: 2,
            audit_quarantined: 2,
            interactive_sessions: 3,
            interactive_rejects: 1,
            ..Default::default()
        };
        let mut buf = Vec::new();
        snapshot.encode_into(&mut buf);
        let mut cursor = buf.as_slice();
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, snapshot);
        assert_eq!(back.scheme("mod-counter").unwrap().certify, 3);
        assert!(back.scheme("nosuch").is_none());
        let text = format!("{back}");
        assert!(text.contains("planarity"), "{text}");
        assert!(text.contains("mod-counter"), "{text}");
        assert!(text.contains("demotions 2"), "{text}");
        assert!(text.contains("1 write-behind failure"), "{text}");
        assert!(
            text.contains("connections: 3 open, 12 accepted, 5 accept retries, 1 idle-timeouts"),
            "{text}"
        );
        assert!(text.contains("stage queue_wait"), "{text}");
        assert!(text.contains("backpressure: 2 queue-full stalls"), "{text}");
        assert!(
            text.contains("replication: 13 absorbed, 4 duplicates, 9 pushed to peers"),
            "{text}"
        );
        assert!(
            text.contains("chunked uploads: 2 sessions, 17 chunks"),
            "{text}"
        );
        assert!(
            text.contains("distributed: 6 components delegated, 1 delegation"),
            "{text}"
        );
        assert!(
            text.contains("audit: 5 sweeps, 20 sampled, 2 failed, 2 quarantined"),
            "{text}"
        );
        assert!(
            text.contains("interactive: 3 sessions, 1 rejecting verdicts"),
            "{text}"
        );
    }

    #[test]
    fn v2_stats_body_decodes_with_zero_store_fields() {
        // a version-2 body is a version-8 body minus the v3 store
        // tail (8 varints), the v4 connection tail (4 varints), the
        // v5 tracing tail (5 empty histograms + 5 varints), the v6
        // replication tail (5 varints), the v7 chunk tail (8
        // varints), and the v8 audit tail (6 varints); a v8 decoder
        // reads it as "no store, no connections, no tracing, no
        // replication, no chunking, no auditing"
        let v2_like = StatsSnapshot {
            certify: 5,
            cache_hits: 3,
            ..StatsSnapshot::default()
        };
        let mut v6 = Vec::new();
        v2_like.encode_into(&mut v6);
        let v2 = &v6[..v6.len() - 41]; // the 41 tail bytes are all 0x00
        let mut cursor = v2;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v2_like);
        assert_eq!(back.store_segments, 0);
        assert_eq!(back.conns_accepted, 0);
        // and the store/connection lines stay out of the rendered text
        assert!(!format!("{back}").contains("store:"));
        assert!(!format!("{back}").contains("connections:"));
    }

    #[test]
    fn v3_stats_body_decodes_with_zero_connection_fields() {
        // a version-3 body is a version-8 body minus the v4, v5, v6,
        // v7, and v8 tails; the store tail must still land in the
        // store fields, not bleed into the connection fields
        let v3_like = StatsSnapshot {
            certify: 5,
            store_hits: 7,
            store_segments: 2,
            ..StatsSnapshot::default()
        };
        let mut v6 = Vec::new();
        v3_like.encode_into(&mut v6);
        let v3 = &v6[..v6.len() - 33]; // v4 (4) + v5 (10) + v6 (5) + v7 (8) + v8 (6) tails are 0x00
        let mut cursor = v3;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v3_like);
        assert_eq!(back.store_hits, 7);
        assert_eq!(back.conns_open, 0);
    }

    #[test]
    fn v4_stats_body_decodes_with_zero_tracing_fields() {
        // a version-4 body is a version-8 body minus the tracing
        // tail (5 empty histograms + 5 counters, all 0x00 when
        // empty), the v6 replication tail (5 counters), the v7
        // chunk tail (8 counters), and the v8 audit tail (6
        // counters); the connection tail must still land in the
        // connection fields
        let v4_like = StatsSnapshot {
            certify: 5,
            conns_open: 2,
            conns_accepted: 9,
            ..StatsSnapshot::default()
        };
        let mut v6 = Vec::new();
        v4_like.encode_into(&mut v6);
        let v4 = &v6[..v6.len() - 29];
        let mut cursor = v4;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v4_like);
        assert_eq!(back.conns_accepted, 9);
        assert_eq!(back.stages, StageSnapshot::default());
        assert_eq!(back.queue_full_stalls, 0);
    }

    #[test]
    fn v5_stats_body_decodes_with_zero_replication_fields() {
        // a version-5 body is a version-8 body minus the replication
        // tail (5 varints), the chunk tail (8 varints), and the
        // audit tail (6 varints, all 0x00 when zero); the tracing
        // tail must still land in the tracing fields
        let v5_like = StatsSnapshot {
            certify: 5,
            queue_full_stalls: 3,
            queue_depth: 2,
            ..StatsSnapshot::default()
        };
        let mut v6 = Vec::new();
        v5_like.encode_into(&mut v6);
        let v5 = &v6[..v6.len() - 19];
        let mut cursor = v5;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v5_like);
        assert_eq!(back.queue_full_stalls, 3);
        assert_eq!(back.repl_push_merged, 0);
        assert_eq!(back.repl_sweeps, 0);
        // and the replication line stays out of the rendered text
        assert!(!format!("{back}").contains("replication:"));
    }

    #[test]
    fn v6_stats_body_decodes_with_zero_chunk_fields() {
        // a version-6 body is a version-8 body minus the chunk tail
        // (8 varints) and the audit tail (6 varints, all 0x00 when
        // zero); the replication tail must still land in the
        // replication fields
        let v6_like = StatsSnapshot {
            certify: 5,
            repl_push_merged: 4,
            repl_sweeps: 2,
            ..StatsSnapshot::default()
        };
        let mut v7 = Vec::new();
        v6_like.encode_into(&mut v7);
        let v6 = &v7[..v7.len() - 14];
        let mut cursor = v6;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v6_like);
        assert_eq!(back.repl_push_merged, 4);
        assert_eq!(back.chunk_sessions, 0);
        assert_eq!(back.delegated_proves, 0);
        // and the chunk/distribution lines stay out of the text
        assert!(!format!("{back}").contains("chunked uploads:"));
        assert!(!format!("{back}").contains("distributed:"));
    }

    #[test]
    fn v7_stats_body_decodes_with_zero_audit_fields() {
        // a version-7 body is a version-8 body minus the audit tail
        // (6 varints, all 0x00 when zero); the chunk tail must still
        // land in the chunk fields
        let v7_like = StatsSnapshot {
            certify: 5,
            chunk_sessions: 3,
            delegated_proves: 2,
            ..StatsSnapshot::default()
        };
        let mut v8 = Vec::new();
        v7_like.encode_into(&mut v8);
        let v7 = &v8[..v8.len() - 6];
        let mut cursor = v7;
        let back = StatsSnapshot::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, v7_like);
        assert_eq!(back.chunk_sessions, 3);
        assert_eq!(back.audit_sweeps, 0);
        assert_eq!(back.interactive_sessions, 0);
        // and the audit/interactive lines stay out of the text
        assert!(!format!("{back}").contains("audit:"));
        assert!(!format!("{back}").contains("interactive:"));
    }

    #[test]
    fn absorb_folds_two_nodes_into_one_fleet_view() {
        let h1 = LatencyHistogram::new();
        h1.record(Duration::from_micros(3)); // bucket 1
        let h2 = LatencyHistogram::new();
        h2.record(Duration::from_micros(100)); // bucket 6
        let mut a = StatsSnapshot {
            certify: 4,
            cache_hits: 2,
            store_records: 10,
            latency: h1.snapshot(),
            per_scheme: vec![SchemeStats {
                id: 0,
                name: "planarity".into(),
                certify: 4,
                hits: 2,
                misses: 2,
                proves: 2,
                latency: h1.snapshot(),
            }],
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            certify: 3,
            cache_hits: 1,
            store_records: 7,
            latency: h2.snapshot(),
            per_scheme: vec![
                SchemeStats {
                    id: 0,
                    name: "planarity".into(),
                    certify: 2,
                    ..SchemeStats::default()
                },
                SchemeStats {
                    id: 1,
                    name: "bipartite".into(),
                    certify: 1,
                    ..SchemeStats::default()
                },
            ],
            ..StatsSnapshot::default()
        };
        a.absorb(&b);
        assert_eq!(a.certify, 7);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.store_records, 17, "gauges sum to fleet totals");
        assert_eq!(a.latency.count(), 2, "histograms pool observations");
        assert_eq!(a.latency.buckets[1], 1);
        assert_eq!(a.latency.buckets[6], 1);
        // rows merged by id; the scheme present on only one node
        // still shows up
        assert_eq!(a.per_scheme.len(), 2);
        assert_eq!(a.scheme("planarity").unwrap().certify, 6);
        assert_eq!(a.scheme("bipartite").unwrap().certify, 1);
    }

    #[test]
    fn snapshot_decode_bounds_scheme_rows() {
        // a v2-shaped body whose per-scheme row count (its last
        // varint) is a hostile 2^28-1: must be rejected by the row
        // bound, not allocated
        let snapshot = StatsSnapshot::default();
        let mut buf = Vec::new();
        snapshot.encode_into(&mut buf);
        buf.truncate(buf.len() - 41); // drop the v3 + v4 + v5 + v6 + v7 + v8 tails
        *buf.last_mut().unwrap() = 0xff;
        buf.extend_from_slice(&[0xff, 0xff, 0x7f]);
        let mut cursor = buf.as_slice();
        assert!(StatsSnapshot::decode_from(&mut cursor).is_err());
    }

    #[test]
    fn histogram_diff_is_the_between_snapshot_delta() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // bucket 1
        let earlier = h.snapshot();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100)); // bucket 6
        let delta = h.snapshot().diff(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.buckets[1], 1);
        assert_eq!(delta.buckets[6], 1);
        // diff against a longer "earlier" saturates instead of
        // underflowing
        let short = HistogramSnapshot {
            buckets: vec![5, 5],
        };
        assert_eq!(short.diff(&earlier).buckets, vec![5, 4]);
    }

    #[test]
    fn slow_log_caps_and_orders_newest_first() {
        let log = SlowLog::new(1000);
        assert_eq!(log.threshold_us(), 1000);
        for i in 0..(SLOW_LOG_CAP as u64 + 10) {
            log.record(SlowLogEntry {
                trace_id: i,
                total_us: 2000 + i,
                ..SlowLogEntry::default()
            });
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), SLOW_LOG_CAP);
        // newest first; the 10 oldest were evicted
        assert_eq!(entries[0].trace_id, SLOW_LOG_CAP as u64 + 9);
        assert_eq!(entries.last().unwrap().trace_id, 10);

        let disabled = SlowLog::new(0);
        disabled.record(SlowLogEntry::default());
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn slow_log_entry_wire_roundtrip() {
        let entry = SlowLogEntry {
            trace_id: (7 << 32) | 3,
            kind: 1,
            scheme: 4,
            age_us: 1_000_000,
            total_us: 52_000,
            read_decode_us: 12,
            queue_wait_us: 800,
            service_us: 50_000,
            reorder_wait_us: 38,
            write_flush_us: 1_150,
        };
        assert_eq!(entry.kind_name(), "certify");
        // every tag `dpc slowlog` can print, and one past each end
        let names: Vec<&str> = (0..16)
            .map(|kind| {
                SlowLogEntry {
                    kind,
                    ..SlowLogEntry::default()
                }
                .kind_name()
            })
            .collect();
        let expected = "? certify check gen soundness stats slowlog storelist storepush \
                        chunkbegin chunk chunkend ibegin irespond audit ?";
        assert_eq!(names, expected.split_whitespace().collect::<Vec<_>>());
        let mut buf = Vec::new();
        entry.encode_into(&mut buf);
        let mut cursor = buf.as_slice();
        let back = SlowLogEntry::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(back, entry);
    }

    #[test]
    fn prometheus_text_renders_counters_and_histograms() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // bucket 1: le 3
        h.record(Duration::from_micros(100)); // bucket 6: le 127
        let s = StatsSnapshot {
            certify: 7,
            cache_hits: 5,
            conns_open: 2,
            queue_full_stalls: 1,
            repl_sweeps: 4,
            chunk_sessions: 3,
            chunk_carry_peak: 9,
            delegated_proves: 5,
            latency: h.snapshot(),
            stages: StageSnapshot {
                queue_wait: h.snapshot(),
                ..StageSnapshot::default()
            },
            per_scheme: vec![SchemeStats {
                id: 0,
                name: "planarity".into(),
                certify: 7,
                hits: 5,
                proves: 2,
                ..SchemeStats::default()
            }],
            ..StatsSnapshot::default()
        };
        let text = prometheus_text(&s);
        assert!(
            text.contains("dpc_requests_total{kind=\"certify\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE dpc_requests_total counter"), "{text}");
        assert!(text.contains("dpc_cache_hits_total 5"), "{text}");
        assert!(text.contains("dpc_conns_open 2"), "{text}");
        assert!(text.contains("dpc_queue_full_stalls_total 1"), "{text}");
        assert!(text.contains("dpc_repl_sweeps_total 4"), "{text}");
        assert!(text.contains("dpc_chunk_sessions_total 3"), "{text}");
        assert!(text.contains("dpc_chunk_carry_peak_bytes 9"), "{text}");
        assert!(text.contains("dpc_delegated_proves_total 5"), "{text}");
        assert!(text.contains("dpc_audit_quarantined_total 0"), "{text}");
        assert!(text.contains("dpc_interactive_sessions_total 0"), "{text}");
        // cumulative buckets: 1 through le=3, 2 through le=127, +Inf
        assert!(
            text.contains("dpc_request_duration_us_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dpc_request_duration_us_bucket{le=\"127\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dpc_request_duration_us_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("dpc_request_duration_us_count 2"), "{text}");
        assert!(
            text.contains("dpc_stage_duration_us_bucket{stage=\"queue_wait\",le=\"3\"} 1"),
            "{text}"
        );
        // empty stages still expose a zero count
        assert!(
            text.contains("dpc_stage_duration_us_count{stage=\"write_flush\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("dpc_scheme_certify_total{scheme=\"planarity\"} 7"),
            "{text}"
        );
        // one HELP/TYPE per family, even with multiple series
        assert_eq!(text.matches("# TYPE dpc_scheme_certify_total").count(), 1);
    }
}
