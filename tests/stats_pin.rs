//! Stats pin: one snapshot whose every field is distinct, and the three
//! things the service renders it into.
//!
//! Every scalar field holds its own nonzero value, every histogram is
//! nonzero, and there are two per-scheme rows, so swapping two fields
//! anywhere in the layout changes the bytes, the text, or a sample. The
//! constants were recorded on commit 37cc9e89b8dae3ce252be65982eaaa301792d5ed,
//! before one field table generated the Stats codec, the fleet fold and
//! the Prometheus families:
//! - the wire encoding, which must also decode back to the snapshot;
//! - the `Display` text that `dpc query <addr> stats` prints;
//! - every `prometheus_text` line, compared family by family so only the
//!   order across families is free.

use dpc::service::metrics::{HistogramSnapshot, SchemeStats, StageSnapshot, StatsSnapshot};
use dpc::service::prometheus_text;

/// The pinned snapshot with every number passed through `f`.
fn snapshot_with(f: impl Fn(u64) -> u64) -> StatsSnapshot {
    let hist = |buckets: &[u64]| HistogramSnapshot {
        buckets: buckets.iter().map(|&b| f(b)).collect(),
    };
    StatsSnapshot {
        certify: f(1),
        check: f(2),
        gen: f(3),
        soundness: f(4),
        stats: f(5),
        errors: f(6),
        cache_hits: f(107),
        cache_misses: f(208),
        cache_evictions: f(9),
        cache_entries: f(310),
        cache_bytes: f(70_011),
        batches: f(12),
        batched_certifies: f(413),
        proves: f(514),
        latency: hist(&[0, 3, 1, 0, 0, 5, 2]),
        per_scheme: vec![
            SchemeStats {
                id: 0,
                name: "planarity".into(),
                certify: f(901),
                hits: f(902),
                misses: f(3),
                proves: f(4),
                latency: hist(&[1, 0, 2]),
            },
            SchemeStats {
                id: 8,
                name: "mod-counter".into(),
                certify: f(5),
                hits: f(6),
                misses: f(907),
                proves: f(908),
                latency: hist(&[0, 0, 0, 4]),
            },
        ],
        store_hits: f(15),
        store_misses: f(16),
        store_demotes: f(617),
        store_promotes: f(18),
        store_records: f(719),
        store_bytes: f(80_020),
        store_segments: f(21),
        store_write_errors: f(22),
        conns_open: f(23),
        conns_accepted: f(824),
        accept_eagain: f(25),
        idle_timeouts: f(26),
        stages: StageSnapshot {
            read_decode: hist(&[2, 1]),
            queue_wait: hist(&[0, 7, 0, 1]),
            service: hist(&[0, 0, 0, 0, 3, 3]),
            reorder_wait: hist(&[9]),
            write_flush: hist(&[0, 1, 1, 1]),
        },
        queue_full_stalls: f(27),
        read_interest_drops: f(928),
        read_interest_restores: f(29),
        inbox_wakeups: f(1_030),
        queue_depth: f(31),
        repl_push_merged: f(1_132),
        repl_push_duplicates: f(33),
        repl_pushed: f(1_234),
        repl_sweeps: f(35),
        repl_errors: f(36),
        chunk_sessions: f(37),
        chunk_chunks: f(1_338),
        chunk_bytes: f(90_039),
        chunk_aborts: f(40),
        chunk_carry_peak: f(41),
        delegated_proves: f(42),
        delegated_errors: f(43),
        outcome_merges: f(44),
        audit_sweeps: f(45),
        audit_sampled: f(1_446),
        audit_failed: f(47),
        audit_quarantined: f(48),
        interactive_sessions: f(49),
        interactive_rejects: f(50),
    }
}

/// Each of the 50 scalar fields gets a distinct nonzero value, spread
/// over one-, two- and three-byte varints.
fn pinned_snapshot() -> StatsSnapshot {
    snapshot_with(|v| v)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The snapshot's Stats body, recorded on the parent commit.
const PINNED_HEX: &str = "0102030405066bd00109b602fba2040c9d038204070003010000050202000970\
    6c616e617269747985078607030403010002080b6d6f642d636f756e74657205\
    068b078c0704000000040f10e90412cf0594f104151617b806191a0202010400\
    07000106000000000303010904000101011ba0071d86081fec0821d209232425\
    ba0ab7bf0528292a2b2c2da60b2f303132";

/// The snapshot's `Display` text, recorded on the parent commit.
const PINNED_TEXT: &str = r#"requests: 15 (certify 1, check 2, gen 3, soundness 4, stats 5, errors 6)
cache: 107 hits, 208 misses, 9 evictions, 310 entries, 70011 bytes
store: 719 records, 80020 bytes, 21 segments; cold hits 15, cold misses 16, demotions 617, promotions 18 (WARNING: 22 write-behind failures — that many certificates are not persisted)
connections: 23 open, 824 accepted, 25 accept retries, 26 idle-timeouts
prover: 514 executions; batching: 12 batches covering 413 requests
latency: 11 samples, p50 32 us, p99 64 us
stage read_decode  3 samples, p50 0 us, p99 2 us
stage queue_wait   8 samples, p50 2 us, p99 8 us
stage service      6 samples, p50 16 us, p99 32 us
stage reorder_wait 9 samples, p50 0 us, p99 0 us
stage write_flush  3 samples, p50 4 us, p99 8 us
backpressure: 27 queue-full stalls, 928 read-interest drops, 29 restores, 1030 inbox wakeups, 31 queued now
replication: 1132 absorbed, 33 duplicates, 1234 pushed to peers, 35 sweeps, 36 sweep errors
chunked uploads: 37 sessions, 1338 chunks, 90039 bytes, 40 aborted, carry peak 41 bytes
distributed: 42 components delegated, 43 delegation failures, 44 outcome merges
audit: 45 sweeps, 1446 sampled, 47 failed, 48 quarantined
interactive: 49 sessions, 50 rejecting verdicts
scheme   0 planarity          901 certifies, 902 hits, 3 misses, 4 proves, p50 4 us
scheme   8 mod-counter        5 certifies, 6 hits, 907 misses, 908 proves, p50 8 us"#;

/// The snapshot's `/metrics` text, recorded on the parent commit.
const PINNED_PROMETHEUS: &str = r#"# HELP dpc_requests_total Requests received, by wire kind.
# TYPE dpc_requests_total counter
dpc_requests_total{kind="certify"} 1
dpc_requests_total{kind="check"} 2
dpc_requests_total{kind="gen"} 3
dpc_requests_total{kind="soundness"} 4
dpc_requests_total{kind="stats"} 5
# HELP dpc_errors_total Malformed requests answered with an error.
# TYPE dpc_errors_total counter
dpc_errors_total 6
# HELP dpc_proves_total Honest-prover executions.
# TYPE dpc_proves_total counter
dpc_proves_total 514
# HELP dpc_batches_total Worker batches with more than one certify.
# TYPE dpc_batches_total counter
dpc_batches_total 12
# HELP dpc_batched_certifies_total Certify requests that rode in a multi-request batch.
# TYPE dpc_batched_certifies_total counter
dpc_batched_certifies_total 413
# HELP dpc_cache_hits_total Cache hits.
# TYPE dpc_cache_hits_total counter
dpc_cache_hits_total 107
# HELP dpc_cache_misses_total Cache misses.
# TYPE dpc_cache_misses_total counter
dpc_cache_misses_total 208
# HELP dpc_cache_evictions_total Cache evictions.
# TYPE dpc_cache_evictions_total counter
dpc_cache_evictions_total 9
# HELP dpc_cache_entries Live cache entries.
# TYPE dpc_cache_entries gauge
dpc_cache_entries 310
# HELP dpc_cache_bytes Bytes charged against the cache budget.
# TYPE dpc_cache_bytes gauge
dpc_cache_bytes 70011
# HELP dpc_store_hits_total Cold-tier lookups that found a record.
# TYPE dpc_store_hits_total counter
dpc_store_hits_total 15
# HELP dpc_store_misses_total Cold-tier lookups that found nothing.
# TYPE dpc_store_misses_total counter
dpc_store_misses_total 16
# HELP dpc_store_records Live records in the cold tier.
# TYPE dpc_store_records gauge
dpc_store_records 719
# HELP dpc_store_bytes Live record bytes in the cold tier.
# TYPE dpc_store_bytes gauge
dpc_store_bytes 80020
# HELP dpc_conns_open Currently open connections.
# TYPE dpc_conns_open gauge
dpc_conns_open 23
# HELP dpc_conns_accepted_total Connections accepted since boot.
# TYPE dpc_conns_accepted_total counter
dpc_conns_accepted_total 824
# HELP dpc_idle_timeouts_total Connections closed by the idle timeout.
# TYPE dpc_idle_timeouts_total counter
dpc_idle_timeouts_total 26
# HELP dpc_queue_depth Jobs waiting in the worker queue.
# TYPE dpc_queue_depth gauge
dpc_queue_depth 31
# HELP dpc_queue_full_stalls_total Jobs parked on their connection because the queue was full.
# TYPE dpc_queue_full_stalls_total counter
dpc_queue_full_stalls_total 27
# HELP dpc_read_interest_drops_total Read-interest drops while a job was parked.
# TYPE dpc_read_interest_drops_total counter
dpc_read_interest_drops_total 928
# HELP dpc_read_interest_restores_total Read-interest restores after a parked job enqueued.
# TYPE dpc_read_interest_restores_total counter
dpc_read_interest_restores_total 29
# HELP dpc_inbox_wakeups_total Worker completions that had to wake an event loop.
# TYPE dpc_inbox_wakeups_total counter
dpc_inbox_wakeups_total 1030
# HELP dpc_repl_push_merged_total Records absorbed from StorePush frames.
# TYPE dpc_repl_push_merged_total counter
dpc_repl_push_merged_total 1132
# HELP dpc_repl_push_duplicates_total StorePush records that were already present.
# TYPE dpc_repl_push_duplicates_total counter
dpc_repl_push_duplicates_total 33
# HELP dpc_repl_pushed_total Records pushed to peers that lacked them.
# TYPE dpc_repl_pushed_total counter
dpc_repl_pushed_total 1234
# HELP dpc_repl_sweeps_total Completed anti-entropy sweep rounds.
# TYPE dpc_repl_sweeps_total counter
dpc_repl_sweeps_total 35
# HELP dpc_repl_errors_total Failed peer exchanges during sweeps.
# TYPE dpc_repl_errors_total counter
dpc_repl_errors_total 36
# HELP dpc_chunk_sessions_total Chunked graph-upload sessions opened.
# TYPE dpc_chunk_sessions_total counter
dpc_chunk_sessions_total 37
# HELP dpc_chunk_chunks_total GraphChunk frames accepted into a session.
# TYPE dpc_chunk_chunks_total counter
dpc_chunk_chunks_total 1338
# HELP dpc_chunk_bytes_total Payload bytes streamed through chunk sessions.
# TYPE dpc_chunk_bytes_total counter
dpc_chunk_bytes_total 90039
# HELP dpc_chunk_aborts_total Chunk sessions aborted or abandoned.
# TYPE dpc_chunk_aborts_total counter
dpc_chunk_aborts_total 40
# HELP dpc_chunk_carry_peak_bytes Peak stream-decoder carry buffer across chunk sessions.
# TYPE dpc_chunk_carry_peak_bytes gauge
dpc_chunk_carry_peak_bytes 41
# HELP dpc_delegated_proves_total Graph components delegated to ring peers.
# TYPE dpc_delegated_proves_total counter
dpc_delegated_proves_total 42
# HELP dpc_delegated_errors_total Delegations that fell back to a local prove.
# TYPE dpc_delegated_errors_total counter
dpc_delegated_errors_total 43
# HELP dpc_outcome_merges_total Component outcomes folded into one merged Outcome.
# TYPE dpc_outcome_merges_total counter
dpc_outcome_merges_total 44
# HELP dpc_audit_sweeps_total Completed audit sweeps over the stored certificates.
# TYPE dpc_audit_sweeps_total counter
dpc_audit_sweeps_total 45
# HELP dpc_audit_sampled_total Stored records sampled by the auditor.
# TYPE dpc_audit_sampled_total counter
dpc_audit_sampled_total 1446
# HELP dpc_audit_failed_total Sampled records that were CRC-valid but failed re-verification.
# TYPE dpc_audit_failed_total counter
dpc_audit_failed_total 47
# HELP dpc_audit_quarantined_total Failed records purged from both cache tiers.
# TYPE dpc_audit_quarantined_total counter
dpc_audit_quarantined_total 48
# HELP dpc_interactive_sessions_total Interactive (dMAM) wire sessions opened.
# TYPE dpc_interactive_sessions_total counter
dpc_interactive_sessions_total 49
# HELP dpc_interactive_rejects_total Interactive verdicts that rejected at least one node.
# TYPE dpc_interactive_rejects_total counter
dpc_interactive_rejects_total 50
# HELP dpc_request_duration_us End-to-end request latency (enqueue to response built), microseconds.
# TYPE dpc_request_duration_us histogram
dpc_request_duration_us_bucket{le="1"} 0
dpc_request_duration_us_bucket{le="3"} 3
dpc_request_duration_us_bucket{le="7"} 4
dpc_request_duration_us_bucket{le="15"} 4
dpc_request_duration_us_bucket{le="31"} 4
dpc_request_duration_us_bucket{le="63"} 9
dpc_request_duration_us_bucket{le="127"} 11
dpc_request_duration_us_bucket{le="+Inf"} 11
dpc_request_duration_us_count 11
# HELP dpc_stage_duration_us Per-stage request latency, microseconds.
# TYPE dpc_stage_duration_us histogram
dpc_stage_duration_us_bucket{stage="read_decode",le="1"} 2
dpc_stage_duration_us_bucket{stage="read_decode",le="3"} 3
dpc_stage_duration_us_bucket{stage="read_decode",le="+Inf"} 3
dpc_stage_duration_us_count{stage="read_decode"} 3
dpc_stage_duration_us_bucket{stage="queue_wait",le="1"} 0
dpc_stage_duration_us_bucket{stage="queue_wait",le="3"} 7
dpc_stage_duration_us_bucket{stage="queue_wait",le="7"} 7
dpc_stage_duration_us_bucket{stage="queue_wait",le="15"} 8
dpc_stage_duration_us_bucket{stage="queue_wait",le="+Inf"} 8
dpc_stage_duration_us_count{stage="queue_wait"} 8
dpc_stage_duration_us_bucket{stage="service",le="1"} 0
dpc_stage_duration_us_bucket{stage="service",le="3"} 0
dpc_stage_duration_us_bucket{stage="service",le="7"} 0
dpc_stage_duration_us_bucket{stage="service",le="15"} 0
dpc_stage_duration_us_bucket{stage="service",le="31"} 3
dpc_stage_duration_us_bucket{stage="service",le="63"} 6
dpc_stage_duration_us_bucket{stage="service",le="+Inf"} 6
dpc_stage_duration_us_count{stage="service"} 6
dpc_stage_duration_us_bucket{stage="reorder_wait",le="1"} 9
dpc_stage_duration_us_bucket{stage="reorder_wait",le="+Inf"} 9
dpc_stage_duration_us_count{stage="reorder_wait"} 9
dpc_stage_duration_us_bucket{stage="write_flush",le="1"} 0
dpc_stage_duration_us_bucket{stage="write_flush",le="3"} 1
dpc_stage_duration_us_bucket{stage="write_flush",le="7"} 2
dpc_stage_duration_us_bucket{stage="write_flush",le="15"} 3
dpc_stage_duration_us_bucket{stage="write_flush",le="+Inf"} 3
dpc_stage_duration_us_count{stage="write_flush"} 3
# HELP dpc_scheme_certify_total Certify requests routed to the scheme.
# TYPE dpc_scheme_certify_total counter
dpc_scheme_certify_total{scheme="planarity"} 901
dpc_scheme_certify_total{scheme="mod-counter"} 5
# HELP dpc_scheme_hits_total Cache hits under the scheme's keys.
# TYPE dpc_scheme_hits_total counter
dpc_scheme_hits_total{scheme="planarity"} 902
dpc_scheme_hits_total{scheme="mod-counter"} 6
# HELP dpc_scheme_proves_total Honest-prover executions for the scheme.
# TYPE dpc_scheme_proves_total counter
dpc_scheme_proves_total{scheme="planarity"} 4
dpc_scheme_proves_total{scheme="mod-counter"} 908
"#;

/// The five families `/metrics` gained after the pin was recorded: the
/// Stats fields it used to leave out.
const ADDED_PROMETHEUS: &str = r#"# HELP dpc_store_demotes_total Hot-tier evictions demoted to the cold tier instead of lost.
# TYPE dpc_store_demotes_total counter
dpc_store_demotes_total 617
# HELP dpc_store_promotes_total Cold hits promoted back into the hot tier.
# TYPE dpc_store_promotes_total counter
dpc_store_promotes_total 18
# HELP dpc_store_segments Cold-tier segment files.
# TYPE dpc_store_segments gauge
dpc_store_segments 21
# HELP dpc_store_write_errors_total Write-behind appends that failed.
# TYPE dpc_store_write_errors_total counter
dpc_store_write_errors_total 22
# HELP dpc_accept_eagain_total Accept attempts that returned EAGAIN.
# TYPE dpc_accept_eagain_total counter
dpc_accept_eagain_total 25
"#;

/// Splits Prometheus text into family blocks, each starting at its
/// `# HELP` line, sorted so only the order across families is free.
fn families(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        match blocks.last_mut() {
            Some(block) if !line.starts_with("# HELP ") => {
                block.push_str(line);
                block.push('\n');
            }
            _ => blocks.push(format!("{line}\n")),
        }
    }
    blocks.sort();
    blocks
}

/// A snapshot as it arrives off the wire.
fn roundtrip(s: &StatsSnapshot) -> StatsSnapshot {
    let mut bytes = Vec::new();
    s.encode_into(&mut bytes);
    StatsSnapshot::decode_from(&mut bytes.as_slice()).expect("own encoding decodes")
}

#[test]
fn stats_bytes_are_pinned_and_roundtrip() {
    let snapshot = pinned_snapshot();
    let mut bytes = Vec::new();
    snapshot.encode_into(&mut bytes);
    assert_eq!(hex(&bytes), PINNED_HEX, "Stats body drifted");
    let mut cursor = bytes.as_slice();
    let back = StatsSnapshot::decode_from(&mut cursor).expect("pinned body decodes");
    assert!(cursor.is_empty(), "decode left {} bytes", cursor.len());
    assert_eq!(back, snapshot);
}

#[test]
fn stats_display_is_pinned() {
    assert_eq!(format!("{}", pinned_snapshot()), PINNED_TEXT);
}

#[test]
fn prometheus_text_is_pinned_family_by_family() {
    let actual = families(&prometheus_text(&pinned_snapshot()));
    let mut expected = families(PINNED_PROMETHEUS);
    expected.extend(families(ADDED_PROMETHEUS));
    let missing: Vec<&String> = expected.iter().filter(|b| !actual.contains(b)).collect();
    let extra: Vec<&String> = actual.iter().filter(|b| !expected.contains(b)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing families: {missing:#?}\nunexpected families: {extra:#?}"
    );
}

#[test]
fn folding_two_nodes_sums_all_but_the_high_water_mark() {
    let mut fleet = roundtrip(&pinned_snapshot());
    fleet.absorb(&pinned_snapshot());
    let mut expected = snapshot_with(|v| 2 * v);
    expected.chunk_carry_peak = 41;
    assert_eq!(fleet, expected);
}

#[test]
fn folding_a_peer_near_u64_max_saturates() {
    let mut one = roundtrip(&StatsSnapshot {
        certify: 1,
        ..StatsSnapshot::default()
    });
    let peer = roundtrip(&StatsSnapshot {
        certify: u64::MAX,
        ..StatsSnapshot::default()
    });
    one.absorb(&peer);
    assert_eq!(one.certify, u64::MAX);
    assert_eq!(one.requests_total(), u64::MAX);

    // every field, histogram bucket and per-scheme counter at once; the
    // high-water mark takes the max, which is u64::MAX too
    let max = roundtrip(&snapshot_with(|_| u64::MAX));
    let mut fleet = roundtrip(&pinned_snapshot());
    fleet.absorb(&max);
    assert_eq!(fleet, max);
    let text = format!("{fleet}");
    assert!(text.contains(&format!("requests: {}", u64::MAX)), "{text}");
    prometheus_text(&fleet);
}

#[test]
fn histogram_count_saturates() {
    let s = roundtrip(&StatsSnapshot {
        latency: HistogramSnapshot {
            buckets: vec![u64::MAX, 1],
        },
        ..StatsSnapshot::default()
    });
    assert_eq!(s.latency.count(), u64::MAX);
    assert_eq!(s.latency.p50_us(), 0);
    assert_eq!(s.latency.quantile_us(1.0), 0);
}

#[test]
fn prometheus_cumulative_buckets_saturate() {
    let s = roundtrip(&StatsSnapshot {
        latency: HistogramSnapshot {
            buckets: vec![u64::MAX, 1],
        },
        ..StatsSnapshot::default()
    });
    let text = prometheus_text(&s);
    let max = u64::MAX;
    for line in [
        format!("dpc_request_duration_us_bucket{{le=\"1\"}} {max}"),
        format!("dpc_request_duration_us_bucket{{le=\"3\"}} {max}"),
        format!("dpc_request_duration_us_bucket{{le=\"+Inf\"}} {max}"),
        format!("dpc_request_duration_us_count {max}"),
    ] {
        assert!(text.lines().any(|l| l == line), "no {line:?} in\n{text}");
    }
}

/// Expands the `{a,b,c}` groups in a documented metric name; a label
/// selector such as `{kind=...}` is dropped instead.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("closed brace");
    let (head, group, rest) = (&name[..open], &name[open + 1..close], &name[close + 1..]);
    if group.contains('=') {
        return vec![head.to_string()];
    }
    group
        .split(',')
        .flat_map(|g| expand(&format!("{head}{g}{rest}")))
        .collect()
}

#[test]
fn observability_doc_lists_every_exported_family() {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let mut documented = Vec::new();
    for row in doc.lines().filter(|l| l.starts_with("| `dpc_")) {
        let names = row.split('|').nth(1).expect("a metric column");
        for name in names.split('`').skip(1).step_by(2) {
            documented.extend(expand(name));
        }
    }
    let text = prometheus_text(&pinned_snapshot());
    let rendered: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let missing: Vec<&&str> = rendered
        .iter()
        .filter(|f| !documented.iter().any(|d| d == **f))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/OBSERVABILITY.md's metric table misses {missing:?}"
    );
    let stale: Vec<&String> = documented
        .iter()
        .filter(|d| !rendered.contains(&d.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "docs/OBSERVABILITY.md lists families /metrics does not render: {stale:?}"
    );
}
