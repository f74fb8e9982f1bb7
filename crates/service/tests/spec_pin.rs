//! Keeps `docs/WIRE.md` honest: the worked hex examples in the spec
//! are parsed out of the document itself and round-tripped through
//! the real codec. If an encoding changes, these tests fail until the
//! spec's bytes are updated — the document cannot silently rot.

use dpc_graph::generators;
use dpc_runtime::get_uvarint;
use dpc_service::metrics::{HistogramSnapshot, SchemeStats, SlowLogEntry, StatsSnapshot};
use dpc_service::registry::SchemeId;
use dpc_service::store::{crc32, RecordKind, StoreRecord};
use dpc_service::wire::{self, Request, Response};
use dpc_service::StageSnapshot;

const SPEC: &str = include_str!("../../../docs/WIRE.md");

/// Document order of the ```hex blocks: §5.3 (Stats) comes before
/// §5.4 (SlowLog), which comes before §7 (Certify), which comes
/// before the three §8 replication examples.
const STATS_BLOCK: usize = 1;
const SLOWLOG_BLOCK: usize = 2;
const CERTIFY_BLOCK: usize = 3;
const STOREPUSH_BLOCK: usize = 4;
const STOREKEYS_BLOCK: usize = 5;
const STOREPUSHED_BLOCK: usize = 6;
/// §9's chunked-upload conversation (four request frames) and the
/// server's first ack, appended after the earlier blocks so their
/// indices stay stable.
const CHUNK_STREAM_BLOCK: usize = 7;
const CHUNK_ACK_BLOCK: usize = 8;
/// §10's interactive session (two request frames, then the two
/// response bodies) and §11's audit exchange, appended in document
/// order after the chunked-upload blocks.
const INTERACTIVE_STREAM_BLOCK: usize = 9;
const CHALLENGE_BLOCK: usize = 10;
const VERDICT_BLOCK: usize = 11;
const AUDIT_REQUEST_BLOCK: usize = 12;
const AUDIT_REPORT_BLOCK: usize = 13;

/// The hex bytes of the `index`-th ```hex fenced block in the spec
/// (1-based), comments (`# ...`) stripped.
fn spec_example_bytes(index: usize) -> Vec<u8> {
    let block = SPEC
        .split("```hex")
        .nth(index)
        .expect("docs/WIRE.md must contain enough ```hex blocks")
        .split("```")
        .next()
        .expect("unterminated ```hex block");
    let mut bytes = Vec::new();
    for line in block.lines() {
        let data = line.split('#').next().unwrap_or("");
        for tok in data.split_whitespace() {
            bytes.push(
                u8::from_str_radix(tok, 16)
                    .unwrap_or_else(|_| panic!("bad hex token {tok:?} in docs/WIRE.md")),
            );
        }
    }
    assert!(!bytes.is_empty(), "empty hex example in docs/WIRE.md");
    bytes
}

/// The snapshot the Stats example in docs/WIRE.md §5.1 describes.
fn spec_stats_snapshot() -> StatsSnapshot {
    StatsSnapshot {
        certify: 7,
        check: 2,
        gen: 1,
        soundness: 0,
        stats: 3,
        errors: 1,
        cache_hits: 5,
        cache_misses: 2,
        cache_evictions: 1,
        cache_entries: 1,
        cache_bytes: 4096,
        batches: 1,
        batched_certifies: 2,
        proves: 2,
        latency: HistogramSnapshot::default(),
        per_scheme: Vec::<SchemeStats>::new(),
        store_hits: 4,
        store_misses: 2,
        store_demotes: 1,
        store_promotes: 3,
        store_records: 6,
        store_bytes: 2048,
        store_segments: 1,
        store_write_errors: 0,
        conns_open: 2,
        conns_accepted: 9,
        accept_eagain: 3,
        idle_timeouts: 1,
        stages: StageSnapshot {
            queue_wait: HistogramSnapshot {
                buckets: vec![1, 3],
            },
            ..StageSnapshot::default()
        },
        queue_full_stalls: 1,
        read_interest_drops: 1,
        read_interest_restores: 1,
        inbox_wakeups: 4,
        queue_depth: 0,
        repl_push_merged: 2,
        repl_push_duplicates: 1,
        repl_pushed: 2,
        repl_sweeps: 4,
        repl_errors: 0,
        chunk_sessions: 0,
        chunk_chunks: 0,
        chunk_bytes: 0,
        chunk_aborts: 0,
        chunk_carry_peak: 0,
        delegated_proves: 0,
        delegated_errors: 0,
        outcome_merges: 0,
        audit_sweeps: 0,
        audit_sampled: 0,
        audit_failed: 0,
        audit_quarantined: 0,
        interactive_sessions: 0,
        interactive_rejects: 0,
    }
}

/// The slow-log entry the SlowLog example in docs/WIRE.md §5.4
/// describes.
fn spec_slowlog_entry() -> SlowLogEntry {
    SlowLogEntry {
        trace_id: (1 << 32) | 2,
        kind: 1,
        scheme: 0,
        age_us: 128,
        total_us: 1_000_000,
        read_decode_us: 2,
        queue_wait_us: 100,
        service_us: 999_000,
        reorder_wait_us: 8,
        write_flush_us: 890,
    }
}

#[test]
fn spec_hex_example_is_the_real_encoding() {
    let frame = spec_example_bytes(CERTIFY_BLOCK);
    // the spec's frame is exactly what the codec emits for C4 under
    // the bipartite scheme
    let body = wire::RequestRef::Certify {
        bypass_cache: false,
        cached_only: false,
        summary: false,
        graph: &generators::cycle(4),
        scheme: SchemeId::BIPARTITE,
    }
    .encode();
    let mut expected = Vec::new();
    wire::write_frame(&mut expected, &body).unwrap();
    assert_eq!(
        frame, expected,
        "docs/WIRE.md worked example drifted from the codec"
    );
}

#[test]
fn spec_hex_example_decodes_as_documented() {
    let frame = spec_example_bytes(CERTIFY_BLOCK);
    // frame layer
    let mut cursor = std::io::Cursor::new(frame.as_slice());
    let body = wire::read_frame(&mut cursor)
        .expect("valid frame")
        .expect("non-empty stream");
    assert_eq!(cursor.position() as usize, frame.len(), "one whole frame");
    // request layer: Certify, C4, cache on, scheme 1
    match Request::decode(&body).expect("valid request") {
        Request::Certify {
            graph,
            bypass_cache,
            scheme,
            ..
        } => {
            assert!(!bypass_cache);
            assert_eq!(scheme, SchemeId::BIPARTITE);
            assert!(wire::graphs_equal(&graph, &generators::cycle(4)));
        }
        other => panic!("spec example decoded as {other:?}"),
    }
    // the compatibility claim at the end of the spec: dropping the
    // 3-byte extension block yields the version-1 planarity request
    let v1 = &body[..body.len() - 3];
    match Request::decode(v1).expect("v1 request") {
        Request::Certify { scheme, .. } => assert_eq!(scheme, SchemeId::PLANARITY),
        other => panic!("{other:?}"),
    }
    let v1_direct = wire::RequestRef::Certify {
        bypass_cache: false,
        cached_only: false,
        summary: false,
        graph: &generators::cycle(4),
        scheme: SchemeId::PLANARITY,
    }
    .encode();
    assert_eq!(
        v1,
        v1_direct.as_slice(),
        "scheme-0 encoding is v1-identical"
    );
}

#[test]
fn spec_stats_example_is_the_real_encoding() {
    let doc = spec_example_bytes(STATS_BLOCK);
    let mut encoded = Vec::new();
    spec_stats_snapshot().encode_into(&mut encoded);
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §5.1 stats example drifted from the codec"
    );
    // and it decodes back to the documented counters
    let mut cursor = doc.as_slice();
    let back = StatsSnapshot::decode_from(&mut cursor).expect("valid snapshot");
    assert!(cursor.is_empty(), "one whole snapshot");
    assert_eq!(back, spec_stats_snapshot());
}

#[test]
fn spec_stats_example_keeps_the_v2_prefix_decodable() {
    // prefix-level compatibility (WIRE.md §5.1–5.2): decoding the
    // body with the v2 field order (14 counters, histogram,
    // per-scheme table) must yield exactly the documented v2 values,
    // with only the v3 store tail and the v4 connection tail beyond
    // that horizon
    let doc = spec_example_bytes(STATS_BLOCK);
    let mut buf = doc.as_slice();
    let mut v2 = [0u64; 14];
    for field in &mut v2 {
        *field = get_uvarint(&mut buf).expect("v2 counter");
    }
    assert_eq!(
        v2,
        [7, 2, 1, 0, 3, 1, 5, 2, 1, 1, 4096, 1, 2, 2],
        "v2 counter prefix"
    );
    let buckets = get_uvarint(&mut buf).expect("histogram length");
    assert_eq!(buckets, 0, "empty histogram");
    let rows = get_uvarint(&mut buf).expect("per-scheme rows");
    assert_eq!(rows, 0, "empty per-scheme table");
    // what remains is exactly the documented 8-field v3 store tail…
    let tail: Vec<u64> = (0..8)
        .map(|_| get_uvarint(&mut buf).expect("v3 field"))
        .collect();
    assert_eq!(tail, vec![4, 2, 1, 3, 6, 2048, 1, 0]);
    // …then the 4-field v4 connection tail…
    let tail: Vec<u64> = (0..4)
        .map(|_| get_uvarint(&mut buf).expect("v4 field"))
        .collect();
    assert_eq!(tail, vec![2, 9, 3, 1]);
    // …then the v5 tracing tail: five stage histograms (only
    // queue_wait is populated in the example) and five back-pressure
    // counters, and nothing else
    for (idx, expected) in [&[][..], &[1, 3], &[], &[], &[]].iter().enumerate() {
        let buckets = get_uvarint(&mut buf).expect("stage bucket count");
        let counts: Vec<u64> = (0..buckets)
            .map(|_| get_uvarint(&mut buf).expect("stage bucket"))
            .collect();
        assert_eq!(&counts, expected, "stage histogram {idx}");
    }
    let tail: Vec<u64> = (0..5)
        .map(|_| get_uvarint(&mut buf).expect("v5 counter"))
        .collect();
    assert_eq!(tail, vec![1, 1, 1, 4, 0]);
    // …then the v6 replication tail…
    let tail: Vec<u64> = (0..5)
        .map(|_| get_uvarint(&mut buf).expect("v6 counter"))
        .collect();
    assert_eq!(tail, vec![2, 1, 2, 4, 0]);
    // …then the v7 chunked-upload + distributed-proving tail (all
    // zero in the worked example)…
    let tail: Vec<u64> = (0..8)
        .map(|_| get_uvarint(&mut buf).expect("v7 counter"))
        .collect();
    assert_eq!(tail, vec![0; 8]);
    // …and finally the v8 audit + interactive tail (also all zero),
    // and nothing else
    let tail: Vec<u64> = (0..6)
        .map(|_| get_uvarint(&mut buf).expect("v8 counter"))
        .collect();
    assert_eq!(tail, vec![0; 6]);
    assert!(buf.is_empty());
}

/// The short Declined record the §8 replication examples describe:
/// keyed = scheme id 0 (no graph bytes), reason = "no".
fn spec_store_record() -> StoreRecord {
    StoreRecord {
        kind: RecordKind::Declined,
        keyed: vec![0x00],
        suffix: vec![0x02, b'n', b'o'],
    }
}

#[test]
fn spec_store_push_example_is_the_real_encoding() {
    let doc = spec_example_bytes(STOREPUSH_BLOCK);
    let encoded = wire::RequestRef::StorePush {
        records: std::slice::from_ref(&spec_store_record()),
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §8 StorePush example drifted from the codec"
    );
    match Request::decode(&doc).expect("valid request") {
        Request::StorePush { records } => assert_eq!(records, vec![spec_store_record()]),
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_store_keys_example_is_the_real_encoding() {
    let doc = spec_example_bytes(STOREKEYS_BLOCK);
    // the documented key is the record's real content key
    let key = spec_store_record().key().0;
    assert_eq!(
        key, 0xd228cb69101a8caf78912b704e4a147f,
        "docs/WIRE.md §8 documents the wrong FNV-1a-128 key"
    );
    let encoded = Response::StoreKeys(vec![key]).encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §8 StoreKeys example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::StoreKeys(keys) => assert_eq!(keys, vec![key]),
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_store_pushed_example_is_the_real_encoding() {
    let doc = spec_example_bytes(STOREPUSHED_BLOCK);
    let encoded = Response::StorePushed {
        merged: 1,
        duplicates: 0,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §8 StorePushed example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::StorePushed { merged, duplicates } => {
            assert_eq!((merged, duplicates), (1, 0));
        }
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_chunk_stream_example_is_the_real_encoding() {
    let doc = spec_example_bytes(CHUNK_STREAM_BLOCK);
    // the documented conversation: C4's graph encoding streamed under
    // session 7 in two chunks, split down the middle
    let mut payload = Vec::new();
    wire::encode_graph(&mut payload, &generators::cycle(4));
    let split = payload.len() / 2;
    let mut expected = Vec::new();
    for body in [
        wire::RequestRef::GraphChunkBegin {
            session: 7,
            bypass_cache: false,
            scheme: SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::GraphChunk {
            session: 7,
            seq: 0,
            payload: &payload[..split],
        }
        .encode(),
        wire::RequestRef::GraphChunk {
            session: 7,
            seq: 1,
            payload: &payload[split..],
        }
        .encode(),
        wire::RequestRef::GraphChunkEnd {
            session: 7,
            total_chunks: 2,
            total_bytes: payload.len() as u64,
            crc: crc32(&payload),
        }
        .encode(),
    ] {
        wire::write_frame(&mut expected, &body).unwrap();
    }
    assert_eq!(
        doc, expected,
        "docs/WIRE.md §9 chunked-upload example drifted from the codec"
    );
    // and the documented frames decode to the documented requests
    let mut cursor = std::io::Cursor::new(doc.as_slice());
    let mut decoded = Vec::new();
    while let Some(body) = wire::read_frame(&mut cursor).expect("valid frame") {
        decoded.push(Request::decode(&body).expect("valid request"));
    }
    match decoded.as_slice() {
        [Request::GraphChunkBegin {
            session: 7,
            bypass_cache: false,
            scheme: SchemeId::PLANARITY,
        }, Request::GraphChunk {
            session: 7, seq: 0, ..
        }, Request::GraphChunk {
            session: 7, seq: 1, ..
        }, Request::GraphChunkEnd {
            session: 7,
            total_chunks: 2,
            total_bytes,
            crc,
        }] => {
            assert_eq!(*total_bytes, payload.len() as u64);
            assert_eq!(*crc, crc32(&payload));
        }
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_chunk_ack_example_is_the_real_encoding() {
    let doc = spec_example_bytes(CHUNK_ACK_BLOCK);
    let encoded = Response::ChunkAck {
        session: 7,
        received: 0,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §9 ChunkAck example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::ChunkAck {
            session: 7,
            received: 0,
        } => {}
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_interactive_session_example_is_the_real_encoding() {
    use dpc_interactive::dmam::{challenge_from_seed, DmamPlanarity, DmamProtocol};
    let doc = spec_example_bytes(INTERACTIVE_STREAM_BLOCK);
    // the documented session: C4, session 1, seed 5, scheme 0 — the
    // commitment and response are the honest prover's, so the bytes
    // are reproducible from the protocol alone
    let g = generators::cycle(4);
    let proto = DmamPlanarity::new();
    let commit = proto.commit(&g).expect("C4 commits");
    let challenge = challenge_from_seed(5);
    let response = proto.respond(&g, &commit, challenge);
    let mut expected = Vec::new();
    for body in [
        wire::RequestRef::InteractiveBegin {
            session: 1,
            seed: 5,
            graph: &g,
            commit: &commit,
            scheme: SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::InteractiveRespond {
            session: 1,
            response: &response,
        }
        .encode(),
    ] {
        wire::write_frame(&mut expected, &body).unwrap();
    }
    assert_eq!(
        doc, expected,
        "docs/WIRE.md §10 interactive example drifted from the codec"
    );
    // and the documented frames decode to the documented requests
    let mut cursor = std::io::Cursor::new(doc.as_slice());
    let mut decoded = Vec::new();
    while let Some(body) = wire::read_frame(&mut cursor).expect("valid frame") {
        decoded.push(Request::decode(&body).expect("valid request"));
    }
    match decoded.as_slice() {
        [Request::InteractiveBegin {
            session: 1,
            seed: 5,
            graph,
            commit: c,
            scheme: SchemeId::PLANARITY,
        }, Request::InteractiveRespond {
            session: 1,
            response: r,
        }] => {
            assert!(wire::graphs_equal(graph, &g));
            // Assignment has no PartialEq; byte-compare the encodings
            let enc = |a: &dpc_core::scheme::Assignment| {
                let mut out = Vec::new();
                a.encode_into(&mut out);
                out
            };
            assert_eq!(enc(c), enc(&commit));
            assert_eq!(enc(r), enc(&response));
        }
        other => panic!("spec example decoded as {other:?}"),
    }

    // the Challenge the server answers the Begin with
    let doc = spec_example_bytes(CHALLENGE_BLOCK);
    assert_eq!(
        challenge, 0x49d55178ca54cf69,
        "docs/WIRE.md §10 documents the wrong challenge for seed 5"
    );
    let encoded = Response::Challenge {
        session: 1,
        challenge,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §10 Challenge example drifted from the codec"
    );

    // and the closing Verdict: the documented proof-size maxima are
    // the honest run's, and the soundness bound is 1e6 - 1e6/max-degree
    let doc = spec_example_bytes(VERDICT_BLOCK);
    let outcome = dpc_interactive::dmam::run_forged(&proto, &g, challenge, &commit, &response);
    assert!(outcome.all_accept(), "honest C4 session must accept");
    let encoded = Response::Verdict {
        session: 1,
        challenge,
        accept: true,
        reject_count: 0,
        nodes: 4,
        max_commit_bits: outcome.max_commit_bits as u64,
        max_response_bits: outcome.max_response_bits as u64,
        soundness_ppm: 500_000,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §10 Verdict example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::Verdict {
            accept: true,
            soundness_ppm: 500_000,
            ..
        } => {}
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_audit_examples_are_the_real_encoding() {
    let doc = spec_example_bytes(AUDIT_REQUEST_BLOCK);
    let encoded = wire::RequestRef::Audit {
        samples: 16,
        seed: 9,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §11 Audit example drifted from the codec"
    );
    match Request::decode(&doc).expect("valid request") {
        Request::Audit {
            samples: 16,
            seed: 9,
        } => {}
        other => panic!("spec example decoded as {other:?}"),
    }

    let doc = spec_example_bytes(AUDIT_REPORT_BLOCK);
    let encoded = Response::AuditReport {
        sampled: 16,
        failed: 1,
        quarantined: 1,
    }
    .encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §11 AuditReport example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::AuditReport {
            sampled: 16,
            failed: 1,
            quarantined: 1,
        } => {}
        other => panic!("spec example decoded as {other:?}"),
    }
}

#[test]
fn spec_slowlog_example_is_the_real_encoding() {
    let doc = spec_example_bytes(SLOWLOG_BLOCK);
    let encoded = Response::SlowLog(vec![spec_slowlog_entry()]).encode();
    assert_eq!(
        doc, encoded,
        "docs/WIRE.md §5.4 slow-log example drifted from the codec"
    );
    match Response::decode(&doc).expect("valid response") {
        Response::SlowLog(entries) => {
            assert_eq!(entries, vec![spec_slowlog_entry()]);
            // the documented invariant: total is the sum of the stages
            let e = &entries[0];
            assert_eq!(
                e.total_us,
                e.read_decode_us
                    + e.queue_wait_us
                    + e.service_us
                    + e.reorder_wait_us
                    + e.write_flush_us
            );
        }
        other => panic!("spec example decoded as {other:?}"),
    }
}
