//! End-to-end tests of the version-8 wire surface: interactive dMAM
//! sessions served by both front ends, and the randomized store
//! auditor that catches CRC-valid corruption `dpc store verify`
//! cannot see.

use dpc_core::harness::Outcome;
use dpc_core::scheme::Assignment;
use dpc_graph::generators;
use dpc_interactive::dmam::{DmamPlanarity, DmamProtocol};
use dpc_service::client::Client;
use dpc_service::registry::SchemeId;
use dpc_service::server::{serve, ServeConfig};
use dpc_service::store::{crc32, RecordKind, SegmentStore, StoreRecord};
use dpc_service::wire::{self, Response};
use dpc_service::{AuditOptions, CertifyOptions, InteractiveOptions, SegmentConfig};
use std::io::Write;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dpc-audit-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn front_end(event_loop: bool) -> dpc_service::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            event_loop,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

/// An honest session over a planar graph accepts, reports the
/// measured proof sizes, and carries the paper's soundness bound:
/// a forged proof survives one challenge with probability at most
/// `1 - 1/Δ`, scaled to parts per million.
#[test]
fn honest_interactive_session_accepts_with_the_papers_bound() {
    let handle = front_end(false);
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::stacked_triangulation(40, 3);
    let max_deg = (0..g.node_count() as u32)
        .map(|v| g.degree(v))
        .max()
        .unwrap() as u64;
    match client
        .interactive(&g, InteractiveOptions::new().seed(7))
        .unwrap()
    {
        Response::Verdict {
            accept,
            reject_count,
            nodes,
            max_commit_bits,
            max_response_bits,
            soundness_ppm,
            ..
        } => {
            assert!(accept, "honest session must accept");
            assert_eq!(reject_count, 0);
            assert_eq!(nodes, g.node_count() as u64);
            assert!(max_commit_bits > 0 && max_response_bits > 0);
            assert_eq!(soundness_ppm, 1_000_000 - 1_000_000 / max_deg);
        }
        other => panic!("{other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.interactive_sessions, 1);
    assert_eq!(stats.interactive_rejects, 0);
    handle.shutdown();
}

/// Wire-level soundness: Merlin commits to a planarized subgraph of a
/// non-planar graph and replays its honest responses. Over many
/// independent seeds some challenge must select a removed edge, so
/// the detection rate is strictly positive — the paper's one-sided
/// randomized-soundness guarantee, observed through the server.
#[test]
fn forged_sessions_are_detected_at_a_positive_rate() {
    let handle = front_end(true);
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::planted_kuratowski(20, true, 1, 11);
    let sub = dpc_core::adversary::planarize(&g);
    let proto = DmamPlanarity::new();
    let commit = proto.commit(&sub).expect("planarized subgraph commits");

    let trials = 24u64;
    let mut rejected = 0u64;
    for seed in 0..trials {
        let session = 100 + seed;
        client
            .send_body(
                &wire::RequestRef::InteractiveBegin {
                    session,
                    seed,
                    graph: &g,
                    commit: &commit,
                    scheme: SchemeId::PLANARITY,
                }
                .encode(),
            )
            .unwrap();
        let challenge = match client.recv().unwrap() {
            Response::Challenge {
                session: s,
                challenge,
            } => {
                assert_eq!(s, session);
                challenge
            }
            other => panic!("{other:?}"),
        };
        let resp = proto.respond(&sub, &commit, challenge);
        client
            .send_body(
                &wire::RequestRef::InteractiveRespond {
                    session,
                    response: &resp,
                }
                .encode(),
            )
            .unwrap();
        match client.recv().unwrap() {
            Response::Verdict {
                session: s, accept, ..
            } => {
                assert_eq!(s, session);
                if !accept {
                    rejected += 1;
                }
            }
            other => panic!("{other:?}"),
        }
    }
    let rate = rejected as f64 / trials as f64;
    assert!(rate > 0.0, "some challenge must catch the lie");
    let stats = client.stats().unwrap();
    assert_eq!(stats.interactive_sessions, trials);
    assert_eq!(stats.interactive_rejects, rejected);
    handle.shutdown();
}

/// Scripts one fixed byte sequence — a protocol violation, an honest
/// session, and a stats-free second session under another seed —
/// against both front ends and requires the raw response byte
/// streams to be identical. The transcript property is structural
/// (both front ends answer interactive kinds at the connection
/// layer), and this pins it.
#[test]
fn interactive_transcripts_are_byte_identical_across_front_ends() {
    // the scripted client side, fixed once
    let g = generators::grid(5, 4);
    let proto = DmamPlanarity::new();
    let commit = proto.commit(&g).unwrap();
    let mut sessions = Vec::new();
    for seed in [3u64, 8] {
        let challenge = dpc_interactive::dmam::challenge_from_seed(seed);
        let resp = proto.respond(&g, &commit, challenge);
        sessions.push((seed, resp));
    }

    let mut script: Vec<Vec<u8>> = Vec::new();
    // a Respond with no session open: must be a clean error
    script.push(
        wire::RequestRef::InteractiveRespond {
            session: 9,
            response: &commit,
        }
        .encode(),
    );
    for (i, (seed, resp)) in sessions.iter().enumerate() {
        let session = i as u64 + 1;
        script.push(
            wire::RequestRef::InteractiveBegin {
                session,
                seed: *seed,
                graph: &g,
                commit: &commit,
                scheme: SchemeId::PLANARITY,
            }
            .encode(),
        );
        script.push(
            wire::RequestRef::InteractiveRespond {
                session,
                response: resp,
            }
            .encode(),
        );
    }

    let transcript = |event_loop: bool| -> Vec<u8> {
        let handle = front_end(event_loop);
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut sent = Vec::new();
        for body in &script {
            wire::write_frame(&mut sent, body).unwrap();
        }
        stream.write_all(&sent).unwrap();
        // one response frame per request frame, in order
        let mut out = Vec::new();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        for _ in 0..script.len() {
            let body = wire::read_frame(&mut reader).unwrap().expect("response");
            wire::write_frame(&mut out, &body).unwrap();
        }
        drop(reader);
        handle.shutdown();
        out
    };

    let threaded = transcript(false);
    let reactor = transcript(true);
    assert_eq!(
        threaded, reactor,
        "interactive transcripts must be byte-identical across front ends"
    );
    // and the scripted conversation went as designed: error, then
    // challenge/verdict pairs, every verdict accepting
    let mut cursor = std::io::Cursor::new(threaded.as_slice());
    let mut responses = Vec::new();
    while let Some(body) = wire::read_frame(&mut cursor).unwrap() {
        responses.push(Response::decode(&body).unwrap());
    }
    match responses.as_slice() {
        [Response::Error(e), Response::Challenge { session: 1, .. }, Response::Verdict {
            session: 1,
            accept: true,
            ..
        }, Response::Challenge { session: 2, .. }, Response::Verdict {
            session: 2,
            accept: true,
            ..
        }] => assert!(e.contains("session"), "{e}"),
        other => panic!("scripted conversation answered {other:?}"),
    }
}

/// Rewrites the store's one segment file, flipping a verdict bit in
/// the certified record's outcome and recomputing the CRC so the
/// frame stays valid.
fn corrupt_stored_outcome(dir: &std::path::Path) {
    let seg = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "dpcs"))
        .expect("a segment file");
    let bytes = std::fs::read(&seg).unwrap();
    let (magic, mut rest) = bytes.split_at(8);
    let mut rebuilt = magic.to_vec();
    let mut corrupted = false;
    while !rest.is_empty() {
        let total = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let body = &rest[4..4 + total - 4];
        let crc = &rest[total..total + 4];
        rest = &rest[total + 4..];
        let record = StoreRecord::decode_body(body).unwrap();
        let record = if record.kind == RecordKind::Certified && !corrupted {
            corrupted = true;
            // decode the suffix, flip one accept verdict, re-encode:
            // the bytes stay structurally valid, only the answer lies
            let mut buf = record.suffix.as_slice();
            let mut outcome = Outcome::decode_from(&mut buf).unwrap();
            let assignment = Assignment::decode_from(&mut buf).unwrap();
            outcome.verdicts[0] = false;
            let mut suffix = Vec::new();
            outcome.encode_into(&mut suffix);
            assignment.encode_into(&mut suffix);
            StoreRecord {
                kind: RecordKind::Certified,
                keyed: record.keyed,
                suffix,
            }
        } else {
            assert_eq!(crc32(body), u32::from_le_bytes(crc.try_into().unwrap()));
            record
        };
        let body = record.encode_body();
        rebuilt.extend_from_slice(&(body.len() as u32 + 4).to_le_bytes());
        rebuilt.extend_from_slice(&body);
        rebuilt.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    assert!(corrupted, "no certified record found to corrupt");
    std::fs::write(&seg, rebuilt).unwrap();
}

/// The acceptance gate for the auditor: a stored record whose outcome
/// bytes were flipped *and* whose CRC was recomputed passes `dpc
/// store verify` (CRC + decode + scheme checks all hold — the lie is
/// semantic), but a bounded number of audit sweeps catches it,
/// quarantines the key, and the next query transparently re-proves —
/// the client never sees a failure, let alone the forged verdict.
#[test]
fn auditor_quarantines_crc_valid_corruption_store_verify_accepts() {
    let dir = scratch_dir("quarantine");
    let g = generators::stacked_triangulation(30, 9);

    // 1. prove once, persisting the certificate
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            store: Some(SegmentConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.certify(&g, CertifyOptions::new()).unwrap() {
        Response::Certified { cached: false, .. } => {}
        other => panic!("{other:?}"),
    }
    handle.shutdown();

    // 2. corrupt the stored outcome offline, CRC recomputed
    corrupt_stored_outcome(&dir);

    // 3. `dpc store verify` cannot see it: every record CRC-checks,
    // decodes, and names a registered scheme (this is exactly why the
    // auditor exists)
    let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
    let report = store.verify(&dpc_service::SchemeRegistry::standard());
    assert_eq!(report.records, 1);
    assert!(
        report.problems.is_empty(),
        "structural verify must accept the semantic lie: {:?}",
        report.problems
    );
    drop(store);

    // 4. restart with auditing on; one on-demand pass (the same sweep
    // the background auditor runs every other flusher tick) catches
    // and quarantines the record — bounded, not eventual, because the
    // store holds exactly one record and sampling is exhaustive
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            store: Some(SegmentConfig::new(&dir)),
            audit: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .audit(AuditOptions::new().samples(16).seed(5))
        .unwrap()
    {
        Response::AuditReport {
            sampled,
            failed,
            quarantined,
        } => {
            assert_eq!(sampled, 1, "one stored record, sampled exhaustively");
            assert_eq!(failed, 1, "the flipped verdict must fail re-verification");
            assert_eq!(quarantined, 1, "and be purged from both tiers");
        }
        other => panic!("{other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.audit_sweeps >= 1);
    assert_eq!(stats.audit_quarantined, 1);

    // 5. zero client-visible failures: the key re-proves fresh (the
    // quarantined bytes are gone from both tiers) and accepts
    match client.certify(&g, CertifyOptions::new()).unwrap() {
        Response::Certified {
            cached: false,
            outcome,
            ..
        } => assert!(outcome.all_accept(), "re-proved certificate accepts"),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The background auditor (no on-demand request) reaches the same
/// quarantine within bounded sweeps: one sweep fires every other
/// 250 ms flusher tick, so a few seconds bound the wait.
#[test]
fn background_auditor_sweeps_quarantine_corruption() {
    let dir = scratch_dir("background");
    let g = generators::stacked_triangulation(24, 4);
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            store: Some(SegmentConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.certify(&g, CertifyOptions::new()).unwrap();
    handle.shutdown();

    corrupt_stored_outcome(&dir);

    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            store: Some(SegmentConfig::new(&dir)),
            audit: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let s = handle.stats();
        if s.audit_quarantined >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background sweeps must quarantine within bounded time: {s:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    // and the repaired path stays invisible to clients
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.certify(&g, CertifyOptions::new()).unwrap() {
        Response::Certified {
            cached: false,
            outcome,
            ..
        } => assert!(outcome.all_accept()),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
