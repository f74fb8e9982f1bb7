//! End-to-end tests: real TCP server, real client, real cache.

use dpc_core::harness::certify_pls;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::generators;
use dpc_service::cache::CacheConfig;
use dpc_service::client::Client;
use dpc_service::server::{serve, ServeConfig};
use dpc_service::wire::{CheckVerdict, Request, Response};
use dpc_service::{CertifyOptions, CheckOptions, GenOptions};
use std::time::Instant;

fn test_server() -> dpc_service::ServerHandle {
    serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback")
}

#[test]
fn repeated_certify_is_served_from_cache_byte_identical() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::stacked_triangulation(60, 5);

    let first = client.certify(&g, false).unwrap();
    let Response::Certified {
        cached: false,
        outcome: fresh_outcome,
        assignment: fresh_assignment,
    } = first
    else {
        panic!("first certify must prove: {first:?}");
    };
    let stats_after_first = client.stats().unwrap();

    let second = client.certify(&g, false).unwrap();
    let Response::Certified {
        cached: true,
        outcome: hit_outcome,
        assignment: hit_assignment,
    } = second
    else {
        panic!("second certify must hit the cache: {second:?}");
    };
    let stats_after_second = client.stats().unwrap();

    // byte-identical to the fresh prove
    assert_eq!(hit_outcome, fresh_outcome);
    for (a, b) in fresh_assignment.certs.iter().zip(&hit_assignment.certs) {
        assert_eq!(a.bit_len, b.bit_len);
        assert_eq!(a.as_bytes(), b.as_bytes());
    }
    // ... and identical to what the library produces locally on the
    // graph exactly as the server sees it (the wire codec canonicalizes
    // edge order, so round-trip before proving)
    let mut encoded = Vec::new();
    dpc_service::wire::encode_graph(&mut encoded, &g);
    let as_served = dpc_service::wire::decode_graph(&mut encoded.as_slice()).unwrap();
    let local = certify_pls(&PlanarityScheme::new(), &as_served).unwrap();
    for (a, b) in local.assignment.certs.iter().zip(&hit_assignment.certs) {
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    // the prover did not run again: miss/prove counters unchanged
    assert_eq!(
        stats_after_second.cache_misses,
        stats_after_first.cache_misses
    );
    assert_eq!(stats_after_second.proves, stats_after_first.proves);
    assert_eq!(
        stats_after_second.cache_hits,
        stats_after_first.cache_hits + 1
    );
    assert_eq!(stats_after_second.cache_entries, 1);

    handle.shutdown();
}

#[test]
fn bypass_cache_always_proves() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::grid(6, 6);
    for _ in 0..3 {
        match client.certify(&g, true).unwrap() {
            Response::Certified { cached, .. } => assert!(!cached),
            other => panic!("{other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.proves, 3);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0, "bypass never touches the cache");
    handle.shutdown();
}

#[test]
fn non_planar_and_disconnected_decline() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let k5 = generators::complete(5);
    match client.certify(&k5, false).unwrap() {
        Response::Declined {
            cached: false,
            reason,
        } => {
            assert!(reason.contains("not in the class"), "{reason}");
        }
        other => panic!("{other:?}"),
    }
    // declines are cached too
    match client.certify(&k5, false).unwrap() {
        Response::Declined { cached: true, .. } => {}
        other => panic!("{other:?}"),
    }

    let disconnected = dpc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
    match client.certify(&disconnected, false).unwrap() {
        Response::Declined { reason, .. } => assert!(reason.contains("connected")),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

#[test]
fn check_gen_soundness_and_stats_roundtrip() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    match client
        .check(&generators::grid(4, 4), CheckOptions::new())
        .unwrap()
    {
        Response::Checked(CheckVerdict::Planar { faces, genus }) => {
            assert_eq!(genus, 0);
            assert!(faces > 1);
        }
        other => panic!("{other:?}"),
    }
    match client
        .check(&generators::complete(5), CheckOptions::new())
        .unwrap()
    {
        Response::Checked(CheckVerdict::NonPlanar {
            k5, branch_nodes, ..
        }) => {
            assert!(k5);
            assert_eq!(branch_nodes.len(), 5);
        }
        other => panic!("{other:?}"),
    }

    let g = client
        .gen("triangulation", 30, 7, GenOptions::new())
        .unwrap();
    assert_eq!(g.node_count(), 30);
    assert!(client.gen("nosuch", 10, 0, GenOptions::new()).is_err());

    let bad = generators::planted_kuratowski(18, true, 1, 3);
    match client.soundness(&bad, 1).unwrap() {
        Response::Soundness(rows) => {
            assert!(rows.len() >= 5);
            for row in rows {
                if let Some(rejects) = row.rejects {
                    assert!(rejects >= 1, "attack {} fooled every node", row.attack);
                }
            }
        }
        other => panic!("{other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.check, 2);
    assert_eq!(stats.gen, 2);
    assert_eq!(stats.soundness, 1);
    assert!(stats.latency.count() >= 5);
    handle.shutdown();
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // mix of cheap and expensive requests: order must still hold
    let sizes = [40u32, 8, 30, 4, 20, 12, 16, 36, 24, 6];
    for &n in &sizes {
        client
            .send(&Request::Certify {
                graph: generators::stacked_triangulation(n, 1),
                bypass_cache: false,
                cached_only: false,
                summary: false,
                scheme: dpc_service::SchemeId::PLANARITY,
            })
            .unwrap();
    }
    assert_eq!(client.in_flight(), sizes.len() as u64);
    for &n in &sizes {
        match client.recv().unwrap() {
            Response::Certified { outcome, .. } => {
                assert_eq!(outcome.verdicts.len(), n as usize, "order violated");
            }
            other => panic!("{other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn concurrent_clients_share_the_cache() {
    let handle = test_server();
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let g = generators::stacked_triangulation(50, 9);
                for _ in 0..5 {
                    match client.certify(&g, false).unwrap() {
                        Response::Certified { outcome, .. } => {
                            assert!(outcome.all_accept(), "thread {t}");
                        }
                        other => panic!("{other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.certify, 20);
    assert_eq!(stats.cache_entries, 1, "one graph, one entry");
    assert!(
        stats.proves <= 4,
        "at most one prove per worker race, got {}",
        stats.proves
    );
    assert!(stats.cache_hits >= 16);
    handle.shutdown();
}

#[test]
fn eviction_under_a_tiny_budget() {
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            cache: CacheConfig {
                shards: 1,
                byte_budget: 12_000,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..8u64 {
        let g = generators::stacked_triangulation(40, seed);
        match client.certify(&g, false).unwrap() {
            Response::Certified { cached, .. } => assert!(!cached),
            other => panic!("{other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert!(stats.cache_evictions > 0, "budget forced evictions");
    // at most the budget plus one in-flight entry (~6 KB each for a
    // 40-node triangulation under the honest cost model)
    assert!(stats.cache_bytes <= 20_000, "{} bytes", stats.cache_bytes);
    assert!(stats.cache_entries < 8, "{} entries", stats.cache_entries);
    handle.shutdown();
}

#[test]
fn malformed_frames_get_error_responses() {
    use dpc_service::wire::{read_frame, write_frame};
    use std::io::Write;
    let handle = test_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // a frame whose body is not a valid request
    write_frame(&mut stream, &[250, 1, 2, 3]).unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let body = read_frame(&mut reader).unwrap().expect("error response");
    match Response::decode(&body).unwrap() {
        Response::Error(_) => {}
        other => panic!("{other:?}"),
    }
    // the connection survives framing-level decode errors
    write_frame(&mut stream, &Request::Stats.encode()).unwrap();
    stream.flush().unwrap();
    let body = read_frame(&mut reader).unwrap().expect("stats response");
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Stats(_)
    ));
    handle.shutdown();
}

/// The acceptance gate: on `grid(100,100)` a cache hit must be at
/// least 10x faster than a cache-miss (fresh prove) query, end to end
/// over the wire. In practice the gap is orders of magnitude.
#[test]
fn cache_hit_is_10x_faster_than_miss_on_grid_100() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::grid(100, 100);

    // cold: populates the cache
    let start = Instant::now();
    match client.certify(&g, false).unwrap() {
        Response::Certified { cached: false, .. } => {}
        other => panic!("{other:?}"),
    }
    let miss = start.elapsed();

    // warm: best of a few hits (scheduler noise)
    let hit = (0..5)
        .map(|_| {
            let start = Instant::now();
            match client.certify(&g, false).unwrap() {
                Response::Certified { cached: true, .. } => {}
                other => panic!("{other:?}"),
            }
            start.elapsed()
        })
        .min()
        .unwrap();

    assert!(
        miss >= hit * 10,
        "miss {miss:?} not 10x slower than hit {hit:?}"
    );
    handle.shutdown();
}

/// Unique scratch directory for store tests (std only; removed by
/// the test that owns it).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dpc-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

#[test]
fn warm_restart_serves_byte_identical_certificates_without_reproving() {
    use dpc_service::wire::encode_certified_suffix;
    use dpc_service::SegmentConfig;

    let dir = scratch_dir("warm-restart");
    let cfg = ServeConfig {
        store: Some(SegmentConfig::new(&dir)),
        ..ServeConfig::default()
    };

    // first life: prove a graph and a decline, then shut down
    // gracefully (fsyncs the store)
    let g = generators::stacked_triangulation(50, 11);
    let k5 = generators::complete(5);
    let (fresh_suffix, declined_reason) = {
        let handle = serve("127.0.0.1:0", cfg.clone()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Certified {
            cached: false,
            outcome,
            assignment,
        } = client.certify(&g, false).unwrap()
        else {
            panic!("first certify must prove");
        };
        let Response::Declined {
            cached: false,
            reason,
        } = client.certify(&k5, false).unwrap()
        else {
            panic!("K5 must decline");
        };
        let stats = client.stats().unwrap();
        assert_eq!(stats.store_records, 2, "write-behind persisted both");
        assert!(stats.store_segments >= 1);
        handle.shutdown();
        (encode_certified_suffix(&outcome, &assignment), reason)
    };

    // second life, same directory: the warm load makes the very first
    // query a cache hit — the prover never runs
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let Response::Certified {
        cached: true,
        outcome,
        assignment,
    } = client.certify(&g, false).unwrap()
    else {
        panic!("restart must serve a hit");
    };
    assert_eq!(
        encode_certified_suffix(&outcome, &assignment),
        fresh_suffix,
        "restart serves byte-identical certificate wire bytes"
    );
    let Response::Declined {
        cached: true,
        reason,
    } = client.certify(&k5, false).unwrap()
    else {
        panic!("restart must serve the cached decline");
    };
    assert_eq!(reason, declined_reason);
    let stats = client.stats().unwrap();
    assert_eq!(stats.proves, 0, "the prover never ran after the restart");
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.store_records, 2);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_hot_tier_demotes_to_the_store_and_keeps_serving() {
    use dpc_service::SegmentConfig;

    let dir = scratch_dir("demote");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            // hot tier with room for roughly one entry: almost every
            // insert evicts, i.e. demotes to the cold tier
            cache: CacheConfig {
                shards: 1,
                byte_budget: 4 << 10,
            },
            store: Some(SegmentConfig::new(&dir)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let graphs: Vec<_> = (0..6u64)
        .map(|s| generators::stacked_triangulation(40, s))
        .collect();
    for g in &graphs {
        match client.certify(g, false).unwrap() {
            Response::Certified { cached: false, .. } => {}
            other => panic!("{other:?}"),
        }
    }
    // every graph still answers cached=true, hot or via cold promotion
    for g in &graphs {
        match client.certify(g, false).unwrap() {
            Response::Certified { cached: true, .. } => {}
            other => panic!("not served from a tier: {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.proves, 6, "each graph proved exactly once");
    assert_eq!(stats.store_records, 6);
    assert!(stats.store_demotes >= 4, "{stats:?}");
    assert!(stats.store_promotes >= 4, "{stats:?}");
    assert!(stats.store_hits >= 4, "{stats:?}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Chunked streaming upload (wire v7).

/// Two disjoint stacked triangulations as one graph: nodes of the
/// second are shifted past the first.
fn two_components(n1: u32, n2: u32, seed: u64) -> dpc_graph::Graph {
    let a = generators::stacked_triangulation(n1, seed);
    let b = generators::stacked_triangulation(n2, seed + 1);
    let mut edges: Vec<(u32, u32)> = a.edges().iter().map(|e| (e.u, e.v)).collect();
    edges.extend(b.edges().iter().map(|e| (e.u + n1, e.v + n1)));
    dpc_graph::Graph::from_edges(n1 + n2, &edges)
}

#[test]
fn chunked_upload_certifies_like_a_single_frame() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // n = 200 makes the node-count uvarint two bytes, so 1-byte chunks
    // force the decoder to carry a split uvarint across a chunk
    let g = generators::stacked_triangulation(200, 3);
    let reference = certify_pls(&PlanarityScheme::new(), &g).unwrap();

    match client.certify(&g, CertifyOptions::new().chunked(1)) {
        Ok(Response::CertifiedSummary {
            cached: false,
            outcome,
        }) => assert_eq!(outcome, reference.outcome, "streamed prove diverged"),
        other => panic!("{other:?}"),
    }
    // the chunked path shares the cache with the plain certify path
    match client.certify(&g, false).unwrap() {
        Response::Certified {
            cached: true,
            outcome,
            ..
        } => assert_eq!(outcome, reference.outcome),
        other => panic!("{other:?}"),
    }
    // and a repeated chunked upload answers the summary from cache
    match client.certify(&g, CertifyOptions::new().chunked(64)) {
        Ok(Response::CertifiedSummary {
            cached: true,
            outcome,
        }) => assert_eq!(outcome, reference.outcome),
        other => panic!("{other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.chunk_sessions, 2, "two chunked uploads");
    assert!(
        stats.chunk_chunks > 100,
        "1-byte chunks: {}",
        stats.chunk_chunks
    );
    assert!(stats.chunk_bytes > 0);
    assert_eq!(stats.chunk_aborts, 0);
    assert!(
        (1..=9).contains(&stats.chunk_carry_peak),
        "a split uvarint must have been carried, within the bound: {}",
        stats.chunk_carry_peak
    );
    handle.shutdown();
}

#[test]
fn chunked_upload_of_a_disconnected_graph_merges_components() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = two_components(30, 40, 7);
    assert!(!g.is_connected());

    // the plain path still declines disconnected graphs…
    match client.certify(&g, false).unwrap() {
        Response::Declined { reason, .. } => assert!(reason.contains("connected")),
        other => panic!("{other:?}"),
    }
    // …but the summary path proves per component and merges: the
    // merged outcome must equal the whole-graph reference fold built
    // from the components in node order
    let outcome = match client.certify(&g, CertifyOptions::new().chunked(64)) {
        Ok(Response::CertifiedSummary {
            cached: false,
            outcome,
        }) => outcome,
        other => panic!("{other:?}"),
    };
    let parts: Vec<_> = g
        .components()
        .into_iter()
        .map(|nodes| {
            let sub = g.induced_subgraph(&nodes);
            let part = certify_pls(&PlanarityScheme::new(), &sub).unwrap().outcome;
            (nodes, part)
        })
        .collect();
    let reference = dpc_core::harness::Outcome::merge_components(g.node_count(), &parts);
    assert_eq!(outcome, reference, "merged summary diverged");
    assert!(outcome.all_accept());
    assert_eq!(outcome.verdicts.len(), g.node_count());

    let stats = client.stats().unwrap();
    assert!(stats.outcome_merges >= 1);
    handle.shutdown();
}

#[test]
fn malformed_chunk_streams_abort_cleanly_and_the_connection_survives() {
    use dpc_service::wire;
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::stacked_triangulation(20, 1);
    let mut payload = Vec::new();
    wire::encode_graph(&mut payload, &g);
    let scheme = dpc_service::SchemeId::PLANARITY;

    // a chunk for a session that was never begun
    client
        .send_body(
            &wire::RequestRef::GraphChunk {
                session: 99,
                seq: 0,
                payload: &payload,
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::Error(e) => assert!(e.contains("session"), "{e}"),
        other => panic!("{other:?}"),
    }

    // out-of-order seq aborts the session
    client
        .send_body(
            &wire::RequestRef::GraphChunkBegin {
                session: 5,
                bypass_cache: false,
                scheme,
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::ChunkAck {
            session: 5,
            received: 0,
        } => {}
        other => panic!("{other:?}"),
    }
    client
        .send_body(
            &wire::RequestRef::GraphChunk {
                session: 5,
                seq: 1,
                payload: &payload,
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::Error(e) => assert!(e.contains("seq") || e.contains("order"), "{e}"),
        other => panic!("{other:?}"),
    }
    // …so the End of the aborted session is an error too
    client
        .send_body(
            &wire::RequestRef::GraphChunkEnd {
                session: 5,
                total_chunks: 1,
                total_bytes: payload.len() as u64,
                crc: dpc_service::store::crc32(&payload),
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::Error(_) => {}
        other => panic!("{other:?}"),
    }

    // a whole-payload CRC mismatch at End aborts
    client
        .send_body(
            &wire::RequestRef::GraphChunkBegin {
                session: 6,
                bypass_cache: false,
                scheme,
            }
            .encode(),
        )
        .unwrap();
    client
        .send_body(
            &wire::RequestRef::GraphChunk {
                session: 6,
                seq: 0,
                payload: &payload,
            }
            .encode(),
        )
        .unwrap();
    client
        .send_body(
            &wire::RequestRef::GraphChunkEnd {
                session: 6,
                total_chunks: 1,
                total_bytes: payload.len() as u64,
                crc: !dpc_service::store::crc32(&payload),
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::ChunkAck { session: 6, .. } => {}
        other => panic!("{other:?}"),
    }
    match client.recv().unwrap() {
        Response::ChunkAck {
            session: 6,
            received: 1,
        } => {}
        other => panic!("{other:?}"),
    }
    match client.recv().unwrap() {
        Response::Error(e) => assert!(e.to_lowercase().contains("crc"), "{e}"),
        other => panic!("{other:?}"),
    }

    // the connection survives it all: a clean upload and a plain
    // certify still answer normally
    match client.certify(&g, CertifyOptions::new().scheme(scheme).chunked(7)) {
        Ok(Response::CertifiedSummary { outcome, .. }) => assert!(outcome.all_accept()),
        other => panic!("{other:?}"),
    }
    match client.certify(&g, false).unwrap() {
        Response::Certified { .. } => {}
        other => panic!("{other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(stats.chunk_aborts >= 2, "aborts: {}", stats.chunk_aborts);
    handle.shutdown();
}
