//! The giant-graph smoke: a graph whose single-frame encoding does
//! not fit in [`wire::MAX_FRAME_BYTES`] is streamed in chunks to a
//! three-node ring, its components are proved across the fleet, and
//! the merged outcome is byte-identical to the single-node sequential
//! fold — while the process's peak memory stays bounded.
//!
//! Ignored by default: this is minutes of release-mode proving. The
//! CI distributed smoke runs it explicitly with
//! `cargo test --release --test giant_e2e -- --ignored`.

use dpc_graph::generators;
use dpc_service::client::Client;
use dpc_service::registry::SchemeId;
use dpc_service::wire::{self, Response};
use dpc_service::{serve, ServeConfig, ServerHandle};
use std::time::{Duration, Instant};

/// Peak resident set of this process, in KiB, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners, so every node can name the others as peers up front.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Twelve disjoint stacked triangulations of 300 000 nodes each, with
/// every identifier lifted past 2^60 so each costs ten uvarint bytes
/// on the wire: ~3.6 M nodes whose single-frame encoding is ~70 MiB —
/// beyond [`wire::MAX_FRAME_BYTES`] — yet whose components still fit
/// ordinary delegation frames.
fn giant_graph() -> dpc_graph::Graph {
    const COMPONENTS: u32 = 12;
    const SIZE: u32 = 300_000;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..COMPONENTS {
        let base = i * SIZE;
        let part = generators::stacked_triangulation(SIZE, i as u64);
        edges.extend(part.edges().iter().map(|e| (e.u + base, e.v + base)));
    }
    let g = dpc_graph::Graph::from_edges(COMPONENTS * SIZE, &edges);
    let ids: Vec<u64> = (0..g.node_count() as u64)
        .map(|i| (1u64 << 60) + 97 * i)
        .collect();
    g.with_ids(ids)
}

/// Streams pre-encoded graph bytes as one pipelined chunk session —
/// the uploader needs the payload only, never a decoded `Graph`, so
/// the test can drop its own copy of the giant instance before any
/// server starts and the memory gate below measures the servers.
fn stream_payload(addr: &str, payload: &[u8]) -> dpc_core::harness::Outcome {
    let mut client = Client::connect_with_retry(addr, Duration::from_secs(5)).unwrap();
    client
        .send_body(
            &wire::RequestRef::GraphChunkBegin {
                session: 1,
                bypass_cache: false,
                scheme: SchemeId::PLANARITY,
            }
            .encode(),
        )
        .unwrap();
    let mut chunks = 0u64;
    for piece in payload.chunks(wire::DEFAULT_CHUNK_BYTES) {
        client
            .send_body(
                &wire::RequestRef::GraphChunk {
                    session: 1,
                    seq: chunks,
                    payload: piece,
                }
                .encode(),
            )
            .unwrap();
        chunks += 1;
    }
    client
        .send_body(
            &wire::RequestRef::GraphChunkEnd {
                session: 1,
                total_chunks: chunks,
                total_bytes: payload.len() as u64,
                crc: dpc_service::store::crc32(payload),
            }
            .encode(),
        )
        .unwrap();
    for expect in 0..=chunks {
        match client.recv().unwrap() {
            Response::ChunkAck {
                session: 1,
                received,
            } if received == expect => {}
            other => panic!("ack {expect}: {other:?}"),
        }
    }
    match client.recv().unwrap() {
        Response::CertifiedSummary {
            cached: false,
            outcome,
        } => outcome,
        other => panic!("giant upload: {other:?}"),
    }
}

#[test]
#[ignore = "minutes of release-mode proving; run by the CI distributed smoke"]
fn giant_stream_proves_distributed_and_merges_byte_identically() {
    let t = Instant::now();
    let g = giant_graph();
    eprintln!(
        "giant: generated {} nodes in {:?}",
        g.node_count(),
        t.elapsed()
    );
    let t = Instant::now();
    let mut payload = Vec::new();
    wire::encode_graph(&mut payload, &g);
    eprintln!(
        "giant: encoded {} bytes in {:?}",
        payload.len(),
        t.elapsed()
    );
    assert!(
        payload.len() > wire::MAX_FRAME_BYTES,
        "the instance must not fit one frame: {} bytes",
        payload.len()
    );
    // the uploader streams bytes; it never needs the decoded graph
    // again, so free it — what the gate measures from here on is the
    // servers' reassembly and proving, not the generator's workspace
    drop(g);
    let hwm_before = vm_hwm_kib();

    // ---- single node, one prove thread: the sequential fold ----
    let single = serve(
        "127.0.0.1:0",
        ServeConfig {
            prove_threads: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    let reference = stream_payload(&single.addr().to_string(), &payload);
    let single_wall = t0.elapsed();
    eprintln!(
        "giant: single-node sweep {single_wall:?}, VmHWM {} KiB",
        vm_hwm_kib()
    );
    let mut c = Client::connect(single.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stats.chunk_chunks >= (payload.len() / wire::DEFAULT_CHUNK_BYTES) as u64,
        "the upload really was chunked: {stats:?}"
    );
    assert!(
        (1..=9).contains(&stats.chunk_carry_peak),
        "reassembly held at most one partial uvarint between chunks: {}",
        stats.chunk_carry_peak
    );
    assert!(stats.outcome_merges >= 1);
    single.shutdown();

    // ---- three-node ring, every node a peer of the others ----
    let addrs = reserve_addrs(3);
    let handles: Vec<ServerHandle> = (0..3)
        .map(|i| {
            let cfg = ServeConfig {
                peers: addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect(),
                ..ServeConfig::default()
            };
            serve(addrs[i].as_str(), cfg).unwrap()
        })
        .collect();
    let t1 = Instant::now();
    let distributed = stream_payload(addrs[0].as_str(), &payload);
    let ring_wall = t1.elapsed();
    eprintln!(
        "giant: ring sweep {ring_wall:?}, VmHWM {} KiB",
        vm_hwm_kib()
    );

    // the identity gate — never skipped: the fleet's merged outcome is
    // byte-identical to the sequential single-node fold
    assert_eq!(distributed, reference, "merged outcome diverged");
    let a = Response::CertifiedSummary {
        cached: false,
        outcome: reference,
    }
    .encode();
    let b = Response::CertifiedSummary {
        cached: false,
        outcome: distributed,
    }
    .encode();
    assert_eq!(a, b, "encodings of the merged outcome differ");

    // fleet evidence: components crossed the ring
    let mut delegated = 0u64;
    for addr in &addrs {
        let mut c = Client::connect(addr.as_str()).unwrap();
        delegated += c.stats().unwrap().delegated_proves;
    }
    assert!(delegated >= 1, "no component prove was delegated");
    for h in handles {
        h.shutdown();
    }

    // peak-memory gate: the servers run in this process, so the peak
    // covers the receiving node's decoded graph (~30x the encoded
    // bytes — adjacency is the expensive part) plus the component
    // subgraphs it materializes to prove or delegate, roughly two
    // resident copies in all (measured: 3.2-4.0 GiB for a 66 MiB
    // payload, varying with how proving interleaves with delegation,
    // and higher on multicore hosts that prove components
    // concurrently). The 96x budget leaves that headroom while still
    // tripping on anything pathological: growth superlinear in the
    // graph, or a reassembly path that copies or hoards encoded
    // chunks per session, blows far past it
    let delta_kib = vm_hwm_kib() - hwm_before;
    let budget_kib = 96 * (payload.len() as u64 / 1024);
    assert!(
        delta_kib < budget_kib,
        "peak memory grew {delta_kib} KiB against a {budget_kib} KiB budget"
    );

    // the speedup gate runs only where parallel speedup is possible
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if cores > 1 {
        assert!(
            ring_wall.as_secs_f64() < single_wall.as_secs_f64(),
            "fleet ({ring_wall:?}) beat the one-thread fold ({single_wall:?})"
        );
    } else {
        eprintln!("speedup gate skipped on a {cores}-core host (identity gate still ran)");
    }
    eprintln!(
        "giant: {} bytes, single {:?}, ring {:?}, {} delegated, peak +{delta_kib} KiB",
        payload.len(),
        single_wall,
        ring_wall,
        delegated
    );
}
