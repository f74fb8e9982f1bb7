//! Fault-injection tests for replicated serving: a 3-node ring with
//! `--replication 2` loses its busiest node mid-load without losing a
//! single request or re-proving a single certificate, and the
//! restarted node converges back through the peers' anti-entropy
//! sweep — over TCP, with byte-identical suffixes, mirroring what
//! `SegmentStore::merge_from` guarantees on the filesystem.

use dpc_graph::generators;
use dpc_service::cluster::{graph_key, graphs_by_owner, ClusterClient, Ring};
use dpc_service::registry::SchemeId;
use dpc_service::store::{CertStore, SegmentConfig, SegmentStore, StoreRecord};
use dpc_service::wire::Response;
use dpc_service::{serve, CertifyOptions, Client, ServeConfig, ServerHandle};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dpc-repl-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners. Anti-entropy peers are named by address up front, so
/// unlike the other e2e suites these tests need the addresses before
/// any server exists (and a killed node must restart on its old one).
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// A node of the replicated ring: a segment store under
/// `base/node-<i>` and every *other* reserved address as an
/// anti-entropy peer.
fn replicated_node(addrs: &[String], i: usize, base: &Path) -> ServerHandle {
    let cfg = ServeConfig {
        store: Some(SegmentConfig::new(base.join(format!("node-{i}")))),
        peers: addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a.clone())
            .collect(),
        ..ServeConfig::default()
    };
    serve(addrs[i].as_str(), cfg).unwrap()
}

/// The store content keys a node currently holds, as a set.
fn keys_of(addr: &str) -> BTreeSet<u128> {
    let mut client = Client::connect_with_retry(addr, Duration::from_secs(5)).unwrap();
    client.store_list().unwrap().into_iter().collect()
}

/// Polls `probe` every 100 ms until it returns true or `deadline`
/// elapses; panics with `what` on timeout.
fn wait_for(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn killed_replica_loses_no_requests_and_anti_entropy_converges_it() {
    let base = scratch_dir("kill");
    let addrs = reserve_addrs(3);
    let mut handles: Vec<ServerHandle> =
        (0..3).map(|i| replicated_node(&addrs, i, &base)).collect();
    let ring = Ring::new(addrs.clone()).unwrap();

    // ---- phase 1: replicated load over the full ring ----
    let mut work: Vec<(dpc_graph::Graph, SchemeId)> = Vec::new();
    for seed in 0..6u64 {
        work.push((
            generators::stacked_triangulation(16 + seed as u32, seed),
            SchemeId::PLANARITY,
        ));
    }
    for side in 3..6u32 {
        work.push((generators::grid(side, side), SchemeId::BIPARTITE));
    }
    // plus one ring-selected graph per node so every node owns a key
    for bucket in graphs_by_owner(&ring, 1, 20) {
        for g in bucket {
            work.push((g, SchemeId::PLANARITY));
        }
    }
    let mut cc = ClusterClient::over(ring.clone()).with_replication(2);
    for (g, scheme) in &work {
        let resp = cc
            .certify(g, CertifyOptions::new().scheme(*scheme))
            .unwrap();
        assert!(
            matches!(resp, Response::Certified { cached: false, .. }),
            "fresh key must prove: {resp:?}"
        );
    }
    let routing = cc.stats().clone();
    assert_eq!(routing.requests, work.len() as u64);
    assert_eq!(
        routing.replica_writes,
        work.len() as u64,
        "k=2 writes every certificate to a second node: {routing:?}"
    );
    assert_eq!(routing.replica_errors, 0, "{routing:?}");
    assert_eq!(routing.read_repairs, 0, "no replica was cold: {routing:?}");

    // per-node prover counts before the fault, and the busiest node
    let proves_before: HashMap<String, u64> = cc
        .node_stats()
        .into_iter()
        .map(|(addr, s)| (addr, s.unwrap().proves))
        .collect();
    let victim = routing
        .per_node
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| n.routed)
        .map(|(i, _)| i)
        .unwrap();
    let victim_addr = addrs[victim].clone();

    // ---- phase 2: kill the busiest node; re-run the whole load ----
    handles.remove(victim).shutdown();
    let mut cc = ClusterClient::over(ring.clone()).with_replication(2);
    for (g, scheme) in &work {
        let resp = cc
            .certify(g, CertifyOptions::new().scheme(*scheme))
            .unwrap();
        // every answer comes straight from a surviving replica's
        // cache — the kill cannot force a re-prove
        assert!(
            matches!(resp, Response::Certified { cached: true, .. }),
            "a surviving replica must hold the key: {resp:?}"
        );
    }
    let routing = cc.stats().clone();
    assert_eq!(routing.requests, work.len() as u64, "no request was lost");
    assert_eq!(routing.exhausted, 0, "{routing:?}");
    let proves_after: HashMap<String, u64> = cc
        .node_stats()
        .into_iter()
        .filter(|(addr, _)| *addr != victim_addr)
        .map(|(addr, s)| (addr, s.unwrap().proves))
        .collect();
    for (addr, proves) in &proves_after {
        assert_eq!(
            proves, &proves_before[addr],
            "fleet prover delta must stay 0 under the fault ({addr})"
        );
    }

    // new keys arrive while the victim is down: they certify on
    // survivors and are what anti-entropy must later carry over
    let fresh: Vec<dpc_graph::Graph> = (100..103u64)
        .map(|seed| generators::stacked_triangulation(17, seed))
        .collect();
    for g in &fresh {
        let resp = cc.certify(g, false).unwrap();
        assert!(matches!(resp, Response::Certified { .. }), "{resp:?}");
    }

    // ---- phase 3: restart the victim; the sweep converges it ----
    let survivor_addrs: Vec<&String> = addrs.iter().filter(|a| **a != victim_addr).collect();
    let restarted = replicated_node(&addrs, victim, &base);
    let union: BTreeSet<u128> = survivor_addrs.iter().flat_map(|a| keys_of(a)).collect();
    assert!(!union.is_empty());
    wait_for(
        "anti-entropy to converge the restarted node",
        Duration::from_secs(60),
        || keys_of(&victim_addr).is_superset(&union),
    );

    // record counts: the restarted node now holds every key either
    // survivor holds (it may hold more — keys it proved before dying)
    let converged = keys_of(&victim_addr);
    for addr in &survivor_addrs {
        assert!(keys_of(addr).is_subset(&converged), "{addr} not mirrored");
    }

    // byte-identical suffixes: offline, every survivor record exists
    // in the restarted node's store with the same bytes — the TCP
    // sweep preserved exactly what merge_from preserves on disk
    restarted.shutdown();
    for h in handles {
        h.shutdown();
    }
    let victim_store =
        SegmentStore::open(SegmentConfig::new(base.join(format!("node-{victim}")))).unwrap();
    let mut mirrored = 0usize;
    for i in 0..3 {
        if i == victim {
            continue;
        }
        let store = SegmentStore::open(SegmentConfig::new(base.join(format!("node-{i}")))).unwrap();
        for record in store.iter() {
            let record: StoreRecord = record.unwrap();
            let copy = victim_store
                .get(record.key(), &record.keyed)
                .expect("converged node holds every survivor record");
            assert_eq!(copy.suffix, record.suffix, "byte-identical suffix");
            assert_eq!(copy, record);
            mirrored += 1;
        }
    }
    assert!(
        mirrored >= work.len() + fresh.len(),
        "stores were not empty"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn read_repair_backfills_the_cold_rank1_replica() {
    let base = scratch_dir("repair");
    let addrs = reserve_addrs(2);
    // no peers: isolate read-repair from the anti-entropy sweep
    let handles: Vec<ServerHandle> = (0..2)
        .map(|i| {
            let cfg = ServeConfig {
                store: Some(SegmentConfig::new(base.join(format!("node-{i}")))),
                ..ServeConfig::default()
            };
            serve(addrs[i].as_str(), cfg).unwrap()
        })
        .collect();
    let ring = Ring::new(addrs.clone()).unwrap();
    let g = generators::stacked_triangulation(20, 7);
    let ranked = ring.rank(&graph_key(SchemeId::PLANARITY, &g));
    let (rank1, rank2) = (ranked[0], ranked[1]);

    // warm only the rank-2 node, directly past the cluster router
    let mut warm = Client::connect(addrs[rank2].as_str()).unwrap();
    assert!(matches!(
        warm.certify(&g, false).unwrap(),
        Response::Certified { cached: false, .. }
    ));

    // the replicated read probes rank-1 (miss), is served by rank-2,
    // and backfills rank-1 asynchronously
    let mut cc = ClusterClient::over(ring.clone()).with_replication(2);
    let resp = cc.certify(&g, false).unwrap();
    assert!(
        matches!(resp, Response::Certified { cached: true, .. }),
        "the warm replica serves the read: {resp:?}"
    );
    assert_eq!(cc.stats().read_repairs, 1, "{:?}", cc.stats());
    assert_eq!(cc.stats().per_node[rank2].routed, 1, "{:?}", cc.stats());
    assert_eq!(cc.stats().per_node[rank1].routed, 0, "{:?}", cc.stats());

    // the backfill lands: rank-1's store-records gauge goes 0 -> 1
    let mut gauge = Client::connect(addrs[rank1].as_str()).unwrap();
    wait_for(
        "read-repair to backfill rank-1",
        Duration::from_secs(10),
        || gauge.stats().unwrap().store_records == 1,
    );

    // the second query hits rank-1 directly — repaired, not re-repaired
    let resp = cc.certify(&g, false).unwrap();
    assert!(matches!(resp, Response::Certified { cached: true, .. }));
    assert_eq!(cc.stats().per_node[rank1].routed, 1, "{:?}", cc.stats());
    assert_eq!(cc.stats().read_repairs, 1, "a hit repairs nothing");

    // offline, the repaired record is byte-identical to the original
    for h in handles {
        h.shutdown();
    }
    let repaired =
        SegmentStore::open(SegmentConfig::new(base.join(format!("node-{rank1}")))).unwrap();
    let original =
        SegmentStore::open(SegmentConfig::new(base.join(format!("node-{rank2}")))).unwrap();
    let records: Vec<StoreRecord> = original.iter().map(|r| r.unwrap()).collect();
    assert_eq!(records.len(), 1);
    let copy = repaired
        .get(records[0].key(), &records[0].keyed)
        .expect("backfilled record is retrievable");
    assert_eq!(copy, records[0], "byte-identical backfill");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn second_sweep_between_converged_peers_transfers_nothing() {
    // the wire mirror of merge_from's re-merge no-op: once two peers
    // hold the same key set, a sweep exchanges digests and pushes
    // zero records — not even duplicates
    let base = scratch_dir("idem");
    let addrs = reserve_addrs(2);
    let handles: Vec<ServerHandle> = (0..2).map(|i| replicated_node(&addrs, i, &base)).collect();

    // seed node 0 only; the sweep must carry everything to node 1
    let mut seed_client = Client::connect(addrs[0].as_str()).unwrap();
    let graphs: Vec<dpc_graph::Graph> = (0..4u64)
        .map(|seed| generators::stacked_triangulation(15, seed))
        .collect();
    for g in &graphs {
        assert!(matches!(
            seed_client.certify(g, false).unwrap(),
            Response::Certified { cached: false, .. }
        ));
    }
    wait_for(
        "the first sweep to converge the peer",
        Duration::from_secs(30),
        || keys_of(&addrs[1]).len() == graphs.len(),
    );
    let mut peer = Client::connect(addrs[1].as_str()).unwrap();
    assert_eq!(peer.stats().unwrap().store_records, graphs.len() as u64);

    // wait for a sweep-round boundary, capture the counters, then let
    // two more full rounds run: nothing may move
    let sweeps_at = |c: &mut Client| c.stats().unwrap().repl_sweeps;
    let s0 = sweeps_at(&mut seed_client);
    wait_for(
        "a post-convergence sweep round",
        Duration::from_secs(10),
        || sweeps_at(&mut seed_client) > s0,
    );
    let pushed = seed_client.stats().unwrap().repl_pushed;
    let peer_snap = peer.stats().unwrap();
    let (merged, duplicates) = (peer_snap.repl_push_merged, peer_snap.repl_push_duplicates);
    let s1 = sweeps_at(&mut seed_client);
    wait_for("two more sweep rounds", Duration::from_secs(10), || {
        sweeps_at(&mut seed_client) >= s1 + 2
    });
    assert_eq!(
        seed_client.stats().unwrap().repl_pushed,
        pushed,
        "a converged pair pushes nothing"
    );
    let peer_snap = peer.stats().unwrap();
    assert_eq!(peer_snap.repl_push_merged, merged, "no new records");
    assert_eq!(
        peer_snap.repl_push_duplicates, duplicates,
        "not even duplicates: the digest exchange filters them"
    );
    assert_eq!(seed_client.stats().unwrap().repl_errors, 0);

    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_hung_peer_stalls_neither_the_store_thread_nor_shutdown() {
    // peers that complete the TCP handshake (the kernel's listen
    // backlog does that) but never read or answer: stopped or wedged
    // nodes. Two, so a shutdown must also stop the sweep going on to
    // the next one.
    let hung: Vec<_> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let base = scratch_dir("hung");
    let cfg = ServeConfig {
        store: Some(SegmentConfig::new(base.join("node"))),
        peers: hung
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect(),
        audit: true,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();

    // the store thread (fsync, compaction, audit) keeps its ~0.5 s
    // audit cadence while the sweep waits on the first peer
    let s0 = handle.stats().audit_sweeps;
    wait_for(
        "audit sweeps past a hung peer",
        Duration::from_secs(10),
        || handle.stats().audit_sweeps >= s0 + 4,
    );
    assert!(handle.stats().repl_sweeps >= 1, "no sweep started");

    // shutdown cuts the exchange and skips the second peer instead of
    // waiting out the sweep's read timeout on each
    let started = Instant::now();
    handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(3),
        "shutdown took {took:?} behind two hung peers"
    );
    drop(hung);
    let _ = std::fs::remove_dir_all(&base);
}
