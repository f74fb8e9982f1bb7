//! End-to-end tests of the scheme registry over the wire: one server,
//! many schemes, isolated caches.

use dpc_graph::generators;
use dpc_lowerbounds::blocks::path_of_blocks;
use dpc_service::client::Client;
use dpc_service::registry::{SchemeId, SchemeRegistry};
use dpc_service::server::{serve, serve_with_registry, ServeConfig};
use dpc_service::wire::{self, CheckVerdict, Request, Response};
use dpc_service::{CertifyOptions, CheckOptions, SoundnessOptions};

fn test_server() -> dpc_service::ServerHandle {
    serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback")
}

/// The acceptance gate: at least four distinct schemes certified over
/// the wire by one server — planarity, bipartite, spanning-tree, and
/// mod-counter — each with a fresh prove and then a cache hit under
/// its own key space.
#[test]
fn four_schemes_certify_over_the_wire() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let grid = generators::grid(6, 6); // planar, bipartite, connected
    let blocks = path_of_blocks(4, &[2, 1, 3]).graph;
    let cases = [
        (SchemeId::PLANARITY, "planarity", &grid),
        (SchemeId::BIPARTITE, "bipartite", &grid),
        (SchemeId::SPANNING_TREE, "spanning-tree", &grid),
        (SchemeId::MOD_COUNTER, "mod-counter", &blocks),
    ];
    let mut max_bits = Vec::new();
    for (id, name, g) in &cases {
        match client
            .certify(g, CertifyOptions::new().scheme(*id))
            .unwrap()
        {
            Response::Certified {
                cached: false,
                outcome,
                assignment,
            } => {
                assert!(outcome.all_accept(), "{name}");
                assert_eq!(assignment.certs.len(), g.node_count(), "{name}");
                max_bits.push(assignment.max_bits());
            }
            other => panic!("{name}: {other:?}"),
        }
        match client
            .certify(g, CertifyOptions::new().scheme(*id))
            .unwrap()
        {
            Response::Certified { cached: true, .. } => {}
            other => panic!("{name} repeat must hit its cache: {other:?}"),
        }
    }
    // the certificates really are different schemes' artifacts: the
    // 1-bit bipartite certificates vs O(log n) planarity vs 8-bit
    // counters
    assert_eq!(max_bits[1], 1, "bipartite certificates are one bit");
    assert!(max_bits[0] > 8, "planarity certificates are O(log n)");
    assert_eq!(max_bits[3], 8, "mod-counter certificates are g bits");

    let stats = client.stats().unwrap();
    assert_eq!(stats.certify, 8);
    assert_eq!(stats.cache_entries, 4, "four isolated entries");
    for (_, name, _) in &cases {
        let row = stats.scheme(name).unwrap_or_else(|| panic!("{name} row"));
        assert_eq!((row.certify, row.hits, row.misses), (2, 1, 1), "{name}");
        assert_eq!(row.proves, 1, "{name}");
        assert!(row.latency.count() >= 2, "{name}");
    }
    handle.shutdown();
}

/// A Certify under scheme A never returns a cache entry written under
/// scheme B: for every registered scheme the *same* graph is a fresh
/// miss, even after every other scheme has cached its result for it.
#[test]
fn per_scheme_cache_isolation_over_every_registered_scheme() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // grid(4,4): planarity/universal certify it, bipartite certifies
    // it, tree/path/path-outerplanar/non-planarity/mod-counter decline
    // it — and declines are cached too, so isolation is observable for
    // every scheme through the cached flag
    let g = generators::grid(4, 4);
    let ids: Vec<SchemeId> = SchemeRegistry::standard()
        .entries()
        .iter()
        .map(|e| e.id)
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let first = client
            .certify(&g, CertifyOptions::new().scheme(id))
            .unwrap();
        match first {
            Response::Certified { cached, .. } | Response::Declined { cached, .. } => {
                assert!(
                    !cached,
                    "scheme {id}: first certify served from another scheme's entry \
                     ({i} entries already cached)"
                );
            }
            other => panic!("scheme {id}: {other:?}"),
        }
    }
    // and every scheme's own repeat *is* a hit
    for &id in &ids {
        match client
            .certify(&g, CertifyOptions::new().scheme(id))
            .unwrap()
        {
            Response::Certified { cached, .. } | Response::Declined { cached, .. } => {
                assert!(cached, "scheme {id}: repeat must hit its own entry");
            }
            other => panic!("scheme {id}: {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_entries, ids.len() as u64);
    assert_eq!(stats.cache_hits, ids.len() as u64);
    assert_eq!(stats.cache_misses, ids.len() as u64);
    handle.shutdown();
}

/// Unknown scheme ids are a clean wire-level error response — never a
/// panic or a dropped connection — on every request kind that carries
/// one.
#[test]
fn unknown_scheme_id_is_a_clean_error() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::grid(3, 3);
    let bogus = SchemeId(999);
    let bodies = [
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &g,
            scheme: bogus,
        }
        .encode(),
        wire::RequestRef::Check {
            graph: &g,
            scheme: bogus,
        }
        .encode(),
        wire::RequestRef::SoundnessProbe {
            seed: 1,
            graph: &g,
            scheme: bogus,
        }
        .encode(),
    ];
    for body in &bodies {
        client.send_body(body).unwrap();
        match client.recv().unwrap() {
            Response::Error(e) => {
                assert!(e.contains("unknown scheme id 999"), "{e}");
                assert!(e.contains("planarity"), "error lists the registry: {e}");
            }
            other => panic!("{other:?}"),
        }
    }
    // Gen is scheme-independent: its (reserved) scheme id is carried
    // opaquely, so generation works whatever id rides along
    client
        .send_body(
            &wire::RequestRef::Gen {
                family: "grid",
                n: 9,
                seed: 1,
                scheme: bogus,
            }
            .encode(),
        )
        .unwrap();
    match client.recv().unwrap() {
        Response::Generated(g) => assert_eq!(g.node_count(), 9),
        other => panic!("{other:?}"),
    }
    // the connection survives: a well-formed request still works
    match client
        .certify(&g, CertifyOptions::new().scheme(SchemeId::BIPARTITE))
        .unwrap()
    {
        Response::Certified { .. } => {}
        other => panic!("{other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, bodies.len() as u64);
    handle.shutdown();
}

/// Corrupted extension blocks (truncated payloads, duplicate ids,
/// out-of-range ids) get error responses and leave the stream usable.
#[test]
fn corrupt_extension_blocks_get_error_responses() {
    use dpc_runtime::put_uvarint;
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::grid(3, 3);
    let base = wire::RequestRef::Check {
        graph: &g,
        scheme: SchemeId::PLANARITY,
    }
    .encode();

    // truncated extension: tag promises bytes that never come
    let mut truncated = base.clone();
    put_uvarint(&mut truncated, wire::EXT_SCHEME_ID);
    put_uvarint(&mut truncated, 9);
    // duplicate scheme id
    let mut duplicate = wire::RequestRef::Check {
        graph: &g,
        scheme: SchemeId::TREE,
    }
    .encode();
    put_uvarint(&mut duplicate, wire::EXT_SCHEME_ID);
    put_uvarint(&mut duplicate, 1);
    put_uvarint(&mut duplicate, 2);
    // scheme id beyond u16
    let mut oversized = base.clone();
    put_uvarint(&mut oversized, wire::EXT_SCHEME_ID);
    let mut payload = Vec::new();
    put_uvarint(&mut payload, 1 << 20);
    put_uvarint(&mut oversized, payload.len() as u64);
    oversized.extend_from_slice(&payload);

    for body in [truncated, duplicate, oversized] {
        client.send_body(&body).unwrap();
        match client.recv().unwrap() {
            Response::Error(_) => {}
            other => panic!("{other:?}"),
        }
    }
    // stream still in sync
    match client.check(&g, CheckOptions::new()).unwrap() {
        Response::Checked(CheckVerdict::Planar { .. }) => {}
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

/// Check and SoundnessProbe route by scheme: generic membership
/// verdicts, and capability-gated probes.
#[test]
fn check_and_soundness_route_by_scheme() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // planarity keeps the rich verdict
    match client
        .check(&generators::grid(4, 4), CheckOptions::new())
        .unwrap()
    {
        Response::Checked(CheckVerdict::Planar { genus: 0, .. }) => {}
        other => panic!("{other:?}"),
    }
    // bipartite: generic membership
    match client
        .check(&generators::cycle(8), SchemeId::BIPARTITE)
        .unwrap()
    {
        Response::Checked(CheckVerdict::Member { scheme }) => assert_eq!(scheme, "bipartite"),
        other => panic!("{other:?}"),
    }
    match client
        .check(&generators::cycle(9), SchemeId::BIPARTITE)
        .unwrap()
    {
        Response::Checked(CheckVerdict::NonMember { scheme, reason }) => {
            assert_eq!(scheme, "bipartite");
            assert!(reason.contains("not in the class"), "{reason}");
        }
        other => panic!("{other:?}"),
    }
    // mod-counter membership through the generic prover
    let blocks = path_of_blocks(4, &[1, 2]).graph;
    match client.check(&blocks, SchemeId::MOD_COUNTER).unwrap() {
        Response::Checked(CheckVerdict::Member { scheme }) => assert_eq!(scheme, "mod-counter"),
        other => panic!("{other:?}"),
    }
    // soundness probes: planarity supports them ...
    let bad = generators::planted_kuratowski(16, true, 1, 3);
    match client.soundness(&bad, 1).unwrap() {
        Response::Soundness(rows) => assert!(rows.len() >= 5),
        other => panic!("{other:?}"),
    }
    // ... spanning-tree (a class with no no-instances) does not
    match client
        .soundness(
            &bad,
            SoundnessOptions::new()
                .seed(1)
                .scheme(SchemeId::SPANNING_TREE),
        )
        .unwrap()
    {
        Response::Error(e) => assert!(e.contains("does not support soundness probes"), "{e}"),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

/// A restricted registry (`dpc serve --schemes`) answers unregistered
/// ids — including the planarity default — with clean errors.
#[test]
fn restricted_registry_rejects_unregistered_schemes() {
    let registry = SchemeRegistry::with_schemes(&["bipartite", "tree"]).unwrap();
    let handle = serve_with_registry("127.0.0.1:0", ServeConfig::default(), registry).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let g = generators::grid(4, 4);
    match client
        .certify(&g, CertifyOptions::new().scheme(SchemeId::BIPARTITE))
        .unwrap()
    {
        Response::Certified { .. } => {}
        other => panic!("{other:?}"),
    }
    // the default (planarity) is not registered on this server
    match client.certify(&g, false).unwrap() {
        Response::Error(e) => assert!(e.contains("unknown scheme id 0"), "{e}"),
        other => panic!("{other:?}"),
    }
    handle.shutdown();
}

/// Same-scheme batching still works under the registry: pipelined
/// certifies for two schemes interleaved come back in order with the
/// right payloads.
#[test]
fn interleaved_schemes_keep_request_order() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let sizes = [20u32, 8, 14, 6, 18, 10];
    for (i, &n) in sizes.iter().enumerate() {
        let scheme = if i % 2 == 0 {
            SchemeId::PLANARITY
        } else {
            SchemeId::BIPARTITE
        };
        client
            .send(&Request::Certify {
                graph: generators::grid(2, n),
                bypass_cache: true,
                cached_only: false,
                summary: false,
                scheme,
            })
            .unwrap();
    }
    for (i, &n) in sizes.iter().enumerate() {
        match client.recv().unwrap() {
            Response::Certified {
                outcome,
                assignment,
                ..
            } => {
                assert_eq!(outcome.verdicts.len(), (2 * n) as usize, "order violated");
                if i % 2 == 1 {
                    assert_eq!(assignment.max_bits(), 1, "bipartite cert expected");
                }
            }
            other => panic!("{other:?}"),
        }
    }
    handle.shutdown();
}
