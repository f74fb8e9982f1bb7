//! Graph pin: the in-memory layout of every generated graph, and every
//! rejection path of the wire graph decoders.
//!
//! Provers read a graph's adjacency order and edge ids, so a change to
//! how a `Graph` is stored or built must keep both; and a change to how
//! the wire graph grammar is decoded must keep each malformed input's
//! `WireError` variant and text. The constants below were recorded on
//! the hash-map-backed `Graph` and the two hand-written decoders,
//! before the graph moved to flat arrays and one decoder. The three
//! cases of the stream's node guard (`stream cap, m = 0` and the
//! 257/258-node pair) came later, with that guard.

use dpc::graph::canon::hash_bytes;
use dpc::graph::{generators, Graph};
use dpc::runtime::put_uvarint;
use dpc::service::wire::{
    decode_graph, encode_graph, GraphStreamDecoder, RequestRef, WireError, MAX_STREAM_NODES,
    MAX_WIRE_NODES,
};
use dpc::service::{gen, SchemeId};

/// FNV-128 over `node_count`, `edges()` in id order, every
/// `adjacency(v)` and `ids()`.
fn layout_hash(g: &Graph) -> String {
    let mut bytes = Vec::new();
    let mut put = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    put(g.node_count() as u64);
    put(g.edge_count() as u64);
    for e in g.edges() {
        put(e.u as u64);
        put(e.v as u64);
    }
    for v in g.nodes() {
        put(g.degree(v) as u64);
        for &(w, e) in g.adjacency(v) {
            put(w as u64);
            put(e as u64);
        }
    }
    for &id in g.ids() {
        put(id);
    }
    hash_bytes(&bytes).to_string()
}

fn wire_round_trip(g: &Graph) -> Graph {
    let mut bytes = Vec::new();
    encode_graph(&mut bytes, g);
    decode_graph(&mut bytes.as_slice()).expect("an encoded graph decodes")
}

/// `(family, generated, shuffle_ids(generated, 5), wire round trip of
/// the shuffled graph)`, each a [`layout_hash`] of `gen::make(family,
/// 100, 4)`.
const LAYOUTS: &[(&str, &str, &str, &str)] = &[
    (
        "tree",
        "887222e0f86d6190a6e6b9427bd593a7",
        "d0b2129e62fb44482d231f0343df209e",
        "fd5572847a3a5c6e651dd0a7bc7f3cfe",
    ),
    (
        "path",
        "e0a4e4bf76889892299793ed60906cd3",
        "300755e2af706df3cda15aa1d8782b92",
        "300755e2af706df3cda15aa1d8782b92",
    ),
    (
        "cycle",
        "75a174a908670cd529c2b64eb7c28668",
        "03705076e857a5849c58e1c9049fa7e9",
        "cc1b53c43309088ab74ea8620cd26549",
    ),
    (
        "grid",
        "f4d5881cb1c10eedbfb86ec1276bb938",
        "89f30e368c62857c18e1761c68334499",
        "89f30e368c62857c18e1761c68334499",
    ),
    (
        "triangulation",
        "18eb0561f09169b9bd798759776f6357",
        "1494446f4b298d2456cdbc726d7b712e",
        "7740f07a1fb7e0562a93aef0e8f428b2",
    ),
    (
        "planar",
        "62bf051dddaecd419635b05d9144492a",
        "68824fc0e5ca026032bfb80a7aae2bfb",
        "c8b5a9dbd0a7fc5a9cdd164d1c00739b",
    ),
    (
        "outerplanar",
        "de503912a8e641364f1a9a21f0c62fa9",
        "9f3626fc50776746ff1c7a3321f06408",
        "33060f8178521c30f51b53e3afc80c88",
    ),
    (
        "k5sub",
        "ed8c9fa672ddf29c6f11973f51b86cbb",
        "4cc0b5dbf03ff027ec45d617dabf6a3f",
        "804df1e77234e7dbe5e81b4626542ec7",
    ),
    (
        "k33sub",
        "ca6647157d5af624bb8556c7b9adcd0b",
        "77ae78f8bf8bd18230efcbf27a1e40da",
        "827c146958efb86cf6bd34b4b0b7de12",
    ),
    (
        "hypercube",
        "35fe739365c8ebba6925ba1cfefee231",
        "e287c6b92e164d6b566c6b779371d259",
        "e287c6b92e164d6b566c6b779371d259",
    ),
    (
        "planted-k5",
        "f70b8574ff3c6d9532b714db4eeba8b3",
        "0955b52cd86ee944aaeb9f2f57dca7be",
        "8ec594dac67b1be9dc2ec6c45659d1fe",
    ),
    (
        "planted-k33",
        "45cd6a509f8927414517be1a0c4be5e9",
        "6452715c191e5e9fd55fef9d1896a1d0",
        "1c3f21b611edfea59a0456c416cf7e10",
    ),
    (
        "gnm",
        "2163f7efb91ef991f86ee490f1e183d1",
        "8e42d2481796b771fe50a13eb35c4370",
        "aa7d8eb9d31538fd1c9659be13efddf4",
    ),
    (
        "blocks",
        "c2ad2803fb9809b1457be22cae675eac",
        "7e425eff19fe484f429a6e2160f4fb34",
        "52a65a84a0498a6ae1ab94385f4008b4",
    ),
];

#[test]
fn every_generated_graph_keeps_its_pinned_layout() {
    let mut seen = Vec::new();
    for &family in gen::FAMILIES {
        let g = gen::make(family, 100, 4).unwrap();
        let shuffled = generators::shuffle_ids(&g, 5);
        let back = wire_round_trip(&shuffled);
        seen.push((
            family,
            layout_hash(&g),
            layout_hash(&shuffled),
            layout_hash(&back),
        ));
    }
    let expected: Vec<_> = LAYOUTS
        .iter()
        .map(|&(f, a, b, c)| (f, a.to_string(), b.to_string(), c.to_string()))
        .collect();
    assert_eq!(seen, expected, "graph layout moved: {seen:#?}");
}

fn variant(e: &WireError) -> &'static str {
    match e {
        WireError::Io(_) => "Io",
        WireError::Decode(_) => "Decode",
        WireError::Protocol(_) => "Protocol",
    }
}

fn render(r: Result<Graph, WireError>, left: usize) -> String {
    match r {
        Ok(g) => format!("ok {}/{} +{left}", g.node_count(), g.edge_count()),
        Err(e) => format!("{}: {e}", variant(&e)),
    }
}

/// `decode_graph` over the whole buffer: the graph, or the error, and
/// how many bytes it left for the next field.
fn frame(bytes: &[u8]) -> String {
    let mut buf = bytes;
    let r = decode_graph(&mut buf);
    render(r, buf.len())
}

/// `GraphStreamDecoder` fed the buffer in `chunk`-byte pieces, then
/// finished. The first failing call answers.
fn stream(bytes: &[u8], chunk: usize) -> String {
    let mut dec = GraphStreamDecoder::new();
    for piece in bytes.chunks(chunk.max(1)) {
        if let Err(e) = dec.feed(piece) {
            return format!("feed {}", render(Err(e), 0));
        }
    }
    render(dec.finish(), 0)
}

fn varints(xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &x in xs {
        put_uvarint(&mut out, x);
    }
    out
}

/// The malformed (and boundary) inputs, by name.
fn cases() -> Vec<(&'static str, Vec<u8>)> {
    let mut trailing = Vec::new();
    encode_graph(&mut trailing, &generators::grid(4, 4));
    trailing.extend_from_slice(&[0x00, 0x07]);
    vec![
        ("wire cap + 1", varints(&[MAX_WIRE_NODES + 1, 0])),
        ("wire cap, no m", varints(&[MAX_WIRE_NODES, 0])),
        ("stream cap + 1", varints(&[MAX_STREAM_NODES + 1, 0, 0])),
        ("stream cap, no m", varints(&[MAX_STREAM_NODES, 0])),
        ("stream cap, m = 0", varints(&[MAX_STREAM_NODES, 0, 0])),
        ("257 nodes, 4 bytes", varints(&[257, 0, 0])),
        ("258 nodes, 4 bytes", varints(&[258, 0, 0])),
        ("66 nodes, 1 byte", varints(&[66, 0])),
        ("65 nodes, 1 byte", varints(&[65, 0])),
        ("100 nodes, 0 bytes", varints(&[100])),
        ("bad id flag", varints(&[2, 2, 0])),
        ("id list longer than the frame", varints(&[3, 1, 7, 8])),
        ("duplicate ids", varints(&[2, 1, 9, 9, 0])),
        ("impossible m", varints(&[3, 0, 100])),
        ("m on one node", varints(&[1, 0, 1, 0, 0])),
        ("edge list longer than the frame", varints(&[3, 0, 3, 0, 0])),
        ("u out of range", varints(&[2, 0, 1, 2, 0])),
        ("v out of range", varints(&[2, 0, 1, 0, 5])),
        ("v out of range in a run", varints(&[4, 0, 2, 0, 0, 0, 2])),
        ("u overflows", varints(&[4, 0, 2, 1, 0, u64::MAX, 0])),
        ("v overflows", varints(&[4, 0, 1, 0, u64::MAX])),
        ("unterminated varint", vec![0x80; 16]),
        ("nine continuation bytes", vec![0x80; 9]),
        ("overlong varint", {
            let mut v = vec![0x80; 11];
            v.push(0x01);
            v
        }),
        ("empty", Vec::new()),
        ("trailing bytes", trailing),
        ("edgeless, custom ids", varints(&[3, 1, 5, 6, 7, 0])),
        ("one node", varints(&[1, 0, 0])),
        ("zero nodes", varints(&[0, 0, 0])),
        ("two runs", varints(&[4, 0, 3, 0, 0, 0, 1, 2, 0])),
    ]
}

/// `(case, decode_graph, stream in one feed, stream a byte at a time)`.
const REJECTIONS: &[(&str, &str, &str, &str)] = &[
    (
        "wire cap + 1",
        "Protocol: protocol error: graph with 4194305 nodes exceeds the limit",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "wire cap, no m",
        "Protocol: protocol error: 4194304 nodes is not supported by a 1-byte frame",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "stream cap + 1",
        "Protocol: protocol error: graph with 16777217 nodes exceeds the limit",
        "feed Protocol: protocol error: streamed graph with 16777217 nodes exceeds the limit",
        "feed Protocol: protocol error: streamed graph with 16777217 nodes exceeds the limit",
    ),
    (
        "stream cap, no m",
        "Protocol: protocol error: graph with 16777216 nodes exceeds the limit",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "stream cap, m = 0",
        "Protocol: protocol error: graph with 16777216 nodes exceeds the limit",
        "Protocol: protocol error: 16777216 nodes is not supported by a 6-byte stream",
        "Protocol: protocol error: 16777216 nodes is not supported by a 6-byte stream",
    ),
    (
        "257 nodes, 4 bytes",
        "Protocol: protocol error: 257 nodes is not supported by a 2-byte frame",
        "ok 257/0 +0",
        "ok 257/0 +0",
    ),
    (
        "258 nodes, 4 bytes",
        "Protocol: protocol error: 258 nodes is not supported by a 2-byte frame",
        "Protocol: protocol error: 258 nodes is not supported by a 4-byte stream",
        "Protocol: protocol error: 258 nodes is not supported by a 4-byte stream",
    ),
    (
        "66 nodes, 1 byte",
        "Protocol: protocol error: 66 nodes is not supported by a 1-byte frame",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "65 nodes, 1 byte",
        "Decode: malformed frame: read past end of bit stream",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "100 nodes, 0 bytes",
        "Protocol: protocol error: 100 nodes is not supported by a 0-byte frame",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "bad id flag",
        "Protocol: protocol error: bad id flag 2",
        "feed Protocol: protocol error: bad id flag 2",
        "feed Protocol: protocol error: bad id flag 2",
    ),
    (
        "id list longer than the frame",
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "duplicate ids",
        "Protocol: protocol error: duplicate network identifiers",
        "feed Protocol: protocol error: duplicate network identifiers",
        "feed Protocol: protocol error: duplicate network identifiers",
    ),
    (
        "impossible m",
        "Protocol: protocol error: 100 edges on 3 nodes is impossible",
        "feed Protocol: protocol error: 100 edges on 3 nodes is impossible",
        "feed Protocol: protocol error: 100 edges on 3 nodes is impossible",
    ),
    (
        "m on one node",
        "Protocol: protocol error: 1 edges on 1 nodes is impossible",
        "feed Protocol: protocol error: 1 edges on 1 nodes is impossible",
        "feed Protocol: protocol error: 1 edges on 1 nodes is impossible",
    ),
    (
        "edge list longer than the frame",
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "u out of range",
        "Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
    ),
    (
        "v out of range",
        "Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
    ),
    (
        "v out of range in a run",
        "Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
    ),
    (
        "u overflows",
        "Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
    ),
    (
        "v overflows",
        "Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
        "feed Protocol: protocol error: edge endpoint out of range",
    ),
    (
        "unterminated varint",
        "Decode: malformed frame: varint longer than 64 bits",
        "feed Protocol: protocol error: unterminated varint in graph stream",
        "feed Protocol: protocol error: unterminated varint in graph stream",
    ),
    (
        "nine continuation bytes",
        "Decode: malformed frame: read past end of bit stream",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "overlong varint",
        "Decode: malformed frame: varint longer than 64 bits",
        "feed Decode: malformed frame: varint longer than 64 bits",
        "feed Protocol: protocol error: unterminated varint in graph stream",
    ),
    (
        "empty",
        "Decode: malformed frame: read past end of bit stream",
        "Protocol: protocol error: truncated graph stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        "trailing bytes",
        "ok 16/24 +2",
        "feed Protocol: protocol error: 2 trailing bytes after the edge list",
        "feed Protocol: protocol error: 1 trailing bytes after the edge list",
    ),
    (
        "edgeless, custom ids",
        "ok 3/0 +0",
        "ok 3/0 +0",
        "ok 3/0 +0",
    ),
    ("one node", "ok 1/0 +0", "ok 1/0 +0", "ok 1/0 +0"),
    ("zero nodes", "ok 0/0 +0", "ok 0/0 +0", "ok 0/0 +0"),
    ("two runs", "ok 4/3 +0", "ok 4/3 +0", "ok 4/3 +0"),
];

#[test]
fn every_decoder_rejection_keeps_its_variant_and_text() {
    let seen: Vec<(String, String, String, String)> = cases()
        .into_iter()
        .map(|(name, bytes)| {
            (
                name.to_string(),
                frame(&bytes),
                stream(&bytes, bytes.len()),
                stream(&bytes, 1),
            )
        })
        .collect();
    let expected: Vec<_> = REJECTIONS
        .iter()
        .map(|&(a, b, c, d)| (a.to_string(), b.to_string(), c.to_string(), d.to_string()))
        .collect();
    assert_eq!(seen, expected, "decoder verdicts moved: {seen:#?}");
}

/// `(prefix length, decode_graph, stream)` for every proper prefix of
/// the encoding of `shuffle_ids(grid(2, 3), 1)`.
const TRUNCATIONS: &[(usize, &str, &str)] = &[
    (
        0,
        "Decode: malformed frame: read past end of bit stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        1,
        "Protocol: protocol error: 6 nodes is not supported by a 0-byte frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        2,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        3,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        4,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        5,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        6,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        7,
        "Protocol: protocol error: identifier list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        8,
        "Decode: malformed frame: read past end of bit stream",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        9,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        10,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        11,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        12,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        13,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        14,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        15,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        16,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        17,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        18,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        19,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        20,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        21,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
    (
        22,
        "Protocol: protocol error: edge list longer than the frame",
        "Protocol: protocol error: truncated graph stream",
    ),
];

#[test]
fn every_truncation_keeps_its_variant_and_text() {
    let g = generators::shuffle_ids(&generators::grid(2, 3), 1);
    let mut enc = Vec::new();
    encode_graph(&mut enc, &g);
    let seen: Vec<(usize, String, String)> = (0..enc.len())
        .map(|k| (k, frame(&enc[..k]), stream(&enc[..k], 3)))
        .collect();
    let expected: Vec<_> = TRUNCATIONS
        .iter()
        .map(|&(k, a, b)| (k, a.to_string(), b.to_string()))
        .collect();
    assert_eq!(seen, expected, "truncation verdicts moved: {seen:#?}");
    assert_eq!(frame(&enc), "ok 6/7 +0");
    assert_eq!(stream(&enc, 1), "ok 6/7 +0");
}

#[test]
fn duplicate_ids_split_across_feeds_are_rejected() {
    let bad = varints(&[2, 1, 9, 9]);
    let mut dec = GraphStreamDecoder::new();
    let (a, b) = bad.split_at(3);
    dec.feed(a).unwrap();
    let e = dec.feed(b).unwrap_err();
    assert_eq!(
        format!("{}: {e}", variant(&e)),
        "Protocol: protocol error: duplicate network identifiers"
    );
}

/// A Certify body is `tag, flags, graph, extensions`: the graph decode
/// must leave exactly the extension block behind.
#[test]
fn certify_body_leaves_its_extensions_after_the_graph() {
    let g = generators::shuffle_ids(&generators::cycle(5), 2);
    let body = RequestRef::Certify {
        bypass_cache: true,
        cached_only: false,
        summary: true,
        graph: &g,
        scheme: SchemeId::BIPARTITE,
    }
    .encode();
    let mut buf = body.as_slice();
    let tag = dpc::runtime::get_uvarint(&mut buf).unwrap();
    let flags = dpc::runtime::get_uvarint(&mut buf).unwrap();
    let h = decode_graph(&mut buf).unwrap();
    assert_eq!((tag, flags), (1, 5));
    assert_eq!(layout_hash(&h), layout_hash(&wire_round_trip(&g)));
    assert_eq!(buf, CERTIFY_TAIL, "bytes after the graph: {buf:?}");
}

/// The scheme-id extension: tag 1, one payload byte, bipartite's id.
const CERTIFY_TAIL: &[u8] = &[1, 1, 1];
