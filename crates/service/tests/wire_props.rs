//! Property tests for the wire codec: `decode(encode(x)) == x` across
//! every generator family, including shuffled-identifier variants.

use dpc_core::harness::certify_pls;
use dpc_core::scheme::Assignment;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::{generators, Graph};
use dpc_runtime::Payload;
use dpc_service::registry::{SchemeId, SchemeRegistry};
use dpc_service::store::{crc32, RecordKind, StoreRecord};
use dpc_service::wire::{self, Request, Response};
use proptest::prelude::*;

/// One representative of every generator family (the shared
/// cross-crate table — see `generators::sample_family`).
fn family_graph(which: u32, n: u32, seed: u64) -> Graph {
    generators::sample_family(which, n, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph wire encoding round-trips every family exactly, with
    /// default and with shuffled identifiers.
    #[test]
    fn graph_codec_identity(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..40, seed in 0u64..1000) {
        let g = family_graph(which, n, seed);
        for g in [g.clone(), generators::shuffle_ids(&g, seed)] {
            let mut out = Vec::new();
            wire::encode_graph(&mut out, &g);
            let mut cursor = out.as_slice();
            let h = wire::decode_graph(&mut cursor).unwrap();
            prop_assert!(cursor.is_empty(), "full consumption");
            prop_assert!(wire::graphs_equal(&g, &h));
            // encoding is canonical: re-encoding the decoded graph is
            // byte-identical
            let mut again = Vec::new();
            wire::encode_graph(&mut again, &h);
            prop_assert_eq!(out, again);
        }
    }

    /// Requests of every kind round-trip through the frame body codec —
    /// for *every* scheme id the standard registry serves, plus an
    /// unregistered id (the codec is registry-agnostic; routing unknown
    /// ids is the server's job) — and the borrowed form encodes the
    /// same bytes as the owned one.
    #[test]
    fn request_codec_identity(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..30, seed in 0u64..500) {
        let g = family_graph(which, n, seed);
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, &g);
        let commit = Assignment {
            certs: vec![Payload::from_bytes(vec![seed as u8, 0x5a], 13); g.node_count()],
        };
        let record = StoreRecord {
            kind: RecordKind::Certified,
            keyed: payload.clone(),
            suffix: vec![seed as u8; n as usize],
        };
        let registry = SchemeRegistry::standard();
        let mut ids: Vec<SchemeId> =
            registry.entries().iter().map(|e| e.id).collect();
        ids.push(SchemeId(4321)); // unregistered but well-formed
        for scheme in ids {
            let requests = [
                Request::Certify { graph: g.clone(), bypass_cache: seed.is_multiple_of(2), cached_only: false, summary: false, scheme },
                Request::Check { graph: g.clone(), scheme },
                Request::Gen { family: "grid".into(), n, seed, scheme },
                Request::SoundnessProbe { graph: g.clone(), seed, scheme },
                Request::Stats,
                Request::SlowLog,
                Request::StoreList,
                Request::StorePush { records: vec![record.clone(); 2] },
                Request::GraphChunkBegin { session: seed, bypass_cache: seed.is_multiple_of(3), scheme },
                Request::GraphChunk { session: seed, seq: n as u64, payload: payload.clone() },
                Request::GraphChunkEnd { session: seed, total_chunks: 1, total_bytes: payload.len() as u64, crc: crc32(&payload) },
                Request::InteractiveBegin { session: seed, seed, graph: g.clone(), commit: commit.clone(), scheme },
                Request::InteractiveRespond { session: seed, response: commit.clone() },
                Request::Audit { samples: n as u64, seed },
            ];
            for req in requests {
                let body = req.encode();
                prop_assert_eq!(&req.as_ref().encode(), &body, "borrowed and owned bytes differ");
                let back = Request::decode(&body).unwrap();
                prop_assert_eq!(req.kind(), back.kind(), "kind changed in flight");
                prop_assert_eq!(back.encode(), body, "re-encoding changed the bytes");
                prop_assert_eq!(req.scheme(), back.scheme(), "scheme changed in flight");
                match (&req, &back) {
                    (Request::Certify { graph: a, bypass_cache: fa, .. },
                     Request::Certify { graph: b, bypass_cache: fb, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                        prop_assert_eq!(fa, fb);
                    }
                    (Request::Check { graph: a, .. }, Request::Check { graph: b, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                    }
                    (Request::Gen { family: a, n: na, seed: sa, .. },
                     Request::Gen { family: b, n: nb, seed: sb, .. }) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(na, nb);
                        prop_assert_eq!(sa, sb);
                    }
                    (Request::SoundnessProbe { graph: a, seed: sa, .. },
                     Request::SoundnessProbe { graph: b, seed: sb, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                        prop_assert_eq!(sa, sb);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Certified responses round-trip with byte-identical certificates.
    #[test]
    fn certified_response_identity(n in 6u32..40, seed in 0u64..500) {
        let g = generators::stacked_triangulation(n, seed);
        let certified = certify_pls(&PlanarityScheme::new(), &g).unwrap();
        let resp = Response::Certified {
            cached: seed.is_multiple_of(2),
            outcome: certified.outcome.clone(),
            assignment: certified.assignment.clone(),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::Certified { cached, outcome, assignment } => {
                prop_assert_eq!(cached, seed.is_multiple_of(2));
                prop_assert_eq!(outcome, certified.outcome);
                prop_assert_eq!(
                    assignment.certs.len(),
                    certified.assignment.certs.len()
                );
                for (a, b) in assignment.certs.iter().zip(&certified.assignment.certs) {
                    prop_assert_eq!(a.bit_len, b.bit_len);
                    prop_assert_eq!(a.as_bytes(), b.as_bytes());
                }
            }
            other => prop_assert!(false, "kind changed: {:?}", other),
        }
    }

    /// Streaming the canonical graph bytes through the incremental
    /// decoder in arbitrary chunk sizes reconstructs exactly the graph
    /// a single-frame decode yields — for every generator family, with
    /// default and with shuffled identifiers — and the decoder's
    /// between-chunk carry never exceeds one partial uvarint.
    #[test]
    fn chunked_reassembly_matches_single_frame(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 5u32..40,
        seed in 0u64..1000,
        chunk in 1usize..64,
    ) {
        let g = family_graph(which, n, seed);
        for g in [g.clone(), generators::shuffle_ids(&g, seed)] {
            let mut payload = Vec::new();
            wire::encode_graph(&mut payload, &g);
            let mut dec = wire::GraphStreamDecoder::new();
            for piece in payload.chunks(chunk) {
                dec.feed(piece).unwrap();
                prop_assert!(dec.carry_len() <= 9, "carry stays bounded");
            }
            let h = dec.finish().unwrap();
            prop_assert!(wire::graphs_equal(&g, &h));
            // canonicality survives the streamed path: re-encoding the
            // reassembled graph is byte-identical to the original
            let mut again = Vec::new();
            wire::encode_graph(&mut again, &h);
            prop_assert_eq!(payload, again);
        }
    }

    /// Malformed chunk traffic never panics, only errors: truncating a
    /// chunk frame body anywhere, flipping a payload byte under its
    /// CRC, tearing the stream short, or feeding garbage bytes.
    #[test]
    fn malformed_chunk_frames_error_cleanly(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 5u32..25,
        seed in 0u64..200,
        victim in 0usize..1024,
    ) {
        let g = family_graph(which, n, seed);
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, &g);
        let body = wire::RequestRef::GraphChunk { session: 9, seq: 0, payload: &payload }.encode();
        // truncation anywhere inside the body is an error
        for cut in 0..body.len() {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
        // flipping any payload byte breaks the per-chunk CRC
        let payload_start = body.len() - 4 - payload.len();
        let mut corrupt = body.clone();
        corrupt[payload_start + victim % payload.len()] ^= 0x5a;
        prop_assert!(Request::decode(&corrupt).is_err());
        // a torn stream (missing tail bytes) fails at finish
        let mut dec = wire::GraphStreamDecoder::new();
        dec.feed(&payload[..payload.len() - 1]).unwrap();
        prop_assert!(dec.finish().is_err());
        // garbage must be handled without panicking — an error, or a
        // decode that still round-trips canonically, never a crash
        let garbage: Vec<u8> = payload.iter().map(|b| !b).collect();
        let mut dec = wire::GraphStreamDecoder::new();
        if dec.feed(&garbage).is_ok() {
            if let Ok(h) = dec.finish() {
                let mut again = Vec::new();
                wire::encode_graph(&mut again, &h);
                prop_assert_eq!(garbage, again, "accepted bytes must be canonical");
            }
        }
    }

    /// Truncating any encoded request never panics, only errors —
    /// including truncation inside the scheme-id extension block.
    #[test]
    fn truncation_is_an_error_not_a_panic(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..25, seed in 0u64..200) {
        let g = family_graph(which, n, seed);
        let body = Request::Certify {
            graph: g.clone(),
            bypass_cache: false,
            cached_only: false,
            summary: false,
            scheme: SchemeId::PLANARITY,
        }.encode();
        for cut in 0..body.len().min(48) {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
        // with a scheme-id extension the block sits at the tail:
        // cutting *inside* it (tag without length, length without
        // payload) must error; cutting the whole block off falls back
        // to a valid v1 planarity request — that is the compatibility
        // rule, not a bug
        let ext = Request::Certify {
            graph: g,
            bypass_cache: false,
            cached_only: false,
            summary: false,
            scheme: SchemeId::MOD_COUNTER,
        }.encode();
        for cut in ext.len() - 2..ext.len() {
            prop_assert!(Request::decode(&ext[..cut]).is_err());
        }
        let v1 = Request::decode(&ext[..ext.len() - 3]).unwrap();
        prop_assert_eq!(v1.scheme(), Some(SchemeId::PLANARITY));
        // random corruption of the tag byte
        let mut corrupt = body.clone();
        corrupt[0] = 99;
        prop_assert!(Request::decode(&corrupt).is_err());
    }
}

#[test]
fn all_other_response_kinds_roundtrip() {
    use dpc_service::wire::{CheckVerdict, SoundnessLine};
    let responses = vec![
        Response::Error("nope".into()),
        Response::Declined {
            cached: true,
            reason: "instance is not in the class: planar graphs".into(),
        },
        Response::Checked(CheckVerdict::Planar { faces: 7, genus: 0 }),
        Response::Checked(CheckVerdict::NonPlanar {
            k5: false,
            branch_nodes: vec![1, 5, 9, 2, 4, 8],
            witness_edges: 12,
        }),
        Response::Generated(generators::grid(4, 4)),
        Response::Soundness(vec![
            SoundnessLine {
                attack: "garbage".into(),
                rejects: Some(14),
            },
            SoundnessLine {
                attack: "replay-planarized".into(),
                rejects: None,
            },
        ]),
    ];
    for resp in responses {
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(format!("{resp:?}"), format!("{back:?}"));
    }
}
