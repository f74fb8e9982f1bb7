//! Connection-layer pin: one pipelined burst that crosses every path
//! between socket bytes and the worker queue, sent to both front ends.
//!
//! The burst holds plain certifies, a malformed body, a broken and a
//! clean chunk upload, an interactive session (and a response with no
//! session), check, gen, slowlog and a certify under an unregistered
//! scheme: 18 responses. Both front ends must answer with the same
//! bytes, which must also equal the transcript recorded on commit
//! 33293b92ce504a1c7f7872f9740a7e87ca000d55, before one connection core
//! replaced the two hand-copied per-connection protocols. Their Stats
//! must agree field by field, apart from the counters that only one
//! front end moves or that depend on batching timing.
//!
//! Two things are kept out of the burst on purpose: two certifies of
//! the same graph (the reactor may batch them, both answering
//! `cached: false`, where the threaded front end answers a hit), and
//! `Audit` (it samples as many records as the cache holds when it runs).

use dpc::graph::generators;
use dpc::interactive::dmam::{challenge_from_seed, DmamPlanarity, DmamProtocol};
use dpc::service::metrics::{HistogramSnapshot, StatsSnapshot};
use dpc::service::store::crc32;
use dpc::service::wire::{self, Response};
use dpc::service::{serve, SchemeId, ServeConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Length and CRC-32 of the 18 response frames (headers included), as
/// the parent commit named above answered the burst.
const TRANSCRIPT_LEN: usize = 1317;
const TRANSCRIPT_CRC: u32 = 0x907a_4b8f;

/// Requests in the burst that a worker answers: the two certifies, the
/// certify a clean chunk upload becomes, check, gen, slowlog and the
/// unregistered-scheme certify.
const WORKER_ANSWERED: u64 = 7;

/// The request bodies, in burst order.
fn burst() -> Vec<Vec<u8>> {
    let planarity = SchemeId::PLANARITY;
    let mut bodies = vec![
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &generators::grid(4, 4),
            scheme: planarity,
        }
        .encode(),
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &generators::wheel(9),
            scheme: planarity,
        }
        .encode(),
        vec![0xff, 0xff, 0xff],
    ];

    // a broken upload: chunk 2 arrives where chunk 1 is due, which
    // kills the session, so the End that follows has none
    let mut tri = Vec::new();
    wire::encode_graph(&mut tri, &generators::stacked_triangulation(30, 2));
    bodies.push(
        wire::RequestRef::GraphChunkBegin {
            session: 5,
            bypass_cache: false,
            scheme: planarity,
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::GraphChunk {
            session: 5,
            seq: 0,
            payload: &tri[..8],
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::GraphChunk {
            session: 5,
            seq: 2,
            payload: &tri[8..16],
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::GraphChunkEnd {
            session: 5,
            total_chunks: 3,
            total_bytes: 16,
            crc: 0,
        }
        .encode(),
    );

    // an interactive response with no session open, then one honest
    // round on grid(5, 4) under seed 3
    let g = generators::grid(5, 4);
    let proto = DmamPlanarity::new();
    let commit = proto.commit(&g).expect("grid is planar");
    let response = proto.respond(&g, &commit, challenge_from_seed(3));
    bodies.push(
        wire::RequestRef::InteractiveRespond {
            session: 9,
            response: &commit,
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::InteractiveBegin {
            session: 1,
            seed: 3,
            graph: &g,
            commit: &commit,
            scheme: planarity,
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::InteractiveRespond {
            session: 1,
            response: &response,
        }
        .encode(),
    );

    // a clean upload of the same triangulation in two chunks
    let pieces: Vec<&[u8]> = tri.chunks(tri.len().div_ceil(2)).collect();
    bodies.push(
        wire::RequestRef::GraphChunkBegin {
            session: 6,
            bypass_cache: false,
            scheme: planarity,
        }
        .encode(),
    );
    for (seq, piece) in pieces.iter().enumerate() {
        bodies.push(
            wire::RequestRef::GraphChunk {
                session: 6,
                seq: seq as u64,
                payload: piece,
            }
            .encode(),
        );
    }
    bodies.push(
        wire::RequestRef::GraphChunkEnd {
            session: 6,
            total_chunks: pieces.len() as u64,
            total_bytes: tri.len() as u64,
            crc: crc32(&tri),
        }
        .encode(),
    );

    bodies.push(
        wire::RequestRef::Check {
            graph: &generators::cycle(7),
            scheme: planarity,
        }
        .encode(),
    );
    bodies.push(
        wire::RequestRef::Gen {
            family: "grid",
            n: 9,
            seed: 1,
            scheme: planarity,
        }
        .encode(),
    );
    bodies.push(wire::RequestRef::SlowLog.encode());
    bodies.push(
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &generators::grid(4, 4),
            scheme: SchemeId(999),
        }
        .encode(),
    );
    bodies
}

/// Sends the whole burst before reading anything, reads one response
/// frame per request, and returns the raw frames plus the server's
/// Stats once every written response has closed its trace.
fn run(event_loop: bool) -> (Vec<u8>, StatsSnapshot) {
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            event_loop,
            // no slow-log entries, so the SlowLog answer is fixed
            slow_ms: 0,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let bodies = burst();
    let mut sent = Vec::new();
    for body in &bodies {
        wire::write_frame(&mut sent, body).unwrap();
    }
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&sent).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut transcript = Vec::new();
    for _ in 0..bodies.len() {
        let body = wire::read_frame(&mut reader).unwrap().expect("a response");
        wire::write_frame(&mut transcript, &body).unwrap();
    }
    // the write-flush stage is recorded after the bytes reach the
    // kernel, so the client can be ahead of it: wait until every
    // response that entered the reorder stage has also left the write
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let s = handle.stats();
        let (reordered, flushed) = (s.stages.reorder_wait.count(), s.stages.write_flush.count());
        if reordered == flushed && flushed >= WORKER_ANSWERED {
            break s;
        }
        assert!(Instant::now() < deadline, "stage counts never settled");
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(stream);
    handle.shutdown();
    (transcript, stats)
}

/// The stage and latency histogram counts, then the snapshot with
/// every histogram and the timing-dependent counters cleared:
/// `accept_eagain` and `inbox_wakeups` move only on the reactor, and
/// `batches`/`batched_certifies` depend on which certifies happen to
/// sit in the queue together.
fn split(mut s: StatsSnapshot) -> (Vec<u64>, StatsSnapshot) {
    let mut counts: Vec<u64> = s.stages.named().iter().map(|(_, h)| h.count()).collect();
    counts.push(s.latency.count());
    s.stages = Default::default();
    s.latency = HistogramSnapshot::default();
    for row in &mut s.per_scheme {
        counts.push(row.latency.count());
        row.latency = HistogramSnapshot::default();
    }
    s.accept_eagain = 0;
    s.inbox_wakeups = 0;
    s.batches = 0;
    s.batched_certifies = 0;
    (counts, s)
}

#[test]
fn both_front_ends_answer_the_pinned_burst_identically() {
    let (reactor, reactor_stats) = run(true);
    let (threaded, threaded_stats) = run(false);
    assert_eq!(
        reactor, threaded,
        "the front ends disagree on the burst's response bytes"
    );

    let mut cursor = threaded.as_slice();
    let mut responses = Vec::new();
    while let Some(body) = wire::read_frame(&mut cursor).unwrap() {
        responses.push(Response::decode(&body).unwrap());
    }
    assert_eq!(responses.len(), 18);
    let errors = responses
        .iter()
        .filter(|r| matches!(r, Response::Error(_)))
        .count();
    // malformed body, chunk out of order, End with no session, Respond
    // with no session, unregistered scheme
    assert_eq!(errors, 5, "{responses:?}");
    assert!(matches!(
        responses[9],
        Response::Verdict { accept: true, .. }
    ));
    assert!(matches!(
        responses[13],
        Response::CertifiedSummary { cached: false, .. }
    ));
    assert_eq!(
        (threaded.len(), crc32(&threaded)),
        (TRANSCRIPT_LEN, TRANSCRIPT_CRC),
        "the burst's response bytes moved"
    );

    let (reactor_counts, reactor_rest) = split(reactor_stats);
    let (threaded_counts, threaded_rest) = split(threaded_stats);
    assert_eq!(
        reactor_counts, threaded_counts,
        "stage and latency histogram counts differ across front ends"
    );
    assert_eq!(
        reactor_rest, threaded_rest,
        "Stats differ across front ends"
    );
    assert_eq!(threaded_rest.errors, 5);
    assert_eq!(threaded_rest.chunk_sessions, 2);
    assert_eq!(threaded_rest.chunk_aborts, 1);
    assert_eq!(threaded_rest.interactive_sessions, 1);
    assert_eq!(threaded_rest.proves, 3);
}
