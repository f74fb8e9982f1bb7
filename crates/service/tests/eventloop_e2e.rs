//! End-to-end tests for the epoll reactor front end: partial I/O,
//! pipelining, idle reaping, and byte-parity with the threaded
//! front end. Raw `TcpStream`s (not the [`Client`]) are used
//! throughout so the tests control exactly which bytes are on the
//! wire and when.

use dpc_graph::generators;
use dpc_service::client::Client;
use dpc_service::server::{serve, ServeConfig};
use dpc_service::wire::{self, Response};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn server(event_loop: bool) -> dpc_service::ServerHandle {
    let cfg = ServeConfig {
        event_loop,
        ..ServeConfig::default()
    };
    serve("127.0.0.1:0", cfg).expect("bind loopback")
}

/// Frames `body` the way the wire does: 4-byte LE length prefix.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Reads exactly `n` response frames off `stream`, returning each
/// frame's raw bytes (header + body).
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).expect("response header");
        let len = u32::from_le_bytes(header) as usize;
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("response body");
        let mut whole = header.to_vec();
        whole.extend_from_slice(&body);
        frames.push(whole);
    }
    frames
}

/// The request bodies the parity/pipelining tests drive: a mix of
/// certify (two graphs, so cache hits and misses both occur), check,
/// gen, and stats.
fn request_mix() -> Vec<Vec<u8>> {
    let small = generators::grid(4, 4);
    let ring = generators::cycle(7);
    vec![
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &small,
            scheme: dpc_service::SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &small,
            scheme: dpc_service::SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::Check {
            graph: &ring,
            scheme: dpc_service::SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::Certify {
            bypass_cache: false,
            cached_only: false,
            summary: false,
            graph: &ring,
            scheme: dpc_service::SchemeId::PLANARITY,
        }
        .encode(),
        wire::RequestRef::Stats.encode(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dribbling a request in with pathological chunking (down to one
    /// byte per write, with flushes in between) and draining the
    /// response one byte at a time yields exactly the bytes a
    /// well-behaved client gets, on either front end: the connection
    /// core's frame accumulator cannot care how the bytes arrive.
    #[test]
    fn partial_io_is_byte_identical(chunk in 1usize..5, which in 0usize..3, front in 0usize..2) {
        let handle = server(front == 0);
        let graphs = [generators::grid(4, 4), generators::cycle(6), generators::complete(4)];
        let body = wire::RequestRef::Certify { bypass_cache: true, cached_only: false, summary: false, graph: &graphs[which], scheme: dpc_service::SchemeId::PLANARITY }.encode();
        let bytes = frame(&body);

        // reference: the whole frame in one write
        let mut fast = TcpStream::connect(handle.addr()).unwrap();
        fast.write_all(&bytes).unwrap();
        let want = read_frames(&mut fast, 1).remove(0);

        // dribble: `chunk` bytes per write (chunk 1 = byte at a time)
        let mut slow = TcpStream::connect(handle.addr()).unwrap();
        for piece in bytes.chunks(chunk) {
            slow.write_all(piece).unwrap();
            slow.flush().unwrap();
        }
        // ... and a byte-at-a-time read back
        let mut got = Vec::new();
        let mut one = [0u8; 1];
        while got.len() < want.len() {
            let n = slow.read(&mut one).unwrap();
            prop_assert!(n > 0, "server closed early");
            got.push(one[0]);
        }
        prop_assert_eq!(got, want, "chunked I/O changed the response bytes");
        handle.shutdown();
    }
}

/// All N requests written before a single response byte is read; the
/// responses come back complete and in request order. This is the
/// pipelining contract: the reactor decodes multiple in-flight frames
/// from one buffer and reorders completions by sequence number.
#[test]
fn pipelined_requests_answer_in_request_order() {
    let handle = server(true);
    let bodies = request_mix();

    // expected responses, one at a time on a separate connection
    let mut expected = Vec::new();
    for body in &bodies {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&frame(body)).unwrap();
        expected.push(read_frames(&mut s, 1).remove(0));
    }

    // the pipelined burst: every request on the wire before any read
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let burst: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
    s.write_all(&burst).unwrap();
    let got = read_frames(&mut s, bodies.len());

    for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
        // certify responses must be byte-identical (content-addressed
        // cache); the stats response differs by counters, so compare
        // the decoded variant instead
        let got_resp = Response::decode(&got[4..]).expect("decodable response");
        let want_resp = Response::decode(&want[4..]).expect("decodable response");
        assert_eq!(
            std::mem::discriminant(&got_resp),
            std::mem::discriminant(&want_resp),
            "response {i} is out of order"
        );
        if !matches!(got_resp, Response::Stats(_)) {
            // cached flags may differ (the reference pass warmed the
            // cache), so compare modulo that via the decoded values
            match (got_resp, want_resp) {
                (
                    Response::Certified {
                        outcome: a,
                        assignment: x,
                        ..
                    },
                    Response::Certified {
                        outcome: b,
                        assignment: y,
                        ..
                    },
                ) => {
                    assert_eq!(a, b, "verdict drifted at position {i}");
                    for (p, q) in x.certs.iter().zip(&y.certs) {
                        assert_eq!(p.as_bytes(), q.as_bytes());
                    }
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }
    handle.shutdown();
}

/// The event-loop and threaded front ends speak byte-identical
/// protocol: the same cold-server request sequence produces the same
/// response bytes from both.
#[test]
fn event_loop_and_threaded_responses_are_byte_identical() {
    let bodies = request_mix();
    let mut transcripts = Vec::new();
    for event_loop in [true, false] {
        let handle = server(event_loop);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut transcript = Vec::new();
        for body in &bodies {
            s.write_all(&frame(body)).unwrap();
            transcript.push(read_frames(&mut s, 1).remove(0));
        }
        handle.shutdown();
        transcripts.push(transcript);
    }
    let (el, th) = (&transcripts[0], &transcripts[1]);
    for (i, (a, b)) in el.iter().zip(th.iter()).enumerate() {
        // the stats bodies differ only in timing histograms; pin the
        // rest byte-for-byte
        let is_stats = matches!(Response::decode(&a[4..]), Ok(Response::Stats(_)));
        if !is_stats {
            assert_eq!(a, b, "front ends disagree on response {i} bytes");
        }
    }

    // oversize frames get the same error text from both front ends
    let mut errors = Vec::new();
    for event_loop in [true, false] {
        let handle = server(event_loop);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let len = (wire::MAX_FRAME_BYTES as u32) + 1;
        s.write_all(&len.to_le_bytes()).unwrap();
        // the server answers with an error frame, then closes
        errors.push(read_frames(&mut s, 1).remove(0));
        handle.shutdown();
    }
    assert_eq!(errors[0], errors[1], "oversize-frame errors differ");
}

/// A connection that goes quiet longer than `--idle-timeout-ms` is
/// reaped (read returns EOF) and counted; a connection with traffic
/// stays open. Responses already owed are delivered before the reap.
#[test]
fn idle_connections_are_reaped_and_counted() {
    let cfg = ServeConfig {
        event_loop: true,
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind loopback");

    // a connection that sent one request and then went quiet: the
    // response arrives, then the reaper closes the socket
    let mut quiet = TcpStream::connect(handle.addr()).unwrap();
    quiet
        .write_all(&frame(&wire::RequestRef::Stats.encode()))
        .unwrap();
    let _ = read_frames(&mut quiet, 1);
    quiet
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let eof = quiet
        .read(&mut buf)
        .expect("reap closes cleanly, not by RST");
    assert_eq!(eof, 0, "idle connection must be closed by the server");

    // the reap is visible in stats (queried over a fresh connection)
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.idle_timeouts >= 1, "idle reap not counted: {stats:?}");
    assert!(stats.conns_accepted >= 2);
    handle.shutdown();
}

/// A small in-process storm: every pipelined request over many
/// concurrent connections gets a well-formed response — the CI smoke
/// gate (`--connections 1000`, separate process) scales this up.
#[test]
fn storm_sees_zero_failed_requests() {
    use dpc_service::loadgen::{storm, StormConfig};
    let handle = server(true);
    let g = generators::grid(5, 5);
    let report = storm(
        handle.addr(),
        &StormConfig {
            connections: 128,
            requests_per_conn: 4,
            body: wire::RequestRef::Certify {
                bypass_cache: false,
                cached_only: false,
                summary: false,
                graph: &g,
                scheme: dpc_service::SchemeId::PLANARITY,
            }
            .encode(),
            deadline: Duration::from_secs(60),
        },
    )
    .expect("storm runs");
    assert_eq!(report.connect_failures, 0, "{report:?}");
    assert_eq!(report.failed(), 0, "{report:?}");
    assert_eq!(report.ok, 128 * 4, "every response decoded, none Error");
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.conns_accepted >= 128);
    handle.shutdown();
}

/// A chunked upload driven as one pipelined burst — Begin, every
/// chunk, and End written before a single ack is read — produces
/// byte-identical ack and summary frames from the reactor and the
/// threaded front end; and dribbling the same burst into the reactor
/// one byte at a time changes nothing but the cached flag.
#[test]
fn chunked_upload_frames_are_byte_identical_across_front_ends() {
    let g = generators::stacked_triangulation(40, 2);
    let mut payload = Vec::new();
    wire::encode_graph(&mut payload, &g);
    let scheme = dpc_service::SchemeId::PLANARITY;
    let pieces: Vec<&[u8]> = payload.chunks(16).collect();
    let mut burst = Vec::new();
    burst.extend(frame(
        &wire::RequestRef::GraphChunkBegin {
            session: 3,
            bypass_cache: false,
            scheme,
        }
        .encode(),
    ));
    for (seq, piece) in pieces.iter().enumerate() {
        burst.extend(frame(
            &wire::RequestRef::GraphChunk {
                session: 3,
                seq: seq as u64,
                payload: piece,
            }
            .encode(),
        ));
    }
    burst.extend(frame(
        &wire::RequestRef::GraphChunkEnd {
            session: 3,
            total_chunks: pieces.len() as u64,
            total_bytes: payload.len() as u64,
            crc: dpc_service::store::crc32(&payload),
        }
        .encode(),
    ));
    // one ack for Begin, one per chunk, then the summary
    let n_frames = pieces.len() + 2;

    let mut transcripts = Vec::new();
    for event_loop in [true, false] {
        let handle = server(event_loop);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&burst).unwrap();
        let frames = read_frames(&mut s, n_frames);
        for (i, f) in frames[..n_frames - 1].iter().enumerate() {
            match Response::decode(&f[4..]).unwrap() {
                Response::ChunkAck {
                    session: 3,
                    received,
                } => assert_eq!(received, i as u64),
                other => panic!("frame {i}: {other:?}"),
            }
        }
        match Response::decode(&frames[n_frames - 1][4..]).unwrap() {
            Response::CertifiedSummary {
                cached: false,
                outcome,
            } => assert!(outcome.all_accept()),
            other => panic!("{other:?}"),
        }

        // dribble the identical burst in one byte per write: the only
        // difference allowed is that the summary now comes from cache
        let mut slow = TcpStream::connect(handle.addr()).unwrap();
        for b in &burst {
            slow.write_all(std::slice::from_ref(b)).unwrap();
        }
        let dribbled = read_frames(&mut slow, n_frames);
        assert_eq!(
            dribbled[..n_frames - 1],
            frames[..n_frames - 1],
            "ack bytes depend on how the chunks arrived"
        );
        match (
            Response::decode(&dribbled[n_frames - 1][4..]).unwrap(),
            Response::decode(&frames[n_frames - 1][4..]).unwrap(),
        ) {
            (
                Response::CertifiedSummary {
                    cached: true,
                    outcome: a,
                },
                Response::CertifiedSummary { outcome: b, .. },
            ) => assert_eq!(a, b),
            (a, b) => panic!("{a:?} vs {b:?}"),
        }

        // the chunk counters moved on this front end
        let mut client = Client::connect(handle.addr()).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.chunk_sessions, 2);
        assert_eq!(stats.chunk_chunks, 2 * pieces.len() as u64);
        assert_eq!(stats.chunk_bytes, 2 * payload.len() as u64);
        assert_eq!(stats.chunk_aborts, 0);
        handle.shutdown();
        transcripts.push(frames.concat());
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "front ends disagree on chunk-stream response bytes"
    );
}

/// Reactor CPU while a half-closed client is still owed responses.
///
/// A client that shuts its write half makes level-triggered epoll
/// report `EPOLLRDHUP` on every wait for as long as the connection
/// registers it. These tests half-close while a slow prove is in
/// flight and require the reactor threads to sleep through it (under
/// half of the wall time, against all of it when the loop spins), and
/// the client to still read every response it is owed.
#[cfg(target_os = "linux")]
mod half_close {
    use super::*;
    use std::net::Shutdown;
    use std::time::Instant;

    /// `/proc/<pid>/stat` times are in `USER_HZ` ticks, 100 per second
    /// on every architecture this service targets.
    const TICKS_PER_SEC: f64 = 100.0;

    /// Thread ids of this process's reactor loops.
    fn reactor_tids() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|tid| {
                std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                    .is_ok_and(|comm| comm.starts_with("dpc-reactor-"))
            })
            .collect()
    }

    /// User plus system ticks the threads `tids` have run so far.
    fn cpu_ticks(tids: &[String]) -> u64 {
        tids.iter()
            .filter_map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok())
            .map(|stat| {
                // fields after the parenthesized name start at `state`,
                // so utime and stime are the 12th and 13th
                let rest = &stat[stat.rfind(')').unwrap() + 1..];
                let fields: Vec<&str> = rest.split_whitespace().collect();
                fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
            })
            .sum()
    }

    /// Starts an event-loop server, writes `bodies` as one burst,
    /// half-closes, and reads every response. Returns the reactor
    /// ticks and the wall time from the half-close to the last
    /// response, plus the decoded responses.
    fn half_close_after(cfg: ServeConfig, bodies: &[Vec<u8>]) -> (f64, f64, Vec<Response>) {
        let before = reactor_tids();
        let handle = serve("127.0.0.1:0", cfg).expect("bind loopback");
        // a thread names itself once it runs, so wait for the name
        let deadline = Instant::now() + Duration::from_secs(5);
        let ours = loop {
            let new: Vec<String> = reactor_tids()
                .into_iter()
                .filter(|tid| !before.contains(tid))
                .collect();
            if !new.is_empty() {
                break new;
            }
            assert!(Instant::now() < deadline, "no reactor thread started");
            std::thread::sleep(Duration::from_millis(1));
        };
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let burst: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
        s.write_all(&burst).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let (ticks0, start) = (cpu_ticks(&ours), Instant::now());
        let frames = read_frames(&mut s, bodies.len());
        let ticks = (cpu_ticks(&ours) - ticks0) as f64;
        let wall = start.elapsed().as_secs_f64() * TICKS_PER_SEC;
        // everything owed arrived; then the server closes its side
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after the last owed response");
        handle.shutdown();
        let responses = frames
            .iter()
            .map(|f| Response::decode(&f[4..]).unwrap())
            .collect();
        (ticks, wall, responses)
    }

    /// A certify slow enough to keep a response owed for a while.
    fn slow_certify() -> Vec<u8> {
        let g = generators::grid(140, 140);
        wire::RequestRef::Certify {
            bypass_cache: true,
            cached_only: false,
            summary: false,
            graph: &g,
            scheme: dpc_service::SchemeId::PLANARITY,
        }
        .encode()
    }

    /// Requires the reactor to have slept through the wait.
    fn assert_quiet(ticks: f64, wall: f64, case: &str) {
        assert!(
            ticks * 2.0 < wall,
            "{case}: the reactor ran {ticks} of {wall:.0} ticks while a half-closed client waited"
        );
    }

    /// Both cases in one test, one after the other: two provers and two
    /// spinning loops at once would share the cores and blur the
    /// measurement.
    #[test]
    fn half_closed_clients_do_not_spin_the_loop() {
        // a prove in flight
        let cfg = ServeConfig {
            event_loop: true,
            ..ServeConfig::default()
        };
        let (ticks, wall, responses) = half_close_after(cfg, &[slow_certify()]);
        assert!(
            matches!(responses[..], [Response::Certified { cached: false, .. }]),
            "{responses:?}"
        );
        assert_quiet(ticks, wall, "prove in flight");

        // a queue-full stall: one worker busy proving and a one-slot
        // queue, so the small requests behind the prove park the
        // connection
        let cfg = ServeConfig {
            event_loop: true,
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let mut bodies = vec![slow_certify()];
        for n in 2..6 {
            bodies.push(
                wire::RequestRef::Gen {
                    family: "grid",
                    n,
                    seed: 1,
                    scheme: dpc_service::SchemeId::PLANARITY,
                }
                .encode(),
            );
        }
        let (ticks, wall, responses) = half_close_after(cfg, &bodies);
        assert!(matches!(responses[0], Response::Certified { .. }));
        assert!(
            responses[1..]
                .iter()
                .all(|r| matches!(r, Response::Generated(_))),
            "{responses:?}"
        );
        assert_quiet(ticks, wall, "queue-full stall");
    }
}
