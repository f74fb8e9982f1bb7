//! The connection core: one connection's protocol, with no I/O.
//!
//! Two front ends serve connections — the epoll reactor and the
//! blocking thread-per-connection driver — and both are drivers of the
//! two types here, so the protocol between socket bytes and the worker
//! queue exists once:
//!
//! ```text
//!   socket bytes ─feed─▶ ConnCore ─next─▶ Step::Job ───▶ worker queue
//!                           │                               │
//!                           └──▶ Step::Reply ─┐   ┌── Done ◀┘
//!                                             ▼   ▼
//!   socket ◀─ write, then Ready::written ─ Reorder::push
//! ```
//!
//! * [`ConnCore`] peels length-prefixed frames (an oversized frame is
//!   answered once, then the connection closes), numbers requests,
//!   decodes them, and routes each kind through one exhaustive `match`:
//!   chunk-upload and interactive frames are answered right here, every
//!   other kind becomes a traced [`Job`]. Every frame consumes exactly
//!   one sequence number and gets exactly one response, which is the
//!   pipelining contract.
//! * [`Reorder`] puts finished responses back in request order. It
//!   records the reorder-wait stage, and [`Ready::written`] closes the
//!   trace once the driver has handed the frame to the kernel.
//!
//! A driver only moves bytes: on read it calls [`ConnCore::feed`] and
//! then [`ConnCore::next`] until it returns `None`; on completion it
//! calls [`Reorder::push`] and writes what comes out. The connection
//! still owes `core.seq() - reorder.next()` responses.
//!
//! Only requests a worker answers carry a trace, so the five stage
//! histograms and the slow log count the same set of requests as the
//! `latency` histogram: connection-layer answers (chunk acks,
//! interactive rounds, malformed and oversized frames) stay out of all
//! of them.

use crate::metrics::{Metrics, SlowLogEntry, Trace};
use crate::registry::SchemeId;
use crate::server::{duration_us, unknown_scheme, Job, ReplyTo, Shared};
use crate::store::crc32_update;
use crate::wire::{self, Request, Response, WireError};
use dpc_core::scheme::Assignment;
use dpc_graph::Graph;
use dpc_interactive::dmam::{challenge_from_seed, run_forged, DmamPlanarity};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Read granularity of both drivers.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Process-wide connection counter: the high 32 bits of every trace
/// id, so ids stay unique across front ends and reactor loops.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One finished response on its way back to its connection.
pub(crate) struct Done {
    seq: u64,
    body: Vec<u8>,
    /// When the body was finished (the reorder-wait stage starts here).
    finished: Instant,
    /// The request's trace; `None` for answers the core gave itself.
    trace: Option<Trace>,
}

impl Done {
    /// A response finished now.
    pub(crate) fn new(seq: u64, body: Vec<u8>, trace: Option<Trace>) -> Done {
        Done {
            seq,
            body,
            finished: Instant::now(),
            trace,
        }
    }
}

/// What [`ConnCore::next`] made of one frame.
pub(crate) enum Step {
    /// Answered by the core: file it with the connection's [`Reorder`].
    Reply(Done),
    /// For the worker queue.
    Job(Job),
}

/// Where [`ConnCore::route`] sends one decoded request.
enum Route {
    /// To the worker pool.
    Worker(Request),
    /// Answered by the core.
    Answer(Response),
}

/// One open chunked-upload session: the incremental graph decoder plus
/// the sequencing and integrity state the protocol checks. Memory here
/// is O(chunk): the decoder holds the graph *index* under construction
/// and a < 10-byte carry, never the full encoding.
struct ChunkUpload {
    session: u64,
    bypass_cache: bool,
    scheme: SchemeId,
    decoder: wire::GraphStreamDecoder,
    /// Chunks accepted so far == the seq the next chunk must carry.
    received: u64,
    /// Payload bytes accepted so far.
    bytes: u64,
    /// Running CRC-32 state over the whole payload (`!0` initial;
    /// finalized with a complement at End).
    crc: u32,
}

/// One open interactive (dMAM) round: the graph and Merlin's
/// commitment, parked between the `InteractiveBegin` that got the
/// public coin back and the `InteractiveRespond` that closes the round.
struct InteractiveRound {
    session: u64,
    challenge: u64,
    graph: Graph,
    commit: Assignment,
}

/// The sans-I/O half of a connection: the unparsed bytes, the next
/// sequence number, and at most one open session of each kind (a second
/// Begin replaces the first, which is also a client's clean reset path).
pub(crate) struct ConnCore {
    /// Trace-id prefix.
    id: u64,
    /// Where this connection's jobs send their responses.
    reply: ReplyTo,
    /// Fed bytes; `off..` is not yet peeled.
    buf: Vec<u8>,
    off: usize,
    /// Sequence number of the next frame.
    seq: u64,
    /// Framing broke: no further frame is read.
    closed: bool,
    chunk: Option<ChunkUpload>,
    interactive: Option<InteractiveRound>,
}

impl ConnCore {
    /// A fresh connection whose jobs answer through `reply`.
    pub(crate) fn new(reply: ReplyTo) -> ConnCore {
        ConnCore {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            reply,
            buf: Vec::new(),
            off: 0,
            seq: 0,
            closed: false,
            chunk: None,
            interactive: None,
        }
    }

    /// Appends bytes read off the socket.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.off > 0 {
            self.buf.drain(..self.off);
            self.off = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Sequence number the next frame gets: the count of frames taken.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// An oversized frame broke the framing: the driver stops reading
    /// and closes once what is owed is written.
    pub(crate) fn closed(&self) -> bool {
        self.closed
    }

    /// Takes the next complete frame, if any. This is request
    /// pipelining: nothing waits for a response before the next frame
    /// is decoded.
    pub(crate) fn next(&mut self, shared: &Shared) -> Option<Step> {
        if self.closed {
            return None;
        }
        let m = &shared.metrics;
        let avail = &self.buf[self.off..];
        let header: [u8; 4] = avail.get(..4)?.try_into().expect("4 bytes");
        let len = u32::from_le_bytes(header) as usize;
        let seq = self.seq;
        if len > wire::MAX_FRAME_BYTES {
            // the stream cannot be resynchronized: answer once, close
            self.closed = true;
            self.seq += 1;
            let msg = WireError::Protocol(format!("frame of {len} bytes exceeds the limit"));
            return Some(Step::Reply(answer(seq, error(m, msg.to_string()))));
        }
        let body = avail.get(4..4 + len)?;
        let decode_start = Instant::now();
        let decoded = Request::decode(body);
        self.off += 4 + len;
        self.seq += 1;
        let req = match decoded {
            Ok(req) => req,
            // a malformed body is a normal answer: framing is intact
            Err(e) => return Some(Step::Reply(answer(seq, error(m, e.to_string())))),
        };
        // the trace keeps the wire kind: a certify born from a
        // GraphChunkEnd shows up as "chunkend" in the slow log
        let kind = req.kind() as u8;
        let scheme = req.scheme().map_or(0, |s| s.0);
        let req = match self.route(req, shared) {
            Route::Worker(req) => req,
            Route::Answer(resp) => return Some(Step::Reply(answer(seq, resp))),
        };
        let read_decode = decode_start.elapsed();
        m.stages.read_decode.record(read_decode);
        let mut trace = Trace::new((self.id << 32) | (seq & 0xffff_ffff), kind, scheme);
        trace.read_decode_us = duration_us(read_decode);
        let received = Instant::now();
        Some(Step::Job(Job {
            req,
            seq,
            reply: self.reply.clone(),
            received,
            dequeued: received,
            trace,
        }))
    }

    /// Drops the open upload, if any, counting it as aborted: a Begin
    /// replaced it, a protocol error killed it, or the connection
    /// closed with it unfinished.
    pub(crate) fn abandon(&mut self, m: &Metrics) {
        if self.chunk.take().is_some() {
            m.chunk_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one dispatch on the request kind: bumps the kind's counter
    /// and sends the request to the worker pool or answers it. An
    /// exhaustive match, so a new `Request` variant fails to compile
    /// until it is routed.
    fn route(&mut self, req: Request, shared: &Shared) -> Route {
        let m = &shared.metrics;
        let counter = match &req {
            Request::Certify { .. } => &m.certify,
            Request::Check { .. } => &m.check,
            Request::Gen { .. } => &m.gen,
            Request::SoundnessProbe { .. } => &m.soundness,
            // introspection and maintenance kinds share the stats
            // counter: the v2 prefix is frozen, and the v6 replication
            // counters break StoreList/StorePush traffic out by what it
            // did
            Request::Stats
            | Request::SlowLog
            | Request::StoreList
            | Request::StorePush { .. }
            | Request::Audit { .. } => &m.stats,
            Request::GraphChunkBegin { .. }
            | Request::GraphChunk { .. }
            | Request::GraphChunkEnd { .. } => {
                // acks and chunk errors ride the stats counter; a
                // completed upload counts as the certify it becomes
                let route = self.chunk_step(req, m);
                let counter = match route {
                    Route::Worker(_) => &m.certify,
                    Route::Answer(_) => &m.stats,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                return route;
            }
            // the dMAM verifier is a linear scan, far below a prove;
            // answering both rounds here also makes the transcript
            // byte-identical across front ends by construction. The
            // session and reject counters do the counting.
            Request::InteractiveBegin { .. } | Request::InteractiveRespond { .. } => {
                return Route::Answer(self.interactive_step(req, shared));
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Route::Worker(req)
    }

    /// Kills the open upload (if any) with an error answer. The
    /// connection and its sequence numbers survive, so the client can
    /// Begin again.
    fn chunk_fail(&mut self, m: &Metrics, msg: String) -> Response {
        self.abandon(m);
        error(m, msg)
    }

    /// Runs one chunk-kind frame through the upload state machine: a
    /// clean End becomes a summary certify for the workers, every other
    /// frame gets its ack or error here.
    fn chunk_step(&mut self, req: Request, m: &Metrics) -> Route {
        match req {
            Request::GraphChunkBegin {
                session,
                bypass_cache,
                scheme,
            } => {
                // a fresh Begin replaces a half-done upload
                self.abandon(m);
                m.chunk_sessions.fetch_add(1, Ordering::Relaxed);
                self.chunk = Some(ChunkUpload {
                    session,
                    bypass_cache,
                    scheme,
                    decoder: wire::GraphStreamDecoder::new(),
                    received: 0,
                    bytes: 0,
                    crc: !0,
                });
                Route::Answer(Response::ChunkAck {
                    session,
                    received: 0,
                })
            }
            Request::GraphChunk {
                session,
                seq,
                payload,
            } => {
                let Some(st) = self.chunk.as_mut() else {
                    return Route::Answer(
                        self.chunk_fail(m, "graph chunk outside a chunk session".into()),
                    );
                };
                if st.session != session {
                    let open = st.session;
                    let msg = format!("chunk for session {session} but session {open} is open");
                    return Route::Answer(self.chunk_fail(m, msg));
                }
                if seq != st.received {
                    // out-of-order, duplicated, or gapped chunk: the
                    // stream cannot be trusted past this point
                    let msg = format!("chunk seq {seq} out of order (expected {})", st.received);
                    return Route::Answer(self.chunk_fail(m, msg));
                }
                st.crc = crc32_update(st.crc, &payload);
                st.bytes += payload.len() as u64;
                st.received += 1;
                if let Err(e) = st.decoder.feed(&payload) {
                    return Route::Answer(self.chunk_fail(m, e.to_string()));
                }
                m.chunk_chunks.fetch_add(1, Ordering::Relaxed);
                m.chunk_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                m.chunk_carry_peak
                    .fetch_max(st.decoder.carry_len() as u64, Ordering::Relaxed);
                Route::Answer(Response::ChunkAck {
                    session,
                    received: st.received,
                })
            }
            Request::GraphChunkEnd {
                session,
                total_chunks,
                total_bytes,
                crc,
            } => {
                let Some(st) = self.chunk.take() else {
                    return Route::Answer(
                        self.chunk_fail(m, "chunk end outside a chunk session".into()),
                    );
                };
                let msg = if st.session != session {
                    format!(
                        "chunk end for session {session} but session {} is open",
                        st.session
                    )
                } else if total_chunks != st.received || total_bytes != st.bytes {
                    format!(
                        "chunk totals mismatch: client sent {total_chunks} chunks / \
                         {total_bytes} bytes, server saw {} / {}",
                        st.received, st.bytes
                    )
                } else if !st.crc != crc {
                    "reassembled graph payload failed its CRC check".into()
                } else {
                    match st.decoder.finish() {
                        Ok(graph) => {
                            return Route::Worker(Request::Certify {
                                graph,
                                bypass_cache: st.bypass_cache,
                                cached_only: false,
                                summary: true,
                                scheme: st.scheme,
                            })
                        }
                        Err(e) => e.to_string(),
                    }
                };
                // the End closed the session either way
                m.chunk_aborts.fetch_add(1, Ordering::Relaxed);
                Route::Answer(error(m, msg))
            }
            _ => unreachable!("route sends only chunk kinds here"),
        }
    }

    /// Runs one interactive-kind frame through the dMAM round.
    fn interactive_step(&mut self, req: Request, shared: &Shared) -> Response {
        let m = &shared.metrics;
        match req {
            Request::InteractiveBegin {
                session,
                seed,
                graph,
                commit,
                scheme,
            } => {
                // a fresh Begin replaces whatever round was half open
                self.interactive = None;
                let Some(entry) = shared.registry.get(scheme) else {
                    return unknown_scheme(shared, scheme, 1);
                };
                if !entry.caps.interactive {
                    let msg = format!(
                        "scheme {} does not run interactive sessions \
                         (the dMAM protocol is defined for planarity)",
                        entry.name
                    );
                    return error(m, msg);
                }
                m.interactive_sessions.fetch_add(1, Ordering::Relaxed);
                // Arthur's public coin is a pure function of the seed
                // the client committed to, so a logged (trace id, seed)
                // pair replays to the same challenge and verdict
                let challenge = challenge_from_seed(seed);
                self.interactive = Some(InteractiveRound {
                    session,
                    challenge,
                    graph,
                    commit,
                });
                Response::Challenge { session, challenge }
            }
            Request::InteractiveRespond { session, response } => {
                let Some(st) = self.interactive.take() else {
                    return error(m, "interactive response outside a session".into());
                };
                if st.session != session {
                    let open = st.session;
                    let msg = format!(
                        "interactive response for session {session} but session {open} is open"
                    );
                    return error(m, msg);
                }
                let nodes = st.graph.node_count();
                if response.certs.len() != nodes {
                    let msg = format!(
                        "response for {} nodes on a {nodes}-node graph",
                        response.certs.len()
                    );
                    return error(m, msg);
                }
                // contained like any worker handler: a panicking
                // verifier must never take down a reactor loop
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let protocol = DmamPlanarity::new();
                    run_forged(&protocol, &st.graph, st.challenge, &st.commit, &response)
                }));
                let Ok(outcome) = run else {
                    return error(
                        m,
                        "internal error: the interactive verifier panicked".into(),
                    );
                };
                let accept = outcome.all_accept();
                if !accept {
                    m.interactive_rejects.fetch_add(1, Ordering::Relaxed);
                }
                Response::Verdict {
                    session,
                    challenge: st.challenge,
                    accept,
                    reject_count: outcome.reject_count() as u64,
                    nodes: nodes as u64,
                    max_commit_bits: outcome.max_commit_bits as u64,
                    max_response_bits: outcome.max_response_bits as u64,
                    soundness_ppm: soundness_ppm(&st.graph),
                }
            }
            _ => unreachable!("route sends only interactive kinds here"),
        }
    }
}

/// Counts an error answer.
fn error(m: &Metrics, msg: String) -> Response {
    m.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error(msg)
}

/// A response the core gives itself, untraced.
fn answer(seq: u64, resp: Response) -> Done {
    Done::new(seq, resp.encode(), None)
}

/// The dMAM planarity protocol's per-session soundness bound, in parts
/// per million. The challenge opens one uniformly random port per node,
/// so each endpoint of a cheated edge probes it with probability at
/// least `1/Δ`: a forged proof survives the round with probability at
/// most `1 − 1/Δ`.
fn soundness_ppm(g: &Graph) -> u64 {
    let max_deg = (0..g.node_count() as u32)
        .map(|v| g.degree(v))
        .max()
        .unwrap_or(0)
        .max(1) as u64;
    1_000_000 - 1_000_000 / max_deg
}

/// One connection's finished responses, put back in request order.
#[derive(Default)]
pub(crate) struct Reorder {
    /// Sequence number of the next response to write.
    next: u64,
    /// Finished responses that arrived ahead of their turn.
    pending: HashMap<u64, Done>,
}

/// A response whose turn to be written has come.
pub(crate) struct Ready {
    /// The whole frame: length prefix, then body.
    pub(crate) frame: Vec<u8>,
    /// When it became write-eligible (its write-flush stage starts here).
    pub(crate) at: Instant,
    /// A worker-answered response's trace and the reorder wait it paid.
    trace: Option<(Trace, u64)>,
}

impl Reorder {
    /// Sequence number of the next response to write.
    pub(crate) fn next(&self) -> u64 {
        self.next
    }

    /// Files one finished response and yields every response that is
    /// now next in request order, recording each traced one's
    /// reorder wait.
    pub(crate) fn push<'a>(
        &'a mut self,
        done: Done,
        m: &'a Metrics,
    ) -> impl Iterator<Item = Ready> + 'a {
        self.pending.insert(done.seq, done);
        std::iter::from_fn(move || {
            let done = self.pending.remove(&self.next)?;
            self.next += 1;
            debug_assert!(done.body.len() <= wire::MAX_FRAME_BYTES);
            let at = Instant::now();
            let trace = done.trace.map(|trace| {
                let reorder = at.saturating_duration_since(done.finished);
                m.stages.reorder_wait.record(reorder);
                (trace, duration_us(reorder))
            });
            let mut frame = Vec::with_capacity(4 + done.body.len());
            frame.extend_from_slice(&(done.body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&done.body);
            Some(Ready { frame, at, trace })
        })
    }
}

impl Ready {
    /// Closes a traced response once its whole frame is with the
    /// kernel, `flush` after it became write-eligible: records the
    /// write-flush stage and, past the slow-log threshold, the full
    /// stage breakdown.
    pub(crate) fn written(&self, shared: &Shared, flush: Duration) {
        let Some((trace, reorder_wait_us)) = self.trace else {
            return;
        };
        shared.metrics.stages.write_flush.record(flush);
        let write_flush_us = duration_us(flush);
        let total_us = trace.read_decode_us
            + trace.queue_wait_us
            + trace.service_us
            + reorder_wait_us
            + write_flush_us;
        let threshold = shared.slow.threshold_us();
        if threshold > 0 && total_us >= threshold {
            shared.slow.record(SlowLogEntry {
                trace_id: trace.trace_id,
                kind: trace.kind,
                scheme: trace.scheme,
                age_us: 0,
                total_us,
                read_decode_us: trace.read_decode_us,
                queue_wait_us: trace.queue_wait_us,
                service_us: trace.service_us,
                reorder_wait_us,
                write_flush_us,
            });
        }
    }
}
