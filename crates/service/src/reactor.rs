//! The readiness-driven event-loop front end, the default where
//! epoll exists: an I/O driver of the connection core.
//!
//! ```text
//!                      ┌───────────────── reactor loop ─────────────────┐
//!   TCP ──▶ listener ──▶ accept → register                              │
//!                      │    epoll_wait ──▶ readiness per connection     │
//!                      │      read ▶ ConnCore ▶ try_push ────────┐      │
//!                      │      ▲                                  ▼      │
//!                      │      │ eventfd wake            bounded queue   │
//!                      │  completion inbox ◀── reply ──── worker pool   │
//!                      │      │                          (threads,      │
//!                      │      ▼                           BatchRunner)  │
//!                      │  Reorder ▶ batched writev flush ─────────▶ TCP │
//!                      └────────────────────────────────────────────────┘
//! ```
//!
//! One loop (or a small `ServeConfig::event_loops` set, loop 0 owning
//! the listener and dealing new connections round-robin) multiplexes
//! every connection over a single [`epoll::Epoll`] set. The protocol
//! itself is not here: each connection owns a `ConnCore`, which peels,
//! numbers, decodes and routes frames, and a `Reorder`, which puts
//! finished responses back in request order (see the `conn` module).
//! The reactor only moves bytes and readiness:
//!
//! * **read** — drain the socket into the core until `EAGAIN` (bounded
//!   per wakeup so one firehose cannot starve its neighbors), then take
//!   every complete frame: answers go straight to the `Reorder`, jobs
//!   to the same bounded job queue the threaded front end uses;
//! * **complete** — workers hand finished `(conn, Done)` pairs to the
//!   loop's [`Inbox`], whose eventfd waker is registered in the same
//!   epoll set, so the wakeup path from the worker pool is just another
//!   readable fd;
//! * **write** — everything the `Reorder` released is coalesced into
//!   one vectored (`writev`-style) flush per wakeup; a short write arms
//!   `EPOLLOUT` and the flush resumes when the socket drains.
//!
//! Back-pressure: when the job queue is full the job parks in the
//! connection's `stalled` slot and the loop drops read interest for
//! that connection — bytes pile up in the kernel socket buffer and TCP
//! flow control pushes back on the client, mirroring the blocking
//! `push` of the threaded front end. A connection that is not reading
//! (stalled, half-closed by its peer, or closed by a framing error)
//! registers neither `EPOLLIN` nor `EPOLLRDHUP`, so a level-triggered
//! half-close cannot spin the loop; a `HUP` or `ERR` reported for it
//! closes it, because nothing it owes can be delivered any more. Idle
//! connections (no bytes, no responses owed) are reaped after
//! [`ServeConfig::idle_timeout`](crate::ServeConfig).

use crate::conn::{ConnCore, Done, Ready, Reorder, Step, READ_CHUNK};
use crate::metrics::Metrics;
use crate::server::{Job, ReplyTo, Shared};
use epoll::{Epoll, Events, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The per-wakeup read bound: one connection may consume at most
/// `READ_BURST` chunks per readiness event; the level-triggered set
/// re-reports it immediately if more is pending.
const READ_BURST: usize = 4;

/// Max frames folded into one vectored flush call.
const MAX_FLUSH_SLICES: usize = 64;

/// Events drained per `epoll_wait`.
const WAIT_BATCH: usize = 1024;

/// The worker → reactor handoff: completions (and, between loops,
/// freshly accepted sockets) guarded by a mutex, plus the eventfd
/// that makes the owning loop's `epoll_wait` return.
pub(crate) struct Inbox {
    waker: Waker,
    /// Finished responses, by loop-local connection token.
    completions: Mutex<Vec<(u64, Done)>>,
    incoming: Mutex<Vec<TcpStream>>,
    /// Counts eventfd wakeups; Arc'd (not reached through `Shared`)
    /// because jobs hold the inbox while `Shared` holds the queue.
    metrics: Arc<Metrics>,
}

impl Inbox {
    fn new(metrics: Arc<Metrics>) -> io::Result<Inbox> {
        Ok(Inbox {
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            metrics,
        })
    }

    /// Queues a finished response and wakes the loop (only the first
    /// completion after a drain pays the eventfd write — the waker
    /// stays readable until drained, so later sends just append).
    pub(crate) fn send(&self, conn: u64, done: Done) {
        let mut q = self.completions.lock().expect("inbox poisoned");
        let was_empty = q.is_empty();
        q.push((conn, done));
        drop(q);
        if was_empty {
            self.metrics.inbox_wakeups.fetch_add(1, Ordering::Relaxed);
            let _ = self.waker.wake();
        }
    }

    /// Makes the owning loop spin one iteration (shutdown nudge).
    pub(crate) fn wake(&self) {
        let _ = self.waker.wake();
    }

    /// Hands an accepted socket to the owning loop (cross-loop deal
    /// from the listener-owning loop 0).
    fn hand_off(&self, stream: TcpStream) {
        self.incoming.lock().expect("inbox poisoned").push(stream);
        let _ = self.waker.wake();
    }
}

/// What [`spawn`] hands back: one join handle and one inbox per loop.
pub(crate) type ReactorHandles = (Vec<JoinHandle<()>>, Vec<Arc<Inbox>>);

/// Starts `cfg.event_loops` reactor threads sharing one nonblocking
/// listener (owned by loop 0). Fails — before any thread spawns — on
/// targets without epoll, which the caller treats as "use the
/// threaded front end".
pub(crate) fn spawn(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<ReactorHandles> {
    listener.set_nonblocking(true)?;
    let n = shared.cfg.event_loops.max(1);
    let mut epolls = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let epoll = Epoll::new()?;
        let inbox = Arc::new(Inbox::new(Arc::clone(&shared.metrics))?);
        inbox.waker.register(&epoll, TOKEN_WAKER)?;
        epolls.push(epoll);
        inboxes.push(inbox);
    }
    epolls[0].add(&listener, TOKEN_LISTENER, EPOLLIN)?;
    let mut listener = Some(listener);
    let threads = epolls
        .into_iter()
        .enumerate()
        .map(|(idx, epoll)| {
            let lp = EventLoop {
                idx,
                epoll,
                listener: listener.take(),
                inboxes: inboxes.clone(),
                shared: Arc::clone(shared),
                conns: HashMap::new(),
                stalled: Vec::new(),
                next_token: FIRST_CONN_TOKEN,
                dealt: 0,
            };
            std::thread::Builder::new()
                .name(format!("dpc-reactor-{idx}"))
                .spawn(move || lp.run())
                .expect("spawn reactor loop")
        })
        .collect();
    Ok((threads, inboxes))
}

/// Why a connection is being torn down (metrics accounting differs).
enum Close {
    /// Clean or errored teardown.
    Gone,
    /// Reaped by the idle timeout.
    Idle,
}

struct Conn {
    stream: TcpStream,
    core: ConnCore,
    reorder: Reorder,
    /// Frames ready to write (the front one may be partly sent).
    wqueue: VecDeque<Ready>,
    woff: usize,
    /// Job waiting for queue space (the connection stops reading while
    /// set — kernel-buffer back-pressure).
    stalled: Option<Job>,
    /// Read side saw EOF: no new requests, drain what is owed.
    peer_closed: bool,
    /// Interest bits currently registered in the epoll set.
    interest: u32,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, reply: ReplyTo) -> Conn {
        Conn {
            stream,
            core: ConnCore::new(reply),
            reorder: Reorder::default(),
            wqueue: VecDeque::new(),
            woff: 0,
            stalled: None,
            peer_closed: false,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
        }
    }

    /// Files one finished response; whatever is now in request order
    /// joins the write queue.
    fn deliver(&mut self, done: Done, metrics: &Metrics) {
        self.last_activity = Instant::now();
        self.wqueue.extend(self.reorder.push(done, metrics));
    }

    /// One vectored flush: every queued frame (up to
    /// [`MAX_FLUSH_SLICES`] per call) rides a single `writev`-style
    /// write. Returns without error on `EAGAIN`; the caller arms
    /// `EPOLLOUT` if frames remain. A frame fully handed to the
    /// kernel closes its write-flush stage (and its whole trace).
    fn flush(&mut self, shared: &Shared) -> io::Result<()> {
        while !self.wqueue.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.wqueue.len().min(MAX_FLUSH_SLICES));
            let mut frames = self.wqueue.iter();
            let front = frames.next().expect("non-empty queue");
            slices.push(IoSlice::new(&front.frame[self.woff..]));
            slices.extend(
                frames
                    .take(MAX_FLUSH_SLICES - 1)
                    .map(|f| IoSlice::new(&f.frame)),
            );
            match self.stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    self.last_activity = Instant::now();
                    while n > 0 {
                        let left = self
                            .wqueue
                            .front()
                            .expect("bytes imply a frame")
                            .frame
                            .len()
                            - self.woff;
                        if n >= left {
                            let fr = self.wqueue.pop_front().expect("bytes imply a frame");
                            fr.written(shared, fr.at.elapsed());
                            self.woff = 0;
                            n -= left;
                        } else {
                            self.woff += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Taking requests off the wire: not stalled, not closed by either
    /// side.
    fn reading(&self) -> bool {
        !self.peer_closed && !self.core.closed() && self.stalled.is_none()
    }

    /// Some request taken off the wire is not answered on it yet.
    fn owes(&self) -> bool {
        self.core.seq() != self.reorder.next() || !self.wqueue.is_empty()
    }

    /// The interest bits this connection's state wants. Read readiness
    /// (including the peer's half-close) only while reading: otherwise
    /// a level-triggered `EPOLLRDHUP` would report on every wait.
    fn desired_interest(&self) -> u32 {
        let read = if self.reading() {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
        };
        let write = if self.wqueue.is_empty() { 0 } else { EPOLLOUT };
        read | write
    }
}

struct EventLoop {
    idx: usize,
    epoll: Epoll,
    /// Loop 0 owns the listener; the others accept nothing.
    listener: Option<TcpListener>,
    /// Every loop's inbox; `inboxes[idx]` is ours.
    inboxes: Vec<Arc<Inbox>>,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    /// Tokens of connections holding a stalled (queue-full) job.
    stalled: Vec<u64>,
    next_token: u64,
    /// Round-robin position for dealing accepted sockets to loops.
    dealt: u64,
}

impl EventLoop {
    fn run(mut self) {
        let idle = self.shared.cfg.idle_timeout;
        // the wait timeout bounds three latencies: shutdown response,
        // stalled-job retry when *other* loops freed queue space, and
        // idle-scan resolution
        let tick = if idle.is_zero() {
            Duration::from_millis(500)
        } else {
            (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(500))
        };
        let mut events = Events::with_capacity(WAIT_BATCH);
        let mut last_scan = Instant::now();
        // connections touched this wakeup, flushed together at the end
        let mut dirty: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.drain_for_shutdown();
                return;
            }
            if self.epoll.wait(&mut events, Some(tick)).is_err() {
                // a broken epoll fd cannot make progress; re-check
                // shutdown at tick cadence instead of spinning
                std::thread::sleep(tick);
                continue;
            }
            dirty.clear();
            let mut accept_ready = false;
            let mut wake_ready = false;
            for ev in events.iter() {
                match ev.token {
                    TOKEN_WAKER => wake_ready = true,
                    TOKEN_LISTENER => accept_ready = true,
                    token => {
                        let Some(conn) = self.conns.get(&token) else {
                            continue;
                        };
                        // a connection that is not reading registers no
                        // read interest, so only HUP or ERR reports it:
                        // nothing it owes can be delivered any more
                        let gone = ev.closed() && !conn.reading();
                        if gone || (ev.readable() && !self.on_readable(token)) {
                            self.close(token, Close::Gone);
                            continue;
                        }
                        dirty.push(token);
                    }
                }
            }
            if wake_ready {
                self.inboxes[self.idx].waker.drain();
            }
            if accept_ready {
                self.on_accept();
            }
            // drain the inbox every pass (not only on a waker event:
            // a completion racing the drain just means one spurious
            // extra wakeup later, never a lost response)
            self.adopt_incoming();
            self.route_completions(&mut dirty);
            self.retry_stalled(&mut dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for token in dirty.drain(..) {
                self.finalize(token);
            }
            if last_scan.elapsed() >= tick {
                last_scan = Instant::now();
                self.scan_idle(idle);
            }
        }
    }

    /// Accepts until `EAGAIN`, dealing sockets round-robin across
    /// loops.
    fn on_accept(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let m = &self.shared.metrics;
                    m.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    m.conns_open.fetch_add(1, Ordering::Relaxed);
                    let target = (self.dealt % self.inboxes.len() as u64) as usize;
                    self.dealt += 1;
                    if target == self.idx {
                        self.register_conn(stream);
                    } else {
                        self.inboxes[target].hand_off(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.shared
                        .metrics
                        .accept_eagain
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // transient accept failure (e.g. fd exhaustion):
                    // yield this burst, the level-triggered listener
                    // re-reports pending connections next wait
                    return;
                }
            }
        }
    }

    /// Adopts sockets dealt to this loop by the accepting loop.
    fn adopt_incoming(&mut self) {
        let incoming = std::mem::take(
            &mut *self.inboxes[self.idx]
                .incoming
                .lock()
                .expect("inbox poisoned"),
        );
        for stream in incoming {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if stream.set_nonblocking(true).is_err()
            || self
                .epoll
                .add(&stream, token, EPOLLIN | EPOLLRDHUP)
                .is_err()
        {
            self.shared
                .metrics
                .conns_open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let reply = ReplyTo::Reactor {
            conn: token,
            inbox: Arc::clone(&self.inboxes[self.idx]),
        };
        self.conns.insert(token, Conn::new(stream, reply));
    }

    /// Routes finished responses to their connections' `Reorder`s.
    fn route_completions(&mut self, dirty: &mut Vec<u64>) {
        let completions = std::mem::take(
            &mut *self.inboxes[self.idx]
                .completions
                .lock()
                .expect("inbox poisoned"),
        );
        for (token, done) in completions {
            // a connection that died with requests in flight simply
            // drops its late completions here
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.deliver(done, &self.shared.metrics);
                dirty.push(token);
            }
        }
    }

    /// Reads until `EAGAIN` (bounded), then takes every complete
    /// frame. `false` means the connection broke.
    fn on_readable(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        if !conn.reading() {
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut bursts = 0;
        while bursts < READ_BURST {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.core.feed(&chunk[..n]);
                    bursts += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.take_frames(token);
        true
    }

    /// Takes every complete frame the core holds: its answers go to
    /// the reorder stage, its jobs to the worker queue. Stops at a
    /// partial frame, a stall, or a closed core.
    fn take_frames(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.stalled.is_none() {
            let Some(step) = conn.core.next(&self.shared) else {
                break;
            };
            match step {
                Step::Reply(done) => conn.deliver(done, &self.shared.metrics),
                Step::Job(job) => {
                    if let Err(job) = self.shared.queue.try_push(job) {
                        // queue full: park the job, stop reading; the
                        // retry runs on completion wakeups and ticks
                        let m = &self.shared.metrics;
                        m.queue_full_stalls.fetch_add(1, Ordering::Relaxed);
                        m.read_interest_drops.fetch_add(1, Ordering::Relaxed);
                        conn.stalled = Some(job);
                        self.stalled.push(token);
                    }
                }
            }
        }
    }

    /// Re-offers stalled jobs to the queue; on success the connection
    /// resumes taking frames right where it stopped.
    fn retry_stalled(&mut self, dirty: &mut Vec<u64>) {
        if self.stalled.is_empty() {
            return;
        }
        let candidates = std::mem::take(&mut self.stalled);
        for token in candidates {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(job) = conn.stalled.take() else {
                continue;
            };
            match self.shared.queue.try_push(job) {
                Ok(()) => {
                    self.shared
                        .metrics
                        .read_interest_restores
                        .fetch_add(1, Ordering::Relaxed);
                    self.take_frames(token);
                    dirty.push(token);
                }
                Err(job) => {
                    conn.stalled = Some(job);
                    self.stalled.push(token);
                }
            }
        }
    }

    /// End-of-wakeup settling: one batched flush, interest re-arm,
    /// and teardown once a finished connection has drained.
    fn finalize(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.flush(&self.shared).is_err() {
            self.close(token, Close::Gone);
            return;
        }
        if !conn.reading() && !conn.owes() {
            // everything owed is written and no more can arrive
            self.close(token, Close::Gone);
            return;
        }
        let want = conn.desired_interest();
        if want != conn.interest && self.epoll.modify(&conn.stream, token, want).is_ok() {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = want;
            }
        }
    }

    /// Reaps connections idle past the timeout. A connection with a
    /// response still owed (in-flight prove or queued write) is
    /// working, not idle — only truly quiet sockets are reaped, so a
    /// prove outlasting the timeout cannot kill its own client.
    fn scan_idle(&mut self, idle: Duration) {
        if idle.is_zero() {
            return;
        }
        let now = Instant::now();
        let reap: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.owes() && now.duration_since(c.last_activity) >= idle)
            .map(|(&t, _)| t)
            .collect();
        for token in reap {
            self.close(token, Close::Idle);
        }
    }

    fn close(&mut self, token: u64, why: Close) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(&conn.stream);
            let m = &self.shared.metrics;
            conn.core.abandon(m);
            m.conns_open.fetch_sub(1, Ordering::Relaxed);
            if matches!(why, Close::Idle) {
                m.idle_timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stalled.retain(|&t| t != token);
    }

    /// Best-effort final delivery at shutdown: responses already
    /// finished by workers get one last routed flush before the fds
    /// drop (mirrors the threaded writer draining its channel).
    fn drain_for_shutdown(&mut self) {
        let mut dirty = Vec::new();
        self.route_completions(&mut dirty);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.flush(&self.shared);
            }
        }
    }
}
