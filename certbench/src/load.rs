//! The closed-loop load: one thread and one connection per client,
//! each keeping a fixed number of requests in flight, every answer
//! decoded and checked.

use crate::check::{self, Kept, KeyBook};
use crate::workload::{miss_item, Item, Rng, Sizes, Zipf};
use dpc_service::wire::{self, Response};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Where each connection's next request comes from.
pub enum Source<'a> {
    /// Round-robin over a fixed list; connection `c` starts at an offset.
    RoundRobin(&'a [Item]),
    /// A fresh graph per request, generated from the seed (never cached).
    Fresh {
        /// Workload seed.
        seed: u64,
        /// Input sizes.
        sizes: &'a Sizes,
    },
    /// Zipf-drawn keys over a keyspace.
    Zipf {
        /// The keyspace.
        items: &'a [Item],
        /// Key popularity.
        zipf: &'a Zipf,
        /// Workload seed.
        seed: u64,
    },
}

/// An input: borrowed from the keyspace or generated for one request.
pub enum Held<'a> {
    /// A keyspace entry.
    Shared(&'a Item),
    /// A one-off input.
    Owned(Item),
}

impl Deref for Held<'_> {
    type Target = Item;
    fn deref(&self) -> &Item {
        match self {
            Held::Shared(item) => item,
            Held::Owned(item) => item,
        }
    }
}

/// Input id of `miss-prove` request `index` on connection `conn`.
fn fresh_input(conn: usize, index: u64) -> u64 {
    (conn as u64) << 40 | index
}

impl<'a> Source<'a> {
    /// Materializes an input by id (the replay uses this too).
    pub fn input(&self, input: u64) -> Held<'a> {
        match self {
            Source::RoundRobin(items) | Source::Zipf { items, .. } => {
                Held::Shared(&items[input as usize])
            }
            Source::Fresh { seed, sizes } => Held::Owned(miss_item(
                *seed,
                input >> 40,
                input & ((1 << 40) - 1),
                sizes,
            )),
        }
    }

    /// The next input of connection `conn`: its id, and its key when the
    /// server may have seen it before.
    fn next(&self, conn: usize, conns: usize, index: u64, rng: &mut Rng) -> (u64, Option<usize>) {
        match self {
            Source::RoundRobin(items) => {
                let k = (index as usize + conn * items.len() / conns) % items.len();
                (k as u64, Some(k))
            }
            Source::Fresh { .. } => (fresh_input(conn, index), None),
            Source::Zipf { zipf, .. } => {
                let k = zipf.sample(rng);
                (k as u64, Some(k))
            }
        }
    }

    fn rng_seed(&self) -> u64 {
        match self {
            Source::Zipf { seed, .. } | Source::Fresh { seed, .. } => *seed,
            Source::RoundRobin(_) => 0,
        }
    }
}

/// One answered (or failed) request. Times are nanoseconds since the
/// window's epoch: `t0` encode start, `t1` encode end and send start,
/// `t2` response frame read, `t3` response decoded.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Connection index.
    pub conn: u32,
    /// Request index on the connection.
    pub index: u64,
    /// Input id.
    pub input: u64,
    /// The answer's `cached` flag.
    pub cached: bool,
    /// Passed every check.
    pub ok: bool,
    /// Completed before the deadline.
    pub in_window: bool,
    /// Carries the inner timestamps `t1` and `t2` (see [`Window::trace`]).
    pub traced: bool,
    /// Timestamps, see the type docs. An untraced sample only reads the
    /// clock at `t0` and `t3` (its `t1` is `t0`, its `t2` is `t3`).
    pub t: [u64; 4],
    /// Encoded request frame bytes.
    pub req_bytes: u32,
    /// Response frame bytes.
    pub resp_bytes: u32,
}

impl Sample {
    /// Client-observed latency: encode start to decoded response.
    pub fn latency_ns(&self) -> u64 {
        self.t[3] - self.t[0]
    }
}

/// Knobs of one timed window.
pub struct Window<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Request source.
    pub source: &'a Source<'a>,
    /// Shared key expectations (`None`: every request is first-touch).
    pub book: Option<&'a KeyBook>,
    /// Connections.
    pub connections: usize,
    /// Requests in flight per connection.
    pub pipeline: usize,
    /// Window length.
    pub duration: Duration,
    /// Flip the last byte of this response on connection 0 (the smoke
    /// test's proof that the checks trip).
    pub corrupt: Option<u64>,
    /// Seed of the re-verification sample.
    pub seed: u64,
    /// Time origin of every sample timestamp.
    pub epoch: Instant,
    /// Trace every other block of [`TRACE_BLOCK`] requests: those read
    /// the clock around the encode, send, receive and decode steps; the
    /// others only at start and end. Both halves share the window and
    /// (blocks being whole input cycles) the input mix, so their
    /// latencies compare the tracing cost under the same load.
    pub trace: bool,
}

/// Everything a window produced.
#[derive(Default)]
pub struct WindowOut {
    /// Every request, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, failed transport or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Largest certificate returned, in bits.
    pub max_cert_bits: u64,
    /// Seeded sample of returned assignments, for re-verification.
    pub kept: Vec<Kept>,
    /// Window length actually measured, in seconds.
    pub seconds: f64,
}

impl WindowOut {
    /// Counts one failure, keeping its message if it is among the first.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn absorb(&mut self, other: WindowOut) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.max_cert_bits = self.max_cert_bits.max(other.max_cert_bits);
        self.kept.extend(other.kept);
    }
}

/// Requests per traced or untraced block: one `miss-prove` cycle, one
/// round over the `hit-large` graphs.
pub const TRACE_BLOCK: u64 = crate::workload::MISS_CYCLE;

/// Assignments each connection keeps for re-verification.
const KEEP_PER_CONN: usize = 2;

struct Pending<'a> {
    index: u64,
    input: u64,
    key: Option<usize>,
    expect: Option<bool>,
    item: Held<'a>,
    traced: bool,
    t0: u64,
    t1: u64,
    req_bytes: u32,
}

/// Runs one timed window: every connection starts together, sends
/// while the window is open, then drains what it has in flight.
pub fn run(w: &Window) -> WindowOut {
    let barrier = Barrier::new(w.connections);
    let outs: Vec<WindowOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.connections)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || drive(w, c, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = WindowOut {
        seconds: w.duration.as_secs_f64(),
        ..WindowOut::default()
    };
    for out in outs {
        total.absorb(out);
    }
    total
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn drive(w: &Window, conn: usize, barrier: &Barrier) -> WindowOut {
    let mut out = WindowOut::default();
    let (mut reader, mut writer) = match connect(w.addr) {
        Ok(pair) => pair,
        Err(e) => {
            barrier.wait();
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(&[w.source.rng_seed(), 5, conn as u64]);
    let mut keep_rng = Rng::new(&[w.seed, 6, conn as u64]);
    let mut certified_seen = 0u64;
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(w.pipeline);
    let mut next_index = 0u64;
    barrier.wait();
    let epoch = w.epoch;
    let deadline = ns(epoch) + w.duration.as_nanos() as u64;
    loop {
        while inflight.len() < w.pipeline && ns(epoch) < deadline {
            let (input, key) = w.source.next(conn, w.connections, next_index, &mut rng);
            let item = w.source.input(input);
            let expect = match (key, w.book) {
                (Some(k), Some(book)) => book.expect_on_send(k),
                _ => Some(false),
            };
            let traced = w.trace && (next_index / TRACE_BLOCK) % 2 == 1;
            let t0 = ns(epoch);
            let body = item.req.encode();
            let t1 = if traced { ns(epoch) } else { t0 };
            out.attempted += 1;
            if let Err(e) = send(&mut writer, &body) {
                out.fail(format!("send: {e}"));
                return out;
            }
            inflight.push_back(Pending {
                index: next_index,
                input,
                key,
                expect,
                item,
                traced,
                t0,
                t1,
                req_bytes: body.len() as u32,
            });
            next_index += 1;
        }
        let Some(p) = inflight.pop_front() else {
            break;
        };
        let mut frame = match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                out.fail("server closed the connection".into());
                out.failed += inflight.len() as u64;
                return out;
            }
            Err(e) => {
                out.fail(format!("recv: {e}"));
                out.failed += inflight.len() as u64;
                return out;
            }
        };
        let t2 = if p.traced { ns(epoch) } else { 0 };
        if conn == 0 && w.corrupt == Some(p.index) {
            if let Some(last) = frame.last_mut() {
                *last ^= 0x01;
            }
        }
        let decoded = Response::decode(&frame);
        let t3 = ns(epoch);
        let t2 = if p.traced { t2 } else { t3 };
        let mut sample = Sample {
            conn: conn as u32,
            index: p.index,
            input: p.input,
            cached: false,
            ok: false,
            in_window: t3 <= deadline,
            traced: p.traced,
            t: [p.t0, p.t1, t2, t3],
            req_bytes: p.req_bytes,
            resp_bytes: frame.len() as u32,
        };
        let verdict = decoded
            .map_err(|e| format!("decode: {e}"))
            .and_then(|resp| {
                let answer = check::check(&p.item, &frame, &resp, p.expect)?;
                if let Some(k) = p.key {
                    if !w.book.is_some_and(|b| b.answered(k, answer.suffix_digest)) {
                        return Err(format!("key {k}: body differs from its first answer"));
                    }
                }
                Ok((answer, resp))
            });
        match verdict {
            Ok((answer, resp)) => {
                sample.cached = answer.cached;
                sample.ok = true;
                out.max_cert_bits = out.max_cert_bits.max(answer.max_cert_bits);
                if let Response::Certified {
                    outcome,
                    assignment,
                    ..
                } = resp
                {
                    // reservoir sample (Algorithm R) of certified answers
                    certified_seen += 1;
                    let slot = if out.kept.len() < KEEP_PER_CONN {
                        Some(out.kept.len())
                    } else {
                        let j = keep_rng.below(certified_seen) as usize;
                        (j < KEEP_PER_CONN).then_some(j)
                    };
                    if let Some(slot) = slot {
                        let kept = Kept {
                            input: p.input,
                            assignment,
                            outcome,
                        };
                        if slot == out.kept.len() {
                            out.kept.push(kept);
                        } else {
                            out.kept[slot] = kept;
                        }
                    }
                }
            }
            Err(msg) => out.fail(format!("conn {conn} request {}: {msg}", p.index)),
        }
        out.samples.push(sample);
    }
    out
}

type Halves = (BufReader<TcpStream>, BufWriter<TcpStream>);

fn connect(addr: SocketAddr) -> io::Result<Halves> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    Ok((
        BufReader::with_capacity(1 << 16, stream),
        BufWriter::with_capacity(1 << 16, write_half),
    ))
}

fn send(writer: &mut BufWriter<TcpStream>, body: &[u8]) -> io::Result<()> {
    wire::write_frame(writer, body)?;
    writer.flush()
}

/// Certifies `keys` once each outside any timed window (warm-up and
/// pre-fill), over `connections` pipelined connections, and marks them
/// answered. Returns the number of answers that failed a check.
pub fn prefill(
    addr: SocketAddr,
    items: &[Item],
    keys: &[usize],
    book: &KeyBook,
    connections: usize,
    pipeline: usize,
) -> io::Result<u64> {
    let failed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<usize> = keys.iter().copied().skip(c).step_by(connections).collect();
                s.spawn(move || prefill_conn(addr, items, &mine, book, pipeline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .sum::<io::Result<u64>>()
    })?;
    Ok(failed)
}

fn prefill_conn(
    addr: SocketAddr,
    items: &[Item],
    keys: &[usize],
    book: &KeyBook,
    pipeline: usize,
) -> io::Result<u64> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut failed = 0u64;
    let mut sent = 0usize;
    let mut inflight = VecDeque::new();
    while sent < keys.len() || !inflight.is_empty() {
        while sent < keys.len() && inflight.len() < pipeline {
            let k = keys[sent];
            let expect = book.expect_on_send(k);
            send(&mut writer, &items[k].req.encode())?;
            inflight.push_back((k, expect));
            sent += 1;
        }
        let (k, expect) = inflight.pop_front().expect("in flight");
        let frame = wire::read_frame(&mut reader)
            .map_err(|e| io::Error::other(e.to_string()))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let ok = Response::decode(&frame)
            .map_err(|e| e.to_string())
            .and_then(|resp| check::check(&items[k], &frame, &resp, expect))
            .is_ok_and(|a| book.answered(k, a.suffix_digest));
        if !ok {
            failed += 1;
        }
    }
    Ok(failed)
}
