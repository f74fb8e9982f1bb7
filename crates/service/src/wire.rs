//! The binary wire protocol of the certification service.
//!
//! Every message is a *frame*: a little-endian `u32` byte length
//! followed by that many body bytes. Bodies are sequences of LEB128
//! varints and raw byte runs (certificate payloads, bitmaps), so the
//! codec is byte-aligned end to end and decoded certificates are
//! byte-identical to the encoded ones.
//!
//! Graphs travel in a canonical delta encoding: node count, optional
//! identifier list, then the sorted smaller-endpoint-first edge list
//! with gap-encoded coordinates. Sortedness is enforced *by
//! construction* on decode (coordinates are reconstructed from
//! non-negative gaps), so malformed input can produce `Protocol`
//! errors but never duplicate edges, self-loops, or panics.
//!
//! Each message enum ([`Request`], [`Response`], [`CheckVerdict`]) is
//! generated from one table below, a row per kind: its wire tag, its
//! log name, and its fields in wire order, each naming the [`Codec`]
//! that carries it. The row is the only place a kind is declared, so
//! the tags ([`RequestKind`], [`ResponseKind`]), both codec directions
//! and the borrowing [`RequestRef`] cannot drift apart. The codec is
//! total: `decode(encode(x)) == x` for every request and response,
//! which the property tests in `tests/wire_props.rs` pin down across
//! all generator families.
//!
//! StoreList and StorePush are the replication plane (wire v6): a
//! peer lists another peer's store key digests, then streams it the
//! records it lacks as CRC-checked [`StoreRecord`] bodies — the
//! over-TCP twin of `SegmentStore::merge_from`'s dedup-by-key merge.
//!
//! The GraphChunk* kinds are the giant-graph plane (wire v7): a
//! client streams one graph's canonical encoding as CRC-checked,
//! sequence-numbered chunks, and the server reassembles it
//! *incrementally* through [`GraphStreamDecoder`] — between chunks it
//! keeps only a partial trailing varint (a handful of bytes) plus the
//! graph being built, so peak reassembly memory is O(chunk + graph
//! index) no matter how large the upload is.
//!
//! The Interactive* and Audit kinds are the randomized-verification
//! plane (wire v8). An interactive session is the paper's dMAM
//! exchange over TCP: the client (Merlin) opens with
//! `InteractiveBegin` carrying the graph, its commitment assignment,
//! and the session seed; the server (Arthur) answers with a
//! `Challenge` derived deterministically from that seed, the client
//! sends its `InteractiveRespond`, and the server verifies every node
//! and closes with a `Verdict` carrying the per-node reject count and
//! the scheme's soundness bound. `Audit` triggers one randomized
//! store-audit sweep on demand and reports what it sampled,
//! failed, and quarantined.

use crate::metrics::{SlowLogEntry, StatsSnapshot};
use crate::registry::SchemeId;
use crate::store::{crc32, StoreRecord};
use dpc_core::harness::Outcome;
use dpc_core::scheme::Assignment;
use dpc_graph::{canon, Graph, GraphBuilder};
use dpc_runtime::{get_bytes, get_uvarint, put_uvarint, DecodeError};
use std::borrow::Borrow;
use std::fmt;
use std::io::{self, Read, Write};
use std::marker::PhantomData;

/// Upper bound on a frame body, to bound allocation on malicious input.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Upper bound on node count in a wire graph.
pub const MAX_WIRE_NODES: u64 = 1 << 22;
/// Upper bound on node count in a chunk-streamed graph. Streamed
/// graphs are not bounded by one frame, so the cap is above
/// [`MAX_WIRE_NODES`]; it matches `MAX_WIRE_CERTS`, keeping the
/// merged `Outcome` of a giant graph decodable by ordinary clients.
pub const MAX_STREAM_NODES: u64 = 1 << 24;
/// Upper bound on one `GraphChunk` payload the server will buffer.
pub const MAX_CHUNK_BYTES: usize = 4 << 20;
/// Default client-side chunk payload size for streamed uploads.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;

/// Errors of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// A varint or byte run could not be read.
    Decode(DecodeError),
    /// Structurally invalid message (bad tag, bounds, trailing bytes).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Decode(e) => write!(f, "malformed frame: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

fn protocol(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

// ---------------------------------------------------------------------------
// Frames.

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_BYTES);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly (EOF at a frame boundary).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(protocol(format!("frame of {len} bytes exceeds the limit")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------------
// Graphs.

/// Appends the canonical wire encoding of a graph.
pub fn encode_graph(out: &mut Vec<u8>, g: &Graph) {
    put_uvarint(out, g.node_count() as u64);
    let custom = !g.has_default_ids();
    put_uvarint(out, custom as u64);
    if custom {
        for &id in g.ids() {
            put_uvarint(out, id);
        }
    }
    let edges = canon::canonical_edges(g);
    put_uvarint(out, edges.len() as u64);
    let (mut prev_u, mut prev_v) = (0u32, 0u32);
    for (i, &(u, v)) in edges.iter().enumerate() {
        let du = u - prev_u;
        put_uvarint(out, du as u64);
        if i == 0 || du > 0 {
            put_uvarint(out, (v - u - 1) as u64);
        } else {
            put_uvarint(out, (v - prev_v - 1) as u64);
        }
        prev_u = u;
        prev_v = v;
    }
}

/// Decodes a wire graph from the front of `buf`, advancing it.
///
/// Amplification guard: the node count must be roughly covered by the
/// bytes actually present (any connected graph carries at least
/// `2(n-1)` edge bytes; the 64x headroom also admits realistically
/// sparse disconnected graphs sent to Check), so a few-byte frame
/// cannot materialize a multi-hundred-MB `Graph` before the server
/// even looks at it. Only pathological near-edgeless graphs beyond a
/// few hundred nodes are rejected by this bound.
pub fn decode_graph(buf: &mut &[u8]) -> Result<Graph, WireError> {
    let n = get_uvarint(buf)?;
    if n > MAX_WIRE_NODES {
        return Err(protocol(format!("graph with {n} nodes exceeds the limit")));
    }
    if n > 64 * buf.len() as u64 + 1 {
        return Err(protocol(format!(
            "{n} nodes is not supported by a {}-byte frame",
            buf.len()
        )));
    }
    let n = n as u32;
    let custom_ids = match get_uvarint(buf)? {
        0 => false,
        1 => true,
        x => return Err(protocol(format!("bad id flag {x}"))),
    };
    let ids = if custom_ids {
        if n as usize > buf.len() {
            return Err(protocol("identifier list longer than the frame"));
        }
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ids.push(get_uvarint(buf)?);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(protocol("duplicate network identifiers"));
        }
        Some(ids)
    } else {
        None
    };
    let m = get_uvarint(buf)?;
    let max_m = n as u64 * (n as u64).saturating_sub(1) / 2;
    if m > max_m {
        return Err(protocol(format!("{m} edges on {n} nodes is impossible")));
    }
    if m > buf.len() as u64 / 2 {
        // each edge is two varints, at least two bytes
        return Err(protocol("edge list longer than the frame"));
    }
    let mut b = GraphBuilder::new(n);
    if let Some(ids) = ids {
        b.with_ids(ids);
    }
    let (mut prev_u, mut prev_v) = (0u32, 0u32);
    for i in 0..m {
        let du = get_uvarint(buf)?;
        let u = (prev_u as u64)
            .checked_add(du)
            .filter(|&u| u < n as u64)
            .ok_or_else(|| protocol("edge endpoint out of range"))? as u32;
        let dv = get_uvarint(buf)?;
        let base = if i == 0 || du > 0 {
            u as u64
        } else {
            prev_v as u64
        };
        let v = base
            .checked_add(dv)
            .and_then(|x| x.checked_add(1))
            .filter(|&v| v < n as u64)
            .ok_or_else(|| protocol("edge endpoint out of range"))? as u32;
        b.add_edge(u, v)
            .map_err(|e| protocol(format!("bad edge list: {e}")))?;
        prev_u = u;
        prev_v = v;
    }
    Ok(b.build())
}

/// Reads one uvarint if its terminating byte is present, advancing
/// `buf`. `Ok(None)` means the varint is split across a chunk
/// boundary — feed more bytes. An unterminated run of 10+ bytes can
/// never complete into a valid `u64` varint and is rejected here
/// rather than buffered forever.
fn try_uvarint(buf: &mut &[u8]) -> Result<Option<u64>, WireError> {
    match buf.iter().position(|b| b & 0x80 == 0) {
        Some(end) => {
            let mut head = &buf[..=end];
            let v = get_uvarint(&mut head)?;
            *buf = &buf[end + 1..];
            Ok(Some(v))
        }
        None if buf.len() >= 10 => Err(protocol("unterminated varint in graph stream")),
        None => Ok(None),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamStage {
    NodeCount,
    IdFlag,
    Ids,
    EdgeCount,
    Edges,
    Done,
}

/// Incremental decoder for the canonical graph encoding of
/// [`encode_graph`], fed one chunk at a time.
///
/// The decoder consumes every complete varint of each chunk as it
/// arrives and carries at most one *partial* trailing varint (under
/// ten bytes) to the next `feed` call, so its transient memory is
/// O(chunk) and its resident state is the graph under construction
/// itself — never the raw upload. [`GraphStreamDecoder::carry_len`]
/// exposes the carried remnant so callers can meter the bound
/// (`chunk_carry_peak` in the server stats).
///
/// The grammar and validity checks match [`decode_graph`] exactly —
/// same gap decoding, same endpoint bounds, same duplicate-id
/// rejection — except that the node cap is [`MAX_STREAM_NODES`] and
/// the frame-proportional amplification guards are replaced by the
/// bytes the stream actually delivers. A decoded stream re-encodes
/// byte-identically to the single-frame form.
pub struct GraphStreamDecoder {
    stage: StreamStage,
    carry: Vec<u8>,
    n: u32,
    ids: Vec<u64>,
    custom_ids: bool,
    m: u64,
    edges_done: u64,
    prev_u: u32,
    prev_v: u32,
    pending_du: Option<u64>,
    builder: Option<GraphBuilder>,
}

impl Default for GraphStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphStreamDecoder {
    /// A decoder at the start of the graph grammar.
    pub fn new() -> Self {
        GraphStreamDecoder {
            stage: StreamStage::NodeCount,
            carry: Vec::new(),
            n: 0,
            ids: Vec::new(),
            custom_ids: false,
            m: 0,
            edges_done: 0,
            prev_u: 0,
            prev_v: 0,
            pending_du: None,
            builder: None,
        }
    }

    /// Bytes carried over from the previous chunk (a split varint).
    pub fn carry_len(&self) -> usize {
        self.carry.len()
    }

    /// Consumes one chunk of the encoding.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        let joined;
        let mut buf: &[u8] = if self.carry.is_empty() {
            chunk
        } else {
            let mut v = std::mem::take(&mut self.carry);
            v.extend_from_slice(chunk);
            joined = v;
            &joined
        };
        self.advance(&mut buf)?;
        self.carry = buf.to_vec();
        Ok(())
    }

    fn advance(&mut self, buf: &mut &[u8]) -> Result<(), WireError> {
        loop {
            match self.stage {
                StreamStage::NodeCount => {
                    let Some(n) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    if n > MAX_STREAM_NODES {
                        return Err(protocol(format!(
                            "streamed graph with {n} nodes exceeds the limit"
                        )));
                    }
                    self.n = n as u32;
                    self.stage = StreamStage::IdFlag;
                }
                StreamStage::IdFlag => {
                    let Some(flag) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    self.custom_ids = match flag {
                        0 => false,
                        1 => true,
                        x => return Err(protocol(format!("bad id flag {x}"))),
                    };
                    self.stage = if self.custom_ids {
                        StreamStage::Ids
                    } else {
                        StreamStage::EdgeCount
                    };
                }
                StreamStage::Ids => {
                    while (self.ids.len() as u64) < self.n as u64 {
                        let Some(id) = try_uvarint(buf)? else {
                            return Ok(());
                        };
                        self.ids.push(id);
                    }
                    let mut sorted = self.ids.clone();
                    sorted.sort_unstable();
                    if sorted.windows(2).any(|w| w[0] == w[1]) {
                        return Err(protocol("duplicate network identifiers"));
                    }
                    self.stage = StreamStage::EdgeCount;
                }
                StreamStage::EdgeCount => {
                    let Some(m) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    let max_m = self.n as u64 * (self.n as u64).saturating_sub(1) / 2;
                    if m > max_m {
                        return Err(protocol(format!(
                            "{m} edges on {} nodes is impossible",
                            self.n
                        )));
                    }
                    self.m = m;
                    let mut b = GraphBuilder::new(self.n);
                    if self.custom_ids {
                        b.with_ids(std::mem::take(&mut self.ids));
                    }
                    self.builder = Some(b);
                    self.stage = StreamStage::Edges;
                }
                StreamStage::Edges => {
                    while self.edges_done < self.m {
                        let du = match self.pending_du.take() {
                            Some(du) => du,
                            None => {
                                let Some(du) = try_uvarint(buf)? else {
                                    return Ok(());
                                };
                                du
                            }
                        };
                        let Some(dv) = try_uvarint(buf)? else {
                            // half an edge: remember du for the next chunk
                            self.pending_du = Some(du);
                            return Ok(());
                        };
                        let n = self.n;
                        let u = (self.prev_u as u64)
                            .checked_add(du)
                            .filter(|&u| u < n as u64)
                            .ok_or_else(|| protocol("edge endpoint out of range"))?
                            as u32;
                        let base = if self.edges_done == 0 || du > 0 {
                            u as u64
                        } else {
                            self.prev_v as u64
                        };
                        let v = base
                            .checked_add(dv)
                            .and_then(|x| x.checked_add(1))
                            .filter(|&v| v < n as u64)
                            .ok_or_else(|| protocol("edge endpoint out of range"))?
                            as u32;
                        self.builder
                            .as_mut()
                            .expect("builder exists in Edges stage")
                            .add_edge(u, v)
                            .map_err(|e| protocol(format!("bad edge list: {e}")))?;
                        self.prev_u = u;
                        self.prev_v = v;
                        self.edges_done += 1;
                    }
                    self.stage = StreamStage::Done;
                }
                StreamStage::Done => {
                    if buf.is_empty() {
                        return Ok(());
                    }
                    return Err(protocol(format!(
                        "{} trailing bytes after the edge list",
                        buf.len()
                    )));
                }
            }
        }
    }

    /// Completes the decode; the stream must have delivered the whole
    /// grammar, down to the last edge.
    pub fn finish(mut self) -> Result<Graph, WireError> {
        if self.stage != StreamStage::Done || !self.carry.is_empty() {
            return Err(protocol("truncated graph stream"));
        }
        Ok(self
            .builder
            .take()
            .expect("builder exists once the grammar completed")
            .build())
    }
}

// ---------------------------------------------------------------------------
// Field codecs.

/// How one field of a wire kind is written and read back. Every field
/// in the kind tables below names one: its own type, where that type's
/// encoding is the natural one, or a marker type ([`Extensions`],
/// [`Le32`], [`CrcChunk`], [`CrcRecord`], [`List`]) where it is not.
pub trait Codec {
    /// What an encode reads, and [`RequestRef`] borrows: `str` for a
    /// `String` field, `[T]` for a `Vec<T>`. A decode yields its owned
    /// form.
    type Value: ?Sized + ToOwned;
    /// Appends `v`.
    fn put(out: &mut Vec<u8>, v: &Self::Value);
    /// Reads one value from the front of `buf`, advancing it.
    fn get(buf: &mut &[u8]) -> Result<<Self::Value as ToOwned>::Owned, WireError>;
}

/// A uvarint.
impl Codec for u64 {
    type Value = u64;
    fn put(out: &mut Vec<u8>, v: &u64) {
        put_uvarint(out, *v);
    }
    fn get(buf: &mut &[u8]) -> Result<u64, WireError> {
        Ok(get_uvarint(buf)?)
    }
}

/// A uvarint that must fit 32 bits.
impl Codec for u32 {
    type Value = u32;
    fn put(out: &mut Vec<u8>, v: &u32) {
        put_uvarint(out, *v as u64);
    }
    fn get(buf: &mut &[u8]) -> Result<u32, WireError> {
        let v = get_uvarint(buf)?;
        u32::try_from(v).map_err(|_| protocol(format!("{v} does not fit in 32 bits")))
    }
}

/// A uvarint holding the value's two's-complement bits.
impl Codec for i64 {
    type Value = i64;
    fn put(out: &mut Vec<u8>, v: &i64) {
        put_uvarint(out, *v as u64);
    }
    fn get(buf: &mut &[u8]) -> Result<i64, WireError> {
        Ok(get_uvarint(buf)? as i64)
    }
}

/// A uvarint, 0 or 1.
impl Codec for bool {
    type Value = bool;
    fn put(out: &mut Vec<u8>, v: &bool) {
        put_uvarint(out, *v as u64);
    }
    fn get(buf: &mut &[u8]) -> Result<bool, WireError> {
        match get_uvarint(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(protocol(format!("flag {x} is neither 0 nor 1"))),
        }
    }
}

/// 16 little-endian bytes (a store content key).
impl Codec for u128 {
    type Value = u128;
    fn put(out: &mut Vec<u8>, v: &u128) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(get_array(buf)?))
    }
}

/// A uvarint byte length, then that many bytes of UTF-8.
impl Codec for String {
    type Value = str;
    fn put(out: &mut Vec<u8>, v: &str) {
        dpc_runtime::put_string(out, v);
    }
    fn get(buf: &mut &[u8]) -> Result<String, WireError> {
        // the announced length is bounded by the remaining frame bytes
        // inside get_string, and frames are already capped
        Ok(dpc_runtime::get_string(buf)?)
    }
}

/// The canonical graph encoding ([`encode_graph`], [`decode_graph`]).
impl Codec for Graph {
    type Value = Graph;
    fn put(out: &mut Vec<u8>, v: &Graph) {
        encode_graph(out, v);
    }
    fn get(buf: &mut &[u8]) -> Result<Graph, WireError> {
        decode_graph(buf)
    }
}

/// A certificate assignment, byte for byte.
impl Codec for Assignment {
    type Value = Assignment;
    fn put(out: &mut Vec<u8>, v: &Assignment) {
        v.encode_into(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Assignment, WireError> {
        Ok(Assignment::decode_from(buf)?)
    }
}

/// A measured verification outcome.
impl Codec for Outcome {
    type Value = Outcome;
    fn put(out: &mut Vec<u8>, v: &Outcome) {
        v.encode_into(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Outcome, WireError> {
        Ok(Outcome::decode_from(buf)?)
    }
}

/// A Stats snapshot, every version's tail included.
impl Codec for Box<StatsSnapshot> {
    type Value = Box<StatsSnapshot>;
    fn put(out: &mut Vec<u8>, v: &Box<StatsSnapshot>) {
        v.encode_into(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Box<StatsSnapshot>, WireError> {
        Ok(Box::new(StatsSnapshot::decode_from(buf)?))
    }
}

/// One slow-log entry: ten uvarints.
impl Codec for SlowLogEntry {
    type Value = SlowLogEntry;
    fn put(out: &mut Vec<u8>, v: &SlowLogEntry) {
        v.encode_into(out);
    }
    fn get(buf: &mut &[u8]) -> Result<SlowLogEntry, WireError> {
        Ok(SlowLogEntry::decode_from(buf)?)
    }
}

/// One soundness row: the attack's name, then a uvarint that is 0 for
/// an inapplicable attack and the reject count plus one otherwise.
impl Codec for SoundnessLine {
    type Value = SoundnessLine;
    fn put(out: &mut Vec<u8>, v: &SoundnessLine) {
        String::put(out, &v.attack);
        put_uvarint(out, v.rejects.map_or(0, |r| 1 + r));
    }
    fn get(buf: &mut &[u8]) -> Result<SoundnessLine, WireError> {
        Ok(SoundnessLine {
            attack: String::get(buf)?,
            rejects: get_uvarint(buf)?.checked_sub(1),
        })
    }
}

/// A check verdict: its tag, then its fields.
impl Codec for CheckVerdict {
    type Value = CheckVerdict;
    fn put(out: &mut Vec<u8>, v: &CheckVerdict) {
        v.put_into(out);
    }
    fn get(buf: &mut &[u8]) -> Result<CheckVerdict, WireError> {
        CheckVerdict::get_from(buf)
    }
}

/// Extension tag carrying a scheme id (payload: one varint ≤ `u16::MAX`).
pub const EXT_SCHEME_ID: u64 = 1;

/// Upper bound on one extension payload.
const MAX_EXT_BYTES: usize = 1 << 16;

/// The trailing extension block of a request, carrying its scheme id.
///
/// Extensions are `(tag, length, payload)` triples after the legacy
/// fields; decoders skip unknown tags, so the block is the protocol's
/// growth point. The scheme id is only emitted when it is not the
/// default ([`SchemeId::PLANARITY`]), so planarity requests are
/// byte-identical to the pre-registry (v1) encoding. The decode
/// consumes the rest of the body: an absent block (or absent scheme-id
/// extension) means planarity, and a duplicate or malformed scheme-id
/// extension is a protocol error. The id is *not* checked against any
/// registry here: routing a syntactically valid but unregistered id is
/// the server's job (it answers with a clean `Error` response), not the
/// codec's.
pub struct Extensions;

impl Codec for Extensions {
    type Value = SchemeId;
    fn put(out: &mut Vec<u8>, scheme: &SchemeId) {
        if *scheme != SchemeId::PLANARITY {
            put_uvarint(out, EXT_SCHEME_ID);
            let mut payload = Vec::with_capacity(3);
            put_uvarint(&mut payload, scheme.0 as u64);
            put_uvarint(out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<SchemeId, WireError> {
        let mut scheme: Option<SchemeId> = None;
        while !buf.is_empty() {
            let tag = get_uvarint(buf)?;
            let len = get_uvarint(buf)?;
            if len > MAX_EXT_BYTES as u64 {
                return Err(protocol(format!("extension {tag} of {len} bytes")));
            }
            let mut payload = get_bytes(buf, len as usize)?;
            if tag == EXT_SCHEME_ID {
                if scheme.is_some() {
                    return Err(protocol("duplicate scheme-id extension"));
                }
                let id = get_uvarint(&mut payload)?;
                if id > u16::MAX as u64 || !payload.is_empty() {
                    return Err(protocol(format!("malformed scheme id {id}")));
                }
                scheme = Some(SchemeId(id as u16));
            }
            // any other tag: skip via its length (forward compatibility)
        }
        Ok(scheme.unwrap_or(SchemeId::PLANARITY))
    }
}

/// A little-endian u32: the CRC-32 that closes a chunked upload.
pub struct Le32;

impl Codec for Le32 {
    type Value = u32;
    fn put(out: &mut Vec<u8>, v: &u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(get_array(buf)?))
    }
}

/// One slice of a chunked upload: `uvarint(len) ‖ payload ‖
/// crc32_le(payload)`, at most [`MAX_CHUNK_BYTES`] long, its CRC checked
/// on decode.
pub struct CrcChunk;

impl Codec for CrcChunk {
    type Value = [u8];
    fn put(out: &mut Vec<u8>, v: &[u8]) {
        debug_assert!(v.len() <= MAX_CHUNK_BYTES);
        put_crc_framed(out, v);
    }
    fn get(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
        Ok(get_crc_framed(buf, MAX_CHUNK_BYTES, "graph chunk")?.to_vec())
    }
}

/// One store record: [`StoreRecord::encode_body`]'s bytes, framed as
/// `uvarint(len) ‖ body ‖ crc32_le(body)`. The CRC guards the
/// certificate bytes in transit exactly like the segment files guard
/// them at rest.
pub struct CrcRecord;

impl Codec for CrcRecord {
    type Value = StoreRecord;
    fn put(out: &mut Vec<u8>, v: &StoreRecord) {
        put_crc_framed(out, &v.encode_body());
    }
    fn get(buf: &mut &[u8]) -> Result<StoreRecord, WireError> {
        let body = get_crc_framed(buf, MAX_FRAME_BYTES, "store record")?;
        StoreRecord::decode_body(body).map_err(|e| protocol(format!("bad store record: {e}")))
    }
}

/// A uvarint count of at most `MAX`, then that many `C` values. The
/// decode grows the list one value at a time, so a hostile count
/// allocates only in proportion to the bytes that actually follow it.
pub struct List<C, const MAX: usize = { usize::MAX }>(PhantomData<C>);

impl<C: Codec, const MAX: usize> Codec for List<C, MAX>
where
    <C::Value as ToOwned>::Owned: Clone,
{
    type Value = [<C::Value as ToOwned>::Owned];
    fn put(out: &mut Vec<u8>, v: &Self::Value) {
        put_uvarint(out, v.len() as u64);
        for x in v {
            C::put(out, x.borrow());
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Vec<<C::Value as ToOwned>::Owned>, WireError> {
        let count = get_uvarint(buf)?;
        if count > MAX as u64 {
            return Err(protocol(format!(
                "{count} list entries exceed the limit of {MAX}"
            )));
        }
        (0..count).map(|_| C::get(buf)).collect()
    }
}

fn get_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    Ok(get_bytes(buf, N)?
        .try_into()
        .expect("get_bytes returned N bytes"))
}

fn put_crc_framed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
    out.extend_from_slice(&crc32(bytes).to_le_bytes());
}

/// Reads `uvarint(len) ‖ bytes ‖ crc32_le(bytes)` and checks the CRC.
fn get_crc_framed<'a>(buf: &mut &'a [u8], max: usize, what: &str) -> Result<&'a [u8], WireError> {
    let len = get_uvarint(buf)?;
    if len > max as u64 {
        return Err(protocol(format!("{what} of {len} bytes exceeds the limit")));
    }
    if len > buf.len() as u64 {
        return Err(protocol(format!("{what} longer than the frame")));
    }
    let bytes = get_bytes(buf, len as usize)?;
    if crc32(bytes) != u32::from_le_bytes(get_array(buf)?) {
        return Err(protocol(format!("{what} failed its CRC check")));
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// The kind tables.

/// Generates one message enum of the protocol from its table, so each
/// kind is declared once.
///
/// The header names the enum, its kind enum (whose discriminants are
/// the wire tags), optionally a borrowing twin (`ref RequestRef`), and
/// the noun of an unknown tag's error. Each row is `tag Variant "name"`
/// and the variant's fields in wire order: `{ field: Type, .. }`, a
/// tuple variant's one `(field: Type)`, or nothing for a unit variant.
/// A field travels by its type's own [`Codec`] unless `as Codec` names
/// another, and `=> &Borrowed` makes the borrowing twin hold it by
/// reference instead of by copy. A row may also name hand-written code:
/// - `by module`: `module::put` and `module::get` write and read the
///   whole body, for a layout no field codec expresses;
/// - `check f(a, b)`: after a decode, `f(&a, &b)` may still reject it.
///
/// It generates the enum, its kind enum (`ALL`, `from_tag`, `name`,
/// `fields`), `kind`, `put_into`, `get_from`, `encode` and `decode`.
/// With a borrowing twin it also generates the twin and `as_ref`, and
/// the owned enum encodes through the twin's `put_into`, so there is one
/// encoder per table.
macro_rules! wire_kinds {
    (
        $(#[$attr:meta])*
        enum $Enum:ident, kind $Kind:ident, ref $Ref:ident, $what:literal;
        $($rows:tt)*
    ) => {
        wire_kinds!(@common [$Ref<'_>] $(#[$attr])* $Enum $Kind $what; $($rows)*);
        wire_kinds!(@borrowed $Enum $Kind $Ref; $($rows)*);
    };
    (
        $(#[$attr:meta])*
        enum $Enum:ident, kind $Kind:ident, $what:literal;
        $($rows:tt)*
    ) => {
        wire_kinds!(@common [$Enum] $(#[$attr])* $Enum $Kind $what; $($rows)*);
    };
    // `$Put` is the type that holds the table's one encoder
    (@common [$Put:ty] $(#[$attr:meta])* $Enum:ident $Kind:ident $what:literal;
        $(
            $(#[$vdoc:meta])*
            $tag:literal $V:ident $name:literal
            $(by $by:ident)?
            $(check $check:ident($($carg:ident),*))?
            $(($tf:ident: $tty:ty $(=> &$tref:ty)? $(as $tc:ty)?))?
            $({$(
                $(#[$fdoc:meta])*
                $f:ident: $fty:ty $(=> &$fref:ty)? $(as $fc:ty)?
            ),* $(,)?})?,
        )*
    ) => {
        $(#[$attr])*
        pub enum $Enum {
            $(
                $(#[$vdoc])*
                $V $(($tty))? $({$($(#[$fdoc])* $f: $fty),*})?,
            )*
        }

        #[doc = concat!("The kinds of [`", stringify!($Enum), "`]; each discriminant is the kind's wire tag.")]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $Kind {
            $(
                #[doc = concat!("[`", stringify!($Enum), "::", stringify!($V), "`].")]
                $V = $tag,
            )*
        }

        impl $Kind {
            /// Every kind, in table order.
            pub const ALL: &'static [$Kind] = &[$($Kind::$V),*];

            /// The kind a wire tag names, if any.
            pub fn from_tag(tag: u64) -> Option<$Kind> {
                match tag {
                    $($tag => Some($Kind::$V),)*
                    _ => None,
                }
            }

            /// The kind's short name, as logs print it.
            pub fn name(self) -> &'static str {
                match self {
                    $($Kind::$V => $name,)*
                }
            }

            /// The kind's fields in wire order, each with the codec that
            /// carries it, as written in its table row.
            pub fn fields(self) -> &'static [(&'static str, &'static str)] {
                match self {
                    $($Kind::$V => &[
                        $((stringify!($tf), wire_kinds!(@codec_name $tty $(as $tc)?)))?
                        $($((stringify!($f), wire_kinds!(@codec_name $fty $(as $fc)?))),*)?
                    ],)*
                }
            }
        }

        impl $Enum {
            /// The message's kind.
            pub fn kind(&self) -> $Kind {
                match self {
                    $(Self::$V { .. } => $Kind::$V,)*
                }
            }

            /// Reads one message (tag and body) from the front of `buf`,
            /// advancing it.
            pub fn get_from(buf: &mut &[u8]) -> Result<Self, WireError> {
                let tag = get_uvarint(buf)?;
                let Some(kind) = $Kind::from_tag(tag) else {
                    return Err(protocol(format!(concat!("unknown ", $what, " {}"), tag)));
                };
                Ok(match kind {
                    $($Kind::$V => {
                        wire_kinds!(@get buf $(by $by)?;
                            $($tf: $tty $(as $tc)?)? $($($f: $fty $(as $fc)?),*)?);
                        $($check($(&$carg),*)?;)?
                        Self::$V { $(0: $tf)? $($($f),*)? }
                    })*
                })
            }

            /// Encodes the message as a frame body.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.put_into(&mut out);
                out
            }

            /// Decodes a frame body; the whole body must be consumed.
            pub fn decode(body: &[u8]) -> Result<Self, WireError> {
                let mut buf = body;
                let msg = Self::get_from(&mut buf)?;
                if !buf.is_empty() {
                    return Err(protocol(format!("{} trailing bytes", buf.len())));
                }
                Ok(msg)
            }
        }

        impl $Put {
            /// Appends the kind tag and body.
            pub fn put_into(&self, out: &mut Vec<u8>) {
                put_uvarint(out, self.kind() as u64);
                match self {
                    $(Self::$V { $(0: $tf)? $($($f),*)? } => {
                        wire_kinds!(@put out $(by $by)?;
                            $($tf: $tty $(as $tc)?)? $($($f: $fty $(as $fc)?),*)?);
                    })*
                }
            }
        }
    };
    (@borrowed $Enum:ident $Kind:ident $Ref:ident;
        $(
            $(#[$vdoc:meta])*
            $tag:literal $V:ident $name:literal
            $(by $by:ident)?
            $(check $check:ident($($carg:ident),*))?
            $(($tf:ident: $tty:ty $(=> &$tref:ty)? $(as $tc:ty)?))?
            $({$(
                $(#[$fdoc:meta])*
                $f:ident: $fty:ty $(=> &$fref:ty)? $(as $fc:ty)?
            ),* $(,)?})?,
        )*
    ) => {
        #[doc = concat!("A [`", stringify!($Enum), "`] that borrows its graphs, strings and \
            payloads, so a frame body is encoded without cloning them. It holds the one \
            encoder of its table: [`", stringify!($Enum), "::encode`] goes through \
            [`", stringify!($Enum), "::as_ref`].")]
        #[derive(Debug, Clone, Copy)]
        pub enum $Ref<'a> {
            $(
                $(#[$vdoc])*
                $V $((wire_kinds!(@ref_ty 'a $tty $(=> &$tref)?)))?
                    $({$($(#[$fdoc])* $f: wire_kinds!(@ref_ty 'a $fty $(=> &$fref)?)),*})?,
            )*
        }

        impl $Enum {
            /// Borrows the message, for an encode.
            pub fn as_ref(&self) -> $Ref<'_> {
                match self {
                    $(Self::$V { $(0: $tf)? $($($f),*)? } => $Ref::$V {
                        $(0: wire_kinds!(@ref_val $tf $(=> &$tref)?))?
                        $($($f: wire_kinds!(@ref_val $f $(=> &$fref)?)),*)?
                    },)*
                }
            }

            /// Appends the kind tag and body.
            pub fn put_into(&self, out: &mut Vec<u8>) {
                self.as_ref().put_into(out);
            }
        }

        impl $Ref<'_> {
            /// The message's kind.
            pub fn kind(&self) -> $Kind {
                match self {
                    $(Self::$V { .. } => $Kind::$V,)*
                }
            }

            /// Encodes the message as a frame body.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.put_into(&mut out);
                out
            }
        }
    };
    (@get $buf:ident by $by:ident; $($f:ident: $t:ty $(as $c:ty)?),*) => {
        let ($($f),*) = $by::get($buf)?;
    };
    (@get $buf:ident; $($f:ident: $t:ty $(as $c:ty)?),*) => {
        $(let $f = <wire_kinds!(@codec $t $(as $c)?) as Codec>::get($buf)?;)*
    };
    (@put $out:ident by $by:ident; $($f:ident: $t:ty $(as $c:ty)?),*) => {
        $by::put($out, $(Borrow::borrow($f)),*)
    };
    (@put $out:ident; $($f:ident: $t:ty $(as $c:ty)?),*) => {
        $(<wire_kinds!(@codec $t $(as $c)?) as Codec>::put($out, Borrow::borrow($f));)*
    };
    (@codec $t:ty as $c:ty) => { $c };
    (@codec $t:ty) => { $t };
    (@codec_name $t:ty as $c:ty) => { stringify!($c) };
    (@codec_name $t:ty) => { stringify!($t) };
    (@ref_ty $a:lifetime $t:ty => &$r:ty) => { &$a $r };
    (@ref_ty $a:lifetime $t:ty) => { $t };
    (@ref_val $x:ident => &$r:ty) => { Borrow::<$r>::borrow($x) };
    (@ref_val $x:ident) => { *$x };
}

// ---------------------------------------------------------------------------
// Requests.

/// Per-request certify flags.
pub const CERTIFY_FLAG_BYPASS_CACHE: u64 = 1;
/// Certify flag: answer only if the certificate is already cached;
/// on a miss the server replies `Error(`[`NOT_CACHED`]`)` and never
/// runs the prover. This is the replica probe of a replicated read —
/// a `ClusterClient` walks the rendezvous ranking with it so a warm
/// rank-2 node can answer without the cold rank-1 node proving.
pub const CERTIFY_FLAG_CACHED_ONLY: u64 = 2;

/// Certify flag: answer with a [`Response::CertifiedSummary`]
/// (outcome only, no assignment) instead of a full `Certified`. This
/// is how fleet-distributed proving stays frame-bounded: a giant
/// graph's assignment would not fit one response frame, but its
/// verdict bitmap and fold totals always do. Summary mode also
/// unlocks component-split proving of disconnected graphs (the plain
/// path declines them). Mutually exclusive with
/// [`CERTIFY_FLAG_CACHED_ONLY`].
pub const CERTIFY_FLAG_SUMMARY: u64 = 4;

/// The exact `Error` payload a cached-only certify miss carries.
/// Clients match it verbatim to tell "cold replica, keep walking"
/// from a real failure.
pub const NOT_CACHED: &str = "not cached";

wire_kinds! {
    /// A client request.
    #[derive(Debug, Clone)]
    enum Request, kind RequestKind, ref RequestRef, "request kind";

    /// Run the scheme's prover (or serve it from cache) and return the
    /// certificate assignment plus the measured outcome.
    1 Certify "certify" by certify_body {
        /// Skip the cache entirely (used to measure cold latency).
        bypass_cache: bool,
        /// Only answer from cache; a miss is `Error(`[`NOT_CACHED`]`)`
        /// and never a prove (replica probes). Mutually exclusive
        /// with `bypass_cache`.
        cached_only: bool,
        /// Answer with the outcome summary only (no assignment), and
        /// prove disconnected graphs component by component instead
        /// of declining them (see [`CERTIFY_FLAG_SUMMARY`]).
        summary: bool,
        /// The network to certify.
        graph: Graph => &Graph,
        /// The registered scheme to run (default: planarity).
        scheme: SchemeId as Extensions,
    },
    /// Centralized membership check. Under planarity this returns an
    /// embedding/witness summary; under any other scheme a generic
    /// in-class/out-of-class verdict.
    2 Check "check" {
        /// The graph to test.
        graph: Graph => &Graph,
        /// The registered scheme whose class is tested.
        scheme: SchemeId as Extensions,
    },
    /// Generate a graph server-side from a named family.
    3 Gen "gen" {
        /// Family name (see [`crate::gen::FAMILIES`]).
        family: String => &str,
        /// Approximate node count.
        n: u32,
        /// Generator seed.
        seed: u64,
        /// Routes the `"default"` family to the scheme's canonical
        /// yes-instance generator ([`crate::gen::default_family`]);
        /// concrete family names ignore it. Never validated against
        /// the server's registry, so generation works against
        /// registry-restricted servers.
        scheme: SchemeId as Extensions,
    },
    /// Run the adversarial attack battery against the graph.
    4 SoundnessProbe "soundness" {
        /// Attack seed.
        seed: u64,
        /// The (typically no-instance) network to attack.
        graph: Graph => &Graph,
        /// The registered scheme to attack (must support probes).
        scheme: SchemeId as Extensions,
    },
    /// Fetch server counters and latency quantiles.
    5 Stats "stats",
    /// Fetch the retained slow-request log (stage breakdowns of
    /// requests that crossed the server's `--slow-ms` threshold).
    6 SlowLog "slowlog",
    /// List the key digests of the server's certificate store
    /// (anti-entropy phase 1: "what do you have?").
    7 StoreList "storelist",
    /// Stream store records into the server's store, deduplicated by
    /// content key (anti-entropy phase 2, replica writes, and
    /// read-repair backfills).
    8 StorePush "storepush" {
        /// The records to absorb, each CRC-checked on the wire.
        records: Vec<StoreRecord> => &[StoreRecord] as List<CrcRecord>,
    },
    /// Open a chunked graph upload session on this connection. The
    /// graph streamed through the session is certified in summary
    /// mode once `GraphChunkEnd` closes it. Answered with a
    /// [`Response::ChunkAck`].
    9 GraphChunkBegin "chunkbegin" {
        /// Client-chosen session id; `GraphChunk`/`GraphChunkEnd`
        /// frames on the same connection must echo it.
        session: u64,
        /// Skip the cache for the final certify.
        bypass_cache: bool,
        /// The registered scheme to run (default: planarity).
        scheme: SchemeId as Extensions,
    },
    /// One CRC-checked slice of the streamed graph encoding.
    /// Answered with a [`Response::ChunkAck`].
    10 GraphChunk "chunk" {
        /// Session id from `GraphChunkBegin`.
        session: u64,
        /// Zero-based chunk sequence number; chunks must arrive in
        /// order, without gaps or duplicates.
        seq: u64,
        /// The encoding slice (at most [`MAX_CHUNK_BYTES`]).
        payload: Vec<u8> => &[u8] as CrcChunk,
    },
    /// Close a chunk session: the server checks the totals and the
    /// whole-payload CRC, finishes the incremental decode, and
    /// certifies the graph in summary mode. Answered with the
    /// certify's [`Response::CertifiedSummary`] / `Declined` /
    /// `Error`.
    11 GraphChunkEnd "chunkend" {
        /// Session id from `GraphChunkBegin`.
        session: u64,
        /// Number of `GraphChunk` frames the client sent.
        total_chunks: u64,
        /// Total payload bytes across all chunks.
        total_bytes: u64,
        /// CRC-32 of the whole reassembled payload.
        crc: u32 as Le32,
    },
    /// Open an interactive (dMAM) session on this connection: the
    /// client plays Merlin and commits, the server plays Arthur.
    /// Answered with a [`Response::Challenge`] whose coin is a pure
    /// function of `seed`, so the whole transcript is reproducible
    /// from the seed logged with the session's trace.
    12 InteractiveBegin "ibegin" check commit_fits_graph(graph, commit) {
        /// Client-chosen session id; the `InteractiveRespond` frame
        /// on the same connection must echo it.
        session: u64,
        /// Session seed: Arthur's public coin is derived from it
        /// (`challenge_from_seed`), never drawn from server state.
        seed: u64,
        /// The network under interactive certification.
        graph: Graph => &Graph,
        /// Merlin's commitment assignment (round 1 of the dMAM
        /// exchange).
        commit: Assignment => &Assignment,
        /// The registered interactive protocol to run (default:
        /// planarity).
        scheme: SchemeId as Extensions,
    },
    /// Merlin's response to the challenge (round 3). Answered with
    /// the closing [`Response::Verdict`].
    13 InteractiveRespond "irespond" {
        /// Session id from `InteractiveBegin`.
        session: u64,
        /// The response assignment, opened against the challenge.
        response: Assignment => &Assignment,
    },
    /// Run one randomized store-audit sweep now: sample stored
    /// certificates, re-verify a random vertex subset of each, and
    /// quarantine records whose bytes are CRC-valid but fail
    /// verification. Answered with a [`Response::AuditReport`].
    14 Audit "audit" {
        /// Records to sample in this sweep (0 means the server's
        /// default).
        samples: u64,
        /// Sampling seed, so a sweep is reproducible.
        seed: u64,
    },
}

/// Certify's body, by hand: its three flags share one uvarint, and the
/// decode rejects unknown and contradictory ones.
mod certify_body {
    use super::*;

    pub(super) fn put(
        out: &mut Vec<u8>,
        bypass_cache: &bool,
        cached_only: &bool,
        summary: &bool,
        graph: &Graph,
        scheme: &SchemeId,
    ) {
        let flags = [
            (*bypass_cache, CERTIFY_FLAG_BYPASS_CACHE),
            (*cached_only, CERTIFY_FLAG_CACHED_ONLY),
            (*summary, CERTIFY_FLAG_SUMMARY),
        ];
        put_uvarint(out, flags.iter().filter(|f| f.0).map(|f| f.1).sum());
        encode_graph(out, graph);
        Extensions::put(out, scheme);
    }

    pub(super) fn get(buf: &mut &[u8]) -> Result<(bool, bool, bool, Graph, SchemeId), WireError> {
        let flags = get_uvarint(buf)?;
        let known = CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_CACHED_ONLY | CERTIFY_FLAG_SUMMARY;
        if flags & !known != 0 {
            return Err(protocol(format!("unknown certify flags {flags:#x}")));
        }
        if flags & CERTIFY_FLAG_CACHED_ONLY != 0
            && flags & (CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_SUMMARY) != 0
        {
            // "only the cache" contradicts both "skip the cache" and
            // the prove-components summary mode
            return Err(protocol("contradictory certify flags"));
        }
        Ok((
            flags & CERTIFY_FLAG_BYPASS_CACHE != 0,
            flags & CERTIFY_FLAG_CACHED_ONLY != 0,
            flags & CERTIFY_FLAG_SUMMARY != 0,
            decode_graph(buf)?,
            Extensions::get(buf)?,
        ))
    }
}

/// InteractiveBegin's check: one commitment per node.
fn commit_fits_graph(graph: &Graph, commit: &Assignment) -> Result<(), WireError> {
    if commit.certs.len() != graph.node_count() {
        return Err(protocol(format!(
            "commitment for {} nodes on a {}-node graph",
            commit.certs.len(),
            graph.node_count()
        )));
    }
    Ok(())
}

impl Request {
    /// The scheme id the request addresses (`None` for the kinds that
    /// carry none).
    pub fn scheme(&self) -> Option<SchemeId> {
        match self {
            Request::Certify { scheme, .. }
            | Request::Check { scheme, .. }
            | Request::Gen { scheme, .. }
            | Request::SoundnessProbe { scheme, .. }
            | Request::GraphChunkBegin { scheme, .. }
            | Request::InteractiveBegin { scheme, .. } => Some(*scheme),
            Request::Stats
            | Request::SlowLog
            | Request::StoreList
            | Request::StorePush { .. }
            | Request::GraphChunk { .. }
            | Request::GraphChunkEnd { .. }
            | Request::InteractiveRespond { .. }
            | Request::Audit { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses.

wire_kinds! {
    /// Verdict of a Check request.
    ///
    /// Planarity checks (the scheme-0 default) return the rich
    /// embedding/witness verdicts; every other registered scheme answers
    /// with the generic membership pair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum CheckVerdict, kind CheckVerdictKind, "check verdict";

    /// Planar, with the certified embedding's face count and genus.
    1 Planar "planar" {
        /// Number of faces of the embedding.
        faces: u64,
        /// Euler genus (0 for a certified planar embedding).
        genus: i64,
    },
    /// Non-planar, with the Kuratowski witness summary.
    0 NonPlanar "nonplanar" {
        /// True for a K5 subdivision, false for K3,3.
        k5: bool,
        /// Branch nodes of the subdivision.
        branch_nodes: Vec<u32> as List<u32, 6>,
        /// Number of edges of the subdivision.
        witness_edges: u64,
    },
    /// In the class of the (non-planarity) scheme named here.
    2 Member "member" {
        /// Scheme name, echoed by the server.
        scheme: String,
    },
    /// Outside the class of the scheme named here.
    3 NonMember "nonmember" {
        /// Scheme name, echoed by the server.
        scheme: String,
        /// The prover's refusal reason.
        reason: String,
    },
}

/// One attack row of a soundness probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessLine {
    /// Attack name.
    pub attack: String,
    /// Rejecting nodes, or `None` if the attack was inapplicable.
    pub rejects: Option<u64>,
}

/// Upper bound on slow-log rows accepted on decode (well above
/// [`crate::metrics::SLOW_LOG_CAP`], leaving room for future
/// fleet-side aggregation).
const MAX_SLOWLOG_ROWS: usize = 4096;

wire_kinds! {
    /// A server response.
    #[derive(Debug, Clone)]
    enum Response, kind ResponseKind, "response kind";

    /// The request failed (malformed input, unknown family, ...).
    0 Error "error" (message: String),
    /// Certificates for a yes-instance.
    1 Certified "certified" {
        /// True when served from the certificate cache.
        cached: bool,
        /// Measured verification outcome.
        outcome: Outcome,
        /// The certificate assignment itself.
        assignment: Assignment,
    },
    /// The honest prover declined: the instance is outside the class.
    2 Declined "declined" {
        /// True when the (negative) result was served from cache.
        cached: bool,
        /// The prover's reason.
        reason: String,
    },
    /// Planarity verdict.
    3 Checked "checked" (verdict: CheckVerdict),
    /// A generated graph.
    4 Generated "generated" (graph: Graph),
    /// Soundness probe rows.
    5 Soundness "soundness" (rows: Vec<SoundnessLine> as List<SoundnessLine, 1024>),
    /// Server counters (boxed: the snapshot dwarfs every other variant).
    6 Stats "stats" (snapshot: Box<StatsSnapshot>),
    /// Retained slow-request entries, newest first.
    7 SlowLog "slowlog" (entries: Vec<SlowLogEntry> as List<SlowLogEntry, MAX_SLOWLOG_ROWS>),
    /// The content-key digests of the server's store (StoreList
    /// answer): 128-bit keys, one per retained record.
    8 StoreKeys "storekeys" (keys: Vec<u128> as List<u128>),
    /// Outcome of a StorePush.
    9 StorePushed "storepushed" {
        /// Records newly absorbed into the store.
        merged: u64,
        /// Records already present (deduplicated by content key).
        duplicates: u64,
    },
    /// A summary-mode certify answer: the measured outcome without
    /// the assignment, so the frame stays small for giant graphs.
    10 CertifiedSummary "summary" {
        /// True when served from the certificate cache.
        cached: bool,
        /// Measured (possibly component-merged) verification outcome.
        outcome: Outcome,
    },
    /// Acknowledges a `GraphChunkBegin` or `GraphChunk` frame.
    11 ChunkAck "chunkack" {
        /// The session the ack belongs to.
        session: u64,
        /// Chunks received in the session so far (0 for the Begin ack).
        received: u64,
    },
    /// Arthur's public coin, answering an `InteractiveBegin`. The
    /// coin is `challenge_from_seed(seed)` — a pure function of the
    /// session seed, never server randomness — so the transcript is
    /// reproducible and byte-identical across front ends.
    12 Challenge "challenge" {
        /// The session the challenge belongs to.
        session: u64,
        /// The public coin every node's verifier sees.
        challenge: u64,
    },
    /// The closing verdict of an interactive session, answering an
    /// `InteractiveRespond`.
    13 Verdict "verdict" {
        /// The session the verdict closes.
        session: u64,
        /// The challenge the response was verified against (echoed).
        challenge: u64,
        /// True when every node accepted.
        accept: bool,
        /// Number of rejecting nodes.
        reject_count: u64,
        /// Nodes verified.
        nodes: u64,
        /// Largest per-node commitment, in bits.
        max_commit_bits: u64,
        /// Largest per-node response, in bits.
        max_response_bits: u64,
        /// The scheme's per-session soundness bound, in parts per
        /// million: a forged proof on this graph survives one
        /// challenge with probability at most `soundness_ppm / 1e6`.
        soundness_ppm: u64,
    },
    /// Outcome of one randomized store-audit sweep (Audit answer).
    14 AuditReport "auditreport" {
        /// Records sampled by the sweep.
        sampled: u64,
        /// Records that failed re-verification or the fingerprint
        /// cross-check.
        failed: u64,
        /// Records actually removed from the cache and store.
        quarantined: u64,
    },
}

// The certify-hit path: a cache entry holds the encoded tail of its
// response, so a hit answers with a tag, a `cached` flag and a memcpy,
// never a re-encode of the certificates.

/// Encodes the cacheable suffix of a Certified response (outcome +
/// assignment). The cache stores exactly these bytes, so a hit is a
/// memcpy of a shared buffer, never a re-encode of the certificates.
pub fn encode_certified_suffix(outcome: &Outcome, assignment: &Assignment) -> Vec<u8> {
    let mut out = Vec::with_capacity(assignment.byte_size() + 64);
    outcome.encode_into(&mut out);
    assignment.encode_into(&mut out);
    out
}

/// Builds a full Certified frame body from a pre-encoded suffix.
pub fn certified_body_from_suffix(cached: bool, suffix: &[u8]) -> Vec<u8> {
    body_from_suffix(ResponseKind::Certified, cached, suffix)
}

/// Encodes the cacheable suffix of a Declined response (the reason
/// string) — the negative-cache counterpart of
/// [`encode_certified_suffix`].
pub fn encode_declined_suffix(reason: &str) -> Vec<u8> {
    let mut out = Vec::new();
    String::put(&mut out, reason);
    out
}

/// Builds a full Declined frame body from a pre-encoded suffix.
pub fn declined_body_from_suffix(cached: bool, suffix: &[u8]) -> Vec<u8> {
    body_from_suffix(ResponseKind::Declined, cached, suffix)
}

/// Builds a CertifiedSummary frame body from a cached Certified
/// suffix (outcome ‖ assignment): the outcome prefix is re-framed,
/// the assignment bytes are dropped. This is how a summary-mode
/// cache hit answers without re-encoding certificates it will not
/// send.
pub fn summary_body_from_suffix(cached: bool, suffix: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut rest = suffix;
    let outcome = Outcome::decode_from(&mut rest)?;
    Ok(Response::CertifiedSummary { cached, outcome }.encode())
}

/// `kind ‖ cached ‖ suffix`: the layout all three certify answers share.
fn body_from_suffix(kind: ResponseKind, cached: bool, suffix: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(suffix.len() + 2);
    put_uvarint(&mut out, kind as u64);
    put_uvarint(&mut out, cached as u64);
    out.extend_from_slice(suffix);
    out
}

/// Structural graph equality (nodes, canonical edges, identifiers) —
/// what the wire codec preserves.
pub fn graphs_equal(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.ids() == b.ids()
        && canon::canonical_edges(a) == canon::canonical_edges(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_graph::generators;

    /// A Certify body under `scheme` with only the flags named set.
    fn certify(graph: &Graph, bypass_cache: bool, summary: bool, scheme: SchemeId) -> Vec<u8> {
        RequestRef::Certify {
            bypass_cache,
            cached_only: false,
            summary,
            graph,
            scheme,
        }
        .encode()
    }

    fn check(graph: &Graph, scheme: SchemeId) -> Vec<u8> {
        RequestRef::Check { graph, scheme }.encode()
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn graph_roundtrip_with_and_without_ids() {
        for g in [
            generators::grid(5, 7),
            generators::shuffle_ids(&generators::random_planar(40, 0.5, 3), 9),
            generators::path(1),
            generators::complete(5),
        ] {
            let mut out = Vec::new();
            encode_graph(&mut out, &g);
            let mut cursor = out.as_slice();
            let h = decode_graph(&mut cursor).unwrap();
            assert!(cursor.is_empty());
            assert!(graphs_equal(&g, &h));
        }
    }

    #[test]
    fn default_ids_are_not_transmitted() {
        let g = generators::grid(10, 10);
        let relabelled = generators::shuffle_ids(&g, 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_graph(&mut a, &g);
        encode_graph(&mut b, &relabelled);
        assert!(a.len() < b.len(), "custom ids cost wire bytes");
    }

    #[test]
    fn malformed_graphs_rejected() {
        // edge endpoint out of range: n = 2, 1 edge with huge gap
        let mut out = Vec::new();
        put_uvarint(&mut out, 2); // n
        put_uvarint(&mut out, 0); // default ids
        put_uvarint(&mut out, 1); // m
        put_uvarint(&mut out, 0); // du
        put_uvarint(&mut out, 5); // dv -> v = 6 out of range
        assert!(decode_graph(&mut out.as_slice()).is_err());

        // duplicate ids
        let mut out = Vec::new();
        put_uvarint(&mut out, 2);
        put_uvarint(&mut out, 1); // custom ids
        put_uvarint(&mut out, 9);
        put_uvarint(&mut out, 9);
        put_uvarint(&mut out, 0);
        assert!(decode_graph(&mut out.as_slice()).is_err());

        // impossible edge count
        let mut out = Vec::new();
        put_uvarint(&mut out, 3);
        put_uvarint(&mut out, 0);
        put_uvarint(&mut out, 100);
        assert!(decode_graph(&mut out.as_slice()).is_err());
    }

    #[test]
    fn request_tags_are_stable() {
        let req = Request::Certify {
            graph: generators::cycle(4),
            bypass_cache: true,
            cached_only: false,
            summary: false,
            scheme: SchemeId::PLANARITY,
        };
        let body = req.encode();
        assert_eq!(body[0], RequestKind::Certify as u8);
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: true, ..
            } => {}
            other => panic!("bad decode: {other:?}"),
        }
        assert!(Request::decode(&[42]).is_err(), "unknown kind");
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn out_of_range_u32_fields_are_rejected() {
        // a Gen for 2^32 + 9 nodes must not decode as a 9-node one
        let mut gen = Vec::new();
        put_uvarint(&mut gen, RequestKind::Gen as u64);
        String::put(&mut gen, "grid");
        put_uvarint(&mut gen, (1 << 32) + 9);
        put_uvarint(&mut gen, 1);
        assert!(Request::decode(&gen).is_err());
        // nor a Checked branch node past u32::MAX as a small one
        let mut checked = Vec::new();
        put_uvarint(&mut checked, ResponseKind::Checked as u64);
        put_uvarint(&mut checked, CheckVerdictKind::NonPlanar as u64);
        put_uvarint(&mut checked, 1); // k5
        put_uvarint(&mut checked, 1); // one branch node
        put_uvarint(&mut checked, u32::MAX as u64 + 1);
        put_uvarint(&mut checked, 10); // witness edges
        assert!(Response::decode(&checked).is_err());
    }

    #[test]
    fn scheme_id_rides_the_extension_block() {
        let g = generators::cycle(6);
        // default scheme: byte-identical to the v1 encoding (no block)
        let v1 = certify(&g, false, false, SchemeId::PLANARITY);
        let req = Request::decode(&v1).unwrap();
        assert_eq!(req.scheme(), Some(SchemeId::PLANARITY));
        // explicit scheme: a trailing block old planarity bytes lack
        let v2 = certify(&g, false, false, SchemeId::BIPARTITE);
        assert_eq!(&v2[..v1.len()], &v1[..], "extension is strictly trailing");
        assert_eq!(
            Request::decode(&v2).unwrap().scheme(),
            Some(SchemeId::BIPARTITE)
        );
        // every graph-carrying kind round-trips its scheme
        for body in [
            check(&g, SchemeId::TREE),
            RequestRef::Gen {
                family: "grid",
                n: 9,
                seed: 1,
                scheme: SchemeId::SPANNING_TREE,
            }
            .encode(),
            RequestRef::SoundnessProbe {
                seed: 7,
                graph: &g,
                scheme: SchemeId::MOD_COUNTER,
            }
            .encode(),
        ] {
            let req = Request::decode(&body).unwrap();
            assert_ne!(req.scheme(), Some(SchemeId::PLANARITY));
        }
    }

    #[test]
    fn unknown_extensions_are_skipped_malformed_rejected() {
        let g = generators::path(3);
        let mut body = check(&g, SchemeId::PLANARITY);
        // unknown extension tag 99 with a 2-byte payload: skipped
        put_uvarint(&mut body, 99);
        put_uvarint(&mut body, 2);
        body.extend_from_slice(&[0xde, 0xad]);
        // followed by a scheme id, still honored
        put_uvarint(&mut body, EXT_SCHEME_ID);
        put_uvarint(&mut body, 1);
        put_uvarint(&mut body, SchemeId::BIPARTITE.0 as u64);
        assert_eq!(
            Request::decode(&body).unwrap().scheme(),
            Some(SchemeId::BIPARTITE)
        );

        // duplicate scheme-id extension: protocol error
        let mut dup = check(&g, SchemeId::BIPARTITE);
        put_uvarint(&mut dup, EXT_SCHEME_ID);
        put_uvarint(&mut dup, 1);
        put_uvarint(&mut dup, 2);
        assert!(Request::decode(&dup).is_err());

        // out-of-range scheme id: protocol error
        let mut big = check(&g, SchemeId::PLANARITY);
        put_uvarint(&mut big, EXT_SCHEME_ID);
        let mut payload = Vec::new();
        put_uvarint(&mut payload, u16::MAX as u64 + 1);
        put_uvarint(&mut big, payload.len() as u64);
        big.extend_from_slice(&payload);
        assert!(Request::decode(&big).is_err());

        // truncated extension: error, not a panic
        let mut cut = check(&g, SchemeId::PLANARITY);
        put_uvarint(&mut cut, EXT_SCHEME_ID);
        put_uvarint(&mut cut, 5); // promises 5 payload bytes, has none
        assert!(Request::decode(&cut).is_err());
    }

    #[test]
    fn slowlog_frames_roundtrip() {
        let body = RequestRef::SlowLog.encode();
        assert_eq!(
            body,
            vec![RequestKind::SlowLog as u8],
            "bare one-byte request"
        );
        assert!(matches!(Request::decode(&body).unwrap(), Request::SlowLog));
        assert_eq!(Request::SlowLog.scheme(), None);
        assert_eq!(Request::SlowLog.kind(), RequestKind::SlowLog);

        let entries = vec![
            SlowLogEntry {
                trace_id: (3 << 32) | 7,
                kind: RequestKind::Certify as u8,
                scheme: 2,
                age_us: 5_000_000,
                total_us: 61_000,
                read_decode_us: 14,
                queue_wait_us: 420,
                service_us: 59_000,
                reorder_wait_us: 66,
                write_flush_us: 1_500,
            },
            SlowLogEntry::default(),
        ];
        let resp = Response::SlowLog(entries.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::SlowLog(back) => assert_eq!(back, entries),
            other => panic!("{other:?}"),
        }

        // hostile row count: rejected by the bound, not allocated
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, ResponseKind::SlowLog as u64);
        put_uvarint(&mut hostile, 1 << 30);
        assert!(Response::decode(&hostile).is_err());
    }

    #[test]
    fn cached_only_probe_frames() {
        let g = generators::cycle(5);
        let body = RequestRef::Certify {
            bypass_cache: false,
            cached_only: true,
            summary: false,
            graph: &g,
            scheme: SchemeId::BIPARTITE,
        }
        .encode();
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: false,
                cached_only: true,
                scheme,
                ..
            } => assert_eq!(scheme, SchemeId::BIPARTITE),
            other => panic!("bad decode: {other:?}"),
        }
        // plain certify stays byte-identical to the pre-v6 encoding:
        // flags byte 0, no new fields
        let plain = certify(&g, false, false, SchemeId::PLANARITY);
        assert_eq!(plain[1], 0, "flags byte");

        // bypass + cached-only contradict each other: rejected
        let mut both = Vec::new();
        put_uvarint(&mut both, RequestKind::Certify as u64);
        put_uvarint(
            &mut both,
            CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_CACHED_ONLY,
        );
        encode_graph(&mut both, &g);
        assert!(Request::decode(&both).is_err());
    }

    #[test]
    fn store_push_frames_roundtrip_and_reject_corruption() {
        use crate::store::RecordKind;

        let body = RequestRef::StoreList.encode();
        assert_eq!(
            body,
            vec![RequestKind::StoreList as u8],
            "bare one-byte request"
        );
        assert!(matches!(
            Request::decode(&body).unwrap(),
            Request::StoreList
        ));
        assert_eq!(Request::StoreList.scheme(), None);

        let records = vec![
            StoreRecord {
                kind: RecordKind::Declined,
                keyed: vec![0x00],
                suffix: vec![0x02, b'n', b'o'],
            },
            StoreRecord {
                kind: RecordKind::Certified,
                keyed: vec![1, 2, 3, 4],
                suffix: vec![9; 40],
            },
        ];
        let body = RequestRef::StorePush { records: &records }.encode();
        match Request::decode(&body).unwrap() {
            Request::StorePush { records: back } => {
                assert_eq!(back.len(), 2);
                assert_eq!(back[0].keyed, records[0].keyed);
                assert_eq!(back[1].suffix, records[1].suffix);
                assert_eq!(back[0].key(), records[0].key());
            }
            other => panic!("bad decode: {other:?}"),
        }

        // flip one certificate byte: the CRC catches it
        let mut corrupt = body.clone();
        let last = corrupt.len() - 5; // inside record 2's body, before its CRC
        corrupt[last] ^= 0x01;
        assert!(Request::decode(&corrupt).is_err(), "corruption detected");

        // hostile record count: rejected by the bound, not allocated
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, RequestKind::StorePush as u64);
        put_uvarint(&mut hostile, 1 << 40);
        assert!(Request::decode(&hostile).is_err());
    }

    #[test]
    fn store_keys_and_pushed_responses_roundtrip() {
        let keys = vec![0u128, 1, u128::MAX, 0xdead_beef];
        match Response::decode(&Response::StoreKeys(keys.clone()).encode()).unwrap() {
            Response::StoreKeys(back) => assert_eq!(back, keys),
            other => panic!("{other:?}"),
        }
        match Response::decode(
            &Response::StorePushed {
                merged: 7,
                duplicates: 3,
            }
            .encode(),
        )
        .unwrap()
        {
            Response::StorePushed { merged, duplicates } => {
                assert_eq!((merged, duplicates), (7, 3));
            }
            other => panic!("{other:?}"),
        }

        // hostile key count: bounded by the remaining frame bytes
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, ResponseKind::StoreKeys as u64);
        put_uvarint(&mut hostile, 1 << 40);
        assert!(Response::decode(&hostile).is_err());
    }

    #[test]
    fn summary_certify_frames() {
        let g = generators::grid(3, 4);
        let body = certify(&g, true, true, SchemeId::BIPARTITE);
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: true,
                cached_only: false,
                summary: true,
                scheme,
                ..
            } => assert_eq!(scheme, SchemeId::BIPARTITE),
            other => panic!("bad decode: {other:?}"),
        }

        // summary + cached-only contradict each other: rejected
        let mut both = Vec::new();
        put_uvarint(&mut both, RequestKind::Certify as u64);
        put_uvarint(&mut both, CERTIFY_FLAG_SUMMARY | CERTIFY_FLAG_CACHED_ONLY);
        encode_graph(&mut both, &g);
        assert!(Request::decode(&both).is_err());

        // a summary response carries the outcome and nothing else
        let outcome = Outcome {
            verdicts: vec![true, true, false, true],
            rounds: 1,
            max_message_bits: 12,
            total_message_bits: 48,
            max_cert_bits: 9,
            total_cert_bits: 36,
            avg_cert_bits: 9.0,
        };
        let resp = Response::CertifiedSummary {
            cached: true,
            outcome: outcome.clone(),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::CertifiedSummary { cached, outcome: o } => {
                assert!(cached);
                assert_eq!(o, outcome);
            }
            other => panic!("{other:?}"),
        }

        // summary_body_from_suffix drops the assignment bytes but
        // preserves the outcome exactly
        let assignment = Assignment::empty(4);
        let suffix = encode_certified_suffix(&outcome, &assignment);
        let body = summary_body_from_suffix(false, &suffix).unwrap();
        match Response::decode(&body).unwrap() {
            Response::CertifiedSummary {
                cached: false,
                outcome: o,
            } => assert_eq!(o, outcome),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunk_frames_roundtrip_and_reject_corruption() {
        let begin = RequestRef::GraphChunkBegin {
            session: 7,
            bypass_cache: true,
            scheme: SchemeId::TREE,
        }
        .encode();
        match Request::decode(&begin).unwrap() {
            Request::GraphChunkBegin {
                session: 7,
                bypass_cache: true,
                scheme,
            } => assert_eq!(scheme, SchemeId::TREE),
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&begin).unwrap().kind() as u8, 9);

        let chunk = RequestRef::GraphChunk {
            session: 7,
            seq: 3,
            payload: b"edge bytes",
        }
        .encode();
        match Request::decode(&chunk).unwrap() {
            Request::GraphChunk {
                session: 7,
                seq: 3,
                payload,
            } => assert_eq!(payload, b"edge bytes"),
            other => panic!("bad decode: {other:?}"),
        }

        // flip one payload byte: the CRC catches it
        let mut corrupt = chunk.clone();
        let idx = chunk.len() - 6; // inside the payload, before the CRC
        corrupt[idx] ^= 0x40;
        assert!(Request::decode(&corrupt).is_err(), "corruption detected");

        // hostile payload length: rejected before allocation
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, RequestKind::GraphChunk as u64);
        put_uvarint(&mut hostile, 7);
        put_uvarint(&mut hostile, 0);
        put_uvarint(&mut hostile, (MAX_CHUNK_BYTES as u64) + 1);
        assert!(Request::decode(&hostile).is_err());

        let end = RequestRef::GraphChunkEnd {
            session: 7,
            total_chunks: 4,
            total_bytes: 40_000,
            crc: 0xdead_beef,
        }
        .encode();
        match Request::decode(&end).unwrap() {
            Request::GraphChunkEnd {
                session: 7,
                total_chunks: 4,
                total_bytes: 40_000,
                crc: 0xdead_beef,
            } => {}
            other => panic!("bad decode: {other:?}"),
        }

        let ack = Response::ChunkAck {
            session: 7,
            received: 4,
        };
        match Response::decode(&ack.encode()).unwrap() {
            Response::ChunkAck { session, received } => assert_eq!((session, received), (7, 4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_decoder_matches_single_frame_decode() {
        let graphs = [
            generators::shuffle_ids(&generators::grid(9, 11), 5),
            generators::random_planar(60, 0.4, 2),
            generators::path(1),
            generators::grid(1, 1),
        ];
        for g in &graphs {
            let mut enc = Vec::new();
            encode_graph(&mut enc, g);
            // every chunk size, down to one byte at a time, lands on
            // the same graph and re-encodes byte-identically
            for chunk_size in [1usize, 2, 3, 7, enc.len().max(1)] {
                let mut dec = GraphStreamDecoder::new();
                for chunk in enc.chunks(chunk_size) {
                    dec.feed(chunk).unwrap();
                    assert!(dec.carry_len() < 10, "carry is a partial varint at most");
                }
                let h = dec.finish().unwrap();
                assert!(graphs_equal(g, &h));
                let mut re = Vec::new();
                encode_graph(&mut re, &h);
                assert_eq!(re, enc, "stream decode is canonical");
            }
        }
    }

    #[test]
    fn stream_decoder_rejects_malformed_streams() {
        let g = generators::grid(4, 4);
        let mut enc = Vec::new();
        encode_graph(&mut enc, &g);

        // truncated: grammar incomplete at finish
        let mut dec = GraphStreamDecoder::new();
        dec.feed(&enc[..enc.len() - 1]).unwrap();
        assert!(dec.finish().is_err());

        // trailing garbage after the last edge
        let mut dec = GraphStreamDecoder::new();
        let mut long = enc.clone();
        long.push(0x00);
        assert!(dec.feed(&long).is_err());

        // an unterminated varint can never complete
        let mut dec = GraphStreamDecoder::new();
        assert!(dec.feed(&[0x80; 16]).is_err());

        // node count beyond the stream cap
        let mut dec = GraphStreamDecoder::new();
        let mut big = Vec::new();
        put_uvarint(&mut big, MAX_STREAM_NODES + 1);
        assert!(dec.feed(&big).is_err());

        // duplicate ids, split across feeds
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 2);
        put_uvarint(&mut bad, 1);
        put_uvarint(&mut bad, 9);
        put_uvarint(&mut bad, 9);
        let mut dec = GraphStreamDecoder::new();
        let (a, b) = bad.split_at(2);
        dec.feed(a).unwrap();
        assert!(dec.feed(b).is_err());
    }

    #[test]
    fn interactive_frames_roundtrip() {
        use dpc_runtime::Payload;

        let g = generators::cycle(4);
        let commit = Assignment {
            certs: vec![Payload::from_bytes(vec![0xab], 8); 4],
        };
        let begin_with = |commit| {
            RequestRef::InteractiveBegin {
                session: 9,
                seed: 77,
                graph: &g,
                commit,
                scheme: SchemeId::PLANARITY,
            }
            .encode()
        };
        let begin = begin_with(&commit);
        assert_eq!(begin[0], RequestKind::InteractiveBegin as u8);
        match Request::decode(&begin).unwrap() {
            Request::InteractiveBegin {
                session: 9,
                seed: 77,
                graph,
                commit: back,
                scheme: SchemeId::PLANARITY,
            } => {
                assert!(graphs_equal(&graph, &g));
                assert_eq!(back.certs.len(), commit.certs.len());
            }
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&begin).unwrap().kind() as u8, 12);
        assert_eq!(
            Request::decode(&begin).unwrap().scheme(),
            Some(SchemeId::PLANARITY)
        );

        // a commitment sized for the wrong graph is rejected
        let short = Assignment {
            certs: vec![Payload::from_bytes(vec![0x01], 8); 3],
        };
        let bad = begin_with(&short);
        assert!(Request::decode(&bad).is_err(), "commit/graph size mismatch");

        let respond = RequestRef::InteractiveRespond {
            session: 9,
            response: &commit,
        }
        .encode();
        match Request::decode(&respond).unwrap() {
            Request::InteractiveRespond {
                session: 9,
                response,
            } => {
                assert_eq!(response.certs.len(), 4);
            }
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&respond).unwrap().scheme(), None);

        let challenge = Response::Challenge {
            session: 9,
            challenge: u64::MAX,
        };
        match Response::decode(&challenge.encode()).unwrap() {
            Response::Challenge { session, challenge } => {
                assert_eq!((session, challenge), (9, u64::MAX));
            }
            other => panic!("{other:?}"),
        }

        let verdict = Response::Verdict {
            session: 9,
            challenge: 42,
            accept: false,
            reject_count: 2,
            nodes: 4,
            max_commit_bits: 160,
            max_response_bits: 80,
            soundness_ppm: 500_000,
        };
        match Response::decode(&verdict.encode()).unwrap() {
            Response::Verdict {
                session: 9,
                challenge: 42,
                accept: false,
                reject_count: 2,
                nodes: 4,
                max_commit_bits: 160,
                max_response_bits: 80,
                soundness_ppm: 500_000,
            } => {}
            other => panic!("{other:?}"),
        }

        // trailing bytes after a verdict are rejected
        let mut trailing = verdict.encode();
        trailing.push(0);
        assert!(Response::decode(&trailing).is_err());
    }

    #[test]
    fn audit_frames_roundtrip() {
        let body = RequestRef::Audit {
            samples: 32,
            seed: 1234,
        }
        .encode();
        assert_eq!(body[0], RequestKind::Audit as u8);
        match Request::decode(&body).unwrap() {
            Request::Audit {
                samples: 32,
                seed: 1234,
            } => {}
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&body).unwrap().kind() as u8, 14);
        assert_eq!(Request::decode(&body).unwrap().scheme(), None);

        let report = Response::AuditReport {
            sampled: 32,
            failed: 1,
            quarantined: 1,
        };
        match Response::decode(&report.encode()).unwrap() {
            Response::AuditReport {
                sampled: 32,
                failed: 1,
                quarantined: 1,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn member_verdicts_roundtrip() {
        for verdict in [
            CheckVerdict::Member {
                scheme: "bipartite".into(),
            },
            CheckVerdict::NonMember {
                scheme: "tree".into(),
                reason: "instance is not in the class: trees".into(),
            },
        ] {
            let resp = Response::Checked(verdict.clone());
            match Response::decode(&resp.encode()).unwrap() {
                Response::Checked(back) => assert_eq!(back, verdict),
                other => panic!("{other:?}"),
            }
        }
    }
}
