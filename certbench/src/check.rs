//! Correctness checks on every answer.
//!
//! A response passes when it has the expected kind, the right `cached`
//! flag for the workload, one certificate and one accepting verdict per
//! node, and — for every key answered before — a body byte-identical to
//! the first answer for that key (the `cached` flag aside).

use crate::workload::Item;
use dpc_core::harness::{run_with_assignment, Outcome};
use dpc_core::scheme::Assignment;
use dpc_service::wire::Response;
use dpc_service::SchemeRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// A fast 64-bit digest of a response suffix (FxHash-style word mix).
/// It compares bodies, it is not a security boundary.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(K);
    }
    h
}

const UNSEEN: u8 = 0;
const IN_FLIGHT: u8 = 1;
const ANSWERED: u8 = 2;

/// Per-key knowledge shared by every connection: whether the server can
/// already hold the key (so the answer must be `cached: true`), has
/// never seen it (`cached: false`), or is proving it for another
/// connection right now (either), plus the digest of the first answer.
pub struct KeyBook {
    state: Vec<AtomicU8>,
    first: Mutex<HashMap<u64, u64>>,
}

impl KeyBook {
    /// A book of `keys` keys, none of which the server has seen.
    pub fn new(keys: usize) -> KeyBook {
        KeyBook {
            state: (0..keys).map(|_| AtomicU8::new(UNSEEN)).collect(),
            first: Mutex::new(HashMap::new()),
        }
    }

    /// Marks a key answered outside the timed load (warm-up, pre-fill).
    pub fn mark_answered(&self, key: usize) {
        self.state[key].store(ANSWERED, Ordering::Release);
    }

    /// The `cached` flag a request for `key` sent now must carry.
    pub fn expect_on_send(&self, key: usize) -> Option<bool> {
        match self.state[key].compare_exchange(
            UNSEEN,
            IN_FLIGHT,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(false),
            Err(ANSWERED) => Some(true),
            Err(_) => None,
        }
    }

    /// Records an answer for `key`; returns false if its suffix differs
    /// from the first answer's.
    pub fn answered(&self, key: usize, suffix_digest: u64) -> bool {
        self.state[key].store(ANSWERED, Ordering::Release);
        let mut first = self.first.lock().expect("key book poisoned");
        *first.entry(key as u64).or_insert(suffix_digest) == suffix_digest
    }
}

/// What one answer told us, when it passed.
pub struct Answer {
    /// The response's `cached` flag.
    pub cached: bool,
    /// Largest certificate in bits (0 for a decline).
    pub max_cert_bits: u64,
    /// Digest of the body after the kind and `cached` bytes.
    pub suffix_digest: u64,
}

/// Checks one decoded response against its request.
pub fn check(
    item: &Item,
    body: &[u8],
    resp: &Response,
    expect_cached: Option<bool>,
) -> Result<Answer, String> {
    let n = item.graph().node_count();
    let (cached, max_cert_bits) = match resp {
        Response::Certified {
            cached,
            outcome,
            assignment,
        } => {
            if item.declines {
                return Err(format!("{} instance was certified", item.family));
            }
            if assignment.certs.len() != n || outcome.verdicts.len() != n {
                return Err(format!(
                    "{} certificates and {} verdicts for {n} nodes",
                    assignment.certs.len(),
                    outcome.verdicts.len()
                ));
            }
            if !outcome.all_accept() {
                return Err(format!("{} nodes rejected", outcome.reject_count()));
            }
            (*cached, outcome.max_cert_bits as u64)
        }
        Response::Declined { cached, reason } => {
            if !item.declines {
                return Err(format!("{} instance declined: {reason}", item.family));
            }
            (*cached, 0)
        }
        Response::Error(e) => return Err(format!("error response: {e}")),
        other => return Err(format!("unexpected response kind: {other:?}")),
    };
    if let Some(want) = expect_cached {
        if cached != want {
            return Err(format!("cached = {cached}, expected {want}"));
        }
    }
    // kind and flag are one varint byte each
    let suffix = body.get(2..).ok_or("response body too short")?;
    Ok(Answer {
        cached,
        max_cert_bits,
        suffix_digest: digest(suffix),
    })
}

/// A returned assignment kept for re-verification after the window.
pub struct Kept {
    /// Which input it answered.
    pub input: u64,
    /// The certificates as received.
    pub assignment: Assignment,
    /// The outcome as received.
    pub outcome: Outcome,
}

/// Re-runs the verification round on a received assignment and
/// compares the result with the outcome the server sent.
pub fn reverify(registry: &SchemeRegistry, item: &Item, kept: &Kept) -> Result<(), String> {
    let entry = registry
        .get(item.scheme())
        .ok_or_else(|| format!("scheme {} not registered", item.scheme().0))?;
    let scheme = entry.scheme();
    let local = run_with_assignment(&scheme, item.graph(), &kept.assignment);
    let same = local.verdicts == kept.outcome.verdicts
        && local.max_cert_bits == kept.outcome.max_cert_bits
        && local.total_cert_bits == kept.outcome.total_cert_bits
        && local.max_message_bits == kept.outcome.max_message_bits
        && local.total_message_bits == kept.outcome.total_message_bits;
    if !same {
        return Err(format!(
            "re-verification of input {} disagrees with the served outcome",
            kept.input
        ));
    }
    if !local.all_accept() {
        return Err(format!("input {}: served assignment rejected", kept.input));
    }
    Ok(())
}
