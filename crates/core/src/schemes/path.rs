//! The Section 2 warm-up scheme: certifying that the network **is a
//! path**.
//!
//! The prover orders the path `v_1 … v_n` and gives node `v_i` its rank
//! `i`, the total `n`, and the identifiers of its predecessor and
//! successor. A node checks that its neighbors are exactly its
//! predecessor/successor with ranks `i∓1` and matching back-pointers.
//! With the network connected, all nodes accepting forces the graph to
//! be the path `1..n` (see the soundness discussion in §2).

use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use dpc_graph::{Graph, NodeId};
use dpc_runtime::bits::{BitReader, BitWriter, DecodeError};
use dpc_runtime::{NodeCtx, Payload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathCert {
    n: u64,
    rank: u64, // 1..=n
    pred_id: Option<u64>,
    succ_id: Option<u64>,
}

impl PathCert {
    fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.n);
        w.write_varint(self.rank);
        w.write_bool(self.pred_id.is_some());
        if let Some(p) = self.pred_id {
            w.write_varint(p);
        }
        w.write_bool(self.succ_id.is_some());
        if let Some(s) = self.succ_id {
            w.write_varint(s);
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        let n = r.read_varint()?;
        let rank = r.read_varint()?;
        let pred_id = if r.read_bool()? {
            Some(r.read_varint()?)
        } else {
            None
        };
        let succ_id = if r.read_bool()? {
            Some(r.read_varint()?)
        } else {
            None
        };
        Ok(PathCert {
            n,
            rank,
            pred_id,
            succ_id,
        })
    }
}

/// PLS for the class of path graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathScheme;

impl PathScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        PathScheme
    }
}

impl ProofLabelingScheme for PathScheme {
    fn name(&self) -> &'static str {
        "path"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        let n = g.node_count();
        // a connected graph is a path iff it has n-1 edges and max degree ≤ 2
        if g.edge_count() != n - 1 || g.max_degree() > 2 {
            return Err(ProveError::NotInClass("path graphs"));
        }
        // order from one endpoint
        let order: Vec<NodeId> = if n == 1 {
            vec![0]
        } else {
            let start = g
                .nodes()
                .find(|&v| g.degree(v) == 1)
                .expect("path endpoint");
            let mut order = vec![start];
            let mut prev = None;
            let mut cur = start;
            while order.len() < n {
                let next = g
                    .neighbors(cur)
                    .find(|&w| Some(w) != prev)
                    .expect("path continues");
                order.push(next);
                prev = Some(cur);
                cur = next;
            }
            order
        };
        let mut certs = vec![Payload::empty(); n];
        for (i, &v) in order.iter().enumerate() {
            let cert = PathCert {
                n: n as u64,
                rank: (i + 1) as u64,
                pred_id: (i > 0).then(|| g.id_of(order[i - 1])),
                succ_id: (i + 1 < n).then(|| g.id_of(order[i + 1])),
            };
            let mut w = BitWriter::new();
            cert.encode(&mut w);
            certs[v as usize] = Payload::from_writer(w);
        }
        Ok(Assignment { certs })
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        let parse = |p: &Payload| -> Option<PathCert> {
            let mut r = p.reader();
            PathCert::decode(&mut r).ok()
        };
        let Some(own) = parse(own) else { return false };
        let nbs: Option<Vec<PathCert>> = neighbors.iter().map(parse).collect();
        let Some(nbs) = nbs else { return false };
        if own.rank < 1 || own.rank > own.n {
            return false;
        }
        // expected pointers by rank
        if (own.rank == 1) != own.pred_id.is_none() {
            return false;
        }
        if (own.rank == own.n) != own.succ_id.is_none() {
            return false;
        }
        // each neighbor must be exactly the pred or the succ
        let mut seen_pred = false;
        let mut seen_succ = false;
        for (p, nb) in nbs.iter().enumerate() {
            let nid = ctx.neighbor_ids[p];
            if nb.n != own.n {
                return false;
            }
            if Some(nid) == own.pred_id && !seen_pred {
                if nb.rank.checked_add(1) != Some(own.rank) || nb.succ_id != Some(ctx.id) {
                    return false;
                }
                seen_pred = true;
            } else if Some(nid) == own.succ_id && !seen_succ {
                if nb.rank != own.rank + 1 || nb.pred_id != Some(ctx.id) {
                    return false;
                }
                seen_succ = true;
            } else {
                return false; // extra edge: not a path
            }
        }
        seen_pred == own.pred_id.is_some() && seen_succ == own.succ_id.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pls, run_with_assignment};
    use dpc_graph::generators;

    #[test]
    fn accepts_paths() {
        for n in [1u32, 2, 3, 10, 100] {
            let g = generators::path(n);
            let out = run_pls(&PathScheme, &g).unwrap();
            assert!(out.all_accept(), "path({n})");
            assert_eq!(out.rounds, 1);
        }
    }

    #[test]
    fn prover_declines_non_paths() {
        assert!(PathScheme.prove(&generators::cycle(5)).is_err());
        assert!(PathScheme.prove(&generators::star(5)).is_err());
        assert!(PathScheme.prove(&generators::grid(2, 3)).is_err());
    }

    #[test]
    fn certs_of_path_fail_on_cycle() {
        // strongest attack: take honest certificates of the path obtained
        // by removing one cycle edge, replayed on the cycle
        let cyc = generators::cycle(8);
        let sub = cyc.edge_subgraph(|e, _| e != 0);
        // `sub` keeps the same ids, so the assignment maps over directly
        let a = PathScheme.prove(&sub).unwrap();
        let out = run_with_assignment(&PathScheme, &cyc, &a);
        assert!(
            !out.all_accept(),
            "the two endpoints of the removed edge see an extra edge"
        );
    }

    #[test]
    fn shuffled_ranks_fail() {
        let g = generators::path(9);
        let mut a = PathScheme.prove(&g).unwrap();
        a.certs.swap(2, 6);
        let out = run_with_assignment(&PathScheme, &g, &a);
        assert!(!out.all_accept());
    }

    /// A forged rank at the top of `u64` is rejected, not overflowed: the
    /// node's successor adds one to it.
    #[test]
    fn huge_rank_rejected() {
        let g = generators::path(6);
        let honest = PathScheme.prove(&g).unwrap();
        for v in 0..g.node_count() {
            for x in [1 << 63, u64::MAX] {
                let mut pc = PathCert::decode(&mut honest.certs[v].reader()).unwrap();
                pc.rank = x;
                let mut w = BitWriter::new();
                pc.encode(&mut w);
                let mut forged = honest.clone();
                forged.certs[v] = Payload::from_writer(w);
                let out = run_with_assignment(&PathScheme, &g, &forged);
                assert!(!out.all_accept(), "rank {x} at node {v}");
            }
        }
    }

    #[test]
    fn wrong_n_fails() {
        let g = generators::path(5);
        // hand-forge certificates claiming n=6 on a 5-path: rank-5 node
        // must have a successor it does not have
        let honest = PathScheme.prove(&g).unwrap();
        let out = run_with_assignment(&PathScheme, &g, &honest);
        assert!(out.all_accept());
        let mut forged = honest.clone();
        // bump n in every certificate by re-encoding
        for (v, c) in forged.certs.iter_mut().enumerate() {
            let mut r = c.reader();
            let mut pc = PathCert::decode(&mut r).unwrap();
            pc.n = 6;
            let _ = v;
            let mut w = BitWriter::new();
            pc.encode(&mut w);
            *c = Payload::from_writer(w);
        }
        let out = run_with_assignment(&PathScheme, &g, &forged);
        assert!(
            !out.all_accept(),
            "rank-5 node claims n=6 but has no successor"
        );
    }
}
