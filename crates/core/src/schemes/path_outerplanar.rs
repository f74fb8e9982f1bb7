//! Lemma 2: the 1-round proof-labeling scheme for path-outerplanarity
//! with `O(log n)`-bit certificates.
//!
//! A graph is path-outerplanar (Definition 1) if some total order of its
//! nodes forms a Hamiltonian path and all non-path edges, drawn as
//! semi-circles above the line, are pairwise non-crossing (laminar).
//! The prover publishes, per node: the size `n`, the node's rank in the
//! witness, the tightest covering chord `I(x)`, and a spanning-path
//! proof (root id + predecessor/successor pointers). Verification is
//! Algorithm 1, implemented in [`crate::alg1`].
//!
//! Finding a witness from scratch is NP-hard in general (it contains the
//! Hamiltonian-path problem), so the prover takes the witness as input:
//! [`PathOuterplanarScheme::new`] uses the identity order (matching the
//! workloads from `dpc_graph::generators::random_path_outerplanar`), and
//! [`PathOuterplanarScheme::with_witness`] accepts an explicit order.

use crate::alg1::{verify_spine_node, virtual_interval, SpineView, MAX_SPINE};
use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use dpc_graph::{Graph, NodeId};
use dpc_planar::tembed::{laminar_intervals, Chord};
use dpc_runtime::bits::{BitReader, BitWriter, DecodeError};
use dpc_runtime::{NodeCtx, Payload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoCert {
    n: u64,
    rank: u64,
    root_id: u64,
    pred_id: Option<u64>,
    succ_id: Option<u64>,
    /// I(rank): endpoints in `0..=n+1`.
    interval: (u64, u64),
}

impl PoCert {
    fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.n);
        w.write_varint(self.rank);
        w.write_varint(self.root_id);
        w.write_bool(self.pred_id.is_some());
        if let Some(p) = self.pred_id {
            w.write_varint(p);
        }
        w.write_bool(self.succ_id.is_some());
        if let Some(s) = self.succ_id {
            w.write_varint(s);
        }
        w.write_varint(self.interval.0);
        w.write_varint(self.interval.1);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        Ok(PoCert {
            n: r.read_varint()?,
            rank: r.read_varint()?,
            root_id: r.read_varint()?,
            pred_id: if r.read_bool()? {
                Some(r.read_varint()?)
            } else {
                None
            },
            succ_id: if r.read_bool()? {
                Some(r.read_varint()?)
            } else {
                None
            },
            interval: (r.read_varint()?, r.read_varint()?),
        })
    }
}

/// PLS for path-outerplanarity (Lemma 2).
#[derive(Debug, Clone, Default)]
pub struct PathOuterplanarScheme {
    witness: Option<Vec<NodeId>>,
}

impl PathOuterplanarScheme {
    /// Scheme whose prover uses the identity order `0, 1, …, n−1` as the
    /// witness.
    pub fn new() -> Self {
        PathOuterplanarScheme { witness: None }
    }

    /// Scheme whose prover uses the given order as the witness.
    pub fn with_witness(order: Vec<NodeId>) -> Self {
        PathOuterplanarScheme {
            witness: Some(order),
        }
    }
}

impl ProofLabelingScheme for PathOuterplanarScheme {
    fn name(&self) -> &'static str {
        "path-outerplanar"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        let n = g.node_count();
        let order: Vec<NodeId> = match &self.witness {
            Some(o) => o.clone(),
            None => g.nodes().collect(),
        };
        if order.len() != n {
            return Err(ProveError::MissingWitness("witness must order all nodes"));
        }
        let mut rank = vec![0u32; n]; // 1-based
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = (i + 1) as u32;
        }
        if rank.contains(&0) {
            return Err(ProveError::MissingWitness("witness must be a permutation"));
        }
        // the witness must be a Hamiltonian path
        for w in order.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                return Err(ProveError::NotInClass(
                    "witness order is not a Hamiltonian path",
                ));
            }
        }
        // chords (non-path edges) must be laminar
        let chords: Vec<Chord> = g
            .edges()
            .iter()
            .enumerate()
            .filter_map(|(eid, e)| {
                let (a, b) = {
                    let (ra, rb) = (rank[e.u as usize], rank[e.v as usize]);
                    if ra < rb {
                        (ra, rb)
                    } else {
                        (rb, ra)
                    }
                };
                (b > a + 1).then_some(Chord {
                    a,
                    b,
                    edge: eid as u32,
                })
            })
            .collect();
        let intervals = laminar_intervals(n as u32, &chords)
            .map_err(|_| ProveError::NotInClass("chords cross: not path-outerplanar"))?;
        let root_id = g.id_of(order[0]);
        let mut certs = vec![Payload::empty(); n];
        for (i, &v) in order.iter().enumerate() {
            let iv = intervals[i + 1];
            let cert = PoCert {
                n: n as u64,
                rank: (i + 1) as u64,
                root_id,
                pred_id: (i > 0).then(|| g.id_of(order[i - 1])),
                succ_id: (i + 1 < n).then(|| g.id_of(order[i + 1])),
                interval: (iv.0 as u64, iv.1 as u64),
            };
            let mut w = BitWriter::new();
            cert.encode(&mut w);
            certs[v as usize] = Payload::from_writer(w);
        }
        Ok(Assignment { certs })
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        let parse = |p: &Payload| -> Option<PoCert> {
            let mut r = p.reader();
            let c = PoCert::decode(&mut r).ok()?;
            (r.remaining() == 0).then_some(c)
        };
        let Some(own) = parse(own) else { return false };
        let nbs: Option<Vec<PoCert>> = neighbors.iter().map(parse).collect();
        let Some(nbs) = nbs else { return false };
        if own.n > MAX_SPINE || own.rank < 1 || own.rank > own.n {
            return false;
        }
        let n = own.n as i64;
        // agreement
        if nbs
            .iter()
            .any(|nb| nb.n != own.n || nb.root_id != own.root_id)
        {
            return false;
        }
        // spanning-path pointers
        if (own.rank == 1) != own.pred_id.is_none() {
            return false;
        }
        if own.rank == 1 && own.root_id != ctx.id {
            return false;
        }
        if own.rank != 1 && own.root_id == ctx.id {
            return false;
        }
        if (own.rank == own.n) != own.succ_id.is_none() {
            return false;
        }
        if let Some(pid) = own.pred_id {
            let Some(p) = ctx.neighbor_ids.iter().position(|&x| x == pid) else {
                return false;
            };
            if nbs[p].rank.checked_add(1) != Some(own.rank) || nbs[p].succ_id != Some(ctx.id) {
                return false;
            }
        }
        if let Some(sid) = own.succ_id {
            let Some(p) = ctx.neighbor_ids.iter().position(|&x| x == sid) else {
                return false;
            };
            if nbs[p].rank != own.rank + 1 || nbs[p].pred_id != Some(ctx.id) {
                return false;
            }
        }
        // Algorithm 1 with all graph neighbors as spine neighbors
        let mut spine_neighbors: Vec<(i64, (i64, i64))> = nbs
            .iter()
            .map(|nb| (nb.rank as i64, (nb.interval.0 as i64, nb.interval.1 as i64)))
            .collect();
        if own.rank == 1 {
            spine_neighbors.push((0, virtual_interval(n)));
        }
        if own.rank == own.n {
            spine_neighbors.push((n + 1, virtual_interval(n)));
        }
        let view = SpineView {
            x: own.rank as i64,
            n,
            interval: (own.interval.0 as i64, own.interval.1 as i64),
            neighbors: spine_neighbors,
        };
        // intervals out of range are malformed
        if view.interval.0 > n + 1 || view.interval.1 > n + 1 {
            return false;
        }
        verify_spine_node(&view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pls, run_with_assignment};
    use dpc_graph::generators;

    #[test]
    fn accepts_generated_path_outerplanar() {
        for seed in 0..8u64 {
            let g = generators::random_path_outerplanar(40, 15, seed);
            let out = run_pls(&PathOuterplanarScheme::new(), &g).unwrap();
            assert!(out.all_accept(), "seed {seed}");
            assert_eq!(out.rounds, 1);
            assert!(out.max_cert_bits < 300);
        }
    }

    #[test]
    fn bare_path_accepts() {
        let g = generators::path(12);
        assert!(run_pls(&PathOuterplanarScheme::new(), &g)
            .unwrap()
            .all_accept());
    }

    #[test]
    fn prover_declines_crossing_chords() {
        // path 0..5 plus crossing chords (0,3) and (2,5)
        let mut b = dpc_graph::GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(v - 1, v).unwrap();
        }
        b.add_edge(0, 3).unwrap();
        b.add_edge(2, 5).unwrap();
        let g = b.build();
        assert!(matches!(
            PathOuterplanarScheme::new().prove(&g),
            Err(ProveError::NotInClass(_))
        ));
    }

    #[test]
    fn prover_declines_non_hamiltonian_witness() {
        let g = generators::star(5);
        assert!(PathOuterplanarScheme::new().prove(&g).is_err());
    }

    #[test]
    fn soundness_replay_subchord_certs() {
        // crossing instance; forge certificates from the instance with one
        // crossing chord removed
        let mut b = dpc_graph::GraphBuilder::new(8);
        for v in 1..8 {
            b.add_edge(v - 1, v).unwrap();
        }
        b.add_edge(0, 4).unwrap();
        b.add_edge(2, 6).unwrap(); // crosses (0,4)
        let g = b.build();
        let sub = g.edge_subgraph(|_, e| e.canonical() != (2, 6));
        let a = PathOuterplanarScheme::new().prove(&sub).unwrap();
        let out = run_with_assignment(&PathOuterplanarScheme::new(), &g, &a);
        assert!(!out.all_accept(), "nodes 2 and 6 see an uncovered chord");
    }

    #[test]
    fn soundness_rank_swap() {
        let g = generators::random_path_outerplanar(20, 6, 3);
        let mut a = PathOuterplanarScheme::new().prove(&g).unwrap();
        a.certs.swap(4, 11);
        let out = run_with_assignment(&PathOuterplanarScheme::new(), &g, &a);
        assert!(!out.all_accept());
    }

    #[test]
    fn explicit_witness_in_other_order() {
        // path 3-1-0-2 with chord {3,2}: witness must be given explicitly
        let g = dpc_graph::Graph::from_edges(4, &[(3, 1), (1, 0), (0, 2), (3, 2)]);
        let scheme = PathOuterplanarScheme::with_witness(vec![3, 1, 0, 2]);
        let out = run_pls(&scheme, &g).unwrap();
        assert!(out.all_accept());
        // identity order is not a Hamiltonian path here
        assert!(PathOuterplanarScheme::new().prove(&g).is_err());
    }

    /// Integers near the top of `u64` must be rejected, not overflow the
    /// verifier's arithmetic: `n` on every node (so the agreement check
    /// passes), `rank` on one node (its successor adds to it), and both
    /// at once with `rank = n`.
    #[test]
    fn huge_integers_rejected() {
        let g = generators::random_path_outerplanar(12, 4, 5);
        let honest = PathOuterplanarScheme::new().prove(&g).unwrap();
        let n = g.node_count();
        let forge = |x: u64, all_n: bool, rank_at: Option<usize>| {
            let mut forged = honest.clone();
            for (v, cert) in forged.certs.iter_mut().enumerate() {
                let mut c = PoCert::decode(&mut cert.reader()).unwrap();
                if all_n {
                    c.n = x;
                }
                if rank_at == Some(v) {
                    c.rank = x;
                }
                let mut w = BitWriter::new();
                c.encode(&mut w);
                *cert = Payload::from_writer(w);
            }
            forged
        };
        for x in [i64::MAX as u64, 1 << 63, u64::MAX] {
            let mut cases = vec![forge(x, true, None)];
            for v in 0..n {
                cases.push(forge(x, false, Some(v)));
                cases.push(forge(x, true, Some(v)));
            }
            for forged in cases {
                let out = run_with_assignment(&PathOuterplanarScheme::new(), &g, &forged);
                assert!(!out.all_accept(), "x = {x}");
            }
        }
    }

    #[test]
    fn garbage_rejected() {
        let g = generators::random_path_outerplanar(10, 3, 1);
        let out = run_with_assignment(
            &PathOuterplanarScheme::new(),
            &g,
            &Assignment::empty(g.node_count()),
        );
        assert_eq!(out.reject_count(), g.node_count());
    }
}
