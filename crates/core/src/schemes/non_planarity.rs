//! The folklore scheme certifying **non**-planarity (Section 2).
//!
//! By Kuratowski's theorem a non-planar graph contains a subdivided `K5`
//! or `K3,3`. The prover extracts one
//! ([`dpc_planar::kuratowski::extract_kuratowski`]) and certifies it:
//!
//! * every certificate carries the kind (`K5`/`K3,3`) and the
//!   identifiers of the 5 or 6 **branch nodes** (agreement + connectivity
//!   makes these globally consistent);
//! * a node on the subdivision carries its *role*: `Branch(label)` with
//!   the list of its incident branch paths (label pair + the identifier
//!   of the first node on the path), or `Internal(path, pos, prev, next)`
//!   — chain pointers that are locally checkable hop by hop;
//! * a spanning tree rooted at a branch node proves the witness exists
//!   (without it, a certificate claiming "no witness nodes anywhere"
//!   would be vacuously accepted).
//!
//! All of this is `O(log n)` bits per node.

use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use crate::schemes::tree_base::{build_tree_certs, check_tree, TreeCert};
use dpc_graph::minors::KuratowskiKind;
use dpc_graph::{Graph, NodeId};
use dpc_planar::kuratowski::extract_kuratowski;
use dpc_runtime::bits::{BitReader, BitWriter, DecodeError};
use dpc_runtime::{NodeCtx, Payload};
use std::collections::HashMap;

/// A label pair `(a, b)`, `a < b`, naming one branch path.
type Pair = (u8, u8);

#[derive(Debug, Clone, PartialEq, Eq)]
struct PathEnd {
    path: Pair,
    /// Identifier of the adjacent node on this path.
    nbr_id: u64,
    /// True if the path has length 1, i.e. the neighbor is the far
    /// branch node itself.
    nbr_is_far: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    /// Not on the witness.
    Off,
    /// Branch node with the given label and incident paths.
    Branch { label: u8, ends: Vec<PathEnd> },
    /// Internal node of a branch path, at 1-based position `pos`
    /// counting from the smaller-label endpoint.
    Internal {
        path: Pair,
        pos: u64,
        prev_id: u64,
        next_id: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct NpCert {
    tree: TreeCert,
    is_k5: bool,
    /// Identifiers of the branch nodes, indexed by label (5 or 6).
    branch_ids: Vec<u64>,
    role: Role,
}

fn write_pair(w: &mut BitWriter, p: Pair) {
    w.write_bits(p.0 as u64, 3);
    w.write_bits(p.1 as u64, 3);
}

fn read_pair(r: &mut BitReader<'_>) -> Result<Pair, DecodeError> {
    Ok((r.read_bits(3)? as u8, r.read_bits(3)? as u8))
}

impl NpCert {
    fn encode(&self) -> Payload {
        let mut w = BitWriter::new();
        self.tree.encode(&mut w);
        w.write_bool(self.is_k5);
        for &b in &self.branch_ids {
            w.write_varint(b);
        }
        match &self.role {
            Role::Off => w.write_bits(0, 2),
            Role::Branch { label, ends } => {
                w.write_bits(1, 2);
                w.write_bits(*label as u64, 3);
                w.write_varint(ends.len() as u64);
                for e in ends {
                    write_pair(&mut w, e.path);
                    w.write_varint(e.nbr_id);
                    w.write_bool(e.nbr_is_far);
                }
            }
            Role::Internal {
                path,
                pos,
                prev_id,
                next_id,
            } => {
                w.write_bits(2, 2);
                write_pair(&mut w, *path);
                w.write_varint(*pos);
                w.write_varint(*prev_id);
                w.write_varint(*next_id);
            }
        }
        Payload::from_writer(w)
    }

    fn decode(p: &Payload) -> Option<NpCert> {
        let mut r = p.reader();
        let tree = TreeCert::decode(&mut r).ok()?;
        let is_k5 = r.read_bool().ok()?;
        let nb = if is_k5 { 5 } else { 6 };
        let mut branch_ids = Vec::with_capacity(nb);
        for _ in 0..nb {
            branch_ids.push(r.read_varint().ok()?);
        }
        let role = match r.read_bits(2).ok()? {
            0 => Role::Off,
            1 => {
                let label = r.read_bits(3).ok()? as u8;
                let cnt = r.read_varint().ok()?;
                if cnt > 6 {
                    return None;
                }
                let mut ends = Vec::with_capacity(cnt as usize);
                for _ in 0..cnt {
                    ends.push(PathEnd {
                        path: read_pair(&mut r).ok()?,
                        nbr_id: r.read_varint().ok()?,
                        nbr_is_far: r.read_bool().ok()?,
                    });
                }
                Role::Branch { label, ends }
            }
            2 => Role::Internal {
                path: read_pair(&mut r).ok()?,
                pos: r.read_varint().ok()?,
                prev_id: r.read_varint().ok()?,
                next_id: r.read_varint().ok()?,
            },
            _ => return None,
        };
        (r.remaining() == 0).then_some(NpCert {
            tree,
            is_k5,
            branch_ids,
            role,
        })
    }
}

/// Expected partner labels of a branch with label `l`.
fn partners(is_k5: bool, l: u8) -> Vec<u8> {
    if is_k5 {
        (0..5).filter(|&x| x != l).collect()
    } else if l < 3 {
        vec![3, 4, 5]
    } else {
        vec![0, 1, 2]
    }
}

/// PLS for the class of **non-planar** graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonPlanarityScheme;

impl NonPlanarityScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        NonPlanarityScheme
    }
}

impl ProofLabelingScheme for NonPlanarityScheme {
    fn name(&self) -> &'static str {
        "non-planarity"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        let w = extract_kuratowski(g).ok_or(ProveError::NotInClass("non-planar graphs"))?;
        let is_k5 = w.kind == KuratowskiKind::K5;
        // adjacency of the witness subgraph
        let mut wadj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &(u, v) in &w.edges {
            wadj.entry(u).or_default().push(v);
            wadj.entry(v).or_default().push(u);
        }
        // label the branch nodes
        let mut branches = w.branch_nodes.clone();
        branches.sort_unstable();
        let mut label_of: HashMap<NodeId, u8> = HashMap::new();
        if is_k5 {
            for (i, &b) in branches.iter().enumerate() {
                label_of.insert(b, i as u8);
            }
        } else {
            // bipartition: walk each path from branches[0] to find partners
            let far_of = |start: NodeId, first: NodeId| -> NodeId {
                let mut prev = start;
                let mut cur = first;
                while !branches.contains(&cur) {
                    let nxt = wadj[&cur].iter().copied().find(|&x| x != prev).unwrap();
                    prev = cur;
                    cur = nxt;
                }
                cur
            };
            let b0 = branches[0];
            let side_b: Vec<NodeId> = wadj[&b0].iter().map(|&f| far_of(b0, f)).collect();
            let mut a: Vec<NodeId> = branches
                .iter()
                .copied()
                .filter(|b| !side_b.contains(b))
                .collect();
            let mut b: Vec<NodeId> = side_b.clone();
            a.sort_unstable();
            b.sort_unstable();
            b.dedup();
            assert_eq!(a.len(), 3, "K3,3 bipartition");
            assert_eq!(b.len(), 3, "K3,3 bipartition");
            for (i, &x) in a.iter().enumerate() {
                label_of.insert(x, i as u8);
            }
            for (i, &x) in b.iter().enumerate() {
                label_of.insert(x, (3 + i) as u8);
            }
        }
        let nlabels = if is_k5 { 5 } else { 6 };
        let mut branch_ids = vec![0u64; nlabels];
        for (&node, &l) in &label_of {
            branch_ids[l as usize] = g.id_of(node);
        }
        // walk every path from its smaller-label endpoint; assign roles
        let mut roles: Vec<Role> = vec![Role::Off; g.node_count()];
        let mut ends_of: HashMap<NodeId, Vec<PathEnd>> = HashMap::new();
        for (&bu, &lu) in &label_of {
            for &first in &wadj[&bu] {
                // walk to the far branch
                let mut chain = vec![bu, first];
                while !label_of.contains_key(chain.last().unwrap()) {
                    let cur = *chain.last().unwrap();
                    let prev = chain[chain.len() - 2];
                    let nxt = wadj[&cur].iter().copied().find(|&x| x != prev).unwrap();
                    chain.push(nxt);
                }
                let bv = *chain.last().unwrap();
                let lv = label_of[&bv];
                if lu > lv {
                    continue; // walk each path once, from the smaller label
                }
                let pair: Pair = (lu, lv);
                let len = chain.len() - 1;
                ends_of.entry(bu).or_default().push(PathEnd {
                    path: pair,
                    nbr_id: g.id_of(chain[1]),
                    nbr_is_far: len == 1,
                });
                ends_of.entry(bv).or_default().push(PathEnd {
                    path: pair,
                    nbr_id: g.id_of(chain[len - 1]),
                    nbr_is_far: len == 1,
                });
                for (pos, &node) in chain.iter().enumerate().take(len).skip(1) {
                    roles[node as usize] = Role::Internal {
                        path: pair,
                        pos: pos as u64,
                        prev_id: g.id_of(chain[pos - 1]),
                        next_id: g.id_of(chain[pos + 1]),
                    };
                }
            }
        }
        for (&node, &l) in &label_of {
            let mut ends = ends_of.remove(&node).unwrap();
            ends.sort_by_key(|e| e.path);
            roles[node as usize] = Role::Branch { label: l, ends };
        }
        // spanning tree rooted at a branch node
        let root = branches[0];
        let tree = dpc_graph::traversal::bfs_spanning_tree(g, root);
        let tree_certs = build_tree_certs(g, &tree);
        let certs = g
            .nodes()
            .map(|v| {
                NpCert {
                    tree: tree_certs[v as usize],
                    is_k5,
                    branch_ids: branch_ids.clone(),
                    role: roles[v as usize].clone(),
                }
                .encode()
            })
            .collect();
        Ok(Assignment { certs })
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        verify_impl(ctx, own, neighbors).is_some()
    }
}

fn verify_impl(ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> Option<()> {
    let own = NpCert::decode(own)?;
    let nbs: Vec<NpCert> = neighbors
        .iter()
        .map(NpCert::decode)
        .collect::<Option<Vec<_>>>()?;
    // spanning tree + agreement on kind and branch ids
    let tree_nbs: Vec<TreeCert> = nbs.iter().map(|c| c.tree).collect();
    let info = check_tree(ctx, &own.tree, &tree_nbs)?;
    for nb in &nbs {
        if nb.is_k5 != own.is_k5 || nb.branch_ids != own.branch_ids {
            return None;
        }
    }
    // distinct branch identifiers
    {
        let mut ids = own.branch_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != own.branch_ids.len() {
            return None;
        }
    }
    // the root of the spanning tree must be a branch node
    if info.parent_port.is_none() && !matches!(own.role, Role::Branch { .. }) {
        return None;
    }
    let is_k5 = own.is_k5;
    let port_of_id = |id: u64| ctx.neighbor_ids.iter().position(|&x| x == id);
    match &own.role {
        Role::Off => Some(()),
        Role::Branch { label, ends } => {
            let l = *label;
            if l as usize >= own.branch_ids.len() || own.branch_ids[l as usize] != ctx.id {
                return None;
            }
            // exactly one path per partner label
            let mut expected: Vec<Pair> = partners(is_k5, l)
                .into_iter()
                .map(|x| (l.min(x), l.max(x)))
                .collect();
            expected.sort_unstable();
            let mut got: Vec<Pair> = ends.iter().map(|e| e.path).collect();
            got.sort_unstable();
            if got != expected {
                return None;
            }
            for e in ends {
                let p = port_of_id(e.nbr_id)?;
                let far_label = if e.path.0 == l { e.path.1 } else { e.path.0 };
                if e.nbr_is_far {
                    // direct edge to the far branch node
                    match &nbs[p].role {
                        Role::Branch {
                            label: fl,
                            ends: fe,
                        } => {
                            if *fl != far_label {
                                return None;
                            }
                            let back = fe.iter().find(|x| x.path == e.path)?;
                            if !back.nbr_is_far || back.nbr_id != ctx.id {
                                return None;
                            }
                        }
                        _ => return None,
                    }
                } else {
                    match &nbs[p].role {
                        Role::Internal {
                            path,
                            pos,
                            prev_id,
                            next_id,
                        } => {
                            if *path != e.path {
                                return None;
                            }
                            if e.path.0 == l {
                                // I am the start: neighbor is position 1
                                if *pos != 1 || *prev_id != ctx.id {
                                    return None;
                                }
                            } else {
                                // I am the end: neighbor points forward to me
                                if *next_id != ctx.id {
                                    return None;
                                }
                            }
                        }
                        _ => return None,
                    }
                }
            }
            Some(())
        }
        Role::Internal {
            path,
            pos,
            prev_id,
            next_id,
        } => {
            let (a, b) = *path;
            let ok_pair = if is_k5 {
                a < b && b < 5
            } else {
                a < 3 && (3..6).contains(&b)
            };
            if !ok_pair || *pos < 1 || prev_id == next_id {
                return None;
            }
            let pp = port_of_id(*prev_id)?;
            let np = port_of_id(*next_id)?;
            // previous hop
            match &nbs[pp].role {
                Role::Branch { label, ends } => {
                    if *label != a || *pos != 1 {
                        return None;
                    }
                    let back = ends.iter().find(|x| x.path == *path)?;
                    if back.nbr_id != ctx.id || back.nbr_is_far {
                        return None;
                    }
                }
                Role::Internal {
                    path: p2,
                    pos: pos2,
                    next_id: nx2,
                    ..
                } => {
                    if *p2 != *path || pos2.checked_add(1) != Some(*pos) || *nx2 != ctx.id {
                        return None;
                    }
                }
                Role::Off => return None,
            }
            // next hop
            match &nbs[np].role {
                Role::Branch { label, ends } => {
                    if *label != b {
                        return None;
                    }
                    let back = ends.iter().find(|x| x.path == *path)?;
                    if back.nbr_id != ctx.id || back.nbr_is_far {
                        return None;
                    }
                }
                Role::Internal {
                    path: p2,
                    pos: pos2,
                    prev_id: pv2,
                    ..
                } => {
                    if *p2 != *path || pos.checked_add(1) != Some(*pos2) || *pv2 != ctx.id {
                        return None;
                    }
                }
                Role::Off => return None,
            }
            Some(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pls, run_with_assignment};
    use dpc_graph::generators;

    #[test]
    fn accepts_kuratowski_graphs() {
        for g in [
            generators::complete(5),
            generators::complete_bipartite(3, 3),
            generators::k5_subdivision(2),
            generators::k33_subdivision(3),
            generators::complete(6),
            generators::hypercube(4),
        ] {
            let out = run_pls(&NonPlanarityScheme, &g).unwrap();
            assert!(out.all_accept(), "{g:?}");
            assert_eq!(out.rounds, 1);
        }
    }

    #[test]
    fn accepts_planted_witnesses() {
        for seed in 0..4u64 {
            let g = generators::planted_kuratowski(30, seed % 2 == 0, 2, seed);
            let out = run_pls(&NonPlanarityScheme, &g).unwrap();
            assert!(out.all_accept(), "seed {seed}");
            assert!(out.max_cert_bits < 600);
        }
    }

    #[test]
    fn prover_declines_planar() {
        assert_eq!(
            NonPlanarityScheme
                .prove(&generators::grid(4, 4))
                .unwrap_err(),
            ProveError::NotInClass("non-planar graphs")
        );
    }

    #[test]
    fn forged_witness_on_planar_graph_rejected() {
        // replay certificates of a non-planar graph onto a planar graph of
        // the same size: claims reference edges that do not exist
        let bad = generators::k5_subdivision(1); // 15 nodes
        let a = NonPlanarityScheme.prove(&bad).unwrap();
        let planar = generators::shuffle_ids(&generators::stacked_triangulation(15, 3), 1);
        let out = run_with_assignment(&NonPlanarityScheme, &planar, &a);
        assert!(!out.all_accept());
    }

    #[test]
    fn role_tampering_rejected() {
        let g = generators::k33_subdivision(2);
        let honest = NonPlanarityScheme.prove(&g).unwrap();
        // strip the role of an internal node (first node with Internal role)
        for v in 0..g.node_count() {
            let mut c = NpCert::decode(&honest.certs[v]).unwrap();
            if matches!(c.role, Role::Internal { .. }) {
                c.role = Role::Off;
                let mut forged = honest.clone();
                forged.certs[v] = c.encode();
                let out = run_with_assignment(&NonPlanarityScheme, &g, &forged);
                assert!(!out.all_accept(), "chain break at node {v} must be caught");
                return;
            }
        }
        panic!("no internal node found");
    }

    /// A forged path position at the top of `u64` is rejected, not
    /// overflowed: the node and its next hop both add one to it.
    #[test]
    fn huge_position_rejected() {
        let g = generators::k33_subdivision(2);
        let honest = NonPlanarityScheme.prove(&g).unwrap();
        let mut internal = 0;
        for v in 0..g.node_count() {
            let honest_cert = NpCert::decode(&honest.certs[v]).unwrap();
            if !matches!(honest_cert.role, Role::Internal { .. }) {
                continue;
            }
            internal += 1;
            for x in [1 << 63, u64::MAX] {
                let mut c = honest_cert.clone();
                if let Role::Internal { pos, .. } = &mut c.role {
                    *pos = x;
                }
                let mut forged = honest.clone();
                forged.certs[v] = c.encode();
                let out = run_with_assignment(&NonPlanarityScheme, &g, &forged);
                assert!(!out.all_accept(), "position {x} at node {v}");
            }
        }
        assert!(internal > 0, "no internal node found");
    }

    #[test]
    fn branch_id_disagreement_rejected() {
        let g = generators::complete(5);
        let honest = NonPlanarityScheme.prove(&g).unwrap();
        let mut c = NpCert::decode(&honest.certs[2]).unwrap();
        c.branch_ids[0] ^= 1;
        let mut forged = honest;
        forged.certs[2] = c.encode();
        let out = run_with_assignment(&NonPlanarityScheme, &g, &forged);
        assert!(!out.all_accept());
    }

    #[test]
    fn garbage_rejected() {
        let g = generators::complete(5);
        let out = run_with_assignment(&NonPlanarityScheme, &g, &Assignment::empty(5));
        assert_eq!(out.reject_count(), 5);
    }
}
