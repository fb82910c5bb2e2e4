//! Union-find decoding for generic-distance rotated surface codes.
//!
//! The Delfosse–Nickerson union-find decoder replaces matching with a
//! near-linear-time cluster construction: every defect seeds a cluster on
//! the check graph; odd clusters grow outward by half an edge per round;
//! clusters merge (weighted union with path-halving find) when growing
//! edges meet; a cluster stops growing once it is *neutral* — even defect
//! parity, or touching a boundary vertex that can absorb one defect.
//! When every cluster is neutral, the fully-grown edges form an erasure
//! that provably supports a valid correction, extracted by peeling a
//! spanning forest leaf-by-leaf.
//!
//! The check graph here is derived purely from the check supports, with
//! no geometric assumptions: each data qubit is an edge between the (one
//! or two) detecting checks whose support contains it; qubits seen by a
//! single detecting check become edges to fresh virtual boundary
//! vertices. Because [`RotatedSurfaceCode::syndrome_of`] is defined by
//! exactly those supports, any peeled edge set annihilates its syndrome
//! by construction.
//!
//! Union-find is **not** minimum-weight: its corrections can be longer
//! than the matching decoder's, but the decoded coset — and hence the
//! logical failure rate — is what matters, and that is compared against
//! [`MatchingDecoder`](crate::MatchingDecoder) by the differential oracle
//! in `tests/uf_oracle.rs`.
//!
//! ## Scratch reuse
//!
//! Decoding a 64-lane batch calls the decoder once per live lane on the
//! same graph (at d ≤ 5 only for syndromes the sweep point's parity
//! table has not seen yet; at d ≥ 7 spread over one decoder per core,
//! see [`crate::experiment`]); the serving path decodes hundreds of
//! batches per job. The per-decode cluster state (union-find forest,
//! frontier lists, growth counters, peeling scratch) therefore lives
//! *inside* the decoder, behind a [`RefCell`], and is reset, never
//! reallocated, on each call. Every buffer is allocated with the
//! decoder, or a clone of it, at the largest size the graph allows,
//! and the frontier lists are linked lists over one fixed node arena,
//! reset by copying the decoder's initial lists, so
//! [`UnionFindDecoder::decode_into`] never touches the heap, whatever
//! the syndrome (pinned by `tests/uf_alloc.rs`). A decode helper thread
//! therefore allocates nothing, and the `uf_decode_*` latency wins in
//! `results/BENCH_decoder.json` come from this reuse.

use std::cell::RefCell;

use crate::{CheckKind, RotatedSurfaceCode};

/// A union-find decoder for one check family of a [`RotatedSurfaceCode`].
///
/// Unlike the exact matcher, cost is near-linear in the syndrome size, so
/// it decodes any odd distance with any defect density — it is the
/// default path above `MatchingDecoder`'s exact limit.
///
/// The decoder owns its decode scratch (see the module docs), so one
/// instance should be reused across as many `decode` calls as possible;
/// [`crate::experiment::run_ler_surface`] keeps one per `(d, kind)` per
/// thread that runs batches for exactly this reason. The scratch sits
/// behind a [`RefCell`], which makes the decoder cheap to call through a
/// shared reference but not `Sync` — give each thread its own decoder.
///
/// # Example
///
/// ```
/// use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};
///
/// let code = RotatedSurfaceCode::new(13);
/// let decoder = UnionFindDecoder::new(&code, CheckKind::X);
/// let errors: Vec<usize> = (0..code.num_data_qubits()).step_by(7).collect();
/// let syndrome = code.syndrome_of(&errors, CheckKind::X);
/// let correction = decoder.decode(&syndrome);
/// assert_eq!(code.syndrome_of(&correction, CheckKind::X), syndrome);
/// ```
#[derive(Debug)]
pub struct UnionFindDecoder {
    /// Number of detecting checks == syndrome length. Check vertices are
    /// `0..num_checks` in `checks_of` (syndrome) order; virtual boundary
    /// vertices follow.
    num_checks: usize,
    /// Check vertices plus one virtual vertex per boundary entry point.
    num_nodes: usize,
    /// `(vertex_a, vertex_b, data_qubit)` — exactly one edge per data
    /// qubit of the code.
    edges: Vec<(u32, u32, u32)>,
    /// Vertex → incident edge ids.
    adj: Vec<Vec<u32>>,
    /// Edge id per frontier node: one node per vertex–edge incidence,
    /// each vertex's incident edges as one run in `adj` order.
    node_edge: Vec<u32>,
    /// The frontier lists before any growth: each vertex's own run.
    initial: Frontiers,
    /// Per-decode cluster/peeling state, reset (not reallocated) each
    /// call.
    scratch: RefCell<Scratch>,
}

impl UnionFindDecoder {
    /// A decoder correcting errors of `error_kind` on `code`.
    ///
    /// # Panics
    ///
    /// Panics if a data qubit is not covered by one or two detecting
    /// checks — impossible for a well-formed rotated surface code
    /// (invariant checked at construction, not per decode).
    #[must_use]
    pub fn new(code: &RotatedSurfaceCode, error_kind: CheckKind) -> Self {
        let detecting = match error_kind {
            CheckKind::X => CheckKind::Z,
            CheckKind::Z => CheckKind::X,
        };
        // data qubit -> detecting checks whose support contains it.
        let mut owners: Vec<Vec<u32>> = vec![Vec::new(); code.num_data_qubits()];
        let mut num_checks = 0;
        for (i, ch) in code.checks_of(detecting).enumerate() {
            num_checks += 1;
            for &q in &ch.support {
                owners[q].push(i as u32);
            }
        }
        let mut edges = Vec::with_capacity(code.num_data_qubits());
        let mut num_nodes = num_checks;
        for (q, own) in owners.iter().enumerate() {
            match own.as_slice() {
                // Interior qubit: an edge between its two checks.
                [a, b] => edges.push((*a, *b, q as u32)),
                // Boundary qubit: an edge to a fresh virtual vertex, so
                // chains may terminate there.
                [a] => {
                    let virt = num_nodes as u32;
                    num_nodes += 1;
                    edges.push((*a, virt, q as u32));
                }
                _ => panic!("data qubit {q} covered by {} detecting checks", own.len()),
            }
        }
        let mut adj = vec![Vec::new(); num_nodes];
        for (e, &(a, b, _)) in edges.iter().enumerate() {
            adj[a as usize].push(e as u32);
            adj[b as usize].push(e as u32);
        }
        let mut node_edge = Vec::with_capacity(2 * edges.len());
        let mut initial = Frontiers {
            head: Vec::with_capacity(num_nodes),
            tail: Vec::with_capacity(num_nodes),
            next: Vec::with_capacity(2 * edges.len()),
        };
        // Every vertex has an edge: a check covers data qubits, and a
        // virtual vertex exists for its boundary qubit.
        for incident in &adj {
            let first = node_edge.len() as u32;
            node_edge.extend_from_slice(incident);
            let end = node_edge.len() as u32;
            initial.next.extend((first + 1..end).chain([NIL]));
            initial.head.push(first);
            initial.tail.push(end - 1);
        }
        UnionFindDecoder {
            scratch: RefCell::new(Scratch::for_graph(&edges, &adj, &initial)),
            num_checks,
            num_nodes,
            edges,
            adj,
            node_edge,
            initial,
        }
    }

    /// The number of syndrome bits the decoder expects.
    #[must_use]
    pub fn syndrome_len(&self) -> usize {
        self.num_checks
    }

    /// Decodes a syndrome (one flag per detecting check, in `checks_of`
    /// order) into the sorted data qubits of a correction whose syndrome
    /// equals the input.
    ///
    /// Allocates only the returned vector; hot paths that can reuse an
    /// output buffer should call [`UnionFindDecoder::decode_into`].
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match the code.
    #[must_use]
    pub fn decode(&self, syndrome: &[bool]) -> Vec<usize> {
        let mut correction = Vec::new();
        self.decode_into(syndrome, &mut correction);
        correction
    }

    /// [`UnionFindDecoder::decode`] into a caller-owned buffer, clearing
    /// it first. With a warmed decoder and a warmed buffer this performs
    /// no heap allocation at all (pinned by `tests/uf_alloc.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match the code.
    pub fn decode_into(&self, syndrome: &[bool], correction: &mut Vec<usize>) {
        assert_eq!(syndrome.len(), self.num_checks, "syndrome length mismatch");
        correction.clear();
        if syndrome.iter().all(|s| !s) {
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let mut clusters = Clusters {
            dec: self,
            s: &mut scratch,
        };
        clusters.reset(syndrome);
        clusters.grow();
        clusters.peel(syndrome, correction);
    }
}

/// A clone gets scratch of its own, sized like [`UnionFindDecoder::new`]'s:
/// a copied `Vec` keeps its length, not its capacity, so a copied
/// scratch would allocate on the clone's first decodes.
impl Clone for UnionFindDecoder {
    fn clone(&self) -> Self {
        UnionFindDecoder {
            num_checks: self.num_checks,
            num_nodes: self.num_nodes,
            edges: self.edges.clone(),
            adj: self.adj.clone(),
            node_edge: self.node_edge.clone(),
            initial: self.initial.clone(),
            scratch: RefCell::new(Scratch::for_graph(&self.edges, &self.adj, &self.initial)),
        }
    }
}

/// Per-decode cluster state: a union-find forest over the graph vertices
/// with per-root parity/boundary bookkeeping, per-edge growth, and the
/// peeling workspace. Lives inside the decoder, is allocated with it at
/// the largest size the graph can need, and is reset on each call, so
/// decoding never allocates.
#[derive(Debug)]
struct Scratch {
    parent: Vec<u32>,
    /// Vertices in the tree (for weighted union), valid at roots.
    size: Vec<u32>,
    /// Odd number of defects in the cluster, valid at roots.
    odd: Vec<bool>,
    /// Cluster contains a virtual boundary vertex, valid at roots.
    boundary: Vec<bool>,
    /// Frontier edge lists, valid at roots. May contain edges that have
    /// since become internal; those are dropped lazily when the cluster
    /// next grows.
    frontiers: Frontiers,
    /// Half-edge growth per edge, saturating at 2 (= fully grown).
    growth: Vec<u8>,
    /// Growth-round seeds (active roots at the start of the round).
    seeds: Vec<u32>,
    /// Peeling: erasure adjacency over fully-grown edges only.
    grown_adj: Vec<Vec<(u32, u32)>>,
    /// Peeling: live defect flags, consumed leaf-by-leaf.
    defect: Vec<bool>,
    /// Peeling: vertices already assigned to an erasure component.
    visited: Vec<bool>,
    /// Peeling: spanning-forest parent per vertex.
    peel_parent: Vec<u32>,
    /// Peeling: tree edge to the parent.
    peel_edge: Vec<u32>,
    /// Peeling: the current erasure component (pass-1 BFS order).
    comp: Vec<u32>,
    /// Peeling: spanning-tree BFS order (parents before children).
    order: Vec<u32>,
}

impl Scratch {
    /// Every buffer at its bound for a graph with initial frontier
    /// lists `initial`: the frontier arena is fixed, a vertex holds at
    /// most its degree of grown edges, and every other buffer one entry
    /// per vertex or edge.
    fn for_graph(edges: &[(u32, u32, u32)], adj: &[Vec<u32>], initial: &Frontiers) -> Self {
        let n = adj.len();
        Scratch {
            parent: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            odd: Vec::with_capacity(n),
            boundary: Vec::with_capacity(n),
            frontiers: initial.clone(),
            growth: Vec::with_capacity(edges.len()),
            seeds: Vec::with_capacity(n),
            grown_adj: adj.iter().map(|a| Vec::with_capacity(a.len())).collect(),
            defect: Vec::with_capacity(n),
            visited: Vec::with_capacity(n),
            peel_parent: Vec::with_capacity(n),
            peel_edge: Vec::with_capacity(n),
            comp: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
        }
    }
}

/// The empty link of a frontier list.
const NIL: u32 = u32::MAX;

/// Frontier edge lists: singly linked lists over the decoder's node
/// arena, so a merge splices two lists in O(1) and the arena never
/// grows.
#[derive(Clone, Debug)]
struct Frontiers {
    /// First node per vertex ([`NIL`] = empty).
    head: Vec<u32>,
    /// Last node per vertex, valid where `head` is not [`NIL`].
    tail: Vec<u32>,
    /// Next node per node.
    next: Vec<u32>,
}

/// A borrow of the decoder graph plus its scratch for one decode call.
struct Clusters<'a> {
    dec: &'a UnionFindDecoder,
    s: &'a mut Scratch,
}

impl Clusters<'_> {
    /// Resets the scratch to the initial cluster state for `syndrome`.
    /// Every vertex carries its full incident-edge list: merged clusters
    /// then own every edge crossing their boundary (internal edges are
    /// dropped lazily), so growth can expand through absorbed non-defect
    /// vertices.
    fn reset(&mut self, syndrome: &[bool]) {
        let n = self.dec.num_nodes;
        let s = &mut *self.s;
        s.parent.clear();
        s.parent.extend(0..n as u32);
        s.size.clear();
        s.size.resize(n, 1);
        s.odd.clear();
        s.odd.extend(
            syndrome
                .iter()
                .copied()
                .chain(std::iter::repeat(false))
                .take(n),
        );
        s.boundary.clear();
        s.boundary.extend((0..n).map(|v| v >= self.dec.num_checks));
        s.growth.clear();
        s.growth.resize(self.dec.edges.len(), 0);
        let (lists, initial) = (&mut s.frontiers, &self.dec.initial);
        lists.head.copy_from_slice(&initial.head);
        lists.tail.copy_from_slice(&initial.tail);
        lists.next.copy_from_slice(&initial.next);
    }

    /// Path-halving find.
    fn find(&mut self, v: u32) -> u32 {
        let mut v = v;
        while self.s.parent[v as usize] != v {
            let grand = self.s.parent[self.s.parent[v as usize] as usize];
            self.s.parent[v as usize] = grand;
            v = grand;
        }
        v
    }

    /// Weighted union of two distinct roots; returns the surviving root.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        debug_assert_ne!(a, b);
        let s = &mut *self.s;
        let (root, child) = if s.size[a as usize] >= s.size[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        s.parent[child as usize] = root;
        s.size[root as usize] += s.size[child as usize];
        let child_odd = s.odd[child as usize];
        s.odd[root as usize] ^= child_odd;
        s.boundary[root as usize] |= s.boundary[child as usize];
        // The child's frontier goes after the root's.
        let lists = &mut s.frontiers;
        let (head, tail) = (lists.head[child as usize], lists.tail[child as usize]);
        if head != NIL {
            match lists.head[root as usize] {
                NIL => lists.head[root as usize] = head,
                _ => lists.next[lists.tail[root as usize] as usize] = head,
            }
            lists.tail[root as usize] = tail;
            lists.head[child as usize] = NIL;
        }
        root
    }

    /// A cluster keeps growing while it holds an odd number of defects
    /// and no boundary vertex to absorb the spare one.
    fn is_active(&self, root: u32) -> bool {
        self.s.odd[root as usize] && !self.s.boundary[root as usize]
    }

    /// Grows active clusters by half an edge per round until every
    /// cluster is neutral.
    fn grow(&mut self) {
        // Any cluster reaches a boundary vertex within the graph
        // diameter, so 2·|E| + 2 half-edge rounds always suffice.
        for _round in 0..2 * self.dec.edges.len() + 2 {
            let mut seeds = std::mem::take(&mut self.s.seeds);
            seeds.clear();
            seeds.extend(
                (0..self.dec.num_nodes as u32)
                    .filter(|&v| self.s.parent[v as usize] == v && self.is_active(v)),
            );
            if seeds.is_empty() {
                self.s.seeds = seeds;
                return;
            }
            for &seed in &seeds {
                // A merge earlier in the round may have absorbed or
                // neutralized this cluster.
                let root = self.find(seed);
                if !self.is_active(root) {
                    continue;
                }
                self.grow_cluster(root);
            }
            self.s.seeds = seeds;
        }
        unreachable!("union-find growth failed to neutralize all clusters");
    }

    /// Advances every frontier edge of one cluster by half a step.
    fn grow_cluster(&mut self, root: u32) {
        // Detach the cluster's list and walk it: merges during the walk
        // append to the cluster's (now empty) list, not to this one.
        let mut node = std::mem::replace(&mut self.s.frontiers.head[root as usize], NIL);
        let (mut kept, mut kept_tail) = (NIL, NIL);
        while node != NIL {
            let next = self.s.frontiers.next[node as usize];
            let e = self.dec.node_edge[node as usize];
            let (a, b, _) = self.dec.edges[e as usize];
            let ra = self.find(a);
            let rb = self.find(b);
            // An edge that became internal is dropped: completing it
            // would only add a cycle.
            if ra != rb {
                self.s.growth[e as usize] += 1;
                if self.s.growth[e as usize] >= 2 {
                    self.union(ra, rb);
                } else {
                    // Half-grown: it stays on the frontier, in order.
                    match kept_tail {
                        NIL => kept = node,
                        _ => self.s.frontiers.next[kept_tail as usize] = node,
                    }
                    kept_tail = node;
                }
            }
            node = next;
        }
        // The surviving edges go back on the end of the cluster's list.
        if kept != NIL {
            let root = self.find(root) as usize;
            let lists = &mut self.s.frontiers;
            lists.next[kept_tail as usize] = NIL;
            match lists.head[root] {
                NIL => lists.head[root] = kept,
                _ => lists.next[lists.tail[root] as usize] = kept,
            }
            lists.tail[root] = kept_tail;
        }
    }

    /// Extracts a correction from the fully-grown edges by peeling a
    /// spanning forest: leaves carrying a defect contribute their tree
    /// edge and hand the defect to their parent; a boundary root absorbs
    /// whatever remains.
    fn peel(self, syndrome: &[bool], correction: &mut Vec<usize>) {
        let dec = self.dec;
        let s = self.s;
        let n = dec.num_nodes;
        // Erasure adjacency: fully-grown edges only.
        for slot in &mut s.grown_adj {
            slot.clear();
        }
        for (e, &(a, b, _)) in dec.edges.iter().enumerate() {
            if s.growth[e] >= 2 {
                s.grown_adj[a as usize].push((b, e as u32));
                s.grown_adj[b as usize].push((a, e as u32));
            }
        }
        s.defect.clear();
        s.defect.resize(n, false);
        s.defect[..dec.num_checks].copy_from_slice(syndrome);
        s.visited.clear();
        s.visited.resize(n, false);
        s.peel_parent.clear();
        s.peel_parent.resize(n, u32::MAX);
        s.peel_edge.clear();
        s.peel_edge.resize(n, u32::MAX);

        for v in 0..dec.num_checks as u32 {
            if !s.defect[v as usize] || s.visited[v as usize] {
                continue;
            }
            // Pass 1: collect the erasure component, preferring a
            // boundary vertex as the peeling root so it can absorb an
            // odd defect.
            s.comp.clear();
            s.comp.push(v);
            s.visited[v as usize] = true;
            let mut head = 0;
            while head < s.comp.len() {
                let u = s.comp[head];
                head += 1;
                for i in 0..s.grown_adj[u as usize].len() {
                    let (w, _) = s.grown_adj[u as usize][i];
                    if !s.visited[w as usize] {
                        s.visited[w as usize] = true;
                        s.comp.push(w);
                    }
                }
            }
            let root = s
                .comp
                .iter()
                .copied()
                .find(|&u| u >= dec.num_checks as u32)
                .unwrap_or(v);
            // Pass 2: BFS spanning tree from the root; BFS order puts
            // parents before children, so the reverse order peels
            // leaves first.
            for i in 0..s.comp.len() {
                let u = s.comp[i];
                s.peel_parent[u as usize] = u32::MAX;
            }
            s.peel_parent[root as usize] = root;
            s.order.clear();
            s.order.push(root);
            let mut head = 0;
            while head < s.order.len() {
                let u = s.order[head];
                head += 1;
                for i in 0..s.grown_adj[u as usize].len() {
                    let (w, e) = s.grown_adj[u as usize][i];
                    if s.peel_parent[w as usize] == u32::MAX {
                        s.peel_parent[w as usize] = u;
                        s.peel_edge[w as usize] = e;
                        s.order.push(w);
                    }
                }
            }
            for &u in s.order.iter().skip(1).rev() {
                if s.defect[u as usize] {
                    correction.push(dec.edges[s.peel_edge[u as usize] as usize].2 as usize);
                    s.defect[u as usize] = false;
                    s.defect[s.peel_parent[u as usize] as usize] ^= true;
                }
            }
            // A residual defect at the root is legal only on a boundary
            // vertex (the virtual vertex "absorbs" it — the chain ends
            // on the open boundary).
            debug_assert!(
                !s.defect[root as usize] || root >= dec.num_checks as u32,
                "unpaired defect survived peeling"
            );
        }
        correction.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::{Rng, SeedableRng};

    #[test]
    fn graph_has_one_edge_per_data_qubit() {
        for d in [3, 5, 7, 9, 11, 13] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                assert_eq!(dec.edges.len(), code.num_data_qubits(), "d={d} {kind:?}");
                let mut qubits: Vec<u32> = dec.edges.iter().map(|&(_, _, q)| q).collect();
                qubits.sort_unstable();
                let expected: Vec<u32> = (0..code.num_data_qubits() as u32).collect();
                assert_eq!(qubits, expected, "d={d} {kind:?}");
            }
        }
    }

    #[test]
    fn empty_syndrome_decodes_to_nothing() {
        let code = RotatedSurfaceCode::new(7);
        let dec = UnionFindDecoder::new(&code, CheckKind::X);
        assert!(dec.decode(&vec![false; dec.syndrome_len()]).is_empty());
    }

    #[test]
    fn single_errors_fully_corrected_without_logical_fault() {
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                let logical = match kind {
                    CheckKind::X => code.logical_z_support(),
                    CheckKind::Z => code.logical_x_support(),
                };
                for q in 0..code.num_data_qubits() {
                    let syndrome = code.syndrome_of(&[q], kind);
                    let correction = dec.decode(&syndrome);
                    assert_eq!(
                        code.syndrome_of(&correction, kind),
                        syndrome,
                        "d={d} {kind:?} error on {q}"
                    );
                    let mut combined = correction;
                    combined.push(q);
                    let overlap = combined.iter().filter(|x| logical.contains(x)).count();
                    assert_eq!(overlap % 2, 0, "d={d} {kind:?} error on {q}");
                }
            }
        }
    }

    #[test]
    fn random_syndromes_always_annihilated() {
        let mut rng = StdRng::seed_from_u64(1009);
        for d in [3, 5, 9, 13] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                for _ in 0..100 {
                    let weight = rng.gen_range(0..=code.num_data_qubits() / 2);
                    let errors: Vec<usize> = (0..weight)
                        .map(|_| rng.gen_range(0..code.num_data_qubits()))
                        .collect();
                    let syndrome = code.syndrome_of(&errors, kind);
                    let correction = dec.decode(&syndrome);
                    assert_eq!(
                        code.syndrome_of(&correction, kind),
                        syndrome,
                        "d={d} {kind:?} errors {errors:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn worst_case_all_checks_fired_terminates() {
        for d in [3, 7, 13] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                let syndrome = vec![true; dec.syndrome_len()];
                let correction = dec.decode(&syndrome);
                assert_eq!(code.syndrome_of(&correction, kind), syndrome, "d={d}");
            }
        }
    }

    /// Scratch reuse must be invisible: a fresh decoder and a heavily
    /// reused one produce identical corrections on identical syndromes,
    /// in any interleaving.
    #[test]
    fn reused_scratch_matches_fresh_decoder() {
        let mut rng = StdRng::seed_from_u64(2027);
        for d in [3, 7, 13] {
            let code = RotatedSurfaceCode::new(d);
            let reused = UnionFindDecoder::new(&code, CheckKind::X);
            let mut out = Vec::new();
            for round in 0..50 {
                let weight = rng.gen_range(0..=code.num_data_qubits());
                let errors: Vec<usize> = (0..weight)
                    .map(|_| rng.gen_range(0..code.num_data_qubits()))
                    .collect();
                let syndrome = code.syndrome_of(&errors, CheckKind::X);
                let fresh = UnionFindDecoder::new(&code, CheckKind::X);
                reused.decode_into(&syndrome, &mut out);
                assert_eq!(out, fresh.decode(&syndrome), "d={d} round {round}");
            }
        }
    }

    /// `decode_into` clears whatever the caller left in the buffer.
    #[test]
    fn decode_into_clears_the_buffer() {
        let code = RotatedSurfaceCode::new(5);
        let dec = UnionFindDecoder::new(&code, CheckKind::Z);
        let mut out = vec![7usize, 8, 9];
        dec.decode_into(&vec![false; dec.syndrome_len()], &mut out);
        assert!(out.is_empty());
    }
}
