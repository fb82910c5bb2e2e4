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
//! ## Implementation
//!
//! The graph is one compressed adjacency list: each vertex owns a run of
//! `(far end, edge)` nodes in ascending edge order, and edge `e` is data
//! qubit `e`. The same node arena holds the frontier lists, which are
//! linked lists over it, so a merge splices two lists in O(1).
//!
//! - **Growth** runs in rounds over the active clusters in ascending
//!   root order. The round's seed list is carried from the previous
//!   round — the roots of the seeds still active — instead of found by
//!   a scan of every vertex (`Clusters::grow` says why that is exact).
//! - **Peeling.** An edge is fully grown only when it merges two
//!   clusters, so each cluster's fully-grown edges are a spanning tree
//!   of it. One breadth-first walk of that tree from the cluster's
//!   lowest defect both peels it and, for an odd cluster, finds the
//!   boundary vertex it is rooted at; re-rooting flips only the tree
//!   edges on the path between the two (see `Clusters::peel`).
//!
//! The corrections are pinned byte for byte by `tests/uf_kat.rs`, so a
//! change here that moves one fails there.
//!
//! ## Logical parity
//!
//! A code-capacity sweep needs one bit per decode, not the correction:
//! whether the correction overlaps the support of the logical operator
//! the errors threaten an odd number of times. A frame tracks the
//! correction in software and reads only that bit out. So does
//! [`UnionFindDecoder::decode_logical_parity`]: it shares the growth
//! with [`UnionFindDecoder::decode_into`] and then skips the peel.
//!
//! - **Potential.** [`UnionFindDecoder::new`] gives every vertex a
//!   potential φ ∈ {0, 1} such that an edge's qubit is on the logical
//!   support exactly when the potentials at its two ends differ. Such a
//!   φ exists because the support is a cut of the graph: every cycle
//!   must cross it an even number of times. Virtual vertices have degree
//!   1, so a cycle runs through checks only. An error on a cycle fires
//!   no check and ends on no boundary, so it is a product of stabilizers
//!   of the opposite type, not a logical, and those commute with the
//!   logical. `new` asserts that φ is consistent on every edge.
//! - **Parity.** Summing `φ(a) ⊕ φ(b)` over the correction's edges
//!   counts each vertex once per incident correction edge, so the parity
//!   is the XOR of φ over the correction's odd-degree vertices. Those
//!   are the defects, plus each odd cluster's boundary root: peeling
//!   pairs every other defect inside its cluster, and sends an odd
//!   cluster's spare one to its first boundary vertex in the walk order.
//! - **Boundary roots.** A cluster's flags say which potentials its
//!   boundary vertices have, accumulated by the unions like the flag
//!   that stops growth. If they all share one, that is the root's φ and
//!   nothing is walked. Only a cluster with boundary vertices of both
//!   potentials is walked, in peeling's order, up to the first one.
//! - **Reset.** With few defects the clusters are walked back to rest as
//!   peeling does, and that walk finds the boundary roots itself. With
//!   many, copying a stored rest state over the graph-sized buffers is
//!   cheaper than walking clusters that cover most of the graph.
//!
//! `tests/uf_parity.rs` holds the parity to `decode_into`'s correction.
//!
//! ## Scratch reuse
//!
//! Decoding a 64-lane batch calls the decoder once per live lane on the
//! same graph (at d ≤ 5 only for syndromes the sweep point's parity
//! table has not seen yet). Whole batches go to the executor's threads,
//! each with its own decoder (see [`crate::experiment`]), and the
//! serving path decodes hundreds of batches per job. The per-decode
//! cluster state (union-find forest, frontier lists, growth counters,
//! peeling scratch) therefore lives *inside* the decoder, behind a
//! [`RefCell`]. Every buffer is allocated with the decoder, or a clone
//! of it, at the largest size the graph allows, and rests in the state
//! of an empty syndrome between calls: a decode sets up only its
//! defects, and peeling puts back exactly the vertices and edges the
//! decode touched, since every cluster it walks grew from a defect. So
//! neither [`UnionFindDecoder::decode_into`] nor
//! [`UnionFindDecoder::decode_logical_parity`] touches the heap,
//! whatever the syndrome (pinned by `tests/uf_alloc.rs`), and a decode's
//! cost follows the clusters, not the graph — except a dense parity
//! decode, whose wholesale reset is one pass over the graph.

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
/// // The parity path answers for the same correction without building it.
/// let logical = code.logical_z_support();
/// let hits = correction.iter().filter(|q| logical.contains(q)).count();
/// assert_eq!(decoder.decode_logical_parity(&syndrome), hits % 2 == 1);
/// ```
#[derive(Debug)]
pub struct UnionFindDecoder {
    /// Number of detecting checks == syndrome length. Check vertices are
    /// `0..num_checks` in `checks_of` (syndrome) order; virtual boundary
    /// vertices follow.
    num_checks: usize,
    /// Compressed adjacency: vertex `v`'s incidences are the nodes
    /// `first[v]..first[v + 1]`, in ascending edge order. One entry per
    /// vertex plus the end.
    first: Vec<u32>,
    /// One node per vertex–edge incidence. The arena serves both as the
    /// peeling adjacency and as the frontier lists' storage.
    nodes: Vec<Node>,
    /// The potential φ of each vertex, 0 or 1: an edge's qubit is on the
    /// support of the logical operator the decoded errors threaten
    /// exactly when the potentials at its two ends differ (see the module
    /// docs).
    potential: Vec<u8>,
    /// The scratch's rest state, which a dense parity decode copies back
    /// wholesale.
    rest: Scratch,
    /// Per-decode cluster/peeling state, at rest between calls.
    scratch: RefCell<Scratch>,
}

/// One end of an edge as seen from the vertex whose run holds it. Edge
/// `e` joins vertices `a < b` and *is* data qubit `e`: the graph has
/// exactly one edge per data qubit, built in qubit order.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// The far end of the edge.
    other: u32,
    /// The edge, which is also its data qubit.
    edge: u32,
    /// The far end is `b`: the owning vertex is the edge's `a`.
    other_is_b: bool,
}

impl UnionFindDecoder {
    /// A decoder correcting errors of `error_kind` on `code`.
    ///
    /// # Panics
    ///
    /// Panics if a data qubit is not covered by one or two detecting
    /// checks, or if some cycle of the check graph crosses the threatened
    /// logical operator's support an odd number of times — both
    /// impossible for a well-formed rotated surface code (invariants
    /// checked at construction, not per decode).
    #[must_use]
    pub fn new(code: &RotatedSurfaceCode, error_kind: CheckKind) -> Self {
        let (detecting, logical) = match error_kind {
            CheckKind::X => (CheckKind::Z, code.logical_z_support()),
            CheckKind::Z => (CheckKind::X, code.logical_x_support()),
        };
        // data qubit -> (number of detecting checks containing it, the
        // first two of them).
        let mut owners = vec![(0usize, [0u32; 2]); code.num_data_qubits()];
        let mut num_checks = 0;
        for (i, ch) in code.checks_of(detecting).enumerate() {
            num_checks += 1;
            for &q in &ch.support {
                let (count, own) = &mut owners[q];
                if let Some(slot) = own.get_mut(*count) {
                    *slot = i as u32;
                }
                *count += 1;
            }
        }
        // `(a, b)` per edge, `a < b`: checks come in ascending order and
        // virtual vertices are numbered after every check.
        let mut edges = Vec::with_capacity(owners.len());
        let mut num_nodes = num_checks;
        for (q, &(count, [a, b])) in owners.iter().enumerate() {
            match count {
                // Interior qubit: an edge between its two checks.
                2 => edges.push((a, b)),
                // Boundary qubit: an edge to a fresh virtual vertex, so
                // chains may terminate there.
                1 => {
                    edges.push((a, num_nodes as u32));
                    num_nodes += 1;
                }
                _ => panic!("data qubit {q} covered by {count} detecting checks"),
            }
        }
        // Counting sort of the incidences by vertex; filling in edge
        // order keeps each vertex's run ascending by edge.
        let mut first = vec![0u32; num_nodes + 1];
        for &(a, b) in &edges {
            first[a as usize + 1] += 1;
            first[b as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut nodes = vec![
            Node {
                other: 0,
                edge: 0,
                other_is_b: false,
            };
            2 * edges.len()
        ];
        for (e, &(a, b)) in edges.iter().enumerate() {
            let edge = e as u32;
            for (owner, other, other_is_b) in [(a, b, true), (b, a, false)] {
                nodes[fill[owner as usize] as usize] = Node {
                    other,
                    edge,
                    other_is_b,
                };
                fill[owner as usize] += 1;
            }
        }
        // Every vertex has an edge: a check covers data qubits, and a
        // virtual vertex exists for its boundary qubit.
        debug_assert!(first.windows(2).all(|run| run[0] < run[1]));
        let potential = potentials(&first, &nodes, &logical);
        UnionFindDecoder::from_graph(num_checks, first, nodes, potential)
    }

    /// The decoder of a built graph, with its rest state and scratch
    /// allocated at the largest size the graph allows.
    fn from_graph(
        num_checks: usize,
        first: Vec<u32>,
        nodes: Vec<Node>,
        potential: Vec<u8>,
    ) -> Self {
        UnionFindDecoder {
            rest: Scratch::for_graph(num_checks, &first, &potential),
            scratch: RefCell::new(Scratch::for_graph(num_checks, &first, &potential)),
            num_checks,
            first,
            nodes,
            potential,
        }
    }

    /// The number of syndrome bits the decoder expects.
    #[must_use]
    pub fn syndrome_len(&self) -> usize {
        self.num_checks
    }

    /// Edges == data qubits.
    fn num_edges(&self) -> usize {
        self.nodes.len() / 2
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
        let (clusters, defects, peeling) = self.grow(syndrome, &mut scratch);
        clusters.peel(defects, peeling, correction);
    }

    /// Whether [`UnionFindDecoder::decode`]'s correction of `syndrome`
    /// overlaps the support of the logical operator the decoded errors
    /// threaten an odd number of times — the one bit of a decode a
    /// logical-failure count needs. Builds no correction and never
    /// allocates (pinned by `tests/uf_alloc.rs`); `tests/uf_parity.rs`
    /// holds it to [`UnionFindDecoder::decode_into`].
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match the code.
    #[must_use]
    pub fn decode_logical_parity(&self, syndrome: &[bool]) -> bool {
        assert_eq!(syndrome.len(), self.num_checks, "syndrome length mismatch");
        if syndrome.iter().all(|s| !s) {
            return false;
        }
        let mut scratch = self.scratch.borrow_mut();
        let (clusters, defects, peeling) = self.grow(syndrome, &mut scratch);
        clusters.logical_parity(defects, peeling)
    }

    /// The part of a decode both outputs share: sets the scratch up for
    /// the defects of a non-empty `syndrome` and grows their clusters
    /// until every one is neutral. Returns the grown clusters, the
    /// defects in ascending order and the peeling workspace.
    fn grow<'s>(
        &'s self,
        syndrome: &[bool],
        scratch: &'s mut Scratch,
    ) -> (Clusters<'s>, &'s [u32], Peeling<'s>) {
        let Scratch {
            parent,
            size,
            flags,
            head,
            tail,
            next,
            growth,
            defects,
            seeds,
            roots,
            defect,
            chosen,
            peel_parent,
            peel_edge,
            order,
        } = scratch;
        // The defects, ascending, by a branch-free compaction: every
        // check is written, only defects advance the count.
        defects.clear();
        defects.resize(self.num_checks, 0);
        let mut count = 0;
        for (v, &fired) in syndrome.iter().enumerate() {
            defects[count] = v as u32;
            count += usize::from(fired);
        }
        defects.truncate(count);
        // From the rest state to one singleton cluster per vertex, odd at
        // the defects.
        for (f, &fired) in flags.iter_mut().zip(syndrome) {
            *f = u8::from(fired);
        }
        defect[..self.num_checks].copy_from_slice(syndrome);
        // The hot loops work on plain slices: their pointers and lengths
        // stay in registers across the stores into the scratch.
        let mut clusters = Clusters {
            dec: self,
            parent,
            size,
            flags,
            head,
            tail,
            next,
            growth,
        };
        clusters.grow(defects, seeds, roots);
        let peeling = Peeling {
            defect,
            chosen,
            parent: peel_parent,
            edge: peel_edge,
            order,
        };
        (clusters, defects, peeling)
    }
}

/// The potential of every vertex of the check graph `first`/`nodes`: 0
/// at the lowest vertex of each connected piece, flipping across exactly
/// the edges whose qubit is in `logical`.
///
/// # Panics
///
/// Panics if no such potential exists, i.e. if some cycle crosses
/// `logical` an odd number of times. The walk meets every edge from both
/// ends, so it checks every edge against the rule.
fn potentials(first: &[u32], nodes: &[Node], logical: &[usize]) -> Vec<u8> {
    const UNSET: u8 = u8::MAX;
    let mut on_logical = vec![0u8; nodes.len() / 2];
    for &q in logical {
        on_logical[q] = 1;
    }
    let mut potential = vec![UNSET; first.len() - 1];
    let mut stack = Vec::new();
    for start in 0..potential.len() {
        if potential[start] != UNSET {
            continue;
        }
        potential[start] = 0;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for node in &nodes[first[u] as usize..first[u + 1] as usize] {
                let phi = potential[u] ^ on_logical[node.edge as usize];
                let far = &mut potential[node.other as usize];
                if *far == UNSET {
                    *far = phi;
                    stack.push(node.other as usize);
                }
                assert_eq!(
                    *far, phi,
                    "the logical support is not a cut of the check graph at qubit {}",
                    node.edge
                );
            }
        }
    }
    potential
}

/// A clone gets scratch of its own, sized like [`UnionFindDecoder::new`]'s:
/// a copied `Vec` keeps its length, not its capacity, so a copied
/// scratch would allocate on the clone's first decodes.
impl Clone for UnionFindDecoder {
    fn clone(&self) -> Self {
        UnionFindDecoder::from_graph(
            self.num_checks,
            self.first.clone(),
            self.nodes.clone(),
            self.potential.clone(),
        )
    }
}

/// Per-decode cluster state: a union-find forest over the graph vertices
/// with per-root parity/boundary bookkeeping, frontier lists, per-edge
/// growth, and the peeling workspace. Lives inside the decoder, is
/// allocated with it at the largest size the graph can need, and rests
/// in the state of an empty syndrome between calls.
#[derive(Debug)]
struct Scratch {
    parent: Vec<u32>,
    /// Vertices in the tree (for weighted union), valid at roots.
    size: Vec<u32>,
    /// [`ODD`] and boundary flags of the cluster, valid at roots.
    flags: Vec<u8>,
    /// Frontier edge lists: singly linked lists over the decoder's node
    /// arena, so a merge splices two lists in O(1) and the arena never
    /// grows. Valid at roots, and may hold edges that have since become
    /// internal; those are dropped lazily when the cluster next grows.
    /// At rest each vertex's list is its own run of nodes.
    ///
    /// First node per vertex ([`NIL`] = empty).
    head: Vec<u32>,
    /// Last node per vertex, valid where `head` is not [`NIL`].
    tail: Vec<u32>,
    /// Next node per node.
    next: Vec<u32>,
    /// Half-edge growth per edge, saturating at 2 (= fully grown).
    growth: Vec<u8>,
    /// The syndrome's defects, ascending.
    defects: Vec<u32>,
    /// Growth-round seeds: the active roots at the start of the round,
    /// ascending.
    seeds: Vec<u32>,
    /// The next round's seeds as a bit set over the vertices, empty at
    /// rest.
    roots: Vec<u64>,
    /// Peeling: live defect flags, consumed leaf-by-leaf.
    defect: Vec<bool>,
    /// Peeling: the correction so far, one bit per edge.
    chosen: Vec<u64>,
    /// Peeling: spanning-tree parent per vertex.
    peel_parent: Vec<u32>,
    /// Peeling: tree edge to the parent.
    peel_edge: Vec<u32>,
    /// Peeling: the current cluster in BFS order.
    order: Vec<u32>,
}

impl Scratch {
    /// The rest state for a graph with `num_checks` check vertices,
    /// incidence runs `first` and vertex potentials `potential`, every
    /// buffer at its bound: one entry per vertex, node or edge.
    fn for_graph(num_checks: usize, first: &[u32], potential: &[u8]) -> Self {
        let n = first.len() - 1;
        let nodes = first[n] as usize;
        let edges = nodes / 2;
        let mut next: Vec<u32> = (1..=nodes as u32).collect();
        for &end in &first[1..] {
            next[end as usize - 1] = NIL;
        }
        Scratch {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            // A singleton without a defect: a virtual vertex is a
            // boundary of its potential.
            flags: (0..n)
                .map(|v| {
                    if v < num_checks {
                        0
                    } else {
                        BOUNDARY_0 << potential[v]
                    }
                })
                .collect(),
            head: first[..n].to_vec(),
            tail: first[1..].iter().map(|&end| end - 1).collect(),
            next,
            growth: vec![0; edges],
            defects: Vec::with_capacity(num_checks),
            seeds: Vec::with_capacity(num_checks),
            roots: vec![0; n.div_ceil(64)],
            defect: vec![false; n],
            chosen: vec![0; edges.div_ceil(64)],
            peel_parent: vec![0; n],
            peel_edge: vec![0; n],
            order: vec![0; n],
        }
    }
}

/// Cluster flag: an odd number of defects.
const ODD: u8 = 1;
/// Cluster flag: holds a virtual boundary vertex of potential 0.
const BOUNDARY_0: u8 = 2;
/// Cluster flag: holds a virtual boundary vertex of potential 1.
const BOUNDARY_1: u8 = 4;
/// Either boundary flag: the cluster can absorb one defect.
const BOUNDARY: u8 = BOUNDARY_0 | BOUNDARY_1;

/// The empty link of a frontier list.
const NIL: u32 = u32::MAX;

/// Above this many graph vertices per defect,
/// [`Clusters::logical_parity`] puts the scratch back to rest by walking
/// the clusters; at or below, by copying the rest state back wholesale.
/// Few defects leave small clusters, cheaper to walk than the graph is
/// to copy. Measured with each reset alone on seeded i.i.d. error
/// pools, one core: the walk was ahead at d = 13, 21 and 31 only below
/// about 3, 4 and 7 defects a syndrome, and the copy 30–35 % ahead at
/// p = 0.08.
const WALK_VERTICES_PER_DEFECT: usize = 32;

/// The decoder graph plus the union-find half of its scratch, for one
/// decode call.
struct Clusters<'a> {
    dec: &'a UnionFindDecoder,
    parent: &'a mut [u32],
    size: &'a mut [u32],
    flags: &'a mut [u8],
    head: &'a mut [u32],
    tail: &'a mut [u32],
    next: &'a mut [u32],
    growth: &'a mut [u8],
}

/// The peeling half of the scratch, for one decode call.
struct Peeling<'a> {
    defect: &'a mut [bool],
    chosen: &'a mut [u64],
    parent: &'a mut [u32],
    edge: &'a mut [u32],
    order: &'a mut [u32],
}

impl Clusters<'_> {
    /// Path-halving find.
    fn find(&mut self, v: u32) -> u32 {
        let mut v = v;
        while self.parent[v as usize] != v {
            let grand = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grand;
            v = grand;
        }
        v
    }

    /// Weighted union of two distinct roots, `a` winning ties; returns
    /// the surviving root.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        debug_assert_ne!(a, b);
        let (root, child) = if self.size[a as usize] >= self.size[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        let (root, child) = (root as usize, child as usize);
        self.parent[child] = root as u32;
        self.size[root] += self.size[child];
        // Parities add, boundaries accumulate.
        let child_flags = self.flags[child];
        self.flags[root] = (self.flags[root] ^ (child_flags & ODD)) | (child_flags & BOUNDARY);
        // The child's frontier goes after the root's.
        if self.head[child] != NIL {
            match self.head[root] {
                NIL => self.head[root] = self.head[child],
                _ => self.next[self.tail[root] as usize] = self.head[child],
            }
            self.tail[root] = self.tail[child];
            self.head[child] = NIL;
        }
        root as u32
    }

    /// A cluster keeps growing while it holds an odd number of defects
    /// and no boundary vertex to absorb the spare one.
    fn is_active(&self, root: u32) -> bool {
        self.flags[root as usize] == ODD
    }

    /// Grows active clusters by half an edge per round, in ascending
    /// root order, until every cluster is neutral.
    ///
    /// The seed list is carried from round to round rather than found by
    /// a scan of every vertex: a cluster active after a round is a union
    /// of clusters from its start, all without a boundary vertex and at
    /// least one of them odd — an active seed. So the roots of the seeds
    /// that are still active are exactly the next round's seeds. The
    /// first round's seeds are the defects.
    fn grow(&mut self, defects: &[u32], seeds: &mut Vec<u32>, roots: &mut [u64]) {
        seeds.clear();
        seeds.extend_from_slice(defects);
        // Any cluster reaches a boundary vertex within the graph
        // diameter, so 2·|E| + 2 half-edge rounds always suffice.
        for _round in 0..2 * self.dec.num_edges() + 2 {
            if seeds.is_empty() {
                return;
            }
            for &seed in seeds.iter() {
                // A merge earlier in the round may have absorbed or
                // neutralized this cluster.
                let root = self.find(seed);
                if self.is_active(root) {
                    self.grow_cluster(root);
                }
            }
            // Sorted and deduplicated through a bit set of roots.
            for &seed in seeds.iter() {
                let root = self.find(seed);
                set_if(roots, root, self.is_active(root));
            }
            seeds.clear();
            drain_ascending(roots, |root| seeds.push(root as u32));
        }
        unreachable!("union-find growth failed to neutralize all clusters");
    }

    /// Advances every frontier edge of one cluster by half a step.
    fn grow_cluster(&mut self, root: u32) {
        // Every node on the list belongs to a vertex of this cluster,
        // whose root is tracked through the walk's merges as `root`.
        let mut root = root;
        // Detach the cluster's list and walk it: merges during the walk
        // append to the cluster's (now empty) list, not to this one.
        let mut node = std::mem::replace(&mut self.head[root as usize], NIL);
        let (mut kept, mut kept_tail) = (NIL, NIL);
        while node != NIL {
            let next = self.next[node as usize];
            let Node {
                other,
                edge,
                other_is_b,
            } = self.dec.nodes[node as usize];
            let far = self.find(other);
            // An edge that became internal is dropped: completing it
            // would only add a cycle.
            if far != root {
                let growth = &mut self.growth[edge as usize];
                *growth += 1;
                if *growth >= 2 {
                    // The edge's `a` side wins union ties.
                    root = if other_is_b {
                        self.union(root, far)
                    } else {
                        self.union(far, root)
                    };
                } else {
                    // Half-grown: it stays on the frontier, in order.
                    match kept_tail {
                        NIL => kept = node,
                        _ => self.next[kept_tail as usize] = node,
                    }
                    kept_tail = node;
                }
            }
            node = next;
        }
        // The surviving edges go back on the end of the cluster's list.
        if kept != NIL {
            let root = root as usize;
            self.next[kept_tail as usize] = NIL;
            match self.head[root] {
                NIL => self.head[root] = kept,
                _ => self.next[self.tail[root] as usize] = kept,
            }
            self.tail[root] = kept_tail;
        }
    }

    /// Walks the spanning tree of the cluster holding defect `v`
    /// breadth-first from `v`, each vertex's edges in ascending order:
    /// records the order and each vertex's tree parent and edge in `p`,
    /// and puts every vertex it is done with back to rest, with its
    /// edges. Returns the number of vertices walked and the first
    /// boundary vertex met ([`NIL`] if none); with `stop_at_boundary` it
    /// returns as soon as it meets one, leaving the rest state to the
    /// caller.
    ///
    /// An edge is fully grown only when it merges two clusters, so the
    /// fully-grown edges of a cluster form a spanning tree of it, the
    /// only one its erasure has. A tree edge is first seen from its
    /// parent end; clearing its growth there hides it from the child.
    /// Every cluster grew from a defect, so walking from each cluster's
    /// lowest defect reaches every vertex the decode touched.
    fn walk(&mut self, v: u32, p: &mut Peeling<'_>, stop_at_boundary: bool) -> (usize, u32) {
        let dec = self.dec;
        let checks = dec.num_checks as u32;
        p.order[0] = v;
        let mut len = 1;
        let mut boundary_root = NIL;
        let mut head = 0;
        while head < len {
            let u = p.order[head];
            head += 1;
            let (lo, hi) = (dec.first[u as usize], dec.first[u as usize + 1]);
            for i in lo..hi {
                let node = dec.nodes[i as usize];
                let g = &mut self.growth[node.edge as usize];
                if *g == 2 {
                    let w = node.other;
                    p.parent[w as usize] = u;
                    p.edge[w as usize] = node.edge;
                    p.order[len] = w;
                    len += 1;
                    if w >= checks && boundary_root == NIL {
                        boundary_root = w;
                        if stop_at_boundary {
                            return (len, w);
                        }
                    }
                }
                *g = 0;
                self.next[i as usize] = i + 1;
            }
            // `u` is done with: back to its rest state, a singleton
            // whose frontier is its own run.
            let ui = u as usize;
            self.parent[ui] = u;
            self.size[ui] = 1;
            self.flags[ui] = dec.rest.flags[ui];
            self.head[ui] = lo;
            self.tail[ui] = hi - 1;
            self.next[hi as usize - 1] = NIL;
        }
        (len, boundary_root)
    }

    /// Extracts a correction from the fully-grown edges by peeling each
    /// cluster's spanning tree: leaves carrying a defect contribute their
    /// tree edge and hand the defect to their parent; a boundary root
    /// absorbs whatever remains. Returns the scratch to its rest state on
    /// the way.
    ///
    /// Each tree is [walked](Self::walk) once from the cluster's lowest
    /// defect `v` and peeled towards `v`. An odd cluster must instead be
    /// rooted at its first boundary vertex `r` in that order, so the odd
    /// defect ends on the open boundary: that reverses exactly the tree
    /// edges on the path from `r` to `v`, and an edge on it is in the
    /// correction iff the defects beyond it, seen from `r`, are odd —
    /// the complement of what is peeled towards `v`. An even cluster's
    /// correction does not depend on the root.
    fn peel(mut self, defects: &[u32], mut p: Peeling<'_>, correction: &mut Vec<usize>) {
        // Defects in ascending check order: one still live is the lowest
        // defect of a cluster not peeled yet.
        for &v in defects {
            if !p.defect[v as usize] {
                continue;
            }
            let root = self.find(v);
            let odd_cluster = self.flags[root as usize] & ODD != 0;
            let (len, boundary_root) = self.walk(v, &mut p, false);
            // BFS order puts parents before children, so the reverse
            // order peels leaves first.
            for &u in p.order[1..len].iter().rev() {
                let u = u as usize;
                let carried = std::mem::take(&mut p.defect[u]);
                p.defect[p.parent[u] as usize] ^= carried;
                flip_if(p.chosen, p.edge[u], carried);
            }
            // What reaches `v` is the cluster's parity: an odd one's
            // spare defect goes to the boundary root instead.
            debug_assert_eq!(
                p.defect[v as usize], odd_cluster,
                "unpaired defect survived peeling"
            );
            p.defect[v as usize] = false;
            if odd_cluster {
                debug_assert_ne!(boundary_root, NIL, "odd cluster without a boundary");
                let mut u = boundary_root;
                while u != v {
                    flip_if(p.chosen, p.edge[u as usize], true);
                    u = p.parent[u as usize];
                }
            }
        }
        drain_ascending(p.chosen, |edge| correction.push(edge));
    }

    /// The parity on the logical support of the correction
    /// [`peel`](Self::peel) would extract, without extracting it: the
    /// XOR of the potentials of the defects and of each odd cluster's
    /// boundary root (see the module docs). Returns the scratch to its
    /// rest state.
    ///
    /// With few defects every cluster is [walked](Self::walk) back to
    /// rest as peeling does, and the walk meets each odd cluster's
    /// boundary root on the way. With many, an odd cluster whose
    /// boundary vertices share one potential has it at its root, read
    /// off its flags; only a cluster with boundary vertices of both
    /// potentials is walked, up to its first boundary vertex, and the
    /// rest state is then copied back wholesale
    /// ([`WALK_VERTICES_PER_DEFECT`]).
    fn logical_parity(mut self, defects: &[u32], mut p: Peeling<'_>) -> bool {
        let potential = &self.dec.potential;
        let mut parity = (defects.iter()).fold(0, |acc, &v| acc ^ potential[v as usize]);
        if defects.len() * WALK_VERTICES_PER_DEFECT < potential.len() {
            for &v in defects {
                if !p.defect[v as usize] {
                    continue;
                }
                let root = self.find(v);
                let odd_cluster = self.flags[root as usize] & ODD != 0;
                let (len, boundary_root) = self.walk(v, &mut p, false);
                for &u in &p.order[..len] {
                    p.defect[u as usize] = false;
                }
                if odd_cluster {
                    parity ^= potential[boundary_root as usize];
                }
            }
        } else {
            for &v in defects {
                let root = self.find(v) as usize;
                let flags = self.flags[root];
                // The first defect met of an odd cluster is its lowest;
                // clearing `ODD` skips the cluster's other defects.
                if flags & ODD == 0 {
                    continue;
                }
                self.flags[root] = flags & !ODD;
                parity ^= match flags & BOUNDARY {
                    BOUNDARY_0 => 0,
                    BOUNDARY_1 => 1,
                    _ => {
                        debug_assert_eq!(
                            flags & BOUNDARY,
                            BOUNDARY,
                            "odd cluster without a boundary"
                        );
                        potential[self.walk(v, &mut p, true).1 as usize]
                    }
                };
            }
            for &v in defects {
                p.defect[v as usize] = false;
            }
            self.rest();
        }
        parity == 1
    }

    /// Puts every vertex, node and edge back to rest at once, by copying
    /// the decoder's rest state over the cluster state.
    fn rest(&mut self) {
        let rest = &self.dec.rest;
        self.parent.copy_from_slice(&rest.parent);
        self.size.copy_from_slice(&rest.size);
        self.flags.copy_from_slice(&rest.flags);
        self.head.copy_from_slice(&rest.head);
        self.tail.copy_from_slice(&rest.tail);
        self.next.copy_from_slice(&rest.next);
        self.growth.copy_from_slice(&rest.growth);
    }
}

/// Flips bit `i` of the bit set `bits` if `on`.
fn flip_if(bits: &mut [u64], i: u32, on: bool) {
    bits[i as usize / 64] ^= u64::from(on) << (i % 64);
}

/// Sets bit `i` of the bit set `bits` if `on`.
fn set_if(bits: &mut [u64], i: u32, on: bool) {
    bits[i as usize / 64] |= u64::from(on) << (i % 64);
}

/// Hands the set bits of `bits` to `push` in ascending order, leaving
/// the set empty.
fn drain_ascending(bits: &mut [u64], mut push: impl FnMut(usize)) {
    for (word, bits) in bits.iter_mut().enumerate() {
        let mut bits = std::mem::take(bits);
        while bits != 0 {
            push(64 * word + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
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
                assert_eq!(dec.num_edges(), code.num_data_qubits(), "d={d} {kind:?}");
                // Each edge is seen once from each of its two ends, and
                // each vertex's run is ascending by edge.
                let mut seen = vec![0; dec.num_edges()];
                let incident = |v: u32| {
                    &dec.nodes[dec.first[v as usize] as usize..dec.first[v as usize + 1] as usize]
                };
                for v in 0..dec.first.len() as u32 - 1 {
                    let run = incident(v);
                    assert!(!run.is_empty(), "d={d} {kind:?} vertex {v}");
                    assert!(run.windows(2).all(|w| w[0].edge < w[1].edge));
                    for node in run {
                        seen[node.edge as usize] += 1;
                        let back = incident(node.other);
                        assert!(back.iter().any(|b| b.edge == node.edge && b.other == v));
                    }
                }
                assert!(seen.iter().all(|&c| c == 2), "d={d} {kind:?}");
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

    /// Peeling puts back everything a decode touched: after any decode
    /// the cluster state is the rest state a new decoder starts from.
    #[test]
    fn every_decode_leaves_the_scratch_at_rest() {
        let mut rng = StdRng::seed_from_u64(4242);
        for d in [3, 7, 13] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                let rest = Scratch::for_graph(dec.num_checks, &dec.first, &dec.potential);
                let mut out = Vec::new();
                for round in 0..40 {
                    let density = rng.gen_range(0.0..1.0);
                    let syndrome: Vec<bool> = (0..dec.syndrome_len())
                        .map(|_| rng.gen_bool(density))
                        .collect();
                    dec.decode_into(&syndrome, &mut out);
                    let s = dec.scratch.borrow();
                    let at_rest = s.parent == rest.parent
                        && s.size == rest.size
                        && s.flags == rest.flags
                        && s.head == rest.head
                        && s.tail == rest.tail
                        && s.next == rest.next
                        && s.growth == rest.growth
                        && s.roots == rest.roots
                        && s.defect == rest.defect
                        && s.chosen == rest.chosen;
                    assert!(at_rest, "d={d} {kind:?} round {round}");
                    drop(s);
                    // The parity path rests the scratch as well.
                    let _ = dec.decode_logical_parity(&syndrome);
                    assert!(scratch_at_rest(&dec), "d={d} {kind:?} round {round}");
                }
            }
        }
        // Sparse syndromes take the parity path's cluster-walk reset:
        // every single defect, and seeded triples.
        for d in [7, 13, 21] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                let n = dec.syndrome_len();
                for k in 0..n {
                    let mut syndrome = vec![false; n];
                    syndrome[k] = true;
                    for _ in 0..3 {
                        let _ = dec.decode_logical_parity(&syndrome);
                        assert!(scratch_at_rest(&dec), "d={d} {kind:?} {syndrome:?}");
                        syndrome[rng.gen_range(0..n)] = true;
                    }
                }
            }
        }
    }

    /// Whether a decoder's scratch is in the rest state a new decoder
    /// starts from.
    fn scratch_at_rest(dec: &UnionFindDecoder) -> bool {
        let s = dec.scratch.borrow();
        let rest = Scratch::for_graph(dec.num_checks, &dec.first, &dec.potential);
        s.parent == rest.parent
            && s.size == rest.size
            && s.flags == rest.flags
            && s.head == rest.head
            && s.tail == rest.tail
            && s.next == rest.next
            && s.growth == rest.growth
            && s.roots == rest.roots
            && s.defect == rest.defect
            && s.chosen == rest.chosen
    }

    /// The potential flips across exactly the threatened logical's
    /// support, at every distance the oracles reach: `new` asserts that
    /// such a potential exists, and this checks what it built.
    #[test]
    fn potential_flips_exactly_across_the_logical_support() {
        for d in (3..=21).step_by(2) {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let dec = UnionFindDecoder::new(&code, kind);
                let logical = match kind {
                    CheckKind::X => code.logical_z_support(),
                    CheckKind::Z => code.logical_x_support(),
                };
                assert!(dec.potential.iter().all(|&phi| phi <= 1));
                for v in 0..dec.first.len() - 1 {
                    for node in &dec.nodes[dec.first[v] as usize..dec.first[v + 1] as usize] {
                        assert_eq!(
                            dec.potential[v] != dec.potential[node.other as usize],
                            logical.contains(&(node.edge as usize)),
                            "d={d} {kind:?} qubit {}",
                            node.edge
                        );
                    }
                }
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
