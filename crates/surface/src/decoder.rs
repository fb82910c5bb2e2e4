//! Minimum-weight defect matching for rotated surface codes.
//!
//! A set of fired checks ("defects") of one kind must be paired up — with
//! each other or with the code boundary — by error chains; the decoder
//! picks the pairing of minimum total chain length and returns the data
//! qubits of the corresponding correction chains. This is the same
//! objective the Blossom algorithm optimizes (the decoder family the
//! paper cites for larger codes); for the sparse defect sets that
//! dominate below threshold the bitmask dynamic program here is exact,
//! and dense syndromes hand off to the near-linear
//! [`UnionFindDecoder`].
//!
//! Geometry: X errors flip Z checks, whose plaquette coordinates step
//! diagonally (`±1, ±1`) per data-qubit error, and whose chains may
//! terminate on the top/bottom boundaries. Z errors flip X checks and
//! terminate on the left/right boundaries. Both cases reduce to the same
//! metric with the roles of rows and columns swapped.

use crate::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

/// Above this many defects the exact bitmask matching would blow up;
/// hand the syndrome to the union-find decoder.
pub(crate) const EXACT_LIMIT: usize = 12;

/// A minimum-weight matching decoder for one check family of a
/// [`RotatedSurfaceCode`].
///
/// # Example
///
/// ```
/// use qpdo_surface::{CheckKind, MatchingDecoder, RotatedSurfaceCode};
///
/// let code = RotatedSurfaceCode::new(5);
/// let decoder = MatchingDecoder::new(&code, CheckKind::X);
/// // An X error on the central data qubit fires two Z checks; the
/// // decoder proposes a single-qubit correction with the same syndrome.
/// let syndrome = code.syndrome_of(&[12], CheckKind::X);
/// let correction = decoder.decode(&syndrome);
/// assert_eq!(code.syndrome_of(&correction, CheckKind::X), syndrome);
/// assert_eq!(correction.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MatchingDecoder {
    d: usize,
    /// The error kind being corrected (X errors ↔ Z checks).
    error_kind: CheckKind,
    /// Plaquette coordinates of the detecting checks, in
    /// `checks_of(detecting_kind)` order (the syndrome order).
    check_coords: Vec<(usize, usize)>,
    /// Handles syndromes too dense for the exact bitmask DP.
    uf: UnionFindDecoder,
}

impl MatchingDecoder {
    /// A decoder correcting errors of `error_kind` on `code`.
    #[must_use]
    pub fn new(code: &RotatedSurfaceCode, error_kind: CheckKind) -> Self {
        let detecting = match error_kind {
            CheckKind::X => CheckKind::Z,
            CheckKind::Z => CheckKind::X,
        };
        MatchingDecoder {
            d: code.distance(),
            error_kind,
            check_coords: code.checks_of(detecting).map(|ch| ch.coords).collect(),
            uf: UnionFindDecoder::new(code, error_kind),
        }
    }

    /// The number of syndrome bits the decoder expects.
    #[must_use]
    pub fn syndrome_len(&self) -> usize {
        self.check_coords.len()
    }

    /// Decodes a syndrome (one flag per detecting check, in
    /// `checks_of` order) into the data qubits of a correction.
    ///
    /// Up to `EXACT_LIMIT` (12) defects the pairing is exact minimum-weight
    /// (this is the small-d oracle the union-find decoder is gated
    /// against); denser syndromes go to the near-linear
    /// [`UnionFindDecoder`], which has no defect-count cap.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length does not match the code.
    #[must_use]
    pub fn decode(&self, syndrome: &[bool]) -> Vec<usize> {
        assert_eq!(
            syndrome.len(),
            self.check_coords.len(),
            "syndrome length mismatch"
        );
        let defects: Vec<(usize, usize)> = syndrome
            .iter()
            .zip(&self.check_coords)
            .filter(|(fired, _)| **fired)
            .map(|(_, &coords)| coords)
            .collect();
        if defects.is_empty() {
            return Vec::new();
        }
        if defects.len() > EXACT_LIMIT {
            return self.uf.decode(syndrome);
        }
        let pairing = self.exact_pairing(&defects);
        self.chains_of(&defects, &pairing)
    }

    /// Materializes a pairing into correction chains, cancelling
    /// overlapping qubits.
    fn chains_of(&self, defects: &[(usize, usize)], pairing: &[Pairing]) -> Vec<usize> {
        let mut correction = Vec::new();
        for assignment in pairing {
            match *assignment {
                Pairing::Together(a, b) => {
                    correction.extend(self.chain_between(defects[a], defects[b]));
                }
                Pairing::Boundary(a) => {
                    correction.extend(self.chain_to_boundary(defects[a]));
                }
            }
        }
        // Chains may overlap on shared qubits; overlapping Paulis cancel.
        dedup_xor(&mut correction);
        correction
    }

    /// Chain length between two defects: diagonal steps, so the Chebyshev
    /// distance.
    fn pair_cost(&self, a: (usize, usize), b: (usize, usize)) -> usize {
        let dr = a.0.abs_diff(b.0);
        let dc = a.1.abs_diff(b.1);
        dr.max(dc)
    }

    /// Chain length from a defect to its terminating boundary: rows for
    /// X errors (top/bottom), columns for Z errors (left/right).
    fn boundary_cost(&self, a: (usize, usize)) -> usize {
        let along = match self.error_kind {
            CheckKind::X => a.0,
            CheckKind::Z => a.1,
        };
        along.min(self.d - along)
    }

    fn exact_pairing(&self, defects: &[(usize, usize)]) -> Vec<Pairing> {
        let n = defects.len();
        let full = (1usize << n) - 1;
        let mut best = vec![usize::MAX; full + 1];
        let mut choice: Vec<Option<Pairing>> = vec![None; full + 1];
        best[0] = 0;
        for set in 1..=full {
            let first = set.trailing_zeros() as usize;
            let rest = set & !(1 << first);
            // Pair `first` with the boundary.
            let cost = best[rest].saturating_add(self.boundary_cost(defects[first]));
            if cost < best[set] {
                best[set] = cost;
                choice[set] = Some(Pairing::Boundary(first));
            }
            // Or with any other defect in the set.
            let mut others = rest;
            while others != 0 {
                let second = others.trailing_zeros() as usize;
                others &= others - 1;
                let remaining = rest & !(1 << second);
                let cost =
                    best[remaining].saturating_add(self.pair_cost(defects[first], defects[second]));
                if cost < best[set] {
                    best[set] = cost;
                    choice[set] = Some(Pairing::Together(first, second));
                }
            }
        }
        // Reconstruct.
        let mut pairing = Vec::new();
        let mut set = full;
        while set != 0 {
            let c = choice[set].expect("all sets reachable");
            match c {
                Pairing::Boundary(a) => set &= !(1 << a),
                Pairing::Together(a, b) => set &= !((1 << a) | (1 << b)),
            }
            pairing.push(c);
        }
        pairing
    }

    /// The data qubits of a diagonal chain between two same-kind checks.
    ///
    /// Every intermediate coordinate must land on an *existing* check of
    /// the detecting kind so the telescoping syndrome cancellation holds:
    /// for X errors (Z checks) the zig in rows stays inside `1..=d-1`
    /// (no Z checks on the top/bottom rows); for Z errors (X checks) the
    /// zig in columns stays inside `1..=d-1`.
    fn chain_between(&self, from: (usize, usize), to: (usize, usize)) -> Vec<usize> {
        let d = self.d as isize;
        let mut qubits = Vec::new();
        let (mut r, mut c) = (from.0 as isize, from.1 as isize);
        let (tr, tc) = (to.0 as isize, to.1 as isize);
        // Zig bounds per axis: the axis hosting excluded boundary checks
        // must stay strictly inside.
        let (r_hi, c_hi) = match self.error_kind {
            CheckKind::X => (d - 1, d), // Z checks: rows 1..=d-1, cols 0..=d
            CheckKind::Z => (d, d - 1), // X checks: rows 0..=d, cols 1..=d-1
        };
        let (r_lo, c_lo) = match self.error_kind {
            CheckKind::X => (1, 0),
            CheckKind::Z => (0, 1),
        };
        while (r, c) != (tr, tc) {
            let dr = match tr.cmp(&r) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                // Rows done but columns remain: zig within the legal band
                // (defect parity guarantees an even number of zig steps).
                std::cmp::Ordering::Equal => {
                    if r < r_hi {
                        1
                    } else {
                        -1
                    }
                }
            };
            let dc = match tc.cmp(&c) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => {
                    if c < c_hi {
                        1
                    } else {
                        -1
                    }
                }
            };
            qubits.push(self.data_between((r, c), (dr, dc)));
            r += dr;
            c += dc;
            debug_assert!((r_lo..=r_hi).contains(&r) || r == tr, "row {r} off band");
            debug_assert!((c_lo..=c_hi).contains(&c) || c == tc, "col {c} off band");
        }
        qubits
    }

    /// The data qubits of the shortest chain from a check to its
    /// terminating boundary.
    fn chain_to_boundary(&self, from: (usize, usize)) -> Vec<usize> {
        let d = self.d as isize;
        let (mut r, mut c) = (from.0 as isize, from.1 as isize);
        let mut qubits = Vec::new();
        // Direction along the terminating axis; free axis stays in-range.
        match self.error_kind {
            CheckKind::X => {
                let dr: isize = if from.0 <= self.d / 2 { -1 } else { 1 };
                while r > 0 && r < d {
                    let dc: isize = if c < d { 1 } else { -1 };
                    qubits.push(self.data_between((r, c), (dr, dc)));
                    r += dr;
                    c += dc;
                    // Bounce the free axis back to keep coordinates legal.
                    if !(0..=d).contains(&c) {
                        c -= 2 * dc;
                    }
                }
            }
            CheckKind::Z => {
                let dc: isize = if from.1 <= self.d / 2 { -1 } else { 1 };
                while c > 0 && c < d {
                    let dr: isize = if r < d { 1 } else { -1 };
                    qubits.push(self.data_between((r, c), (dr, dc)));
                    r += dr;
                    c += dc;
                    if !(0..=d).contains(&r) {
                        r -= 2 * dr;
                    }
                }
            }
        }
        qubits
    }

    /// The data qubit between plaquette `(r, c)` and `(r+dr, c+dc)`.
    fn data_between(&self, from: (isize, isize), step: (isize, isize)) -> usize {
        let (r, c) = from;
        let (dr, dc) = step;
        let i = if dr > 0 { r } else { r - 1 };
        let j = if dc > 0 { c } else { c - 1 };
        debug_assert!(
            (0..self.d as isize).contains(&i) && (0..self.d as isize).contains(&j),
            "chain stepped off the data grid: ({i}, {j})"
        );
        (i as usize) * self.d + j as usize
    }
}

#[derive(Clone, Copy, Debug)]
enum Pairing {
    Together(usize, usize),
    Boundary(usize),
}

/// Removes qubits that appear an even number of times (Pauli
/// cancellation) and sorts the rest.
fn dedup_xor(qubits: &mut Vec<usize>) {
    qubits.sort_unstable();
    let mut out = Vec::with_capacity(qubits.len());
    let mut i = 0;
    while i < qubits.len() {
        let mut j = i;
        while j < qubits.len() && qubits[j] == qubits[i] {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            out.push(qubits[i]);
        }
        i = j;
    }
    *qubits = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::{Rng, SeedableRng};

    fn syndrome_matches(code: &RotatedSurfaceCode, kind: CheckKind, errors: &[usize]) -> bool {
        let decoder = MatchingDecoder::new(code, kind);
        let syndrome = code.syndrome_of(errors, kind);
        let correction = decoder.decode(&syndrome);
        code.syndrome_of(&correction, kind) == syndrome
    }

    #[test]
    fn empty_syndrome_decodes_to_nothing() {
        let code = RotatedSurfaceCode::new(5);
        let decoder = MatchingDecoder::new(&code, CheckKind::X);
        assert!(decoder
            .decode(&vec![false; decoder.syndrome_len()])
            .is_empty());
    }

    #[test]
    fn single_errors_fully_corrected() {
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            for kind in [CheckKind::X, CheckKind::Z] {
                let decoder = MatchingDecoder::new(&code, kind);
                for q in 0..code.num_data_qubits() {
                    let syndrome = code.syndrome_of(&[q], kind);
                    let correction = decoder.decode(&syndrome);
                    // Syndrome must match exactly...
                    assert_eq!(
                        code.syndrome_of(&correction, kind),
                        syndrome,
                        "d={d} {kind:?} error on {q}"
                    );
                    // ...and error+correction must not implement a logical
                    // operator: its overlap with the crossing logical is
                    // even.
                    let logical = match kind {
                        CheckKind::X => code.logical_z_support(),
                        CheckKind::Z => code.logical_x_support(),
                    };
                    let mut combined = correction;
                    combined.push(q);
                    let overlap = combined.iter().filter(|x| logical.contains(x)).count();
                    assert_eq!(overlap % 2, 0, "d={d} {kind:?} error on {q}");
                }
            }
        }
    }

    #[test]
    fn correctable_weight_is_at_least_floor_d_half() {
        // Any (d-1)/2 errors on distinct rows decode without a logical
        // fault for X errors (a representative below-distance pattern).
        for d in [3, 5] {
            let code = RotatedSurfaceCode::new(d);
            let decoder = MatchingDecoder::new(&code, CheckKind::X);
            let t = (d - 1) / 2;
            let errors: Vec<usize> = (0..t).map(|k| code.data_index(2 * k, k)).collect();
            let syndrome = code.syndrome_of(&errors, CheckKind::X);
            let correction = decoder.decode(&syndrome);
            assert_eq!(code.syndrome_of(&correction, CheckKind::X), syndrome);
            let logical = code.logical_z_support();
            let mut combined = correction;
            combined.extend(&errors);
            dedup_xor(&mut combined);
            let overlap = combined.iter().filter(|x| logical.contains(x)).count();
            assert_eq!(overlap % 2, 0, "d={d} logical fault on correctable error");
        }
    }

    #[test]
    fn random_errors_always_produce_consistent_corrections() {
        // The correction need not equal the error, but must always clear
        // the syndrome.
        let mut rng = StdRng::seed_from_u64(77);
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            for _ in 0..200 {
                let weight = rng.gen_range(0..=d);
                let errors: Vec<usize> = (0..weight)
                    .map(|_| rng.gen_range(0..code.num_data_qubits()))
                    .collect();
                for kind in [CheckKind::X, CheckKind::Z] {
                    assert!(
                        syndrome_matches(&code, kind, &errors),
                        "d={d} {kind:?} errors {errors:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_syndromes_hit_union_find_path() {
        // Flip enough qubits that more than EXACT_LIMIT defects fire;
        // decode() must still clear the syndrome via the union-find
        // hand-off.
        let mut rng = StdRng::seed_from_u64(88);
        let code = RotatedSurfaceCode::new(9);
        for _ in 0..20 {
            let errors: Vec<usize> = (0..25)
                .map(|_| rng.gen_range(0..code.num_data_qubits()))
                .collect();
            assert!(syndrome_matches(&code, CheckKind::X, &errors));
        }
    }

    #[test]
    fn dense_default_path_matches_union_find_exactly() {
        // Above EXACT_LIMIT the default path *is* the union-find
        // decoder, byte-for-byte.
        let mut rng = StdRng::seed_from_u64(89);
        let code = RotatedSurfaceCode::new(9);
        let matching = MatchingDecoder::new(&code, CheckKind::X);
        let uf = crate::UnionFindDecoder::new(&code, CheckKind::X);
        for _ in 0..20 {
            let errors: Vec<usize> = (0..25)
                .map(|_| rng.gen_range(0..code.num_data_qubits()))
                .collect();
            let syndrome = code.syndrome_of(&errors, CheckKind::X);
            if syndrome.iter().filter(|s| **s).count() > EXACT_LIMIT {
                assert_eq!(matching.decode(&syndrome), uf.decode(&syndrome));
            }
        }
    }

    #[test]
    fn dedup_xor_cancels_pairs() {
        let mut v = vec![3, 1, 3, 2, 2, 2];
        dedup_xor(&mut v);
        assert_eq!(v, vec![1, 2]);
    }
}
