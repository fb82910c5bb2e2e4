//! Differential oracle for the union-find decoder's logical-parity path.
//!
//! [`UnionFindDecoder::decode_logical_parity`] answers the one question
//! a code-capacity sweep asks of a decode, whether the correction
//! overlaps the threatened logical operator's support an odd number of
//! times, without building the correction. This file holds it to the
//! parity of [`UnionFindDecoder::decode_into`]'s correction on that
//! support:
//!
//! - every syndrome at d = 3 and 5, both kinds;
//! - every syndrome of one to three defects at d = 7…13, both kinds;
//! - the seeded pools, the all-fired syndrome and every single-defect
//!   syndrome of `tests/uf_kat.rs` at d = 3…13;
//! - seeded pools at d = 15…21 with p up to 0.2, dense enough that
//!   clusters reach both boundaries.
//!
//! Each syndrome goes through the parity path first and then through
//! `decode_into` on the same decoder, so a parity call that left its
//! scratch off its rest state shows up as a wrong correction here or in
//! `uf_kat`.

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

/// One decoder and the support of the logical operator its errors
/// threaten, as a per-qubit flag.
struct Point {
    code: RotatedSurfaceCode,
    kind: CheckKind,
    decoder: UnionFindDecoder,
    on_logical: Vec<bool>,
    correction: Vec<usize>,
}

impl Point {
    fn new(d: usize, kind: CheckKind) -> Self {
        let code = RotatedSurfaceCode::new(d);
        let logical = match kind {
            CheckKind::X => code.logical_z_support(),
            CheckKind::Z => code.logical_x_support(),
        };
        let mut on_logical = vec![false; code.num_data_qubits()];
        for q in logical {
            on_logical[q] = true;
        }
        Point {
            decoder: UnionFindDecoder::new(&code, kind),
            code,
            kind,
            on_logical,
            correction: Vec::new(),
        }
    }

    /// Asserts that both paths agree on `syndrome`; returns the parity.
    fn check(&mut self, syndrome: &[bool], what: &str) -> bool {
        let fast = self.decoder.decode_logical_parity(syndrome);
        self.decoder.decode_into(syndrome, &mut self.correction);
        let full = self
            .correction
            .iter()
            .filter(|&&q| self.on_logical[q])
            .count()
            % 2
            == 1;
        assert_eq!(
            fast,
            full,
            "d={} {:?} {what}: parity path disagrees with decode_into",
            self.code.distance(),
            self.kind
        );
        fast
    }

    /// Checks `count` syndromes of i.i.d. data errors at rate `p`;
    /// returns how many decoded to an odd parity.
    fn pool(&mut self, p: f64, seed: u64, count: usize) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut odd = 0;
        for i in 0..count {
            let errors: Vec<usize> = (0..self.code.num_data_qubits())
                .filter(|_| rng.gen_bool(p))
                .collect();
            let syndrome = self.code.syndrome_of(&errors, self.kind);
            odd += usize::from(self.check(&syndrome, &format!("p={p} seed={seed} #{i}")));
        }
        odd
    }
}

const KINDS: [CheckKind; 2] = [CheckKind::X, CheckKind::Z];

#[test]
fn every_syndrome_at_d3_and_d5() {
    for d in [3, 5] {
        for kind in KINDS {
            let mut point = Point::new(d, kind);
            let checks = point.decoder.syndrome_len();
            let mut odd = 0;
            for bits in 0u32..1 << checks {
                let syndrome: Vec<bool> = (0..checks).map(|k| bits >> k & 1 == 1).collect();
                odd += usize::from(point.check(&syndrome, &format!("syndrome {bits:#x}")));
            }
            // Both answers occur, so neither constant passes.
            assert!(odd > 0 && odd < 1 << checks, "d={d} {kind:?}");
        }
    }
}

/// Sparse syndromes take the parity path's cluster-walk reset, where the
/// walk itself finds each odd cluster's boundary root: every syndrome of
/// one to three defects at d = 7…13 reaches it, including the clusters
/// that touch the boundary on both sides of the logical's cut.
#[test]
fn every_syndrome_of_up_to_three_defects_at_d7_to_d13() {
    for d in [7, 9, 11, 13] {
        for kind in KINDS {
            let mut point = Point::new(d, kind);
            let checks = point.decoder.syndrome_len();
            let mut syndrome = vec![false; checks];
            for a in 0..checks {
                syndrome[a] = true;
                point.check(&syndrome, &format!("defect {a}"));
                for b in a + 1..checks {
                    syndrome[b] = true;
                    point.check(&syndrome, &format!("defects {a}, {b}"));
                    for c in b + 1..checks {
                        syndrome[c] = true;
                        point.check(&syndrome, &format!("defects {a}, {b}, {c}"));
                        syndrome[c] = false;
                    }
                    syndrome[b] = false;
                }
                syndrome[a] = false;
            }
        }
    }
}

#[test]
fn kat_pools_all_fired_and_single_defects_at_d3_to_d13() {
    // The pools of `tests/uf_kat.rs`: the same rates, seeds and size.
    const RATES_PER_MILLE: [u32; 5] = [10, 50, 80, 100, 200];
    for d in [3, 5, 7, 9, 11, 13] {
        for kind in KINDS {
            let mut point = Point::new(d, kind);
            for (i, per_mille) in RATES_PER_MILLE.into_iter().enumerate() {
                let p = f64::from(per_mille) / 1000.0;
                let seed = 0x0F_4B47 ^ ((d as u64) << 16) ^ ((i as u64) << 8) ^ kind as u64;
                point.pool(p, seed, 512);
            }
            let checks = point.decoder.syndrome_len();
            point.check(&vec![true; checks], "all fired");
            for k in 0..checks {
                let mut syndrome = vec![false; checks];
                syndrome[k] = true;
                point.check(&syndrome, &format!("single defect {k}"));
            }
        }
    }
}

#[test]
fn dense_pools_at_d15_to_d21() {
    for d in [15, 17, 19, 21] {
        for kind in KINDS {
            let mut point = Point::new(d, kind);
            for (i, p) in [0.05, 0.1, 0.15, 0.2].into_iter().enumerate() {
                let seed = 0x9A_B175 ^ ((d as u64) << 16) ^ ((i as u64) << 8) ^ kind as u64;
                let odd = point.pool(p, seed, 128);
                // Near and past the threshold both parities are common.
                if p >= 0.1 {
                    assert!(odd > 0 && odd < 128, "d={d} {kind:?} p={p}: {odd} odd");
                }
            }
        }
    }
}
