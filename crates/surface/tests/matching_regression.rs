//! Regression pins for the matching decoder around the `EXACT_LIMIT`
//! boundary, now that the union-find decoder owns the dense path.
//!
//! Two things must stay true while the default dense path evolves:
//!
//! - the split itself: up to 12 defects take the exact minimum-weight
//!   path, from 13 on the union-find decoder, and
//! - the exact path (≤ 12 defects) is byte-stable against a golden KAT,
//!   because it is the oracle the differential tests trust.

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface::{CheckKind, MatchingDecoder, RotatedSurfaceCode, UnionFindDecoder};

/// A random syndrome with exactly `defects` fired checks.
fn syndrome_with_defects(len: usize, defects: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut syndrome = vec![false; len];
    while syndrome.iter().filter(|s| **s).count() < defects {
        let i = rng.gen_range(0..len);
        syndrome[i] = true;
    }
    syndrome
}

#[test]
fn default_path_switches_to_union_find_above_the_limit() {
    // At exactly 13 defects, decode() must be byte-identical to the
    // union-find decoder; at 12 it takes the exact path, which is
    // minimum-weight and therefore never longer than union-find's
    // answer.
    let mut rng = StdRng::seed_from_u64(0xB0DA);
    let code = RotatedSurfaceCode::new(9);
    let decoder = MatchingDecoder::new(&code, CheckKind::X);
    let uf = UnionFindDecoder::new(&code, CheckKind::X);
    for trial in 0..25 {
        let dense = syndrome_with_defects(decoder.syndrome_len(), 13, &mut rng);
        assert_eq!(
            decoder.decode(&dense),
            uf.decode(&dense),
            "trial {trial}: dense default path is not the union-find decoder"
        );
        let sparse = syndrome_with_defects(decoder.syndrome_len(), 12, &mut rng);
        let exact = decoder.decode(&sparse);
        let peeled = uf.decode(&sparse);
        assert_eq!(code.syndrome_of(&exact, CheckKind::X), sparse);
        assert_eq!(code.syndrome_of(&peeled, CheckKind::X), sparse);
        assert!(
            exact.len() <= peeled.len(),
            "trial {trial}: exact correction longer than union-find's"
        );
    }
}

/// Golden KAT: the exact path's corrections for fixed seeded syndromes
/// at d = 5 must never change — this is the oracle the union-find
/// differential tests are gated against, so it is pinned byte-for-byte.
///
/// Regenerate with
/// `cargo test -p qpdo-surface --test matching_regression -- --ignored --nocapture`
/// and paste the printed table if the exact path legitimately changes.
#[test]
fn exact_path_matches_golden_kat() {
    let (code, decoder, syndromes) = kat_inputs();
    let expected: [&[usize]; 10] = KAT_EXPECTED;
    for (trial, (syndrome, want)) in syndromes.iter().zip(expected).enumerate() {
        let got = decoder.decode(syndrome);
        assert_eq!(
            got, want,
            "KAT trial {trial} drifted — the exact oracle changed"
        );
        assert_eq!(code.syndrome_of(&got, CheckKind::X), *syndrome);
    }
}

const KAT_EXPECTED: [&[usize]; 10] = [
    &[16, 18, 24],
    &[11, 17],
    &[11],
    &[10, 18],
    &[2, 10, 16],
    &[2, 16, 18],
    &[4, 11, 13, 16],
    &[0, 15, 17],
    &[0, 2, 9, 19, 21],
    &[4, 11, 12, 24],
];

/// The fixed KAT inputs: seeded error patterns at d = 5 kept to the
/// exact path (≤ 12 defects).
fn kat_inputs() -> (RotatedSurfaceCode, MatchingDecoder, Vec<Vec<bool>>) {
    let code = RotatedSurfaceCode::new(5);
    let decoder = MatchingDecoder::new(&code, CheckKind::X);
    let mut rng = StdRng::seed_from_u64(0x5EEDCA7);
    let mut syndromes = Vec::new();
    while syndromes.len() < 10 {
        let errors: Vec<usize> = (0..code.num_data_qubits())
            .filter(|_| rng.gen_bool(0.15))
            .collect();
        let syndrome = code.syndrome_of(&errors, CheckKind::X);
        if syndrome.iter().filter(|s| **s).count() <= 12 && syndrome.iter().any(|s| *s) {
            syndromes.push(syndrome);
        }
    }
    (code, decoder, syndromes)
}

/// Prints the current exact-path outputs in KAT table form.
#[test]
#[ignore = "generator for KAT_EXPECTED — run with --ignored --nocapture"]
fn generate_kat() {
    let (_code, decoder, syndromes) = kat_inputs();
    for syndrome in &syndromes {
        println!("    &{:?},", decoder.decode(syndrome));
    }
}
