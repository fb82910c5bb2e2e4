//! Differential test oracle: the word-packed `StabilizerSim` against the
//! cell-per-entry `ReferenceTableau`, held in lock-step over seeded
//! random Clifford walks.
//!
//! Every walk drives both engines through an identical gate stream with
//! identically-seeded (but independent) RNGs. Because both engines draw
//! exactly one bit per random measurement — before the collapse — and
//! nothing otherwise, agreement here means whole experiment sweeps are
//! byte-identical across engines.
//!
//! After **every** step the raw stabilizer and destabilizer rows
//! (operators *and* signs) must match exactly; periodically the walks
//! also cross-check canonical stabilizer sets, deterministic-vs-random
//! measurement classification for every qubit, and expectation values:
//! of the canonical stabilizers, of random signed stabilizer products
//! (always in the group) and of random Paulis outside it.
//!
//! Besides uniform random Clifford walks, an ESM-shaped walk drives the
//! packed engine's Z cache the way error correction does: ancillas are
//! reset, entangled with data qubits, hit by Pauli errors, measured and
//! reset again, with SWAPs and CNOTs between ancillas whose Z values
//! are cached.

use qpdo_pauli::{Pauli, PauliString, Phase};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_stabilizer::{ReferenceTableau, StabilizerSim};

/// One step of the walk, applied identically to both engines.
#[derive(Clone, Copy, Debug)]
enum Step {
    H(usize),
    S(usize),
    Sdg(usize),
    X(usize),
    Y(usize),
    Z(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    Measure(usize),
    Reset(usize),
}

fn random_step(rng: &mut StdRng, n: usize) -> Step {
    let q = rng.gen_range(0..n);
    let two = |rng: &mut StdRng| {
        if n < 2 {
            return None;
        }
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        Some((a, b))
    };
    match rng.gen_range(0..100u32) {
        0..=13 => Step::H(q),
        14..=24 => Step::S(q),
        25..=32 => Step::Sdg(q),
        33..=38 => Step::X(q),
        39..=43 => Step::Y(q),
        44..=49 => Step::Z(q),
        50..=67 => two(rng)
            .map(|(a, b)| Step::Cnot(a, b))
            .unwrap_or(Step::H(q)),
        68..=80 => two(rng).map(|(a, b)| Step::Cz(a, b)).unwrap_or(Step::S(q)),
        81..=91 => two(rng)
            .map(|(a, b)| Step::Swap(a, b))
            .unwrap_or(Step::X(q)),
        92..=96 => Step::Measure(q),
        _ => Step::Reset(q),
    }
}

/// An ESM-shaped step stream: the first half of the register holds
/// data qubits, the rest ancillas. Each round resets every ancilla,
/// mixes pairs of ancillas whose Z values are known (X, then CNOT,
/// SWAP, CZ or S) and measures them, then runs each ancilla's check —
/// a Z check CNOTs four data qubits into it, an X check CNOTs out of it
/// between two H — with random X/Y/Z errors on any qubit, and measures
/// it, some of them twice.
fn esm_steps(n: usize, rounds: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = n.div_ceil(2);
    let ancillas: Vec<usize> = (data..n).collect();
    let pick_two = |rng: &mut StdRng| {
        let a = ancillas[rng.gen_range(0..ancillas.len())];
        let mut b = ancillas[rng.gen_range(0..ancillas.len())];
        if a == b {
            b = if a + 1 < n { a + 1 } else { data };
        }
        (a, b)
    };
    let mut steps: Vec<Step> = (0..data).map(Step::H).collect();
    for _ in 0..rounds {
        steps.extend(ancillas.iter().map(|&a| Step::Reset(a)));
        for _ in 0..3 {
            let (a, b) = pick_two(&mut rng);
            if rng.gen::<bool>() {
                steps.push(Step::X(a));
            }
            steps.push(match rng.gen_range(0..4u32) {
                0 => Step::Cnot(a, b),
                1 => Step::Swap(a, b),
                2 => Step::Cz(a, b),
                _ => Step::S(a),
            });
            // Read both cached values back before the checks clear them.
            steps.extend([Step::Measure(a), Step::Measure(b)]);
        }
        for &a in &ancillas {
            let z_check = a % 2 == 0;
            if !z_check {
                steps.push(Step::H(a));
            }
            for _ in 0..4 {
                let d = rng.gen_range(0..data);
                steps.push(if z_check {
                    Step::Cnot(d, a)
                } else {
                    Step::Cnot(a, d)
                });
                if rng.gen_range(0..8u32) == 0 {
                    let q = rng.gen_range(0..n);
                    steps.push(match rng.gen_range(0..3u32) {
                        0 => Step::X(q),
                        1 => Step::Y(q),
                        _ => Step::Z(q),
                    });
                }
            }
            if !z_check {
                steps.push(Step::H(a));
            }
            steps.push(Step::Measure(a));
            if rng.gen_range(0..4u32) == 0 {
                steps.push(Step::Measure(a));
            }
        }
    }
    steps
}

/// Applies `step` to both engines; for measurements, asserts the
/// classification (deterministic vs random) and the outcome agree.
fn apply_both(
    packed: &mut StabilizerSim,
    reference: &mut ReferenceTableau,
    packed_rng: &mut StdRng,
    reference_rng: &mut StdRng,
    step: Step,
) {
    match step {
        Step::H(q) => {
            packed.h(q);
            reference.h(q);
        }
        Step::S(q) => {
            packed.s(q);
            reference.s(q);
        }
        Step::Sdg(q) => {
            packed.sdg(q);
            reference.sdg(q);
        }
        Step::X(q) => {
            packed.x(q);
            reference.x(q);
        }
        Step::Y(q) => {
            packed.y(q);
            reference.y(q);
        }
        Step::Z(q) => {
            packed.z(q);
            reference.z(q);
        }
        Step::Cnot(a, b) => {
            packed.cnot(a, b);
            reference.cnot(a, b);
        }
        Step::Cz(a, b) => {
            packed.cz(a, b);
            reference.cz(a, b);
        }
        Step::Swap(a, b) => {
            packed.swap(a, b);
            reference.swap(a, b);
        }
        Step::Measure(q) => {
            let peek_p = packed.peek_deterministic(q);
            let peek_r = reference.peek_deterministic(q);
            assert_eq!(
                peek_p, peek_r,
                "measurement classification diverged on qubit {q}"
            );
            let out_p = packed.measure(q, packed_rng);
            let out_r = reference.measure(q, reference_rng);
            assert_eq!(out_p, out_r, "measurement outcome diverged on qubit {q}");
            if let Some(expected) = peek_p {
                assert_eq!(out_p, expected, "deterministic peek lied on qubit {q}");
            }
        }
        Step::Reset(q) => {
            packed.reset(q, packed_rng);
            reference.reset(q, reference_rng);
        }
    }
}

/// Raw row comparison after every step: operators and sign bits of all
/// destabilizer and stabilizer generators.
fn assert_rows_equal(packed: &StabilizerSim, reference: &ReferenceTableau, ctx: &str) {
    assert_eq!(
        packed.stabilizers(),
        reference.stabilizers(),
        "stabilizer rows diverged {ctx}"
    );
    assert_eq!(
        packed.destabilizers(),
        reference.destabilizers(),
        "destabilizer rows diverged {ctx}"
    );
}

/// Deep comparison for the periodic checkpoints: canonical stabilizers,
/// per-qubit measurement classification, and expectation values of the
/// reference engine's own (canonical) stabilizers, of random signed
/// products of its stabilizer rows (`Some` of the product's sign) and of
/// random Paulis that anticommute with a stabilizer (`None`), drawn
/// from `probe_rng`.
fn assert_deep_equal(
    packed: &mut StabilizerSim,
    reference: &mut ReferenceTableau,
    probe_rng: &mut StdRng,
    ctx: &str,
) {
    let canon_p = packed.canonical_stabilizers();
    let canon_r = reference.canonical_stabilizers();
    assert_eq!(canon_p, canon_r, "canonical stabilizers diverged {ctx}");
    for q in 0..packed.num_qubits() {
        assert_eq!(
            packed.peek_deterministic(q),
            reference.peek_deterministic(q),
            "peek classification diverged on qubit {q} {ctx}"
        );
    }
    for gen in &canon_r {
        assert_eq!(
            packed.expectation(gen),
            reference.expectation(gen),
            "expectation of {gen} diverged {ctx}"
        );
    }
    let n = packed.num_qubits();
    let stabilizers = reference.stabilizers();
    let destabilizers = reference.destabilizers();
    for _ in 0..4 {
        let mut product = PauliString::identity(n);
        for row in &stabilizers {
            if probe_rng.gen::<bool>() {
                product = product.mul(row);
            }
        }
        let negate = probe_rng.gen::<bool>();
        let sign = product.phase() == Phase::MinusOne;
        product.set_phase(if sign != negate {
            Phase::MinusOne
        } else {
            Phase::PlusOne
        });
        assert_eq!(
            packed.expectation(&product),
            Some(negate),
            "expectation of stabilizer product {product} {ctx}"
        );
        assert_eq!(
            reference.expectation(&product),
            Some(negate),
            "reference expectation of stabilizer product {product} {ctx}"
        );

        let mut outside = PauliString::identity(n);
        for q in 0..n {
            outside.set_op(q, Pauli::from_bits(probe_rng.gen(), probe_rng.gen()));
        }
        if stabilizers.iter().all(|s| s.commutes_with(&outside)) {
            // Destabilizer i anticommutes with stabilizer i alone.
            outside = outside.mul(&destabilizers[probe_rng.gen_range(0..n)]);
        }
        outside.set_phase(Phase::PlusOne);
        assert_eq!(
            packed.expectation(&outside),
            None,
            "expectation of anticommuting {outside} {ctx}"
        );
        assert_eq!(
            reference.expectation(&outside),
            None,
            "reference expectation of anticommuting {outside} {ctx}"
        );
    }
}

/// `steps` seeded random Clifford steps on `n` qubits.
fn random_steps(n: usize, steps: usize, seed: u64) -> impl Iterator<Item = Step> {
    let mut gate_rng = StdRng::seed_from_u64(seed);
    (0..steps).map(move |_| random_step(&mut gate_rng, n))
}

fn walk(n: usize, steps: impl IntoIterator<Item = Step>, seed: u64, deep_every: usize) {
    let mut packed_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut reference_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xE4EC_7A71_0000_0000);
    let mut packed = StabilizerSim::new(n);
    let mut reference = ReferenceTableau::new(n);

    for (step_idx, step) in steps.into_iter().enumerate() {
        apply_both(
            &mut packed,
            &mut reference,
            &mut packed_rng,
            &mut reference_rng,
            step,
        );
        let ctx = format!("at n={n} step={step_idx} ({step:?}, seed={seed:#x})");
        assert_rows_equal(&packed, &reference, &ctx);
        if (step_idx + 1) % deep_every == 0 {
            assert_deep_equal(&mut packed, &mut reference, &mut probe_rng, &ctx);
        }
    }
    // Final deep check plus RNG-stream parity: both engines must have
    // consumed exactly the same number of random bits.
    assert_deep_equal(
        &mut packed,
        &mut reference,
        &mut probe_rng,
        &format!("at n={n} end (seed={seed:#x})"),
    );
    assert_eq!(
        packed_rng.gen::<u64>(),
        reference_rng.gen::<u64>(),
        "engines consumed different RNG stream lengths at n={n}"
    );
}

/// The headline oracle: 10k-step walks on every register size from 1 to
/// 17 qubits (17 = the Surface-17 register), raw-row checked after every
/// gate, deep-checked periodically.
#[test]
fn random_clifford_walks_agree_1_to_17_qubits() {
    // Debug builds pay ~n² per raw-row check; scale the walk length so
    // the whole suite stays inside a debug `cargo test` budget while
    // release runs (verify.sh) get the full 10k steps everywhere.
    let full = 10_000;
    for n in 1..=17 {
        let steps = if cfg!(debug_assertions) && n > 8 {
            2_500
        } else {
            full
        };
        let seed = 0xD1FF_0000 ^ (n as u64);
        walk(n, random_steps(n, steps, seed), seed, 250);
    }
}

/// Word-boundary coverage: 32 and 33 qubits straddle the 64-row column
/// word of the packed layout (2n = 64 and 66).
#[test]
fn random_clifford_walks_agree_across_word_boundary() {
    for n in [32usize, 33] {
        let steps = if cfg!(debug_assertions) { 600 } else { 4_000 };
        let seed = 0xD1FF_B0AD ^ (n as u64);
        walk(n, random_steps(n, steps, seed), seed, 200);
    }
}

/// ESM-shaped walks at the Surface-17 register and across the word
/// boundary (70 qubits: three words per column plane), so every Z-cache
/// hit, update and invalidation is checked against the reference row
/// for row after every step.
#[test]
fn esm_shaped_walks_agree() {
    for (n, rounds) in [(17usize, 60usize), (70, 6)] {
        let rounds = if cfg!(debug_assertions) {
            rounds / 3
        } else {
            rounds
        };
        let seed = 0xE5A1_0000 ^ (n as u64);
        walk(n, esm_steps(n, rounds, seed), seed, 97);
    }
}

/// Measurement-heavy walk: alternating collapse and re-superposition so
/// both the random-collapse and deterministic-outcome paths are hammered.
#[test]
fn measurement_heavy_walk_agrees() {
    let n = 9;
    let seed = 0x5EED_ED17u64;
    let mut gate_rng = StdRng::seed_from_u64(seed);
    let mut packed_rng = StdRng::seed_from_u64(seed + 1);
    let mut reference_rng = StdRng::seed_from_u64(seed + 1);
    let mut packed = StabilizerSim::new(n);
    let mut reference = ReferenceTableau::new(n);
    for round in 0..400 {
        let q = gate_rng.gen_range(0..n);
        let t = (q + 1 + gate_rng.gen_range(0..n - 1)) % n;
        let steps = if t == q {
            [Step::H(q), Step::S(q)]
        } else {
            [Step::H(q), Step::Cnot(q, t)]
        };
        for step in steps {
            apply_both(
                &mut packed,
                &mut reference,
                &mut packed_rng,
                &mut reference_rng,
                step,
            );
        }
        for q in 0..n {
            apply_both(
                &mut packed,
                &mut reference,
                &mut packed_rng,
                &mut reference_rng,
                Step::Measure(q),
            );
        }
        assert_rows_equal(
            &packed,
            &reference,
            &format!("in measurement-heavy round {round}"),
        );
    }
    assert_deep_equal(
        &mut packed,
        &mut reference,
        &mut gate_rng,
        "after measurement-heavy walk",
    );
}

/// `grow` keeps both engines in agreement (entangled prefix + fresh
/// zeros), including sign bits.
#[test]
fn grow_agrees() {
    let seed = 0x6006_0017u64;
    let mut gate_rng = StdRng::seed_from_u64(seed);
    let mut packed_rng = StdRng::seed_from_u64(seed + 7);
    let mut reference_rng = StdRng::seed_from_u64(seed + 7);
    let mut packed = StabilizerSim::new(3);
    let mut reference = ReferenceTableau::new(3);
    for phase in 0..4 {
        let n = packed.num_qubits();
        for _ in 0..200 {
            let step = random_step(&mut gate_rng, n);
            apply_both(
                &mut packed,
                &mut reference,
                &mut packed_rng,
                &mut reference_rng,
                step,
            );
        }
        assert_rows_equal(&packed, &reference, &format!("before grow #{phase}"));
        packed.grow(2);
        reference.grow(2);
        assert_rows_equal(&packed, &reference, &format!("after grow #{phase}"));
    }
    assert_deep_equal(
        &mut packed,
        &mut reference,
        &mut gate_rng,
        "after grow walk",
    );
}
