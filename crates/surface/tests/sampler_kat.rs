//! Known-answer test pinning the frame sampler's outputs.
//!
//! `FrameSampler` serves every surface sweep, so how it pushes the frame
//! may be tuned freely, but what it returns may not move. This file
//! hard-codes a 64-bit FNV-1a digest of everything a sampler hands back
//! on fixed inputs: its measured qubits and reference outcomes, and per
//! seeded batch every record word of [`FrameSampler::sample`], every
//! [`FrameSampler::observable_word`] and the frame's final record words.
//! The inputs are
//!
//! - the ESM round at d ∈ {3, 5, 7, 13} for both error kinds, from the
//!   sweep's initial state and observing the threatened logical
//!   operator, with sparse random X and Z errors on every qubit;
//! - seeded random Clifford circuits that use every Clifford and Pauli
//!   gate kind and reset and measure qubits mid-circuit, from random
//!   `|0⟩`/`|+⟩` product states.
//!
//! On a mismatch the test prints the whole recomputed table ready to
//! paste, which is also how the table was made.

use qpdo_circuit::{Circuit, Gate, Operation};
use qpdo_pauli::{LanePauliFrame, Pauli, PauliString};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, RngCore, SeedableRng};
use qpdo_surface::sampler::FrameSampler;
use qpdo_surface::{CheckKind, RotatedSurfaceCode};

const DISTANCES: [usize; 4] = [3, 5, 7, 13];
/// Seeded batches sampled per input.
const BATCHES: u64 = 16;
/// Random circuits and the operations each draws.
const CIRCUITS: u64 = 24;
const OPS: usize = 80;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A lane word with each bit set with probability 1/8.
fn sparse(rng: &mut StdRng) -> u64 {
    rng.next_u64() & rng.next_u64() & rng.next_u64()
}

/// The digest of `sampler` over [`BATCHES`] seeded batches on a frame
/// of `qubits` qubits with `observables` observables.
fn digest(sampler: &FrameSampler, qubits: usize, observables: usize, seed: u64) -> u64 {
    let mut fnv = Fnv::new();
    for &q in sampler.measured() {
        fnv.word(q as u64);
    }
    for &r in sampler.reference() {
        fnv.word(r);
    }
    let mut frame = LanePauliFrame::new(qubits);
    let mut records = vec![0; sampler.measured().len()];
    for batch in 0..BATCHES {
        let mut rng = StdRng::seed_from_u64(seed ^ (batch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        frame.reset_all();
        for q in 0..qubits {
            let (x, z) = (sparse(&mut rng), sparse(&mut rng));
            frame.apply_pauli_words(q, x, z);
        }
        sampler.sample(&mut frame, &mut rng, &mut records);
        for &r in &records {
            fnv.word(r);
        }
        for k in 0..observables {
            fnv.word(sampler.observable_word(k, &frame));
        }
        for q in 0..qubits {
            let (x, z) = frame.record_words(q);
            fnv.word(x);
            fnv.word(z);
        }
    }
    fnv.0
}

/// The ESM round's sampler as the code-capacity sweep builds it.
fn esm_sampler(code: &RotatedSurfaceCode, error: CheckKind) -> FrameSampler {
    let (observable, basis) = match error {
        CheckKind::X => (code.logical_z_string(), Pauli::Z),
        CheckKind::Z => (code.logical_x_string(), Pauli::X),
    };
    let data = code.num_data_qubits();
    let initial: Vec<Pauli> = (0..code.num_qubits())
        .map(|q| if q < data { basis } else { Pauli::Z })
        .collect();
    FrameSampler::new(&code.esm_circuit(), &initial, &[observable])
}

/// A random Clifford circuit on `n` qubits drawing every gate kind,
/// resets and measurements, then a measurement of every qubit and a
/// Hadamard on a random subset; returns it with its initial state and
/// its deterministic observables: each qubit's `Z` (or `X` after its
/// Hadamard), and their product.
fn random_case(n: usize, rng: &mut StdRng) -> (Circuit, Vec<Pauli>, Vec<PauliString>) {
    const ONE: [Gate; 7] = [
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::I,
    ];
    const TWO: [Gate; 3] = [Gate::Cnot, Gate::Cz, Gate::Swap];
    let initial: Vec<Pauli> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                Pauli::X
            } else {
                Pauli::Z
            }
        })
        .collect();
    let mut circuit = Circuit::new();
    for _ in 0..OPS {
        let q = rng.gen_range(0..n);
        let op = match rng.gen_range(0..12) {
            0 => Operation::prep(q),
            1 => Operation::measure(q),
            k if k < 9 => Operation::gate(ONE[k - 2], &[q]),
            k => {
                let mut t = rng.gen_range(0..n - 1);
                if t >= q {
                    t += 1;
                }
                Operation::gate(TWO[k - 9], &[q, t])
            }
        };
        circuit.push(op);
    }
    let mut observables = Vec::new();
    let mut product = PauliString::identity(n);
    for q in 0..n {
        circuit.push(Operation::measure(q));
        let p = if rng.gen_bool(0.5) {
            circuit.push(Operation::gate(Gate::H, &[q]));
            Pauli::X
        } else {
            Pauli::Z
        };
        let mut single = PauliString::identity(n);
        single.set_op(q, p);
        product.set_op(q, p);
        observables.push(single);
    }
    observables.push(product);
    (circuit, initial, observables)
}

/// Every pinned digest, keyed by input, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for d in DISTANCES {
        let code = RotatedSurfaceCode::new(d);
        for (error, name) in [(CheckKind::X, "X"), (CheckKind::Z, "Z")] {
            let sampler = esm_sampler(&code, error);
            let seed = 0x5A_4B47 ^ ((d as u64) << 8) ^ error as u64;
            let digest = digest(&sampler, code.num_qubits(), 1, seed);
            out.push((format!("esm/d{d}/{name}"), digest));
        }
    }
    for c in 0..CIRCUITS {
        let mut rng = StdRng::seed_from_u64(0xC1_1FF0 ^ c);
        let n = rng.gen_range(2..10);
        let (circuit, initial, observables) = random_case(n, &mut rng);
        let sampler = FrameSampler::new(&circuit, &initial, &observables);
        let digest = digest(&sampler, n, observables.len(), rng.next_u64());
        out.push((format!("clifford/{c:02}/n{n}"), digest));
    }
    out
}

/// The digests of the reference sampler, `(key, FNV-1a)`.
const EXPECTED: &[(&str, u64)] = &[
    ("esm/d3/X", 0x17e2a63cf723388f),
    ("esm/d3/Z", 0xe49a480c3c6cf13f),
    ("esm/d5/X", 0x1dbe3ee99913b8ca),
    ("esm/d5/Z", 0x0307e12bc16e5732),
    ("esm/d7/X", 0x7d1b8233bf86de28),
    ("esm/d7/Z", 0x8437b4393079f0e9),
    ("esm/d13/X", 0xa0466d6e8ad1102e),
    ("esm/d13/Z", 0x6054e8b81cea6608),
    ("clifford/00/n5", 0x5ae42e594d0f470c),
    ("clifford/01/n3", 0x3f24c0b61b796818),
    ("clifford/02/n7", 0x23947c587f13f05e),
    ("clifford/03/n3", 0x08e166592553d752),
    ("clifford/04/n2", 0xe6e450bb62fad21d),
    ("clifford/05/n2", 0xcf28c36dba68f111),
    ("clifford/06/n2", 0x8db0c9713d73a46e),
    ("clifford/07/n6", 0x21c329f912cf4f18),
    ("clifford/08/n8", 0x6d449700947dd1d1),
    ("clifford/09/n8", 0xde10be8a0265ca85),
    ("clifford/10/n3", 0xb2f3899e6f13fd29),
    ("clifford/11/n2", 0x263edc002a07b956),
    ("clifford/12/n8", 0x03a378f76d93bb46),
    ("clifford/13/n3", 0x8f8e113e24801230),
    ("clifford/14/n5", 0xa8dfac816720083f),
    ("clifford/15/n5", 0xdb38c0f46db7330d),
    ("clifford/16/n8", 0xe7b3a4e3febef15e),
    ("clifford/17/n8", 0x6807710169aa682c),
    ("clifford/18/n8", 0x9d2a21b09fc26662),
    ("clifford/19/n7", 0x70be1813615d3f62),
    ("clifford/20/n6", 0xa77a6da5445f26c0),
    ("clifford/21/n7", 0x5d742196dda08630),
    ("clifford/22/n8", 0x271c796669b50ec0),
    ("clifford/23/n9", 0xa763afb06bb18db5),
];

#[test]
fn sampler_outputs_match_the_pinned_digests() {
    let actual = digests();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(key, digest)| (key.to_string(), digest))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (key, digest) in &actual {
            table += &format!("    (\"{key}\", {digest:#018x}),\n");
        }
        let moved: Vec<&str> = actual
            .iter()
            .filter(|entry| !expected.contains(entry))
            .map(|(key, _)| key.as_str())
            .collect();
        panic!("frame sampler outputs moved at {moved:?}; the recomputed table is\n{table}");
    }
}
