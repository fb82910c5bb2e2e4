//! Known-answer test pinning the union-find decoder's corrections.
//!
//! The decoder's internals may be tuned freely, but its corrections may
//! not move: `MatchingDecoder` hands every syndrome past its exact limit
//! to union-find, and the circuit-level driver turns those corrections
//! into gates that show up in op counts and `distance_scaling.csv`. So
//! this file hard-codes a 64-bit FNV-1a digest of *every* correction the
//! decoder returns on fixed syndrome pools:
//!
//! - per `(d, p, kind)` for d ∈ {3, 5, 7, 9, 11, 13} and
//!   p ∈ {0.01, 0.05, 0.08, 0.10, 0.20}: [`POOL`] syndromes of i.i.d.
//!   data-qubit errors at rate p, from a seed fixed by the point;
//! - per `(d, kind)`: the all-fired syndrome, and every single-defect
//!   syndrome in check order.
//!
//! Each correction is folded in as its length followed by its sorted
//! qubits, so both the qubit set and the pool order are pinned. On a
//! mismatch the test prints the whole recomputed table ready to paste,
//! which is also how the table was made — against the decoder as it
//! stood before any of its internals were tuned.

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_surface::{CheckKind, RotatedSurfaceCode, UnionFindDecoder};

const DISTANCES: [usize; 6] = [3, 5, 7, 9, 11, 13];
/// Error rates per mille, so the table keys are exact.
const RATES_PER_MILLE: [u32; 5] = [10, 50, 80, 100, 200];
/// Syndromes per `(d, p, kind)` pool.
const POOL: usize = 512;

/// 64-bit FNV-1a over a stream of `u32` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn correction(&mut self, qubits: &[usize]) {
        self.word(qubits.len() as u32);
        for &q in qubits {
            self.word(q as u32);
        }
    }
}

fn kind_name(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::X => "X",
        CheckKind::Z => "Z",
    }
}

/// Every pinned digest, keyed `"d<d>/<kind>/<what>"`, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut correction = Vec::new();
    for d in DISTANCES {
        let code = RotatedSurfaceCode::new(d);
        for kind in [CheckKind::X, CheckKind::Z] {
            let dec = UnionFindDecoder::new(&code, kind);
            let tag = format!("d{d}/{}", kind_name(kind));
            for (i, per_mille) in RATES_PER_MILLE.into_iter().enumerate() {
                let p = f64::from(per_mille) / 1000.0;
                let seed = 0x0F_4B47 ^ ((d as u64) << 16) ^ ((i as u64) << 8) ^ kind as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut fnv = Fnv::new();
                for _ in 0..POOL {
                    let errors: Vec<usize> = (0..code.num_data_qubits())
                        .filter(|_| rng.gen_bool(p))
                        .collect();
                    dec.decode_into(&code.syndrome_of(&errors, kind), &mut correction);
                    fnv.correction(&correction);
                }
                out.push((format!("{tag}/p{per_mille:03}"), fnv.0));
            }
            let mut fnv = Fnv::new();
            dec.decode_into(&vec![true; dec.syndrome_len()], &mut correction);
            fnv.correction(&correction);
            out.push((format!("{tag}/all"), fnv.0));
            let mut fnv = Fnv::new();
            for i in 0..dec.syndrome_len() {
                let mut syndrome = vec![false; dec.syndrome_len()];
                syndrome[i] = true;
                dec.decode_into(&syndrome, &mut correction);
                fnv.correction(&correction);
            }
            out.push((format!("{tag}/single"), fnv.0));
        }
    }
    out
}

/// The digests of the reference decoder, `(key, FNV-1a)`.
const EXPECTED: &[(&str, u64)] = &[
    ("d3/X/p010", 0x3ea54a36f1e3dbee),
    ("d3/X/p050", 0x7bd9d4a48cd89a96),
    ("d3/X/p080", 0x1bb43777d53ebea3),
    ("d3/X/p100", 0x0052c60e1a133a88),
    ("d3/X/p200", 0x18afd77ef45ad117),
    ("d3/X/all", 0x020e5ee6af3dc1e1),
    ("d3/X/single", 0x90f5f2ac43fe67fa),
    ("d3/Z/p010", 0x73e7402cf671eac1),
    ("d3/Z/p050", 0x2a9f39c2c5cc7792),
    ("d3/Z/p080", 0x69870fc721cdc016),
    ("d3/Z/p100", 0xec5079bdce7b66c6),
    ("d3/Z/p200", 0xb1956efb08df9257),
    ("d3/Z/all", 0x000e94e818b0dd01),
    ("d3/Z/single", 0xcd850070405f0614),
    ("d5/X/p010", 0x868049700b2345f2),
    ("d5/X/p050", 0xbc3da33876a4d415),
    ("d5/X/p080", 0xa234c313ff35c432),
    ("d5/X/p100", 0xd240b8542215a764),
    ("d5/X/p200", 0xf89b79c7c686cccf),
    ("d5/X/all", 0xf826fa11cc9c7c65),
    ("d5/X/single", 0x69f21cfda1d51b6f),
    ("d5/Z/p010", 0x3fa98b8211c245a1),
    ("d5/Z/p050", 0xc86b007af1ad0d35),
    ("d5/Z/p080", 0x3286fa81dac57c0b),
    ("d5/Z/p100", 0x07327d8a6e7db8b2),
    ("d5/Z/p200", 0x8ae60eab9d8c825f),
    ("d5/Z/all", 0xf05ec8425adf5223),
    ("d5/Z/single", 0x1203c9e64274645f),
    ("d7/X/p010", 0x5d5c74566bfce5aa),
    ("d7/X/p050", 0x88b0d716981f2b6d),
    ("d7/X/p080", 0x11d99fd0d0d4dfb6),
    ("d7/X/p100", 0x7335ea47bcc5d2b0),
    ("d7/X/p200", 0x77b96ee53fa0b5f2),
    ("d7/X/all", 0xaa3844d1fa514959),
    ("d7/X/single", 0x56a1c5d7d6818c96),
    ("d7/Z/p010", 0xc0a3d8788c0a12b0),
    ("d7/Z/p050", 0x878d132b2f57f0cd),
    ("d7/Z/p080", 0x8d205debb53f0ce5),
    ("d7/Z/p100", 0xf6fc0b0ffadb8afb),
    ("d7/Z/p200", 0xa20b2d902d32b734),
    ("d7/Z/all", 0x0eee276adc34b0cb),
    ("d7/Z/single", 0xc00734d8950df8a0),
    ("d9/X/p010", 0xaece65879ba51aa0),
    ("d9/X/p050", 0x3ee5702bf9c8c95d),
    ("d9/X/p080", 0xf97eba5cba7a0663),
    ("d9/X/p100", 0x2b730b03e790c3f1),
    ("d9/X/p200", 0x8dcf15e173760d4d),
    ("d9/X/all", 0x3154adf2d73567e1),
    ("d9/X/single", 0x6b2485e12fd791da),
    ("d9/Z/p010", 0x4d0b98b0bd9e321e),
    ("d9/Z/p050", 0xa5c1d16db805a151),
    ("d9/Z/p080", 0xd65b24285ed69028),
    ("d9/Z/p100", 0x466e48a5b1b42f9d),
    ("d9/Z/p200", 0xeea5213065d27675),
    ("d9/Z/all", 0xd68d8c3bdd090f55),
    ("d9/Z/single", 0xa4036aeb0e0214f2),
    ("d11/X/p010", 0x5523b1ce46b4f837),
    ("d11/X/p050", 0xb6682ed3fc4b1bfc),
    ("d11/X/p080", 0xf825389b4160b7bb),
    ("d11/X/p100", 0xbd759f67246dabd2),
    ("d11/X/p200", 0xd6afd52f959fe6e4),
    ("d11/X/all", 0xa1326a8ec16be11d),
    ("d11/X/single", 0xaddd545c69763a85),
    ("d11/Z/p010", 0xb007c1441534c180),
    ("d11/Z/p050", 0x2507fe1f203d2ab6),
    ("d11/Z/p080", 0xdea872809066a2e0),
    ("d11/Z/p100", 0x5080e503eb1412a1),
    ("d11/Z/p200", 0x58f74b506782af87),
    ("d11/Z/all", 0x3dddfa2d3922a2c1),
    ("d11/Z/single", 0x6e05514e0a44a781),
    ("d13/X/p010", 0x41d2bfe3cf593135),
    ("d13/X/p050", 0x72c25e0a6f9856b8),
    ("d13/X/p080", 0xf0358bb515810d54),
    ("d13/X/p100", 0x9a0c6166ed697e66),
    ("d13/X/p200", 0x33f6c73b4c6da244),
    ("d13/X/all", 0x37d90c1e2ff458a9),
    ("d13/X/single", 0x40de5454fd26608c),
    ("d13/Z/p010", 0x70f875c386eb43a7),
    ("d13/Z/p050", 0xb5fa5a9e63f58b6d),
    ("d13/Z/p080", 0x8be51aafa100b12e),
    ("d13/Z/p100", 0xb7838cf3bc6ad94a),
    ("d13/Z/p200", 0x6d8d3c1d9c948d2e),
    ("d13/Z/all", 0xd5a727c6c0b3e983),
    ("d13/Z/single", 0xdda379586b55e0ac),
];

#[test]
fn corrections_match_the_pinned_digests() {
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
        panic!("union-find corrections moved at {moved:?}; the recomputed table is\n{table}");
    }
}
