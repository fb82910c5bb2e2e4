//! Known-answer test for `Bernoulli`: its integer threshold must return
//! exactly `gen_bool`'s bit, draw for draw, and consume the stream as
//! `gen_bool` does, so swapping one for the other in a sampler leaves
//! every recorded experiment seed's outcome unchanged.

use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Bernoulli, Rng, SeedableRng};

const DRAWS: usize = 100_000;

#[test]
fn bernoulli_returns_gen_bools_bit_draw_for_draw() {
    let probabilities = [
        0.0,
        1.0,
        0.5,
        0.08,
        1e-3,
        1.0 - f64::EPSILON / 2.0, // 1 − 2⁻⁵³, the largest p below 1
        f64::from_bits(1),        // the smallest subnormal
    ];
    assert_eq!(probabilities[5], 1.0 - 2f64.powi(-53));
    for (i, &p) in probabilities.iter().enumerate() {
        let coin = Bernoulli::new(p);
        let seed = 0xB3A7_0000 + i as u64;
        let (mut ours, mut theirs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut hits = 0usize;
        for draw in 0..DRAWS {
            let bit = coin.sample(&mut ours);
            assert_eq!(bit, theirs.gen_bool(p), "p = {p:e}, draw {draw}");
            hits += usize::from(bit);
        }
        assert_eq!(ours, theirs, "p = {p:e}: generator states diverged");
        match p {
            0.0 => assert_eq!(hits, 0),
            1.0 => assert_eq!(hits, DRAWS),
            _ => {}
        }
    }
}

/// The threshold edges: the draws whose top 53 bits sit just below and
/// at `⌈p · 2⁵³⌉` split the same way as `gen_bool`'s float compare.
#[test]
fn bernoulli_splits_the_threshold_edge_like_gen_bool() {
    struct Fixed(u64);
    impl qpdo_rng::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }
    for p in [
        0.08,
        1e-3,
        0.5,
        1.0 / 3.0,
        f64::from_bits(1),
        1.0 - 2f64.powi(-53),
    ] {
        let threshold = (p * 2f64.powi(53)).ceil() as u64;
        for m in [threshold.saturating_sub(1), threshold, threshold + 1] {
            let m = m.min((1 << 53) - 1);
            let word = m << 11 | 0x7FF;
            assert_eq!(
                Bernoulli::new(p).sample(&mut Fixed(word)),
                Fixed(word).gen_bool(p),
                "p = {p:e}, m = {m}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "not in [0, 1]")]
fn bernoulli_rejects_probabilities_outside_the_unit_interval() {
    let _ = Bernoulli::new(1.5);
}

#[test]
#[should_panic(expected = "not in [0, 1]")]
fn bernoulli_rejects_nan() {
    let _ = Bernoulli::new(f64::NAN);
}
