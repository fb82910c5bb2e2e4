use std::fmt;

use qpdo_pauli::{Pauli, PauliString};
use qpdo_rng::Rng;

use crate::Complex;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A full complex state vector over `n` qubits.
///
/// Qubit 0 is the least-significant bit of the basis index, matching the
/// paper's listings where "the rightmost bit represents the value of data
/// qubit 0".
///
/// See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// Creates `|0…0⟩` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 30` (the vector would exceed memory that
    /// a functional simulation can reasonably use).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulator needs at least one qubit");
        assert!(n <= 30, "state-vector simulation limited to 30 qubits");
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Extends the register with `k` fresh qubits in `|0⟩` (a tensor
    /// factor on the most-significant side).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the total would exceed 30 qubits.
    pub fn grow(&mut self, k: usize) {
        assert!(k > 0, "grow requires at least one new qubit");
        assert!(
            self.n + k <= 30,
            "state-vector simulation limited to 30 qubits"
        );
        self.n += k;
        self.amps.resize(1 << self.n, Complex::ZERO);
    }

    /// The raw amplitudes in basis order.
    #[must_use]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The probability of each basis state.
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.n,
            "qubit index {q} out of range ({} qubits)",
            self.n
        );
    }

    /// Applies an arbitrary single-qubit unitary `[[m00, m01], [m10, m11]]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, q: usize, m: [[Complex; 2]; 2]) {
        self.check_qubit(q);
        let bit = 1usize << q;
        for base in 0..self.amps.len() {
            if base & bit == 0 {
                let a0 = self.amps[base];
                let a1 = self.amps[base | bit];
                self.amps[base] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[base | bit] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    /// Hadamard.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn h(&mut self, q: usize) {
        let h = Complex::new(FRAC_1_SQRT_2, 0.0);
        self.apply_1q(q, [[h, h], [h, -h]]);
    }

    /// Pauli-X.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn x(&mut self, q: usize) {
        self.check_qubit(q);
        let bit = 1usize << q;
        for base in 0..self.amps.len() {
            if base & bit == 0 {
                self.amps.swap(base, base | bit);
            }
        }
    }

    /// Pauli-Y.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn y(&mut self, q: usize) {
        self.apply_1q(
            q,
            [[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]],
        );
    }

    /// Pauli-Z.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn z(&mut self, q: usize) {
        self.phase_on_one(q, -Complex::ONE);
    }

    /// Phase gate `S = RZ(π/2)` (up to global phase).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn s(&mut self, q: usize) {
        self.phase_on_one(q, Complex::I);
    }

    /// `S†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn sdg(&mut self, q: usize) {
        self.phase_on_one(q, -Complex::I);
    }

    /// `T = RZ(π/4)` (up to global phase).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn t(&mut self, q: usize) {
        self.phase_on_one(q, Complex::from_polar_unit(std::f64::consts::FRAC_PI_4));
    }

    /// `T†`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn tdg(&mut self, q: usize) {
        self.phase_on_one(q, Complex::from_polar_unit(-std::f64::consts::FRAC_PI_4));
    }

    /// General Z-axis rotation `RZ(θ) = diag(1, e^{iθ})`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rz(&mut self, q: usize, theta: f64) {
        self.phase_on_one(q, Complex::from_polar_unit(theta));
    }

    fn phase_on_one(&mut self, q: usize, phase: Complex) {
        self.check_qubit(q);
        let bit = 1usize << q;
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            if idx & bit != 0 {
                *amp *= phase;
            }
        }
    }

    /// Controlled-NOT.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either index is out of range.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT requires distinct qubits");
        let (cb, tb) = (1usize << c, 1usize << t);
        for base in 0..self.amps.len() {
            if base & cb != 0 && base & tb == 0 {
                self.amps.swap(base, base | tb);
            }
        }
    }

    /// Controlled-Z.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "CZ requires distinct qubits");
        let mask = (1usize << a) | (1usize << b);
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            if idx & mask == mask {
                *amp = -*amp;
            }
        }
    }

    /// SWAP.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "SWAP requires distinct qubits");
        let (ab, bb) = (1usize << a, 1usize << b);
        for base in 0..self.amps.len() {
            if base & ab != 0 && base & bb == 0 {
                self.amps.swap(base, base ^ ab ^ bb);
            }
        }
    }

    /// Toffoli (controls `c1`, `c2`; target `t`).
    ///
    /// # Panics
    ///
    /// Panics if the qubits are not distinct or any index is out of range.
    pub fn toffoli(&mut self, c1: usize, c2: usize, t: usize) {
        self.check_qubit(c1);
        self.check_qubit(c2);
        self.check_qubit(t);
        assert!(
            c1 != c2 && c1 != t && c2 != t,
            "Toffoli requires distinct qubits"
        );
        let cmask = (1usize << c1) | (1usize << c2);
        let tb = 1usize << t;
        for base in 0..self.amps.len() {
            if base & cmask == cmask && base & tb == 0 {
                self.amps.swap(base, base | tb);
            }
        }
    }

    /// The probability of measuring `|1⟩` on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn prob_one(&self, q: usize) -> f64 {
        self.check_qubit(q);
        let bit = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns `true` for outcome `|1⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
        outcome
    }

    /// Resets qubit `q` to `|0⟩` (measure, then flip if `|1⟩`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            self.x(q);
        }
    }

    fn collapse(&mut self, q: usize, outcome: bool, prob: f64) {
        let bit = 1usize << q;
        let scale = 1.0 / prob.max(f64::MIN_POSITIVE).sqrt();
        for (idx, amp) in self.amps.iter_mut().enumerate() {
            if (idx & bit != 0) == outcome {
                *amp = amp.scale(scale);
            } else {
                *amp = Complex::ZERO;
            }
        }
    }

    /// The expectation value `⟨ψ|P|ψ⟩` of a Pauli-string observable.
    ///
    /// Always real for Hermitian inputs (any string whose phase is ±1);
    /// the full complex value is returned so callers can assert that.
    ///
    /// # Panics
    ///
    /// Panics if the observable length differs from the qubit count.
    #[must_use]
    pub fn pauli_expectation(&self, observable: &PauliString) -> Complex {
        assert_eq!(
            observable.len(),
            self.n,
            "observable must act on all {} qubits",
            self.n
        );
        // P|i> = phase(i) |i ^ xmask>: build the masks once.
        let mut x_mask = 0usize;
        let mut z_mask = 0usize;
        let mut y_count = 0u32;
        for (q, p) in observable.iter().enumerate() {
            let (x, z) = p.bits();
            if x {
                x_mask |= 1 << q;
            }
            if z {
                z_mask |= 1 << q;
            }
            if p == Pauli::Y {
                y_count += 1;
            }
        }
        // Per-Y factor i, times (-1) per Z-component acting on a 1 bit.
        let y_phase = match y_count % 4 {
            0 => Complex::ONE,
            1 => Complex::I,
            2 => -Complex::ONE,
            _ => -Complex::I,
        };
        let (string_re, string_im) = observable.phase().to_complex();
        let prefactor = y_phase * Complex::new(string_re, string_im);
        let mut acc = Complex::ZERO;
        for (i, &amp) in self.amps.iter().enumerate() {
            // Z components: (-1)^(popcount(i & z_mask)); for Y qubits the
            // (-1)^b is part of the same mask (Y has the z bit set).
            let sign = if (i & z_mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let j = i ^ x_mask;
            acc += self.amps[j].conj() * amp.scale(sign);
        }
        acc * prefactor
    }

    /// Whether two states are equal up to a single global phase: whether
    /// [`global_phase_to`](Self::global_phase_to) finds one.
    ///
    /// This is the comparison the paper's random-circuit test bench
    /// performs between execution with and without a Pauli frame (after
    /// flushing): "the final quantum state equals the reference quantum
    /// state up to an unimportant global phase".
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    #[must_use]
    pub fn approx_eq_up_to_global_phase(&self, other: &StateVector, tol: f64) -> bool {
        self.global_phase_to(other, tol).is_some()
    }

    /// The relative global phase `other = phase · self`, if the states are
    /// equal up to global phase within `tol`; `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    #[must_use]
    pub fn global_phase_to(&self, other: &StateVector, tol: f64) -> Option<Complex> {
        assert_eq!(self.n, other.n, "states must have equal qubit counts");
        // Find the largest amplitude of self to anchor the relative phase.
        let (anchor, _) = self
            .amps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))?;
        let a = self.amps[anchor];
        let b = other.amps[anchor];
        if a.norm() < tol || b.norm() < tol {
            return None;
        }
        // phase = b / a, which must have unit magnitude.
        let phase = (b * a.conj()).scale(1.0 / a.norm_sqr());
        if (phase.norm() - 1.0).abs() > tol {
            return None;
        }
        self.amps
            .iter()
            .zip(&other.amps)
            .all(|(&x, &y)| (x * phase).approx_eq(y, tol))
            .then_some(phase)
    }

    /// Extracts the state of a subset of qubits when it factorizes from
    /// the rest (e.g. data qubits after all ancillas collapsed).
    ///
    /// Returns the sub-state's amplitudes indexed by the subset in the
    /// given order (element 0 of `qubits` is the least-significant bit),
    /// normalized with the phase anchored to the subset's largest
    /// amplitude, or `None` if the subset is entangled with its complement
    /// beyond `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` contains duplicates or out-of-range indices.
    #[must_use]
    pub fn partial_state(&self, qubits: &[usize], tol: f64) -> Option<Vec<Complex>> {
        for (i, q) in qubits.iter().enumerate() {
            self.check_qubit(*q);
            assert!(!qubits[i + 1..].contains(q), "duplicate qubit {q}");
        }
        let rest: Vec<usize> = (0..self.n).filter(|q| !qubits.contains(q)).collect();
        // Anchor at the global maximum amplitude.
        let (anchor, _) = self
            .amps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))?;
        let extract = |fixed_bits: usize, vary: &[usize], fixed: &[usize]| -> Vec<Complex> {
            let m = vary.len();
            (0..1usize << m)
                .map(|sub_idx| {
                    let mut idx = 0usize;
                    for (i, q) in vary.iter().enumerate() {
                        if sub_idx >> i & 1 != 0 {
                            idx |= 1 << q;
                        }
                    }
                    for q in fixed {
                        idx |= fixed_bits & (1 << q);
                    }
                    self.amps[idx]
                })
                .collect()
        };
        let sub = extract(anchor, qubits, &rest);
        let rest_state = extract(anchor, &rest, qubits);
        // Normalize both; the anchor amplitude appears in each, so divide
        // out the duplication: amp(anchor) = sub[k]·rest[l] / amp(anchor).
        let anchor_amp = self.amps[anchor];
        if anchor_amp.norm() < tol {
            return None;
        }
        // Verify the product structure: amps[idx] ≈ sub[s]·rest[r]/anchor.
        let inv = anchor_amp.conj().scale(1.0 / anchor_amp.norm_sqr());
        for idx in 0..self.amps.len() {
            let mut s = 0usize;
            for (i, q) in qubits.iter().enumerate() {
                if idx >> q & 1 != 0 {
                    s |= 1 << i;
                }
            }
            let mut r = 0usize;
            for (i, q) in rest.iter().enumerate() {
                if idx >> q & 1 != 0 {
                    r |= 1 << i;
                }
            }
            let expected = sub[s] * rest_state[r] * inv;
            if !expected.approx_eq(self.amps[idx], tol) {
                return None;
            }
        }
        // Normalize the sub-state.
        let norm: f64 = sub.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm < tol {
            return None;
        }
        Some(sub.iter().map(|a| a.scale(1.0 / norm)).collect())
    }

    /// Formats non-negligible amplitudes like the QX Simulator dumps in
    /// Listings 5.1–5.6: one `(re+imj) |bits⟩` line per basis state with
    /// `|amp| > eps`, rightmost bit = qubit 0.
    #[must_use]
    pub fn dirac_string(&self, eps: f64) -> String {
        Self::format_amplitudes(&self.amps, self.n, eps)
    }

    /// Formats an arbitrary amplitude vector the same way as
    /// [`dirac_string`](StateVector::dirac_string) (used for
    /// [`partial_state`](StateVector::partial_state) output).
    #[must_use]
    pub fn format_amplitudes(amps: &[Complex], n: usize, eps: f64) -> String {
        let mut out = String::new();
        for (idx, amp) in amps.iter().enumerate() {
            if amp.norm() > eps {
                let bits: String = (0..n)
                    .rev()
                    .map(|q| if idx >> q & 1 != 0 { '1' } else { '0' })
                    .collect();
                out.push_str(&format!("{amp} |{bits}>\n"));
            }
        }
        out
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dirac_string(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2016)
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn initial_state() {
        let sv = StateVector::new(3);
        assert_eq!(sv.amplitudes()[0], Complex::ONE);
        assert_close(sv.probabilities().iter().sum(), 1.0);
        assert_close(sv.prob_one(0), 0.0);
    }

    #[test]
    fn x_gate() {
        let mut sv = StateVector::new(2);
        sv.x(1);
        assert_close(sv.prob_one(1), 1.0);
        assert_close(sv.prob_one(0), 0.0);
        assert_eq!(sv.amplitudes()[0b10], Complex::ONE);
    }

    #[test]
    fn hadamard_superposition() {
        let mut sv = StateVector::new(1);
        sv.h(0);
        assert_close(sv.prob_one(0), 0.5);
        sv.h(0);
        assert_close(sv.prob_one(0), 0.0);
    }

    #[test]
    fn y_equals_ixz_up_to_phase() {
        let mut a = StateVector::new(1);
        a.h(0); // off-axis input
        let mut b = a.clone();
        a.y(0);
        b.z(0);
        b.x(0);
        // Y = i·X·Z, so they agree up to global phase i.
        assert!(a.approx_eq_up_to_global_phase(&b, 1e-12));
        let phase = b.global_phase_to(&a, 1e-12).unwrap();
        assert!(phase.approx_eq(Complex::I, 1e-12));
    }

    #[test]
    fn s_t_phases() {
        let mut sv = StateVector::new(1);
        sv.h(0);
        sv.t(0);
        sv.t(0); // T² = S
        let mut expected = StateVector::new(1);
        expected.h(0);
        expected.s(0);
        assert!(sv.approx_eq_up_to_global_phase(&expected, 1e-12));

        let mut sv2 = StateVector::new(1);
        sv2.h(0);
        sv2.s(0);
        sv2.sdg(0);
        let mut plus = StateVector::new(1);
        plus.h(0);
        assert!(sv2.approx_eq_up_to_global_phase(&plus, 1e-12));
    }

    #[test]
    fn rz_generalizes_s_and_t() {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        let mut a = StateVector::new(1);
        a.h(0);
        a.rz(0, FRAC_PI_2);
        let mut b = StateVector::new(1);
        b.h(0);
        b.s(0);
        assert!(a.approx_eq_up_to_global_phase(&b, 1e-12));
        let mut c = StateVector::new(1);
        c.h(0);
        c.rz(0, FRAC_PI_4);
        let mut d = StateVector::new(1);
        d.h(0);
        d.t(0);
        assert!(c.approx_eq_up_to_global_phase(&d, 1e-12));
    }

    #[test]
    fn bell_state() {
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.cnot(0, 1);
        let p = sv.probabilities();
        assert_close(p[0b00], 0.5);
        assert_close(p[0b11], 0.5);
        assert_close(p[0b01], 0.0);
        assert_close(p[0b10], 0.0);
    }

    #[test]
    fn cz_phase() {
        let mut sv = StateVector::new(2);
        sv.x(0);
        sv.x(1);
        sv.cz(0, 1);
        assert!(sv.amplitudes()[0b11].approx_eq(-Complex::ONE, 1e-12));
        // CZ is diagonal: |01⟩ untouched.
        let mut sv = StateVector::new(2);
        sv.x(0);
        sv.cz(0, 1);
        assert!(sv.amplitudes()[0b01].approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn cz_matches_h_cnot_h() {
        let mut a = StateVector::new(2);
        a.h(0);
        a.h(1);
        a.cz(0, 1);
        let mut b = StateVector::new(2);
        b.h(0);
        b.h(1);
        b.h(1);
        b.cnot(0, 1);
        b.h(1);
        assert!(a.approx_eq_up_to_global_phase(&b, 1e-12));
    }

    #[test]
    fn swap_moves_amplitude() {
        let mut sv = StateVector::new(2);
        sv.x(0);
        sv.swap(0, 1);
        assert_close(sv.prob_one(0), 0.0);
        assert_close(sv.prob_one(1), 1.0);
    }

    #[test]
    fn toffoli_truth_table() {
        for (c1, c2) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut sv = StateVector::new(3);
            if c1 {
                sv.x(0);
            }
            if c2 {
                sv.x(1);
            }
            sv.toffoli(0, 1, 2);
            assert_close(sv.prob_one(2), if c1 && c2 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = rng();
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.cnot(0, 1);
        let a = sv.measure(0, &mut rng);
        let b = sv.measure(1, &mut rng);
        assert_eq!(a, b);
        // Post-measurement state is a basis state.
        let idx = (b as usize) << 1 | a as usize;
        assert!(sv.amplitudes()[idx].norm() > 1.0 - 1e-9);
    }

    #[test]
    fn measurement_statistics() {
        let mut rng = rng();
        let mut ones = 0u32;
        let shots = 2000;
        for _ in 0..shots {
            let mut sv = StateVector::new(1);
            sv.h(0);
            if sv.measure(0, &mut rng) {
                ones += 1;
            }
        }
        let f = f64::from(ones) / f64::from(shots);
        assert!((f - 0.5).abs() < 0.05, "measured frequency {f}");
    }

    #[test]
    fn reset_restores_zero() {
        let mut rng = rng();
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.cnot(0, 1);
        sv.reset(0, &mut rng);
        assert_close(sv.prob_one(0), 0.0);
    }

    #[test]
    fn global_phase_detection() {
        let mut a = StateVector::new(2);
        a.h(0);
        a.cnot(0, 1);
        let mut b = a.clone();
        // Z·X·Z·X = -1 global phase.
        b.z(0);
        b.x(0);
        b.z(0);
        b.x(0);
        assert!(a.approx_eq_up_to_global_phase(&b, 1e-12));
        let phase = a.global_phase_to(&b, 1e-12).unwrap();
        assert!(phase.approx_eq(-Complex::ONE, 1e-12));
        // Different states are rejected.
        let mut c = a.clone();
        c.x(0);
        assert!(!a.approx_eq_up_to_global_phase(&c, 1e-12));
    }

    #[test]
    fn partial_state_extracts_factor() {
        // |ψ⟩ = |+⟩₀ ⊗ |1⟩₁: qubit 0 factors out.
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.x(1);
        let sub = sv.partial_state(&[0], 1e-9).unwrap();
        assert!((sub[0].norm() - FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((sub[1].norm() - FRAC_1_SQRT_2).abs() < 1e-9);
        // Entangled subset is rejected.
        let mut bell = StateVector::new(2);
        bell.h(0);
        bell.cnot(0, 1);
        assert!(bell.partial_state(&[0], 1e-9).is_none());
        // But the full set works.
        assert!(bell.partial_state(&[0, 1], 1e-9).is_some());
    }

    #[test]
    fn pauli_expectations() {
        // |+i> = S H |0>: <Y> = +1, <X> = <Z> = 0.
        let mut sv = StateVector::new(1);
        sv.h(0);
        sv.s(0);
        let expect =
            |s: &str, sv: &StateVector| -> Complex { sv.pauli_expectation(&s.parse().unwrap()) };
        assert!(expect("Y", &sv).approx_eq(Complex::ONE, 1e-12));
        assert!(expect("X", &sv).approx_eq(Complex::ZERO, 1e-12));
        assert!(expect("Z", &sv).approx_eq(Complex::ZERO, 1e-12));
        // Bell state: <XX> = <ZZ> = +1, <YY> = -1, <ZI> = 0.
        let mut bell = StateVector::new(2);
        bell.h(0);
        bell.cnot(0, 1);
        assert!(expect("XX", &bell).approx_eq(Complex::ONE, 1e-12));
        assert!(expect("ZZ", &bell).approx_eq(Complex::ONE, 1e-12));
        assert!(expect("YY", &bell).approx_eq(-Complex::ONE, 1e-12));
        assert!(expect("ZI", &bell).approx_eq(Complex::ZERO, 1e-12));
        // Signed observables follow the string phase.
        assert!(expect("-XX", &bell).approx_eq(-Complex::ONE, 1e-12));
    }

    #[test]
    fn dirac_string_format() {
        let mut sv = StateVector::new(2);
        sv.h(0);
        sv.cnot(0, 1);
        let dump = sv.dirac_string(1e-9);
        assert!(dump.contains("|00>"));
        assert!(dump.contains("|11>"));
        assert!(!dump.contains("|01>"));
        assert!(dump.contains("(0.707107+0j)"));
    }

    #[test]
    fn grow_adds_zero_qubits() {
        let mut sv = StateVector::new(1);
        sv.h(0);
        sv.grow(2);
        assert_eq!(sv.num_qubits(), 3);
        assert!((sv.prob_one(0) - 0.5).abs() < 1e-12);
        assert!(sv.prob_one(1) < 1e-12);
        assert!(sv.prob_one(2) < 1e-12);
        sv.x(2);
        assert!((sv.prob_one(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut sv = StateVector::new(2);
        sv.h(5);
    }

    #[test]
    #[should_panic(expected = "30 qubits")]
    fn too_many_qubits_panics() {
        let _ = StateVector::new(31);
    }
}
