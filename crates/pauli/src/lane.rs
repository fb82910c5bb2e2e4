use std::fmt;

use crate::{Pauli, PauliFrame, PauliRecord};

/// A lane-sliced Pauli frame: 64 independent [`PauliFrame`]s advancing
/// through the same Clifford schedule, stored **transposed**.
///
/// Where [`PauliFrame`] packs one frame's records across words (bit `q`
/// of word `q / 64`), the lane frame keeps one `u64` *per qubit*: bit
/// `k` of `xs[q]` is the `x` record bit of qubit `q` in trajectory
/// (lane) `k`. The transposition matches the shot-sliced simulator's
/// sign layout, so the two structures exchange divergence data as whole
/// lane words:
///
/// * a Clifford gate maps **all 64 frames** with one or two word XORs
///   (the record maps of Tables 3.4–3.5 are bit-linear, so they apply
///   to lane words verbatim);
/// * Pauli merges take a lane mask ([`apply_pauli_masked`]), absorbing
///   a different correction in every lane of the same word;
/// * [`measurement_flip_word`] yields the per-lane result-inversion
///   word that XORs directly against a sliced measurement's outcome
///   word.
///
/// Lane `k` is always byte-identical to a scalar frame that tracked
/// lane `k`'s events: [`lane_frame`] extracts it, [`flush_lane`] /
/// [`merge_lane`] move one lane's content between the two layouts.
///
/// [`apply_pauli_masked`]: LanePauliFrame::apply_pauli_masked
/// [`measurement_flip_word`]: LanePauliFrame::measurement_flip_word
/// [`lane_frame`]: LanePauliFrame::lane_frame
/// [`flush_lane`]: LanePauliFrame::flush_lane
/// [`merge_lane`]: LanePauliFrame::merge_lane
///
/// # Example
///
/// ```
/// use qpdo_pauli::{LanePauliFrame, Pauli, PauliRecord};
///
/// let mut frame = LanePauliFrame::new(3);
/// frame.apply_pauli_masked(1, Pauli::X, 0b101); // X in lanes 0 and 2
/// frame.apply_cnot(1, 2);                       // propagates in those lanes
/// assert_eq!(frame.measurement_flip_word(2), 0b101);
/// assert_eq!(frame.record(2, 0), PauliRecord::X);
/// assert_eq!(frame.record(2, 1), PauliRecord::I);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LanePauliFrame {
    /// `xs[q]`: the x-record bit of qubit `q` across all 64 lanes.
    xs: Vec<u64>,
    /// Same layout for the z-record bits.
    zs: Vec<u64>,
}

impl LanePauliFrame {
    /// Creates a frame of `n` empty (`I`) records in every lane.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LanePauliFrame {
            xs: vec![0; n],
            zs: vec![0; n],
        }
    }

    /// The number of qubits tracked (per lane).
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if the frame tracks zero qubits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.xs.len(),
            "qubit index {q} out of range ({} qubits)",
            self.xs.len()
        );
    }

    #[inline]
    fn check_lane(lane: usize) {
        assert!(lane < 64, "lane index {lane} out of range");
    }

    /// The record of qubit `q` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `lane` is out of range.
    #[must_use]
    pub fn record(&self, q: usize, lane: usize) -> PauliRecord {
        self.check_qubit(q);
        Self::check_lane(lane);
        PauliRecord::from_bits(self.xs[q] >> lane & 1 != 0, self.zs[q] >> lane & 1 != 0)
    }

    /// Resets the record of qubit `q` to `I` in **every** lane (qubit
    /// initialization is part of the shared schedule, so it clears the
    /// whole lane word).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn reset(&mut self, q: usize) {
        self.check_qubit(q);
        self.xs[q] = 0;
        self.zs[q] = 0;
    }

    /// Resets every record in every lane.
    pub fn reset_all(&mut self) {
        self.xs.fill(0);
        self.zs.fill(0);
    }

    /// Merges a Pauli gate on qubit `q` into the lanes selected by
    /// `lanes` (Table 3.3, per lane). The gate never reaches the qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_pauli_masked(&mut self, q: usize, p: Pauli, lanes: u64) {
        self.check_qubit(q);
        let (px, pz) = p.bits();
        if px {
            self.xs[q] ^= lanes;
        }
        if pz {
            self.zs[q] ^= lanes;
        }
    }

    /// Merges per-lane X/Z layers on qubit `q`: lanes in `x_lanes` get
    /// an X component, lanes in `z_lanes` a Z component (both = `XZ`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_pauli_words(&mut self, q: usize, x_lanes: u64, z_lanes: u64) {
        self.check_qubit(q);
        self.xs[q] ^= x_lanes;
        self.zs[q] ^= z_lanes;
    }

    /// Maps qubit `q`'s records through a Hadamard in every lane: the
    /// `x` and `z` lane words exchange.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_h(&mut self, q: usize) {
        self.check_qubit(q);
        std::mem::swap(&mut self.xs[q], &mut self.zs[q]);
    }

    /// Maps qubit `q`'s records through the phase gate `S` in every
    /// lane (Table 3.4): the `x` word toggles the `z` word.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_s(&mut self, q: usize) {
        self.check_qubit(q);
        self.zs[q] ^= self.xs[q];
    }

    /// Maps qubit `q`'s records through `S†` (same record map as `S`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_sdg(&mut self, q: usize) {
        self.apply_s(q);
    }

    /// Maps control `c` and target `t` through a `CNOT` in every lane
    /// (Table 3.5): `x` propagates control→target, `z` target→control.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either index is out of range.
    pub fn apply_cnot(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "CNOT requires distinct qubits");
        self.check_qubit(c);
        self.check_qubit(t);
        self.xs[t] ^= self.xs[c];
        self.zs[c] ^= self.zs[t];
    }

    /// Maps `a` and `b` through a `CZ` in every lane: each side's `x`
    /// word toggles the other side's `z` word.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "CZ requires distinct qubits");
        self.check_qubit(a);
        self.check_qubit(b);
        let (xa, xb) = (self.xs[a], self.xs[b]);
        self.zs[a] ^= xb;
        self.zs[b] ^= xa;
    }

    /// Maps `a` and `b` through a `SWAP` in every lane (the lane words
    /// exchange).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "SWAP requires distinct qubits");
        self.check_qubit(a);
        self.check_qubit(b);
        self.xs.swap(a, b);
        self.zs.swap(a, b);
    }

    /// The per-lane result-inversion word for a computational-basis
    /// measurement of qubit `q` (Table 3.2, all lanes at once): bit `k`
    /// set means lane `k`'s raw result must be flipped.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn measurement_flip_word(&self, q: usize) -> u64 {
        self.check_qubit(q);
        self.xs[q]
    }

    /// Maps a raw per-lane measurement outcome word through the frame.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn map_measurement_word(&self, q: usize, raw: u64) -> u64 {
        raw ^ self.measurement_flip_word(q)
    }

    /// The `(x, z)` record component words of qubit `q` (bit `k` = lane
    /// `k`): the all-lanes analogue of [`PauliRecord::bits`]. The `x`
    /// word flips Z-type readouts, the `z` word flips X-type readouts.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn record_words(&self, q: usize) -> (u64, u64) {
        self.check_qubit(q);
        (self.xs[q], self.zs[q])
    }

    /// The `x` and `z` record words of every qubit, `(xs, zs)` with
    /// `xs[q]` the `x` word of qubit `q`, for a caller that checks its
    /// qubit indices once and then applies many record maps itself.
    pub fn words_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (&mut self.xs, &mut self.zs)
    }

    /// The lanes with at least one non-`I` record (bit `k` = lane `k`).
    #[must_use]
    pub fn tracked_lanes(&self) -> u64 {
        self.xs
            .iter()
            .zip(&self.zs)
            .fold(0, |acc, (x, z)| acc | x | z)
    }

    /// Extracts lane `lane` as a scalar [`PauliFrame`] without
    /// disturbing the lane (the cross-layout bridge for per-lane
    /// reporting and the differential oracle).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_frame(&self, lane: usize) -> PauliFrame {
        Self::check_lane(lane);
        let mut frame = PauliFrame::new(self.len());
        for q in 0..self.len() {
            frame.set_record(
                q,
                PauliRecord::from_bits(self.xs[q] >> lane & 1 != 0, self.zs[q] >> lane & 1 != 0),
            );
        }
        frame
    }

    /// Extracts lane `lane` as a scalar [`PauliFrame`] and clears the
    /// lane — the sliced analogue of flushing one shot's frame out of
    /// the batch.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn flush_lane(&mut self, lane: usize) -> PauliFrame {
        let frame = self.lane_frame(lane);
        let keep = !(1u64 << lane);
        for q in 0..self.len() {
            self.xs[q] &= keep;
            self.zs[q] &= keep;
        }
        frame
    }

    /// Merges a scalar frame into lane `lane` (the group product in
    /// that lane only; phases dropped, as everywhere in frames).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the lengths differ.
    pub fn merge_lane(&mut self, lane: usize, other: &PauliFrame) {
        Self::check_lane(lane);
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge frames of different lengths"
        );
        for q in 0..self.len() {
            let (x, z) = other.record(q).bits();
            self.xs[q] ^= u64::from(x) << lane;
            self.zs[q] ^= u64::from(z) << lane;
        }
    }

    /// Merges another lane frame of the same length into this one
    /// (lane-wise group product, one XOR sweep).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge(&mut self, other: &LanePauliFrame) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge frames of different lengths"
        );
        for q in 0..self.len() {
            self.xs[q] ^= other.xs[q];
            self.zs[q] ^= other.zs[q];
        }
    }
}

impl fmt::Display for LanePauliFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lane Pauli frame with {} records, lanes tracked: {:#x}",
            self.len(),
            self.tracked_lanes()
        )?;
        for q in 0..self.len() {
            writeln!(f, "  {q}: x={:#018x} z={:#018x}", self.xs[q], self.zs[q])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane of a lane frame must evolve exactly like a scalar
    /// frame fed that lane's events — the frame-level twin oracle.
    #[test]
    fn lanes_match_scalar_twins_through_mixed_schedule() {
        let n = 7;
        let mut sliced = LanePauliFrame::new(n);
        let mut twins: Vec<PauliFrame> = (0..64).map(|_| PauliFrame::new(n)).collect();

        // Divergent merges: a different Pauli pattern in every lane.
        for (q, p) in [(0, Pauli::X), (3, Pauli::Z), (5, Pauli::Y)] {
            let lanes = 0x9E37_79B9_7F4A_7C15u64.rotate_left(q as u32);
            sliced.apply_pauli_masked(q, p, lanes);
            for (k, twin) in twins.iter_mut().enumerate() {
                if lanes >> k & 1 != 0 {
                    twin.apply_pauli(q, p);
                }
            }
        }
        // Shared Clifford schedule.
        sliced.apply_h(0);
        sliced.apply_s(3);
        sliced.apply_sdg(5);
        sliced.apply_cnot(0, 1);
        sliced.apply_cz(3, 4);
        sliced.apply_swap(5, 6);
        for twin in &mut twins {
            twin.apply_h(0);
            twin.apply_s(3);
            twin.apply_sdg(5);
            twin.apply_cnot(0, 1);
            twin.apply_cz(3, 4);
            twin.apply_swap(5, 6);
        }
        for (k, twin) in twins.iter().enumerate() {
            assert_eq!(&sliced.lane_frame(k), twin, "lane {k} diverged");
            for q in 0..n {
                assert_eq!(
                    sliced.measurement_flip_word(q) >> k & 1 != 0,
                    twin.measurement_flipped(q),
                    "flip word diverged at qubit {q} lane {k}"
                );
            }
        }
    }

    #[test]
    fn masked_pauli_touches_only_selected_lanes() {
        let mut frame = LanePauliFrame::new(2);
        frame.apply_pauli_masked(1, Pauli::X, 0b11);
        frame.apply_pauli_masked(1, Pauli::Z, 0b10);
        assert_eq!(frame.record(1, 0), PauliRecord::X);
        assert_eq!(frame.record(1, 1), PauliRecord::XZ);
        assert_eq!(frame.record(1, 2), PauliRecord::I);
        assert_eq!(frame.tracked_lanes(), 0b11);
    }

    #[test]
    fn pauli_words_equal_masked_pair() {
        let mut a = LanePauliFrame::new(1);
        a.apply_pauli_words(0, 0b0110, 0b1100);
        let mut b = LanePauliFrame::new(1);
        b.apply_pauli_masked(0, Pauli::X, 0b0110);
        b.apply_pauli_masked(0, Pauli::Z, 0b1100);
        assert_eq!(a, b);
    }

    #[test]
    fn measurement_word_mapping() {
        let mut frame = LanePauliFrame::new(1);
        frame.apply_pauli_masked(0, Pauli::X, 0xF0);
        assert_eq!(frame.map_measurement_word(0, 0x0F), 0xFF);
        // A Z merge never flips measurement results.
        frame.apply_pauli_masked(0, Pauli::Z, u64::MAX);
        assert_eq!(frame.map_measurement_word(0, 0x0F), 0xFF);
    }

    #[test]
    fn flush_lane_extracts_and_clears_one_lane() {
        let mut frame = LanePauliFrame::new(3);
        frame.apply_pauli_masked(0, Pauli::X, 0b11);
        frame.apply_pauli_masked(2, Pauli::Y, 0b01);
        let lane0 = frame.flush_lane(0);
        assert_eq!(lane0.record(0), PauliRecord::X);
        assert_eq!(lane0.record(2), PauliRecord::XZ);
        // Lane 0 cleared, lane 1 untouched.
        assert_eq!(frame.record(0, 0), PauliRecord::I);
        assert_eq!(frame.record(2, 0), PauliRecord::I);
        assert_eq!(frame.record(0, 1), PauliRecord::X);
    }

    #[test]
    fn merge_lane_round_trips_through_scalar() {
        let mut scalar = PauliFrame::new(4);
        scalar.apply_pauli(1, Pauli::X);
        scalar.apply_pauli(3, Pauli::Z);
        let mut frame = LanePauliFrame::new(4);
        frame.merge_lane(17, &scalar);
        assert_eq!(frame.lane_frame(17), scalar);
        assert_eq!(frame.tracked_lanes(), 1 << 17);
        // Merging again cancels (group product).
        frame.merge_lane(17, &scalar);
        assert_eq!(frame.tracked_lanes(), 0);
    }

    #[test]
    fn merge_is_lanewise_group_product() {
        let mut a = LanePauliFrame::new(2);
        a.apply_pauli_masked(0, Pauli::X, 0b01);
        let mut b = LanePauliFrame::new(2);
        b.apply_pauli_masked(0, Pauli::X, 0b11);
        a.merge(&b);
        assert_eq!(a.record(0, 0), PauliRecord::I);
        assert_eq!(a.record(0, 1), PauliRecord::X);
    }

    #[test]
    fn reset_clears_all_lanes_of_one_qubit() {
        let mut frame = LanePauliFrame::new(2);
        frame.apply_pauli_masked(0, Pauli::Y, u64::MAX);
        frame.apply_pauli_masked(1, Pauli::X, 1);
        frame.reset(0);
        assert_eq!(frame.record(0, 13), PauliRecord::I);
        assert_eq!(frame.record(1, 0), PauliRecord::X);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cnot_same_qubit_panics() {
        let mut frame = LanePauliFrame::new(2);
        frame.apply_cnot(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_out_of_range_panics() {
        let frame = LanePauliFrame::new(1);
        let _ = frame.record(0, 64);
    }
}
