use std::fmt;

use qpdo_pauli::{Pauli, PauliString, Phase};

/// Number of Monte-Carlo trajectories a [`ShotSlicedSim`] advances in
/// parallel: the width of one `u64` lane word.
pub const LANES: usize = 64;

/// The 64-lane shot-sliced stabilizer simulator.
///
/// Reinterprets the [`StabilizerSim`](crate::StabilizerSim) bit-planes so
/// that one tableau advances **64 independent Monte-Carlo trajectories**
/// through the same Clifford schedule. The key observation (DESIGN.md
/// §10): the operator part of the tableau — the `x`/`z` symplectic
/// bit-planes, the measurement pivot choice, the random-vs-deterministic
/// classification, and every operator update of the collapse — depends
/// only on the gate schedule, never on the sign bits. When all
/// trajectories share one schedule and diverge only by *Pauli* events
/// (random measurement outcomes, injected depolarizing errors, decoder
/// corrections), the `2n` rows of operator data can be shared while each
/// row's **sign** becomes a 64-bit lane word: bit `k` of
/// `r_lanes[row]` is the sign of `row` in trajectory `k`.
///
/// Consequences:
///
/// * Deterministic Clifford gates cost the same as one scalar gate plus
///   a handful of lane-word XORs — one gate advances all 64 shots.
/// * Divergence is applied through **lane masks**: [`x_masked`],
///   [`y_masked`], [`z_masked`] flip signs only in the lanes selected by
///   the mask, and [`measure_with`] collapses all lanes at once with a
///   per-lane outcome word.
/// * Lane `k` is *byte-identical* to a scalar
///   [`StabilizerSim`](crate::StabilizerSim) that
///   executed the same schedule with lane `k`'s Pauli events:
///   [`lane_stabilizers`]/[`lane_destabilizers`] extract any lane for
///   the differential oracle in `tests/sliced_oracle.rs`.
///
/// The per-lane RNG contract lives with the caller: [`measure_with`]
/// invokes its `draw` closure once per lane, lanes `0..64` in ascending
/// order, **only** when the outcome is random — exactly the draw
/// discipline of the scalar engine, replayed per lane.
///
/// [`x_masked`]: ShotSlicedSim::x_masked
/// [`y_masked`]: ShotSlicedSim::y_masked
/// [`z_masked`]: ShotSlicedSim::z_masked
/// [`measure_with`]: ShotSlicedSim::measure_with
/// [`lane_stabilizers`]: ShotSlicedSim::lane_stabilizers
/// [`lane_destabilizers`]: ShotSlicedSim::lane_destabilizers
///
/// # Example
///
/// ```
/// use qpdo_stabilizer::ShotSlicedSim;
///
/// let mut sim = ShotSlicedSim::new(2);
/// sim.h(0);
/// sim.cnot(0, 1); // Bell pair in every lane
/// // Collapse qubit 0 to |1⟩ in odd lanes, |0⟩ in even lanes.
/// let outcomes = sim.measure_with(0, |lane| lane % 2 == 1);
/// assert_eq!(outcomes, 0xAAAA_AAAA_AAAA_AAAA);
/// // The entangled partner follows per lane.
/// assert_eq!(sim.measure_with(1, |_| unreachable!()), outcomes);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShotSlicedSim {
    n: usize,
    /// Words per column bit-plane: `⌈2n/64⌉` (shared operator layout,
    /// identical to the scalar engine).
    rwords: usize,
    /// `x[q * rwords + w]`: x-bits of all rows for qubit column `q`.
    x: Vec<u64>,
    /// Same layout for z-bits.
    z: Vec<u64>,
    /// Per-row sign lane words: bit `k` of `r_lanes[row]` is the sign of
    /// `row` in trajectory `k`.
    r_lanes: Vec<u64>,
    /// Measurement scratch, as in the scalar engine.
    targets: Vec<u64>,
    acc_lo: Vec<u64>,
    acc_hi: Vec<u64>,
    sources: Vec<u64>,
}

/// Broadcasts a boolean to a full lane word.
#[inline]
fn bcast(v: bool) -> u64 {
    if v {
        u64::MAX
    } else {
        0
    }
}

impl ShotSlicedSim {
    /// Creates a simulator with all `n` qubits in `|0⟩` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulator needs at least one qubit");
        let rwords = (2 * n).div_ceil(64);
        let mut sim = ShotSlicedSim {
            n,
            rwords,
            x: vec![0; n * rwords],
            z: vec![0; n * rwords],
            r_lanes: vec![0; 2 * n],
            targets: vec![0; rwords],
            acc_lo: vec![0; rwords],
            acc_hi: vec![0; rwords],
            sources: vec![0; rwords],
        };
        for q in 0..n {
            sim.set_x(q, q, true); // destabilizer q = X_q
            sim.set_z(n + q, q, true); // stabilizer q = Z_q
        }
        sim
    }

    /// The number of qubits (per lane; all lanes share the register).
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    fn x_bit(&self, row: usize, q: usize) -> bool {
        self.x[q * self.rwords + row / 64] >> (row % 64) & 1 != 0
    }

    #[inline]
    fn z_bit(&self, row: usize, q: usize) -> bool {
        self.z[q * self.rwords + row / 64] >> (row % 64) & 1 != 0
    }

    #[inline]
    fn set_x(&mut self, row: usize, q: usize, v: bool) {
        let idx = q * self.rwords + row / 64;
        let mask = 1u64 << (row % 64);
        if v {
            self.x[idx] |= mask;
        } else {
            self.x[idx] &= !mask;
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, q: usize, v: bool) {
        let idx = q * self.rwords + row / 64;
        let mask = 1u64 << (row % 64);
        if v {
            self.z[idx] |= mask;
        } else {
            self.z[idx] &= !mask;
        }
    }

    /// The bits of word `w` covering row indices in `[lo, hi)`.
    #[inline]
    fn range_mask(lo: usize, hi: usize, w: usize) -> u64 {
        let ones = |k: usize| -> u64 {
            if k >= 64 {
                u64::MAX
            } else {
                (1u64 << k) - 1
            }
        };
        let base = w * 64;
        let lo_c = lo.saturating_sub(base).min(64);
        let hi_c = hi.saturating_sub(base).min(64);
        ones(hi_c) & !ones(lo_c)
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.n,
            "qubit index {q} out of range ({} qubits)",
            self.n
        );
    }

    /// XORs `lanes` into the sign lane word of every row whose bit is
    /// set in the per-word `flip` mask — the bridge from the scalar
    /// engine's row-packed sign updates to the lane-sliced layout.
    #[inline]
    fn flip_rows(&mut self, w: usize, mut flip: u64, lanes: u64) {
        while flip != 0 {
            let b = flip.trailing_zeros() as usize;
            flip &= flip - 1;
            self.r_lanes[64 * w + b] ^= lanes;
        }
    }

    /// Applies a Hadamard on qubit `q` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn h(&mut self, q: usize) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            let xw = self.x[base + w];
            let zw = self.z[base + w];
            self.flip_rows(w, xw & zw, u64::MAX);
            self.x[base + w] = zw;
            self.z[base + w] = xw;
        }
    }

    /// Applies the phase gate `S` on qubit `q` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn s(&mut self, q: usize) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            let xw = self.x[base + w];
            let zw = self.z[base + w];
            self.flip_rows(w, xw & zw, u64::MAX);
            self.z[base + w] = xw ^ zw;
        }
    }

    /// Applies `S†` on qubit `q` in every lane (as `S·S·S`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// Applies a Pauli-X on qubit `q` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn x(&mut self, q: usize) {
        self.x_masked(q, u64::MAX);
    }

    /// Applies a Pauli-Y on qubit `q` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn y(&mut self, q: usize) {
        self.y_masked(q, u64::MAX);
    }

    /// Applies a Pauli-Z on qubit `q` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn z(&mut self, q: usize) {
        self.z_masked(q, u64::MAX);
    }

    /// Applies a Pauli-X on qubit `q` **only in the lanes selected by
    /// `lanes`** — the divergence primitive for injected errors, frame
    /// corrections and measurement flips. Paulis never touch the shared
    /// operator planes, so a masked Pauli is a pure sign update.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn x_masked(&mut self, q: usize, lanes: u64) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.flip_rows(w, self.z[base + w], lanes);
        }
    }

    /// Applies a Pauli-Y on qubit `q` only in the selected lanes.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn y_masked(&mut self, q: usize, lanes: u64) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.flip_rows(w, self.x[base + w] ^ self.z[base + w], lanes);
        }
    }

    /// Applies a Pauli-Z on qubit `q` only in the selected lanes.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn z_masked(&mut self, q: usize, lanes: u64) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.flip_rows(w, self.x[base + w], lanes);
        }
    }

    /// Applies an arbitrary per-lane Pauli pattern on qubit `q`: lanes in
    /// `x_lanes` get the X component, lanes in `z_lanes` the Z component
    /// (a lane in both gets `Y`, up to the global phase the sign
    /// convention already drops — `Y = X·Z` nets the same sign flips).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn pauli_masked(&mut self, q: usize, x_lanes: u64, z_lanes: u64) {
        if x_lanes != 0 {
            self.x_masked(q, x_lanes);
        }
        if z_lanes != 0 {
            self.z_masked(q, z_lanes);
        }
    }

    /// Applies a `CNOT` with control `c` and target `t` in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `c == t` or either index is out of range.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT requires distinct qubits");
        let (cb, tb) = (c * self.rwords, t * self.rwords);
        for w in 0..self.rwords {
            let xc = self.x[cb + w];
            let zc = self.z[cb + w];
            let xt = self.x[tb + w];
            let zt = self.z[tb + w];
            // Sign flips where xc ∧ zt ∧ (xt == zc).
            self.flip_rows(w, xc & zt & !(xt ^ zc), u64::MAX);
            self.x[tb + w] = xt ^ xc;
            self.z[cb + w] = zc ^ zt;
        }
    }

    /// Applies a `CZ` on qubits `a` and `b` (`H_b · CNOT_{a,b} · H_b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// Applies a `SWAP` on qubits `a` and `b` (column exchange; the sign
    /// lanes are untouched, as in the scalar engine).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "SWAP requires distinct qubits");
        let (ab, bb) = (a * self.rwords, b * self.rwords);
        for w in 0..self.rwords {
            self.x.swap(ab + w, bb + w);
            self.z.swap(ab + w, bb + w);
        }
    }

    /// Whether measuring `q` would be random (in **every** lane — the
    /// classification is operator-level, so all lanes always agree).
    #[must_use]
    pub fn is_random(&self, q: usize) -> bool {
        self.check_qubit(q);
        self.random_pivot(q).is_some()
    }

    /// Measures qubit `q` in all 64 lanes at once, returning the outcome
    /// lane word (bit `k` = lane `k`'s outcome, `1` for `|1⟩`).
    ///
    /// When the outcome is random, `draw(lane)` supplies lane `k`'s coin
    /// — called for lanes `0..64` in ascending order, **before** the
    /// collapse, so a caller holding 64 per-lane generators reproduces
    /// each lane's scalar RNG stream exactly. Deterministic outcomes
    /// never invoke `draw`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_with<F: FnMut(usize) -> bool>(&mut self, q: usize, mut draw: F) -> u64 {
        self.check_qubit(q);
        match self.random_pivot(q) {
            Some(p) => {
                let mut outcomes = 0u64;
                for lane in 0..LANES {
                    outcomes |= u64::from(draw(lane)) << lane;
                }
                self.collapse(q, p, outcomes);
                outcomes
            }
            None => self.deterministic_outcomes(q),
        }
    }

    /// Resets qubit `q` to `|0⟩` in every lane (measure, then flip the
    /// lanes that read `|1⟩`). The `draw` contract matches
    /// [`measure_with`](Self::measure_with).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn reset_with<F: FnMut(usize) -> bool>(&mut self, q: usize, draw: F) {
        let ones = self.measure_with(q, draw);
        if ones != 0 {
            self.x_masked(q, ones);
        }
    }

    /// The first stabilizer row whose X bit anticommutes with `Z_q` —
    /// identical to the scalar pivot (operator-level, lane-invariant).
    #[inline]
    fn random_pivot(&self, q: usize) -> Option<usize> {
        let base = q * self.rwords;
        let n = self.n;
        for w in 0..self.rwords {
            let m = self.x[base + w] & Self::range_mask(n, 2 * n, w);
            if m != 0 {
                return Some(64 * w + m.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The sliced random-measurement collapse: the operator sweep and the
    /// bit-sliced mod-4 phase accumulator are shared across lanes (they
    /// are sign-independent); only the final sign write fans out to the
    /// per-row lane words, where the scalar recurrence
    /// `r_h ← (r_h ⊕ r_p ⊕ acc_hi) ∧ ¬acc_lo` is applied to whole lane
    /// words per target row.
    fn collapse(&mut self, q: usize, p: usize, outcomes: u64) {
        let rw = self.rwords;
        let n = self.n;
        let qb = q * rw;
        for w in 0..rw {
            self.targets[w] = self.x[qb + w];
        }
        self.targets[p / 64] &= !(1u64 << (p % 64));
        let tcount: usize = self.targets.iter().map(|w| w.count_ones() as usize).sum();

        if tcount > 0 {
            self.acc_lo[..rw].fill(0);
            self.acc_hi[..rw].fill(0);
            for c in 0..n {
                let x1 = self.x_bit(p, c);
                let z1 = self.z_bit(p, c);
                if !x1 && !z1 {
                    continue;
                }
                let cb = c * rw;
                for w in 0..rw {
                    let t = self.targets[w];
                    let x2 = self.x[cb + w];
                    let z2 = self.z[cb + w];
                    let (plus, minus) = match (x1, z1) {
                        (true, true) => (z2 & !x2, x2 & !z2), // pivot Y
                        (true, false) => (x2 & z2, z2 & !x2), // pivot X
                        (false, true) => (x2 & !z2, x2 & z2), // pivot Z
                        (false, false) => unreachable!(),
                    };
                    let plus = plus & t;
                    let minus = minus & t;
                    let carry = self.acc_lo[w] & plus;
                    self.acc_lo[w] ^= plus;
                    self.acc_hi[w] ^= carry;
                    let borrow = minus & !self.acc_lo[w];
                    self.acc_lo[w] ^= minus;
                    self.acc_hi[w] ^= borrow;
                    if x1 {
                        self.x[cb + w] ^= t;
                    }
                    if z1 {
                        self.z[cb + w] ^= t;
                    }
                }
            }
            let rp = self.r_lanes[p];
            for w in 0..rw {
                let mut t = self.targets[w];
                while t != 0 {
                    let b = t.trailing_zeros() as usize;
                    t &= t - 1;
                    let row = 64 * w + b;
                    let hi = bcast(self.acc_hi[w] >> b & 1 != 0);
                    let lo = bcast(self.acc_lo[w] >> b & 1 != 0);
                    self.r_lanes[row] = (self.r_lanes[row] ^ rp ^ hi) & !lo;
                }
            }
        }

        // Destabilizer p-n becomes the old stabilizer row p; row p
        // becomes ±Z_q with the per-lane outcomes as signs.
        let d = p - n;
        for c in 0..n {
            self.set_x(d, c, self.x_bit(p, c));
            self.set_z(d, c, self.z_bit(p, c));
            self.set_x(p, c, false);
            self.set_z(p, c, false);
        }
        self.r_lanes[d] = self.r_lanes[p];
        self.set_z(p, q, true);
        self.r_lanes[p] = outcomes;
    }

    /// Deterministic outcomes for all lanes: the scalar prefix-XOR scan
    /// yields the (lane-invariant) operator phase `plus − minus`; the
    /// per-lane sign contribution is the XOR of the source rows' lane
    /// words. With `total = 2·Σr + (plus − minus)` and the outcome
    /// `total mod 4 == 2`, the lane word is
    /// `bcast((plus − minus) mod 4 == 2) ⊕ ⊕_src r_lanes[src]`.
    fn deterministic_outcomes(&mut self, q: usize) -> u64 {
        let rw = self.rwords;
        let n = self.n;
        let qb = q * rw;
        for w in 0..rw {
            self.targets[w] = self.x[qb + w] & Self::range_mask(0, n, w);
        }
        let (ws, bs) = (n / 64, n % 64);
        for w in (0..rw).rev() {
            let lo = if w >= ws {
                self.targets[w - ws] << bs
            } else {
                0
            };
            let hi = if bs > 0 && w > ws {
                self.targets[w - ws - 1] >> (64 - bs)
            } else {
                0
            };
            self.sources[w] = lo | hi;
        }

        let mut plus = 0i64;
        let mut minus = 0i64;
        for c in 0..n {
            let cb = c * rw;
            let mut carry_x = 0u64;
            let mut carry_z = 0u64;
            for w in 0..rw {
                let s = self.sources[w];
                let sx = self.x[cb + w] & s;
                let sz = self.z[cb + w] & s;
                let ix = prefix_xor(sx);
                let iz = prefix_xor(sz);
                let px = (ix << 1) ^ carry_x;
                let pz = (iz << 1) ^ carry_z;
                if ix >> 63 != 0 {
                    carry_x = !carry_x;
                }
                if iz >> 63 != 0 {
                    carry_z = !carry_z;
                }
                let y1 = sx & sz;
                let xo = sx & !sz;
                let zo = !sx & sz;
                let pmask = (y1 & pz & !px) | (xo & px & pz) | (zo & px & !pz);
                let mmask = (y1 & px & !pz) | (xo & pz & !px) | (zo & px & pz);
                plus += i64::from(pmask.count_ones());
                minus += i64::from(mmask.count_ones());
            }
        }
        let pm = plus - minus;
        debug_assert!(
            pm.rem_euclid(2) == 0,
            "deterministic-outcome phase must be real"
        );
        let mut out = bcast(pm.rem_euclid(4) == 2);
        for w in 0..rw {
            let mut s = self.sources[w];
            while s != 0 {
                let b = s.trailing_zeros() as usize;
                s &= s - 1;
                out ^= self.r_lanes[64 * w + b];
            }
        }
        out
    }

    /// Per-lane deterministic outcomes without disturbing the state;
    /// `None` if the measurement would be random (in every lane alike).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn peek_deterministic(&mut self, q: usize) -> Option<u64> {
        self.check_qubit(q);
        if self.random_pivot(q).is_some() {
            None
        } else {
            Some(self.deterministic_outcomes(q))
        }
    }

    /// The per-lane sign of a stabilizer-group observable: bit `k` set
    /// means expectation `−1` in lane `k`. `None` when the observable is
    /// not (±) in the stabilizer group — membership is operator-level,
    /// so it is `None` for all lanes or none.
    ///
    /// # Panics
    ///
    /// Panics if `observable.len() != num_qubits()`.
    #[must_use]
    pub fn expectation(&mut self, observable: &PauliString) -> Option<u64> {
        assert_eq!(
            observable.len(),
            self.n,
            "observable must act on all {} qubits",
            self.n
        );
        let n = self.n;
        for row in n..2 * n {
            if !self.commutes_with_row(observable, row) {
                return None;
            }
        }
        debug_assert!(observable.phase().is_real());
        // Same stabilizer-product decomposition as the scalar engine; the
        // operator phase is lane-invariant, the `2·r_src` terms XOR the
        // participating rows' lane words.
        let mut phase = 0i64;
        let mut lane_signs = 0u64;
        let mut acc: Vec<Pauli> = vec![Pauli::I; n];
        for i in 0..n {
            if self.commutes_with_row(observable, i) {
                continue;
            }
            let src = i + n;
            for (c, slot) in acc.iter_mut().enumerate() {
                let x1 = self.x_bit(src, c);
                let z1 = self.z_bit(src, c);
                let (x2, z2) = slot.bits();
                phase += match (x1, z1) {
                    (false, false) => 0,
                    (true, true) => i64::from(z2) - i64::from(x2),
                    (true, false) => {
                        if z2 {
                            2 * i64::from(x2) - 1
                        } else {
                            0
                        }
                    }
                    (false, true) => {
                        if x2 {
                            1 - 2 * i64::from(z2)
                        } else {
                            0
                        }
                    }
                };
                *slot = Pauli::from_bits(x2 ^ x1, z2 ^ z1);
            }
            lane_signs ^= self.r_lanes[src];
        }
        let product = PauliString::new(Phase::PlusOne, acc);
        let mut obs = observable.clone();
        obs.set_phase(Phase::PlusOne);
        assert_eq!(
            obs, product,
            "observable commutes with all stabilizers but is not in the group"
        );
        debug_assert!(
            phase.rem_euclid(2) == 0,
            "stabilizer-product phase must be real"
        );
        let negative = bcast(phase.rem_euclid(4) == 2) ^ lane_signs;
        let obs_negative = bcast(observable.phase() == Phase::MinusOne);
        Some(negative ^ obs_negative)
    }

    fn commutes_with_row(&self, observable: &PauliString, row: usize) -> bool {
        let mut anti = 0usize;
        for q in 0..self.n {
            let p = Pauli::from_bits(self.x_bit(row, q), self.z_bit(row, q));
            if !p.commutes_with(observable.op(q)) {
                anti += 1;
            }
        }
        anti.is_multiple_of(2)
    }

    fn row_string(&self, row: usize, lane: usize) -> PauliString {
        let ops = (0..self.n)
            .map(|q| Pauli::from_bits(self.x_bit(row, q), self.z_bit(row, q)))
            .collect();
        let phase = if self.r_lanes[row] >> lane & 1 != 0 {
            Phase::MinusOne
        } else {
            Phase::PlusOne
        };
        PauliString::new(phase, ops)
    }

    /// Whether lane `lane` is **byte-identical** to `scalar`: same
    /// operator bit-planes (the layouts coincide word for word) and, for
    /// every row, the lane's sign bit equals the scalar sign bit. This
    /// is the differential-oracle hook — O(n·⌈2n/64⌉) word compares, so
    /// the oracle can afford it per lane per step.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_eq(&self, lane: usize, scalar: &crate::StabilizerSim) -> bool {
        assert!(lane < LANES, "lane index {lane} out of range");
        if scalar.num_qubits() != self.n {
            return false;
        }
        let (sx, sz, sr) = scalar.raw_planes();
        if sx != self.x.as_slice() || sz != self.z.as_slice() {
            return false;
        }
        (0..2 * self.n).all(|row| {
            let scalar_bit = sr[row / 64] >> (row % 64) & 1 != 0;
            let lane_bit = self.r_lanes[row] >> lane & 1 != 0;
            scalar_bit == lane_bit
        })
    }

    /// Lane `lane`'s stabilizer generators — row-for-row comparable with
    /// [`StabilizerSim::stabilizers`](crate::StabilizerSim::stabilizers)
    /// of the lane's scalar twin (the differential-oracle extraction).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_stabilizers(&self, lane: usize) -> Vec<PauliString> {
        assert!(lane < LANES, "lane index {lane} out of range");
        (self.n..2 * self.n)
            .map(|row| self.row_string(row, lane))
            .collect()
    }

    /// Lane `lane`'s destabilizer generators (see
    /// [`lane_stabilizers`](Self::lane_stabilizers)).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_destabilizers(&self, lane: usize) -> Vec<PauliString> {
        assert!(lane < LANES, "lane index {lane} out of range");
        (0..self.n).map(|row| self.row_string(row, lane)).collect()
    }
}

/// Inclusive prefix-XOR within a word (6 shift-XOR steps), as in the
/// scalar engine.
#[inline]
fn prefix_xor(mut v: u64) -> u64 {
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^= v << 32;
    v
}

impl fmt::Display for ShotSlicedSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "shot-sliced stabilizers of {} qubit(s), lane 0:", self.n)?;
        for s in self.lane_stabilizers(0) {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lanes_measure_zero() {
        let mut sim = ShotSlicedSim::new(3);
        for q in 0..3 {
            assert_eq!(sim.measure_with(q, |_| unreachable!()), 0);
        }
    }

    #[test]
    fn masked_x_flips_only_selected_lanes() {
        let mut sim = ShotSlicedSim::new(2);
        sim.x_masked(0, 0b101);
        assert_eq!(sim.peek_deterministic(0), Some(0b101));
        assert_eq!(sim.peek_deterministic(1), Some(0));
    }

    #[test]
    fn masked_y_equals_x_then_z() {
        let mut a = ShotSlicedSim::new(1);
        a.h(0);
        a.y_masked(0, 0b11);
        let mut b = ShotSlicedSim::new(1);
        b.h(0);
        b.x_masked(0, 0b11);
        b.z_masked(0, 0b11);
        assert_eq!(a, b);
    }

    #[test]
    fn bell_lanes_collapse_independently() {
        let mut sim = ShotSlicedSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        let pattern = 0xDEAD_BEEF_0123_4567u64;
        let got = sim.measure_with(0, |lane| pattern >> lane & 1 != 0);
        assert_eq!(got, pattern);
        // Entangled partner now deterministic per lane, matching.
        assert_eq!(sim.peek_deterministic(1), Some(pattern));
    }

    #[test]
    fn expectation_tracks_lane_signs() {
        let mut sim = ShotSlicedSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        sim.z_masked(0, 0b10); // flips XX in lane 1 only
        assert_eq!(sim.expectation(&"+ZZ".parse().unwrap()), Some(0));
        assert_eq!(sim.expectation(&"+XX".parse().unwrap()), Some(0b10));
        assert_eq!(sim.expectation(&"-XX".parse().unwrap()), Some(!0b10));
        assert_eq!(sim.expectation(&"+ZI".parse().unwrap()), None);
    }

    #[test]
    fn reset_with_restores_zero_everywhere() {
        let mut sim = ShotSlicedSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        sim.reset_with(0, |lane| lane % 3 == 0);
        assert_eq!(sim.peek_deterministic(0), Some(0));
    }

    #[test]
    fn lane_extraction_reports_signs() {
        let mut sim = ShotSlicedSim::new(1);
        sim.x_masked(0, 1 << 63);
        let top = sim.lane_stabilizers(63);
        assert_eq!(top[0].to_string(), "-1·Z");
        let bottom = sim.lane_stabilizers(0);
        assert_eq!(bottom[0].to_string(), "+1·Z");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut sim = ShotSlicedSim::new(2);
        sim.h(2);
    }
}
