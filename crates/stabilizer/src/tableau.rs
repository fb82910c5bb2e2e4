use std::fmt;
use std::ops::Range;

use qpdo_pauli::{Pauli, PauliString, Phase};
use qpdo_rng::Rng;

/// The word-packed Aaronson–Gottesman stabilizer tableau simulator.
///
/// Rows `0..n` hold the destabilizer generators and rows `n..2n` the
/// stabilizer generators. Storage is **column-major bit-planes**: for
/// each qubit column `q`, the x-bits of all `2n` rows are packed into
/// `rwords = ⌈2n/64⌉` consecutive `u64` words (`x[q * rwords + w]`,
/// bit `b` of word `w` = row `64w + b`), and likewise for the z-bits.
/// Sign bits are one row-indexed plane `r`. See DESIGN.md §8 for the
/// layout rationale and the phase-accumulation trick.
///
/// The payoff is that every hot kernel touches whole words of rows at
/// once: single-qubit gates are `rwords` word operations per column,
/// CNOT is `4·rwords` reads and `2·rwords` writes, and the measurement
/// collapse multiplies the pivot row into *all* anticommuting rows
/// simultaneously with a bit-sliced mod-4 phase accumulator, instead of
/// one rowsum per row. At Surface-17 scale (`n = 17`, 34 rows) every
/// column plane is a single word. Unlike the cell-per-entry
/// [`ReferenceTableau`](crate::ReferenceTableau) there is no scratch
/// row: deterministic outcomes and expectation values share one sign
/// kernel, a word-parallel prefix-XOR scan that never materializes the
/// product row and skips every word no selected row touches. A
/// per-qubit Z cache answers the measurement of a qubit already known
/// to be a `±Z` eigenstate (a just-measured ancilla's reset) without
/// touching the tableau.
///
/// Semantics — gate action, pivot choice, RNG draws, phase bookkeeping,
/// canonicalization — are bit-for-bit identical to the reference
/// engine; `tests/differential.rs` enforces this after every gate of
/// seeded random Clifford walks.
///
/// See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct StabilizerSim {
    n: usize,
    /// Words per column bit-plane: `⌈2n/64⌉`.
    rwords: usize,
    /// `x[q * rwords + w]`: x-bits of all rows for qubit column `q`.
    x: Vec<u64>,
    /// Same layout for z-bits.
    z: Vec<u64>,
    /// Sign bits, packed by row (`rwords` words).
    r: Vec<u64>,
    /// The Z cache: `zc[q] == Some(v)` guarantees that `(-1)^v·Z_q` is
    /// in the stabilizer group, so measuring `q` yields `v`; `None`
    /// means unknown. Derived from the tableau (equality ignores it);
    /// DESIGN.md §8 has the update table.
    zc: Vec<Option<bool>>,
    /// Measurement scratch (pre-allocated so the steady-state
    /// measurement path performs zero heap allocations): the
    /// anticommuting-row mask of the current collapse, also reused for
    /// the destabilizer rows that select a sign-kernel product.
    targets: Vec<u64>,
    /// Bit-sliced mod-4 phase accumulator, low bits.
    acc_lo: Vec<u64>,
    /// Bit-sliced mod-4 phase accumulator, high bits.
    acc_hi: Vec<u64>,
    /// Source-row mask of the sign kernel: the stabilizer rows whose
    /// ordered product it signs.
    sources: Vec<u64>,
    /// The row words from the first to the last non-zero word of
    /// `sources`: the only ones the sign kernel loads.
    source_span: Range<usize>,
}

/// Inclusive prefix-XOR within a word: bit `k` of the result is the XOR
/// of bits `0..=k` of `v` (a log-depth scan, 6 shift-XOR steps).
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

/// The mod-4 `g` phase a word of selected rows adds: source Pauli
/// `(sx, sz)` against the running product's exclusive prefix `(px, pz)`
/// at each selected row position.
#[inline(always)]
fn g_phase(sx: u64, sz: u64, px: u64, pz: u64) -> u32 {
    let y1 = sx & sz;
    let xo = sx & !sz;
    let zo = !sx & sz;
    let pmask = (y1 & pz & !px) | (xo & px & pz) | (zo & px & !pz);
    let mmask = (y1 & px & !pz) | (xo & pz & !px) | (zo & px & pz);
    pmask.count_ones().wrapping_sub(mmask.count_ones())
}

impl StabilizerSim {
    /// Creates a simulator with all `n` qubits in `|0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulator needs at least one qubit");
        let rwords = (2 * n).div_ceil(64);
        let mut sim = StabilizerSim {
            n,
            rwords,
            x: vec![0; n * rwords],
            z: vec![0; n * rwords],
            r: vec![0; rwords],
            zc: vec![Some(false); n],
            targets: vec![0; rwords],
            acc_lo: vec![0; rwords],
            acc_hi: vec![0; rwords],
            sources: vec![0; rwords],
            source_span: 0..0,
        };
        for q in 0..n {
            sim.set_x(q, q, true); // destabilizer q = X_q
            sim.set_z(n + q, q, true); // stabilizer q = Z_q
        }
        sim
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Raw `(x, z, r)` bit-planes, for the shot-sliced lane oracle
    /// ([`ShotSlicedSim::lane_eq`](crate::ShotSlicedSim::lane_eq)).
    pub(crate) fn raw_planes(&self) -> (&[u64], &[u64], &[u64]) {
        (&self.x, &self.z, &self.r)
    }

    /// Extends the register with `k` fresh qubits in `|0⟩`.
    ///
    /// Existing stabilizers are untouched; the new qubits join as a
    /// tensor factor.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn grow(&mut self, k: usize) {
        assert!(k > 0, "grow requires at least one new qubit");
        let old_n = self.n;
        let new_n = old_n + k;
        let mut grown = StabilizerSim::new(new_n);
        // Old destabilizer rows map to the same indices; old stabilizer
        // rows shift by k. The fresh default rows for the new qubits are
        // already correct.
        for row in 0..old_n {
            for q in 0..old_n {
                grown.set_x(row, q, self.x_bit(row, q));
                grown.set_z(row, q, self.z_bit(row, q));
            }
            grown.set_r(row, self.r_bit(row));
            let (src, dst) = (old_n + row, new_n + row);
            for q in 0..old_n {
                grown.set_x(dst, q, self.x_bit(src, q));
                grown.set_z(dst, q, self.z_bit(src, q));
            }
            grown.set_r(dst, self.r_bit(src));
        }
        grown.zc[..old_n].copy_from_slice(&self.zc);
        *self = grown;
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

    #[inline]
    fn r_bit(&self, row: usize) -> bool {
        self.r[row / 64] >> (row % 64) & 1 != 0
    }

    #[inline]
    fn set_r(&mut self, row: usize, v: bool) {
        let mask = 1u64 << (row % 64);
        if v {
            self.r[row / 64] |= mask;
        } else {
            self.r[row / 64] &= !mask;
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

    /// Applies a Hadamard on qubit `q`: one swap of the column's x/z
    /// planes, with the sign plane picking up `x·z` word-parallel.
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
            self.r[w] ^= xw & zw;
            self.x[base + w] = zw;
            self.z[base + w] = xw;
        }
        self.zc[q] = None;
    }

    /// Applies the phase gate `S` on qubit `q`.
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
            self.r[w] ^= xw & zw;
            self.z[base + w] = xw ^ zw;
        }
    }

    /// Applies `S†` on qubit `q` (as `S·S·S`, which is exact for
    /// Cliffords).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    /// Applies a Pauli-X on qubit `q` (flips signs of Z-type rows).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn x(&mut self, q: usize) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.r[w] ^= self.z[base + w];
        }
        self.zc[q] = self.zc[q].map(|v| !v);
    }

    /// Applies a Pauli-Y on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn y(&mut self, q: usize) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.r[w] ^= self.x[base + w] ^ self.z[base + w];
        }
        self.zc[q] = self.zc[q].map(|v| !v);
    }

    /// Applies a Pauli-Z on qubit `q` (flips signs of X-type rows).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn z(&mut self, q: usize) {
        self.check_qubit(q);
        let base = q * self.rwords;
        for w in 0..self.rwords {
            self.r[w] ^= self.x[base + w];
        }
    }

    /// Applies a `CNOT` with control `c` and target `t`: two column
    /// XORs plus a word-parallel sign update.
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
            self.r[w] ^= xc & zt & !(xt ^ zc);
            self.x[tb + w] = xt ^ xc;
            self.z[cb + w] = zc ^ zt;
        }
        // Z_c is fixed; Z_t maps to Z_c·Z_t, so ±Z_t stays known only
        // when both factors are.
        self.zc[t] = match (self.zc[c], self.zc[t]) {
            (Some(vc), Some(vt)) => Some(vc ^ vt),
            _ => None,
        };
    }

    /// Applies a `CZ` on qubits `a` and `b` (`H_b · CNOT_{a,b} · H_b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn cz(&mut self, a: usize, b: usize) {
        // CZ fixes Z_b, which the H-sandwich's cache updates would lose.
        self.check_qubit(b);
        let zb = self.zc[b];
        self.h(b);
        self.cnot(a, b);
        self.h(b);
        self.zc[b] = zb;
    }

    /// Applies a `SWAP` on qubits `a` and `b` (column exchange).
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
        self.zc.swap(a, b);
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// Returns `true` for outcome `|1⟩`. Random outcomes draw one bit
    /// from `rng` (before the collapse, matching the reference engine's
    /// stream); deterministic outcomes never touch it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        self.measure_by(q, || rng.gen())
    }

    /// Measures qubit `q` as [`measure`](Self::measure) does, except that
    /// a random measurement collapses onto `outcome` instead of drawing
    /// it; a deterministic outcome is returned as it is. Forcing every
    /// random branch gives a reference-sample frame sampler its one
    /// noiseless run.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_forced(&mut self, q: usize, outcome: bool) -> bool {
        self.measure_by(q, || outcome)
    }

    /// Measures `q`, taking a random outcome from `draw`, which runs
    /// before the collapse and only on the random branch.
    fn measure_by(&mut self, q: usize, draw: impl FnOnce() -> bool) -> bool {
        self.check_qubit(q);
        match self.classify(q) {
            Ok(outcome) => outcome,
            Err(p) => {
                let outcome = draw();
                self.collapse(q, p, outcome);
                outcome
            }
        }
    }

    /// The outcome of measuring `q` when it is deterministic (`Ok`),
    /// else the random-measurement pivot (`Err`). A Z-cache hit answers
    /// without touching the tableau; a computed outcome is cached.
    fn classify(&mut self, q: usize) -> Result<bool, usize> {
        if let Some(cached) = self.zc[q] {
            debug_assert_eq!(
                self.classify_uncached(q),
                Ok(cached),
                "Z cache disagrees with the tableau on qubit {q}"
            );
            return Ok(cached);
        }
        let outcome = self.classify_uncached(q)?;
        self.zc[q] = Some(outcome);
        Ok(outcome)
    }

    /// [`classify`](Self::classify) from the tableau alone. A
    /// deterministic `Z_q` is the product of the stabilizer rows paired
    /// with the destabilizer rows that have an X bit on column `q`; the
    /// sign kernel gives its sign.
    fn classify_uncached(&mut self, q: usize) -> Result<bool, usize> {
        if let Some(p) = self.random_pivot(q) {
            return Err(p);
        }
        let qb = q * self.rwords;
        for w in 0..self.rwords {
            self.targets[w] = self.x[qb + w] & Self::range_mask(0, self.n, w);
        }
        self.select_partners();
        Ok(self.product_sign())
    }

    /// The first stabilizer row whose X bit anticommutes with `Z_q`, if
    /// any — the measurement pivot of the CHP algorithm.
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

    /// The batched random-measurement collapse: every row that
    /// anticommutes with `Z_q` absorbs the pivot row `p` in one
    /// word-parallel sweep over the columns, with the `i^k` phase
    /// bookkeeping carried in a bit-sliced mod-4 accumulator (two bit
    /// planes: `acc_lo`, `acc_hi`). Returns the number of absorbed
    /// (target) rows — the rowsum count the reference engine would have
    /// executed one by one.
    ///
    /// Phase math: per target row the reference computes
    /// `total = 2·r_h + 2·r_p + Σ g` and sets `r_h ← (total mod 4 == 2)`.
    /// With `acc = (Σ g) mod 4` held as 2-bit counters, that collapses
    /// to `r_h ← (r_h ⊕ r_p ⊕ acc_hi) ∧ ¬acc_lo` — odd `acc` (a
    /// destabilizer-row artifact) forces `false`, exactly like the
    /// reference's `rem_euclid(4) == 2`.
    fn collapse(&mut self, q: usize, p: usize, outcome: bool) -> usize {
        let rw = self.rwords;
        let n = self.n;
        let qb = q * rw;
        // Target mask: all rows with an X bit on column q, minus the
        // pivot itself.
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
                    // g(+1) / g(-1) masks by the pivot's Pauli on c.
                    let (plus, minus) = match (x1, z1) {
                        (true, true) => (z2 & !x2, x2 & !z2), // pivot Y
                        (true, false) => (x2 & z2, z2 & !x2), // pivot X
                        (false, true) => (x2 & !z2, x2 & z2), // pivot Z
                        (false, false) => unreachable!(),
                    };
                    let plus = plus & t;
                    let minus = minus & t;
                    // acc += plus (per-row 2-bit add)...
                    let carry = self.acc_lo[w] & plus;
                    self.acc_lo[w] ^= plus;
                    self.acc_hi[w] ^= carry;
                    // ...then acc -= minus (per-row 2-bit subtract).
                    let borrow = minus & !self.acc_lo[w];
                    self.acc_lo[w] ^= minus;
                    self.acc_hi[w] ^= borrow;
                    // Operator update: targets absorb the pivot's bits.
                    if x1 {
                        self.x[cb + w] ^= t;
                    }
                    if z1 {
                        self.z[cb + w] ^= t;
                    }
                }
            }
            let rp = if self.r_bit(p) { u64::MAX } else { 0 };
            for w in 0..rw {
                let t = self.targets[w];
                let new_r = (self.r[w] ^ rp ^ self.acc_hi[w]) & !self.acc_lo[w];
                self.r[w] = (self.r[w] & !t) | (new_r & t);
            }
        }

        // Destabilizer p-n becomes the old stabilizer row p; row p
        // becomes ±Z_q with the drawn outcome as sign.
        let d = p - n;
        for c in 0..n {
            self.set_x(d, c, self.x_bit(p, c));
            self.set_z(d, c, self.z_bit(p, c));
            self.set_x(p, c, false);
            self.set_z(p, c, false);
        }
        self.set_r(d, self.r_bit(p));
        self.set_z(p, q, true);
        self.set_r(p, outcome);
        self.zc[q] = Some(outcome);
        tcount
    }

    /// Returns the outcome of measuring `q` if it is deterministic,
    /// without disturbing the state; `None` if the outcome would be
    /// random.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn peek_deterministic(&mut self, q: usize) -> Option<bool> {
        self.check_qubit(q);
        self.classify(q).ok()
    }

    /// Loads `sources` with the stabilizer rows paired with the
    /// destabilizer rows set in `targets` (row `i` → row `i + n`), in
    /// ascending row order, and `source_span` with the words that hold
    /// them.
    fn select_partners(&mut self) {
        let (ws, bs) = (self.n / 64, self.n % 64);
        self.source_span = 0..0;
        for w in (0..self.rwords).rev() {
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
            if lo | hi != 0 {
                if self.source_span.is_empty() {
                    self.source_span.end = w + 1;
                }
                self.source_span.start = w;
            }
        }
    }

    /// The sign kernel: whether the ordered product of the stabilizer
    /// rows selected by `sources` carries sign `-1`. Serves
    /// deterministic measurement, [`peek_deterministic`] and
    /// [`expectation`], without a scratch row.
    ///
    /// The reference engine accumulates those rows one `rowsum` at a
    /// time into a scratch row; because every intermediate product is a
    /// commuting stabilizer product, each step's phase is even and the
    /// final sign is simply the mod-4 sum of all per-step `g`
    /// contributions plus `2·Σ r_src`. The per-step `g` arguments are
    /// (source bits, XOR of all *earlier* source bits) — an exclusive
    /// prefix-XOR over the selected rows, which a log-depth in-word
    /// scan plus a cross-word parity carry computes for a whole column
    /// at once. A column word in which no selected row has an X or Z
    /// bit adds no phase and leaves both carries as they are, so it is
    /// skipped, and the words outside `source_span` are never loaded.
    /// When the span is one word (always so for n ≤ 32) there is no
    /// carry, and the column loop reads that word alone.
    ///
    /// [`peek_deterministic`]: Self::peek_deterministic
    /// [`expectation`]: Self::expectation
    fn product_sign(&self) -> bool {
        let rw = self.rwords;
        let span = self.source_span.clone();
        // Mod-4 phase sum; u32 wrap-around is a multiple of 4.
        let mut total = 0u32;
        if span.len() == 1 {
            // One word: no cross-word carry.
            let (w, s) = (span.start, self.sources[span.start]);
            for c in 0..self.n {
                let sx = self.x[c * rw + w] & s;
                let sz = self.z[c * rw + w] & s;
                if sx | sz != 0 {
                    total = total.wrapping_add(g_phase(
                        sx,
                        sz,
                        prefix_xor(sx) << 1,
                        prefix_xor(sz) << 1,
                    ));
                }
            }
        } else {
            for c in 0..self.n {
                let cb = c * rw;
                // Cross-word exclusive-prefix carries (0 or all-ones).
                let mut carry_x = 0u64;
                let mut carry_z = 0u64;
                for w in span.clone() {
                    let s = self.sources[w];
                    let sx = self.x[cb + w] & s;
                    let sz = self.z[cb + w] & s;
                    if sx | sz == 0 {
                        continue;
                    }
                    let ix = prefix_xor(sx);
                    let iz = prefix_xor(sz);
                    // Exclusive prefix at bit b = inclusive prefix at b-1,
                    // seeded with the parity of all lower words.
                    let px = (ix << 1) ^ carry_x;
                    let pz = (iz << 1) ^ carry_z;
                    if ix >> 63 != 0 {
                        carry_x = !carry_x;
                    }
                    if iz >> 63 != 0 {
                        carry_z = !carry_z;
                    }
                    total = total.wrapping_add(g_phase(sx, sz, px, pz));
                }
            }
        }
        for w in span {
            total = total.wrapping_add(2 * (self.r[w] & self.sources[w]).count_ones());
        }
        debug_assert!(
            total.is_multiple_of(2),
            "stabilizer-product phase must be real"
        );
        total % 4 == 2
    }

    /// Resets qubit `q` to `|0⟩` (measure, then flip on outcome `|1⟩`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            self.x(q);
        }
    }

    /// Generic single rowsum (row `h` absorbs row `i`) for the cold
    /// paths — canonicalization only. Hot paths use the batched collapse
    /// or the prefix scan instead.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut g_total = 0i64;
        for c in 0..self.n {
            let x1 = self.x_bit(i, c);
            let z1 = self.z_bit(i, c);
            let x2 = self.x_bit(h, c);
            let z2 = self.z_bit(h, c);
            g_total += match (x1, z1) {
                (false, false) => 0,
                (true, true) => (z2 as i64) - (x2 as i64),
                (true, false) => {
                    if z2 {
                        2 * (x2 as i64) - 1
                    } else {
                        0
                    }
                }
                (false, true) => {
                    if x2 {
                        1 - 2 * (z2 as i64)
                    } else {
                        0
                    }
                }
            };
        }
        let total = 2 * (self.r_bit(h) as i64) + 2 * (self.r_bit(i) as i64) + g_total;
        debug_assert!(
            h < self.n || total.rem_euclid(2) == 0,
            "rowsum phase must be real on stabilizer rows"
        );
        self.set_r(h, total.rem_euclid(4) == 2);
        for c in 0..self.n {
            let xv = self.x_bit(h, c) ^ self.x_bit(i, c);
            let zv = self.z_bit(h, c) ^ self.z_bit(i, c);
            self.set_x(h, c, xv);
            self.set_z(h, c, zv);
        }
    }

    fn row_string(&self, row: usize) -> PauliString {
        let ops = (0..self.n)
            .map(|q| Pauli::from_bits(self.x_bit(row, q), self.z_bit(row, q)))
            .collect();
        let phase = if self.r_bit(row) {
            Phase::MinusOne
        } else {
            Phase::PlusOne
        };
        PauliString::new(phase, ops)
    }

    /// The current stabilizer generators as signed Pauli strings.
    ///
    /// `Y` entries are reported as the enum `Y`; the tableau's internal
    /// `X·Z` bookkeeping keeps signs real, matching the CHP convention.
    #[must_use]
    pub fn stabilizers(&self) -> Vec<PauliString> {
        (self.n..2 * self.n)
            .map(|row| self.row_string(row))
            .collect()
    }

    /// The current destabilizer generators as Pauli strings.
    ///
    /// Destabilizer *signs* are bookkeeping artifacts of the
    /// Aaronson–Gottesman algorithm and carry no physical meaning; only
    /// the operator parts are significant.
    #[must_use]
    pub fn destabilizers(&self) -> Vec<PauliString> {
        (0..self.n).map(|row| self.row_string(row)).collect()
    }

    /// A canonical (row-reduced) generating set for the stabilizer
    /// group, suitable for comparing two simulators for state equality.
    ///
    /// Two simulators represent the same quantum state exactly when
    /// their canonical stabilizers are equal.
    #[must_use]
    pub fn canonical_stabilizers(&self) -> Vec<PauliString> {
        // Work on a copy; row-multiplication reuses rowsum on the clone
        // so signs stay exact.
        let mut work = self.clone();
        let n = work.n;
        let rows: Vec<usize> = (n..2 * n).collect();
        let mut pivot_row = 0usize;
        // X block first (X before Z per column), then Z block: the
        // standard symplectic Gaussian elimination.
        for pass in 0..2 {
            for q in 0..n {
                let bit = |w: &StabilizerSim, row: usize| {
                    if pass == 0 {
                        w.x_bit(row, q)
                    } else {
                        !w.x_bit(row, q) && w.z_bit(row, q)
                    }
                };
                let Some(found) = (pivot_row..n).find(|&i| bit(&work, rows[i])) else {
                    continue;
                };
                if found != pivot_row {
                    work.swap_rows(rows[found], rows[pivot_row]);
                }
                for i in 0..n {
                    if i != pivot_row && bit(&work, rows[i]) {
                        work.rowsum(rows[i], rows[pivot_row]);
                    }
                }
                pivot_row += 1;
            }
        }
        let mut gens = work.stabilizers();
        gens.sort_by_key(|g| {
            let bits: Vec<(bool, bool)> = g.iter().map(Pauli::bits).collect();
            bits
        });
        gens
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        for c in 0..self.n {
            let (xa, xb) = (self.x_bit(a, c), self.x_bit(b, c));
            self.set_x(a, c, xb);
            self.set_x(b, c, xa);
            let (za, zb) = (self.z_bit(a, c), self.z_bit(b, c));
            self.set_z(a, c, zb);
            self.set_z(b, c, za);
        }
        let (ra, rb) = (self.r_bit(a), self.r_bit(b));
        self.set_r(a, rb);
        self.set_r(b, ra);
    }

    /// Measures the sign of an `n`-qubit Pauli-product observable when
    /// it is in the stabilizer group, e.g. the `Z₀Z₄Z₈` check of
    /// Table 2.2.
    ///
    /// Returns `Some(false)` for expectation `+1`, `Some(true)` for
    /// `-1`, and `None` when the observable is not (±) in the
    /// stabilizer group (outcome would be random).
    ///
    /// # Panics
    ///
    /// Panics if `observable.len() != num_qubits()`, or if the
    /// observable commutes with every stabilizer without being in the
    /// group (impossible for a full-rank tableau).
    #[must_use]
    pub fn expectation(&mut self, observable: &PauliString) -> Option<bool> {
        assert_eq!(
            observable.len(),
            self.n,
            "observable must act on all {} qubits",
            self.n
        );
        let (n, rw) = (self.n, self.rwords);
        // Rows anticommuting with the observable, word-parallel: a row
        // (x, z) anticommutes on column c with (ox, oz) iff x·oz ⊕ z·ox.
        self.targets.fill(0);
        for (c, op) in observable.iter().enumerate() {
            let (ox, oz) = op.bits();
            let cb = c * rw;
            for w in 0..rw {
                if ox {
                    self.targets[w] ^= self.z[cb + w];
                }
                if oz {
                    self.targets[w] ^= self.x[cb + w];
                }
            }
        }
        if (0..rw).any(|w| self.targets[w] & Self::range_mask(n, 2 * n, w) != 0) {
            return None;
        }
        // The observable is the product of the stabilizers paired with
        // the destabilizers it anticommutes with: check it column by
        // column, then sign that product.
        self.select_partners();
        for (c, op) in observable.iter().enumerate() {
            let cb = c * rw;
            let parity = |plane: &[u64]| {
                (0..rw)
                    .map(|w| (plane[cb + w] & self.sources[w]).count_ones())
                    .sum::<u32>()
                    % 2
                    == 1
            };
            assert_eq!(
                (parity(&self.x), parity(&self.z)),
                op.bits(),
                "observable commutes with all stabilizers but is not in the group"
            );
        }
        debug_assert!(observable.phase().is_real());
        Some(self.product_sign() != (observable.phase() == Phase::MinusOne))
    }
}

// Equality compares the quantum-state payload only (tableau bit-planes
// and signs); the pre-allocated measurement scratch buffers are
// transient and excluded.
impl PartialEq for StabilizerSim {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.x == other.x && self.z == other.z && self.r == other.r
    }
}

impl Eq for StabilizerSim {}

impl fmt::Display for StabilizerSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stabilizers of {} qubit(s):", self.n)?;
        for s in self.stabilizers() {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_rng::rngs::StdRng;
    use qpdo_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn fresh_state_measures_zero() {
        let mut sim = StabilizerSim::new(3);
        let mut rng = rng();
        for q in 0..3 {
            assert!(!sim.measure(q, &mut rng));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut sim = StabilizerSim::new(1);
        sim.x(0);
        assert_eq!(sim.peek_deterministic(0), Some(true));
        sim.x(0);
        assert_eq!(sim.peek_deterministic(0), Some(false));
    }

    #[test]
    fn y_flips_measurement() {
        let mut sim = StabilizerSim::new(1);
        sim.y(0);
        assert_eq!(sim.peek_deterministic(0), Some(true));
    }

    #[test]
    fn z_preserves_zero_state() {
        let mut sim = StabilizerSim::new(1);
        sim.z(0);
        assert_eq!(sim.peek_deterministic(0), Some(false));
    }

    #[test]
    fn hadamard_gives_random_then_repeatable() {
        let mut rng = rng();
        let mut seen = [false; 2];
        for seed in 0..32u64 {
            let mut sim = StabilizerSim::new(1);
            sim.h(0);
            assert_eq!(sim.peek_deterministic(0), None);
            let mut local = StdRng::seed_from_u64(seed);
            let first = sim.measure(0, &mut local);
            seen[first as usize] = true;
            // Once collapsed, the outcome repeats.
            assert_eq!(sim.measure(0, &mut rng), first);
            assert_eq!(sim.peek_deterministic(0), Some(first));
        }
        assert!(seen[0] && seen[1], "both outcomes must occur");
    }

    #[test]
    fn hxh_equals_z() {
        let mut a = StabilizerSim::new(1);
        a.h(0);
        a.x(0);
        a.h(0);
        let mut b = StabilizerSim::new(1);
        b.z(0);
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn s_squared_equals_z() {
        let mut a = StabilizerSim::new(1);
        a.h(0); // move off the Z eigenbasis so S acts non-trivially
        a.s(0);
        a.s(0);
        let mut b = StabilizerSim::new(1);
        b.h(0);
        b.z(0);
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn sdg_inverts_s() {
        let mut a = StabilizerSim::new(1);
        a.h(0);
        a.s(0);
        a.sdg(0);
        let mut b = StabilizerSim::new(1);
        b.h(0);
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        let gens = sim.canonical_stabilizers();
        let expected: Vec<PauliString> = vec!["+XX".parse().unwrap(), "+ZZ".parse().unwrap()];
        let mut expected_sorted = expected;
        expected_sorted.sort_by_key(|g| {
            let bits: Vec<(bool, bool)> = g.iter().map(Pauli::bits).collect();
            bits
        });
        assert_eq!(gens, expected_sorted);
    }

    #[test]
    fn bell_state_correlation() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = StabilizerSim::new(2);
            sim.h(0);
            sim.cnot(0, 1);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn odd_bell_state_anticorrelation() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = StabilizerSim::new(2);
            sim.h(0);
            sim.cnot(0, 1);
            sim.x(0);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn cz_matches_h_cnot_h() {
        let mut a = StabilizerSim::new(2);
        a.h(0);
        a.h(1);
        a.cz(0, 1);
        let mut b = StabilizerSim::new(2);
        b.h(0);
        b.h(1);
        b.h(1);
        b.cnot(0, 1);
        b.h(1);
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn swap_exchanges_states() {
        let mut sim = StabilizerSim::new(2);
        sim.x(0);
        sim.swap(0, 1);
        assert_eq!(sim.peek_deterministic(0), Some(false));
        assert_eq!(sim.peek_deterministic(1), Some(true));
    }

    #[test]
    fn reset_restores_zero() {
        let mut rng = rng();
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        sim.reset(0, &mut rng);
        assert_eq!(sim.peek_deterministic(0), Some(false));
    }

    #[test]
    fn ghz_parity() {
        // GHZ state: all three measurements agree.
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = StabilizerSim::new(3);
            sim.h(0);
            sim.cnot(0, 1);
            sim.cnot(1, 2);
            let a = sim.measure(0, &mut rng);
            assert_eq!(sim.measure(1, &mut rng), a);
            assert_eq!(sim.measure(2, &mut rng), a);
        }
    }

    #[test]
    fn expectation_of_stabilizer_observables() {
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        assert_eq!(sim.expectation(&"+ZZ".parse().unwrap()), Some(false));
        assert_eq!(sim.expectation(&"+XX".parse().unwrap()), Some(false));
        assert_eq!(sim.expectation(&"-ZZ".parse().unwrap()), Some(true));
        // ZI anticommutes with stabilizer XX -> random
        assert_eq!(sim.expectation(&"+ZI".parse().unwrap()), None);
        // Odd Bell state: ZZ has expectation -1.
        sim.x(0);
        assert_eq!(sim.expectation(&"+ZZ".parse().unwrap()), Some(true));
    }

    #[test]
    fn measurement_collapse_updates_entangled_partner() {
        let mut rng = rng();
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        let a = sim.measure(0, &mut rng);
        assert_eq!(sim.peek_deterministic(1), Some(a));
    }

    #[test]
    fn many_qubits_cross_word_boundary() {
        // 70 qubits spans three u64 words per column plane (140 rows).
        let mut rng = rng();
        let mut sim = StabilizerSim::new(70);
        sim.h(0);
        sim.cnot(0, 69);
        let a = sim.measure(0, &mut rng);
        assert_eq!(sim.measure(69, &mut rng), a);
        sim.x(65);
        assert_eq!(sim.peek_deterministic(65), Some(true));
    }

    #[test]
    fn grow_preserves_state_and_adds_zeros() {
        let mut rng = rng();
        let mut sim = StabilizerSim::new(2);
        sim.h(0);
        sim.cnot(0, 1);
        sim.grow(2);
        assert_eq!(sim.num_qubits(), 4);
        // New qubits start in |0>.
        assert_eq!(sim.peek_deterministic(2), Some(false));
        assert_eq!(sim.peek_deterministic(3), Some(false));
        // Old entanglement survives.
        let a = sim.measure(0, &mut rng);
        assert_eq!(sim.measure(1, &mut rng), a);
        // New qubits remain usable.
        sim.x(3);
        assert_eq!(sim.peek_deterministic(3), Some(true));
    }

    #[test]
    fn grow_preserves_signs() {
        let mut sim = StabilizerSim::new(1);
        sim.x(0); // stabilizer -Z0
        sim.grow(1);
        assert_eq!(sim.peek_deterministic(0), Some(true));
        let gens = sim.stabilizers();
        assert!(gens.iter().any(|g| g.to_string() == "-1·ZI"));
    }

    #[test]
    fn equality_ignores_scratch_buffers() {
        let mut rng = rng();
        let mut a = StabilizerSim::new(2);
        let b = StabilizerSim::new(2);
        // Dirty a's scratch buffers through a measure/reset cycle that
        // returns to |00>.
        a.h(0);
        a.reset(0, &mut rng);
        if a.canonical_stabilizers() == b.canonical_stabilizers() {
            // Same state must compare equal regardless of scratch
            // contents whenever the tableaus coincide.
            let mut c = StabilizerSim::new(2);
            c.h(0);
            c.h(0);
            assert_eq!(c, b);
        }
    }

    #[test]
    fn prefix_xor_is_inclusive_scan() {
        let v = 0b1011u64;
        let p = prefix_xor(v);
        // bit 0: 1, bit 1: 1^1=0, bit 2: ^0=0, bit 3: ^1=1
        assert_eq!(p & 0xF, 0b1001);
        assert_eq!(prefix_xor(u64::MAX) & 1, 1);
        assert_eq!(prefix_xor(0), 0);
    }

    #[test]
    fn measure_forced_pins_random_outcomes_only() {
        let mut fresh = StabilizerSim::new(3);
        fresh.h(0);
        fresh.cnot(0, 1);
        fresh.cnot(1, 2);
        fresh.h(0);
        assert_eq!(fresh.peek_deterministic(0), None);
        let mut forced = fresh.clone();
        assert!(forced.measure_forced(0, true));
        assert_eq!(forced.peek_deterministic(0), Some(true));
        // The same collapse as a drawn `true`.
        let mut rng = rng();
        let drawn = loop {
            let mut probe = fresh.clone();
            if probe.measure(0, &mut rng) {
                break probe;
            }
        };
        assert_eq!(forced, drawn);
        // A deterministic outcome wins over the forced one.
        assert!(forced.measure_forced(0, false));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut sim = StabilizerSim::new(2);
        sim.h(2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cnot_same_qubit_panics() {
        let mut sim = StabilizerSim::new(2);
        sim.cnot(0, 0);
    }
}
