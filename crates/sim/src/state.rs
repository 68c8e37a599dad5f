use crate::complex::Complex;
use crate::gates::Matrix2;
use rand::Rng;

/// A pure quantum state over `n` qubits, stored as `2^n` complex amplitudes
/// with qubit `q` mapped to bit `q` of the basis-state index.
///
/// # Layout: split-complex (SoA)
///
/// Amplitudes are stored as two parallel `f64` arrays (`re`, `im`) instead
/// of an array of complex structs. Interleaved re/im pairs defeat the
/// auto-vectorizer on the hot `apply_matrix` pair loops (every vector lane
/// would need a shuffle); with split arrays every kernel below is a walk
/// over plain `f64` slices that LLVM turns into packed SIMD arithmetic
/// wherever the runs are long enough.
///
/// A 2x2 unitary has one kernel per shape: a diagonal matrix scales the
/// two halves of the amplitudes in place, an anti-diagonal one swaps each
/// pair with phases, and every other matrix runs the general pair update
/// over the `2^(n-1)` pairs `(i, i + 2^q)`, walked by stride rather than by
/// testing `i & mask` over all `2^n` indices. A CNOT and a SWAP are pure
/// `swap_with_slice` runs, and `measure` collapses in a single pass reusing
/// the already-computed outcome probability as the renormalization
/// constant.
///
/// # Example
///
/// ```
/// use nisq_sim::StateVector;
/// use nisq_ir::GateKind;
///
/// let mut state = StateVector::new(2);
/// state.apply_single(0, GateKind::H);
/// state.apply_cnot(0, 1);
/// // A Bell pair: only |00> and |11> have weight.
/// assert!((state.probability_of_basis(0b00) - 0.5).abs() < 1e-12);
/// assert!((state.probability_of_basis(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 24 (the state would not fit in
    /// memory; the simulator compacts circuits onto their touched qubits so
    /// this is never needed in practice).
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= 24,
            "state vectors beyond 24 qubits are not supported"
        );
        let len = 1usize << num_qubits;
        let mut state = StateVector {
            num_qubits,
            re: vec![0.0; len],
            im: vec![0.0; len],
        };
        state.re[0] = 1.0;
        state
    }

    /// Resets the state to `|0...0>` without reallocating, so one scratch
    /// state can be replayed across many trials.
    pub fn reset(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[0] = 1.0;
    }

    /// Resizes the state for `num_qubits` qubits (growing the buffers only
    /// when needed) and resets it to `|0...0>` — so one pooled scratch
    /// state can serve programs of different widths without reallocating
    /// on every switch.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 24.
    pub fn resize_for(&mut self, num_qubits: usize) {
        assert!(
            num_qubits <= 24,
            "state vectors beyond 24 qubits are not supported"
        );
        let len = 1usize << num_qubits;
        self.num_qubits = num_qubits;
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
        // Long-lived pooled scratches serve programs of many widths; when
        // the high-water capacity is far above the current need (a 24-qubit
        // buffer is 256 MiB per component), release it rather than pinning
        // it for the life of the worker thread.
        if self.re.capacity() > len << 3 {
            self.re.shrink_to(len);
            self.im.shrink_to(len);
        }
        self.reset();
    }

    /// Copies another state of the same width into this one without
    /// allocating — the restore half of the checkpoint mechanism.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn copy_from(&mut self, other: &StateVector) {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "checkpoint width mismatch"
        );
        self.re.copy_from_slice(&other.re);
        self.im.copy_from_slice(&other.im);
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes (`2^n`).
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the state holds no amplitudes (never true in practice; kept
    /// for API symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// The amplitude of basis state `index` (qubit `q` is bit `q`).
    pub fn amplitude(&self, index: usize) -> Complex {
        Complex::new(self.re[index], self.im[index])
    }

    /// Probability of measuring the exact basis state `index`.
    pub fn probability_of_basis(&self, index: usize) -> f64 {
        self.re[index] * self.re[index] + self.im[index] * self.im[index]
    }

    /// Applies a single-qubit gate to `qubit` through its matrix.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range or the kind is not single-qubit.
    pub fn apply_single(&mut self, qubit: usize, kind: nisq_ir::GateKind) {
        self.apply_matrix(qubit, &crate::gates::single_qubit_matrix(kind));
    }

    /// Applies an arbitrary 2x2 unitary to `qubit`. Diagonal matrices take
    /// a multiply-only path (no pair shuffle), anti-diagonal ones a pair
    /// swap with phases, and every other matrix the general pair kernel.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    pub fn apply_matrix(&mut self, qubit: usize, m: &Matrix2) {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        if m[1] == Complex::ZERO && m[2] == Complex::ZERO {
            return self.apply_diagonal(qubit, m[0], m[3]);
        }
        if m[0] == Complex::ZERO && m[3] == Complex::ZERO {
            // Anti-diagonal (X/Y-like, the shape of every fused Pauli
            // error): a pair swap with phases, half the arithmetic of the
            // general kernel — and bitwise identical to it, because the
            // `0 * a ± 0 * b` terms of the general update vanish exactly.
            return self.apply_antidiagonal(qubit, m[1], m[2]);
        }
        let c = MatrixCoeffs::from(m);
        let mask = 1usize << qubit;
        let step = mask << 1;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(step)
            .zip(self.im.chunks_exact_mut(step))
        {
            let (re_lo, re_hi) = rc.split_at_mut(mask);
            let (im_lo, im_hi) = ic.split_at_mut(mask);
            for k in 0..mask {
                (re_lo[k], im_lo[k], re_hi[k], im_hi[k]) =
                    c.pair(re_lo[k], im_lo[k], re_hi[k], im_hi[k]);
            }
        }
    }

    /// Applies the anti-diagonal unitary `[[0, u], [l, 0]]` to `qubit`:
    /// `lo' = u * hi`, `hi' = l * lo`.
    fn apply_antidiagonal(&mut self, qubit: usize, u: Complex, l: Complex) {
        let mask = 1usize << qubit;
        if mask == 1 {
            let mut p = 0;
            while p < self.re.len() {
                let (ar, ai, br, bi) = (self.re[p], self.im[p], self.re[p + 1], self.im[p + 1]);
                self.re[p] = u.re * br - u.im * bi;
                self.im[p] = u.re * bi + u.im * br;
                self.re[p + 1] = l.re * ar - l.im * ai;
                self.im[p + 1] = l.re * ai + l.im * ar;
                p += 2;
            }
            return;
        }
        let step = mask << 1;
        let mut base = 0;
        while base < self.re.len() {
            let (re_lo, re_hi) = self.re[base..base + step].split_at_mut(mask);
            let (im_lo, im_hi) = self.im[base..base + step].split_at_mut(mask);
            for k in 0..mask {
                let (ar, ai, br, bi) = (re_lo[k], im_lo[k], re_hi[k], im_hi[k]);
                re_lo[k] = u.re * br - u.im * bi;
                im_lo[k] = u.re * bi + u.im * br;
                re_hi[k] = l.re * ar - l.im * ai;
                im_hi[k] = l.re * ai + l.im * ar;
            }
            base += step;
        }
    }

    /// Applies the diagonal unitary `diag(d0, d1)` to `qubit`: pure
    /// per-amplitude phases, no pairing. Unit factors are skipped entirely.
    fn apply_diagonal(&mut self, qubit: usize, d0: Complex, d1: Complex) {
        let mask = 1usize << qubit;
        let step = mask << 1;
        let scale_run = |re: &mut [f64], im: &mut [f64], d: Complex| {
            for (r, i) in re.iter_mut().zip(im.iter_mut()) {
                let (ar, ai) = (*r, *i);
                *r = d.re * ar - d.im * ai;
                *i = d.re * ai + d.im * ar;
            }
        };
        if d0 != Complex::ONE {
            let mut base = 0;
            while base < self.re.len() {
                scale_run(
                    &mut self.re[base..base + mask],
                    &mut self.im[base..base + mask],
                    d0,
                );
                base += step;
            }
        }
        if d1 != Complex::ONE {
            let mut base = mask;
            while base < self.re.len() {
                scale_run(
                    &mut self.re[base..base + mask],
                    &mut self.im[base..base + mask],
                    d1,
                );
                base += step;
            }
        }
    }

    /// Applies a CNOT with the given control and target.
    ///
    /// The amplitude exchange decomposes into contiguous runs of length
    /// `min(2^c, 2^t)` swapped via `swap_with_slice`, so the kernel is pure
    /// (vectorizable) memory movement.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or they coincide.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        assert!(control < self.num_qubits && target < self.num_qubits);
        assert_ne!(control, target, "control and target must differ");
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        let (lo, hi) = if cmask < tmask {
            (cmask, tmask)
        } else {
            (tmask, cmask)
        };
        let mut outer = 0;
        while outer < self.re.len() {
            let mut mid = outer;
            while mid < outer + hi {
                // Indices `i | cmask` for consecutive `i` form a contiguous
                // run of length `lo`; OR-ing in `tmask` shifts the whole run.
                let src = mid | cmask;
                let dst = src | tmask;
                let (re_a, re_b) = self.re.split_at_mut(dst);
                re_a[src..src + lo].swap_with_slice(&mut re_b[..lo]);
                let (im_a, im_b) = self.im.split_at_mut(dst);
                im_a[src..src + lo].swap_with_slice(&mut im_b[..lo]);
                mid += lo << 1;
            }
            outer += hi << 1;
        }
    }

    /// Applies a SWAP between two qubits.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range or they coincide.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.num_qubits && b < self.num_qubits);
        assert_ne!(a, b, "swap qubits must differ");
        let amask = 1usize << a;
        let bmask = 1usize << b;
        let (lo, hi) = if amask < bmask {
            (amask, bmask)
        } else {
            (bmask, amask)
        };
        let mut outer = 0;
        while outer < self.re.len() {
            let mut mid = outer;
            while mid < outer + hi {
                let src = mid | lo;
                let dst = mid | hi;
                let (re_a, re_b) = self.re.split_at_mut(dst);
                re_a[src..src + lo].swap_with_slice(&mut re_b[..lo]);
                let (im_a, im_b) = self.im.split_at_mut(dst);
                im_a[src..src + lo].swap_with_slice(&mut im_b[..lo]);
                mid += lo << 1;
            }
            outer += hi << 1;
        }
    }

    /// Probability that measuring `qubit` yields 1: a sum over the
    /// `qubit = 1` half of the amplitudes in index order, accumulated in four
    /// independent lanes (lane = position in the half mod 4) so the
    /// reduction is not one serial chain of additions.
    pub fn probability_one(&self, qubit: usize) -> f64 {
        let low = (1usize << qubit) - 1;
        let mut acc = [0.0f64; 4];
        for p in 0..self.re.len() / 2 {
            // Position `p` of the half is `p` with a 1 inserted at bit `qubit`.
            let i = (p & !low) << 1 | (low + 1) | (p & low);
            acc[p % 4] += self.re[i] * self.re[i] + self.im[i] * self.im[i];
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// The single-qubit reduced density matrix of `qubit`, as
    /// `(ρ00, ρ10, ρ11)` with `ρ10 = Σ ψ₁ · conj(ψ₀)` over the amplitude
    /// pairs — exactly the three numbers a Kraus branch probability
    /// `tr(A ρ A†) = g00·ρ00 + g11·ρ11 + 2·Re(g01·ρ10)` needs.
    pub(crate) fn reduced_density(&self, qubit: usize) -> (f64, Complex, f64) {
        let mask = 1usize << qubit;
        let n = self.re.len();
        let (mut p0, mut p1, mut xr, mut xi) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut base = 0usize;
        while base < n {
            for k in base..base + mask {
                let (ar, ai) = (self.re[k], self.im[k]);
                let (br, bi) = (self.re[k | mask], self.im[k | mask]);
                p0 += ar * ar + ai * ai;
                p1 += br * br + bi * bi;
                xr += br * ar + bi * ai;
                xi += bi * ar - br * ai;
            }
            base += mask << 1;
        }
        (p0, Complex::new(xr, xi), p1)
    }

    /// Multiplies every amplitude by `factor` (Kraus-branch
    /// renormalization; the one state operation that is not trace-
    /// preserving on its own).
    pub(crate) fn scale(&mut self, factor: f64) {
        for v in self.re.iter_mut() {
            *v *= factor;
        }
        for v in self.im.iter_mut() {
            *v *= factor;
        }
    }

    /// Measures `qubit` in the computational basis, collapsing the state and
    /// returning the sampled outcome.
    ///
    /// The collapse reuses the probability computed for sampling as the
    /// renormalization constant, so measurement costs one strided half-read
    /// plus one full write pass (instead of three full passes).
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let p1 = self.probability_one(qubit).clamp(0.0, 1.0);
        let outcome = rng.gen_bool(p1);
        let norm = if outcome { p1 } else { 1.0 - p1 };
        self.collapse_with_norm(qubit, outcome, norm);
        outcome
    }

    /// Projects `qubit` onto the given outcome and renormalizes.
    pub fn collapse(&mut self, qubit: usize, outcome: bool) {
        let kept = if outcome {
            self.probability_one(qubit)
        } else {
            1.0 - self.probability_one(qubit)
        };
        self.collapse_with_norm(qubit, outcome, kept);
    }

    /// Zeroes the discarded half and rescales the kept half in one pass,
    /// given the kept half's probability mass.
    pub(crate) fn collapse_with_norm(&mut self, qubit: usize, outcome: bool, norm: f64) {
        let mask = 1usize << qubit;
        let scale = if norm > 0.0 { 1.0 / norm.sqrt() } else { 0.0 };
        // Kept half starts at `mask` for outcome 1, at 0 for outcome 0.
        let (kept_off, dead_off) = if outcome { (mask, 0) } else { (0, mask) };
        let step = mask << 1;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(step)
            .zip(self.im.chunks_exact_mut(step))
        {
            for r in &mut rc[kept_off..kept_off + mask] {
                *r *= scale;
            }
            for i in &mut ic[kept_off..kept_off + mask] {
                *i *= scale;
            }
            rc[dead_off..dead_off + mask].fill(0.0);
            ic[dead_off..dead_off + mask].fill(0.0);
        }
    }

    /// Samples a full basis state from the `|amplitude|^2` distribution in
    /// one cumulative pass, without collapsing the state.
    pub fn sample_basis<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen();
        let mut cum = 0.0;
        let mut last_nonzero = 0;
        for i in 0..self.re.len() {
            let p = self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if p > 0.0 {
                last_nonzero = i;
                cum += p;
                if u < cum {
                    return i;
                }
            }
        }
        // Rounding can leave `cum` marginally below 1; attribute the
        // remainder to the last basis state with any weight.
        last_nonzero
    }

    /// Samples a basis state like [`StateVector::sample_basis`], but
    /// traverses (and returns) *canonical* indices: canonical bit `q` lives
    /// at physical bit `perm[q]` of the stored layout. Two states that are
    /// bit-permutations of each other (e.g. a relabeling-SWAP trial vs. its
    /// materialized twin) therefore accumulate identical probability
    /// sequences and map the same uniform draw to the same canonical
    /// outcome — the property the tiered engine's determinism contract
    /// rests on.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_qubits`.
    pub fn sample_canonical<R: Rng + ?Sized>(&self, perm: &[u8], rng: &mut R) -> usize {
        assert_eq!(perm.len(), self.num_qubits, "permutation width mismatch");
        if perm.iter().enumerate().all(|(q, &p)| usize::from(p) == q) {
            return self.sample_basis(rng);
        }
        // Only the displaced bits need scattering; identity bits copy
        // through in one mask.
        let mut keep = 0usize;
        let mut moved: [(u32, u32); 24] = [(0, 0); 24];
        let mut num_moved = 0;
        for (q, &p) in perm.iter().enumerate() {
            if usize::from(p) == q {
                keep |= 1 << q;
            } else {
                moved[num_moved] = (q as u32, u32::from(p));
                num_moved += 1;
            }
        }
        let scatter = |c: usize| {
            let mut phys = c & keep;
            for &(q, p) in &moved[..num_moved] {
                phys |= (c >> q & 1) << p;
            }
            phys
        };
        let u = rng.gen();
        let mut cum = 0.0;
        let mut last_nonzero = 0;
        for c in 0..self.re.len() {
            let i = scatter(c);
            let p = self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if p > 0.0 {
                last_nonzero = c;
                cum += p;
                if u < cum {
                    return c;
                }
            }
        }
        last_nonzero
    }

    /// Walks the non-zero-probability basis states in canonical order (see
    /// [`StateVector::sample_canonical`]), yielding `(canonical index,
    /// probability)` — the traversal the tiered engine uses to precompute
    /// its terminal outcome CDF so that a binary search over the CDF is
    /// draw-for-draw identical to the linear scan of a replayed trial.
    pub fn for_each_canonical_probability(&self, perm: &[u8], mut f: impl FnMut(usize, f64)) {
        assert_eq!(perm.len(), self.num_qubits, "permutation width mismatch");
        let mut keep = 0usize;
        let mut moved: [(u32, u32); 24] = [(0, 0); 24];
        let mut num_moved = 0;
        for (q, &p) in perm.iter().enumerate() {
            if usize::from(p) == q {
                keep |= 1 << q;
            } else {
                moved[num_moved] = (q as u32, u32::from(p));
                num_moved += 1;
            }
        }
        for c in 0..self.re.len() {
            let mut i = c & keep;
            for &(q, p) in &moved[..num_moved] {
                i |= (c >> q & 1) << p;
            }
            let p = self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if p > 0.0 {
                f(c, p);
            }
        }
    }

    /// Total probability (should stay 1 up to rounding; used in tests).
    pub fn total_probability(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(r, i)| r * r + i * i)
            .sum()
    }
}

/// The eight scalar coefficients of a 2x2 complex matrix, unpacked once per
/// kernel call so the inner loop touches no `Complex` structs.
struct MatrixCoeffs {
    m00r: f64,
    m00i: f64,
    m01r: f64,
    m01i: f64,
    m10r: f64,
    m10i: f64,
    m11r: f64,
    m11i: f64,
}

impl MatrixCoeffs {
    /// The 2x2 complex pair update `(lo', hi') = M · (lo, hi)` of the
    /// general kernel. Its grouping of additions fixes the rounding of
    /// every simulated amplitude: regrouping one moves the pinned digests
    /// of `tests/tiered_engine.rs`.
    #[inline(always)]
    fn pair(&self, ar: f64, ai: f64, br: f64, bi: f64) -> (f64, f64, f64, f64) {
        (
            self.m00r * ar - self.m00i * ai + (self.m01r * br - self.m01i * bi),
            self.m00r * ai + self.m00i * ar + (self.m01r * bi + self.m01i * br),
            self.m10r * ar - self.m10i * ai + (self.m11r * br - self.m11i * bi),
            self.m10r * ai + self.m10i * ar + (self.m11r * bi + self.m11i * br),
        )
    }
}

impl From<&Matrix2> for MatrixCoeffs {
    fn from(m: &Matrix2) -> Self {
        MatrixCoeffs {
            m00r: m[0].re,
            m00i: m[0].im,
            m01r: m[1].re,
            m01i: m[1].im,
            m10r: m[2].re,
            m10i: m[2].im,
            m11r: m[3].re,
            m11i: m[3].im,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn starts_in_the_all_zero_state() {
        let s = StateVector::new(3);
        assert_eq!(s.probability_of_basis(0), 1.0);
        assert_eq!(s.total_probability(), 1.0);
    }

    #[test]
    fn reset_restores_the_zero_state_in_place() {
        let mut s = StateVector::new(3);
        s.apply_single(0, GateKind::H);
        s.apply_cnot(0, 2);
        s.reset();
        assert_eq!(s.probability_of_basis(0), 1.0);
        assert_eq!(s.total_probability(), 1.0);
    }

    #[test]
    fn resize_for_reuses_and_resets() {
        let mut s = StateVector::new(2);
        s.apply_single(0, GateKind::H);
        s.resize_for(4);
        assert_eq!(s.num_qubits(), 4);
        assert_eq!(s.len(), 16);
        assert_eq!(s.probability_of_basis(0), 1.0);
        s.resize_for(1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_probability(), 1.0);
    }

    #[test]
    fn x_flips_a_qubit() {
        let mut s = StateVector::new(2);
        s.apply_single(1, GateKind::X);
        assert!((s.probability_of_basis(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_twice_is_identity() {
        let mut s = StateVector::new(1);
        s.apply_single(0, GateKind::H);
        s.apply_single(0, GateKind::H);
        assert!((s.probability_of_basis(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_respects_control() {
        let mut s = StateVector::new(2);
        s.apply_cnot(0, 1);
        assert!((s.probability_of_basis(0b00) - 1.0).abs() < 1e-12);
        s.apply_single(0, GateKind::X);
        s.apply_cnot(0, 1);
        assert!((s.probability_of_basis(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = StateVector::new(2);
        s.apply_single(0, GateKind::X);
        s.apply_swap(0, 1);
        assert!((s.probability_of_basis(0b10) - 1.0).abs() < 1e-12);
    }

    /// The Paulis take the anti-diagonal (X, Y) and diagonal (Z) paths; both
    /// must agree with the reference pair update.
    #[test]
    fn pauli_fast_paths_match_generic_matrices() {
        for (kind, qubit) in [
            (GateKind::X, 0usize),
            (GateKind::X, 2),
            (GateKind::Y, 0),
            (GateKind::Y, 1),
            (GateKind::Y, 3),
            (GateKind::Z, 0),
            (GateKind::Z, 3),
        ] {
            // Prepare an asymmetric entangled state.
            let mut fast = StateVector::new(4);
            fast.apply_single(0, GateKind::H);
            fast.apply_single(1, GateKind::Ry(0.7));
            fast.apply_cnot(0, 2);
            fast.apply_cnot(1, 3);
            fast.apply_single(3, GateKind::T);
            let generic = fast.clone();

            fast.apply_single(qubit, kind);
            // The reference pair update, over complex amplitudes.
            let m = crate::gates::single_qubit_matrix(kind);
            let mask = 1usize << qubit;
            let mut amps: Vec<Complex> = (0..generic.len()).map(|i| generic.amplitude(i)).collect();
            let mut base = 0;
            while base < amps.len() {
                for i in base..base + mask {
                    let j = i + mask;
                    let a0 = amps[i];
                    let a1 = amps[j];
                    amps[i] = m[0] * a0 + m[1] * a1;
                    amps[j] = m[2] * a0 + m[3] * a1;
                }
                base += mask << 1;
            }
            for (i, b) in amps.iter().enumerate() {
                let a = fast.amplitude(i);
                assert!(
                    (a - *b).norm_sqr() < 1e-24,
                    "{kind:?} on qubit {qubit}: {a} vs {b}"
                );
            }
        }
    }

    /// The general pair kernel must match the reference pair update at
    /// every stride, adjacent pairs (qubit 0) included.
    #[test]
    fn low_stride_kernels_match_reference_pair_update() {
        for qubit in [0usize, 1, 2, 3] {
            for kind in [GateKind::H, GateKind::Ry(0.9), GateKind::Rx(0.4)] {
                let mut s = StateVector::new(4);
                s.apply_single(0, GateKind::H);
                s.apply_single(1, GateKind::Ry(0.7));
                s.apply_single(2, GateKind::T);
                s.apply_cnot(0, 3);
                s.apply_cnot(1, 2);
                let reference: Vec<Complex> = {
                    let m = crate::gates::single_qubit_matrix(kind);
                    let mut amps: Vec<Complex> = (0..s.len()).map(|i| s.amplitude(i)).collect();
                    let mask = 1usize << qubit;
                    let mut base = 0;
                    while base < amps.len() {
                        for i in base..base + mask {
                            let j = i + mask;
                            let a0 = amps[i];
                            let a1 = amps[j];
                            amps[i] = m[0] * a0 + m[1] * a1;
                            amps[j] = m[2] * a0 + m[3] * a1;
                        }
                        base += mask << 1;
                    }
                    amps
                };
                s.apply_single(qubit, kind);
                for (i, want) in reference.iter().enumerate() {
                    let got = s.amplitude(i);
                    assert!(
                        (got - *want).norm_sqr() < 1e-24,
                        "{kind:?} on qubit {qubit}, amp {i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_fast_path_matches_generic() {
        for kind in [GateKind::S, GateKind::T, GateKind::Rz(0.9), GateKind::Sdg] {
            let mut a = StateVector::new(3);
            a.apply_single(0, GateKind::H);
            a.apply_single(1, GateKind::H);
            a.apply_cnot(1, 2);
            let b = a.clone();
            a.apply_single(1, kind);
            let m = crate::gates::single_qubit_matrix(kind);
            let mask = 1usize << 1;
            let amps: Vec<Complex> = (0..b.len())
                .map(|i| {
                    let amp = b.amplitude(i);
                    if i & mask == 0 {
                        m[0] * amp
                    } else {
                        m[3] * amp
                    }
                })
                .collect();
            for (i, y) in amps.iter().enumerate() {
                let x = a.amplitude(i);
                assert!((x - *y).norm_sqr() < 1e-24, "{kind:?}");
            }
        }
    }

    #[test]
    fn toffoli_decomposition_matches_truth_table() {
        // Build the standard 6-CNOT Toffoli from the IR decomposition and
        // check it flips the target exactly when both controls are 1.
        for a in [false, true] {
            for b in [false, true] {
                let mut circuit = nisq_ir::Circuit::new(3);
                circuit.toffoli(nisq_ir::Qubit(0), nisq_ir::Qubit(1), nisq_ir::Qubit(2));
                let mut s = StateVector::new(3);
                if a {
                    s.apply_single(0, GateKind::X);
                }
                if b {
                    s.apply_single(1, GateKind::X);
                }
                for gate in circuit.iter() {
                    match gate.kind() {
                        GateKind::Cnot => {
                            s.apply_cnot(gate.qubits()[0].0, gate.qubits()[1].0);
                        }
                        kind => s.apply_single(gate.qubits()[0].0, kind),
                    }
                }
                let expected = (a as usize) | ((b as usize) << 1) | (((a && b) as usize) << 2);
                assert!(
                    s.probability_of_basis(expected) > 1.0 - 1e-9,
                    "toffoli wrong for inputs ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn measurement_collapses_the_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = StateVector::new(1);
        s.apply_single(0, GateKind::H);
        let outcome = s.measure(0, &mut rng);
        let expected_basis = usize::from(outcome);
        assert!((s.probability_of_basis(expected_basis) - 1.0).abs() < 1e-9);
        assert!((s.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measure_renormalizes_entangled_states() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..16 {
            let mut s = StateVector::new(3);
            s.apply_single(0, GateKind::Ry(0.9));
            s.apply_cnot(0, 1);
            s.apply_single(2, GateKind::H);
            let _ = s.measure(1, &mut rng);
            assert!((s.total_probability() - 1.0).abs() < 1e-9);
            // Qubits 0 and 1 are perfectly correlated.
            let _ = s.measure(2, &mut rng);
            let p0 = s.probability_one(0);
            let p1 = s.probability_one(1);
            assert!((p0 - p1).abs() < 1e-9);
        }
    }

    #[test]
    fn collapse_matches_probability_one() {
        let mut s = StateVector::new(2);
        s.apply_single(0, GateKind::Ry(1.1));
        s.apply_cnot(0, 1);
        let p1 = s.probability_one(0);
        assert!(p1 > 0.0 && p1 < 1.0);
        s.collapse(0, true);
        assert!((s.probability_one(0) - 1.0).abs() < 1e-9);
        assert!((s.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probability_one_matches_amplitudes() {
        let mut s = StateVector::new(2);
        s.apply_single(0, GateKind::H);
        assert!((s.probability_one(0) - 0.5).abs() < 1e-12);
        assert!(s.probability_one(1).abs() < 1e-12);
    }

    #[test]
    fn unitaries_preserve_total_probability() {
        let mut s = StateVector::new(3);
        for kind in [GateKind::H, GateKind::T, GateKind::Ry(0.3), GateKind::S] {
            s.apply_single(1, kind);
        }
        s.apply_cnot(1, 2);
        s.apply_swap(0, 2);
        assert!((s.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_canonical_matches_sample_basis_under_identity() {
        let mut s = StateVector::new(3);
        s.apply_single(0, GateKind::H);
        s.apply_single(1, GateKind::Ry(0.8));
        s.apply_cnot(0, 2);
        let perm = [0u8, 1, 2];
        for seed in 0..32u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(s.sample_canonical(&perm, &mut a), s.sample_basis(&mut b));
        }
    }

    #[test]
    fn sample_canonical_is_layout_invariant() {
        // The same logical state stored in two layouts (physical swap vs.
        // relabeled permutation) must map identical draws to identical
        // canonical outcomes.
        let build = || {
            let mut s = StateVector::new(3);
            s.apply_single(0, GateKind::H);
            s.apply_single(1, GateKind::Ry(0.8));
            s.apply_single(2, GateKind::T);
            s.apply_cnot(0, 1);
            s.apply_cnot(1, 2);
            s
        };
        let canonical = build();
        let mut swapped = build();
        swapped.apply_swap(0, 2); // content of wire 0 now lives at slot 2
        let identity = [0u8, 1, 2];
        let relabeled = [2u8, 1, 0];
        for seed in 0..64u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                canonical.sample_canonical(&identity, &mut a),
                swapped.sample_canonical(&relabeled, &mut b),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qubits() {
        let mut s = StateVector::new(2);
        s.apply_single(5, GateKind::X);
    }
}
