//! Iterative radix-2 FFT on split-complex columns.
//!
//! The feature pipeline runs 427 transforms of 2048 real samples per 10 s
//! clip, so the kernel is laid out for the vector units:
//!
//! * real and imaginary parts live in separate columns, and every
//!   butterfly stage reads its own contiguous twiddle table;
//! * the bit-reversal permutation is folded into the first sweep, which
//!   gathers each 4-element block straight from the input and finishes
//!   the half-length 1 and 2 stages on it in registers;
//! * the remaining stages run two per sweep (a radix-4 pass over blocks
//!   of `4h`), halving the loads and stores of one stage per sweep;
//! * the real-input unzip has no per-element branch.
//!
//! Power-of-two lengths only — the paper's n_fft = 2048 qualifies.
//!
//! **Bit-identity contract.** Every output element goes through the same
//! IEEE-754 operations, on the same operands and in the same order, as the
//! textbook interleaved Cooley–Tukey loop (`w = twiddles[k·stride]`,
//! `b = x[k+half]·w`, `x[k] = a + b`, `x[k+half] = a − b`), including the
//! multiplies by `0.0` and `−0.5` of the real-input unzip. rustc never
//! contracts a multiply and an add into an FMA, so the lane width changes
//! speed, not bits. That interleaved loop is kept under `#[cfg(test)]`
//! as the oracle the kernel is compared against with `to_bits` equality.
//!
//! Measured on a 2-vCPU Xeon guest (AVX-512, `target-cpu=native`): one
//! 2048-point real transform costs 4.5–7.2 µs, against 13.5–24.7 µs for
//! the interleaved loop (medians of interleaved runs; the spread is the
//! shared host's fast and slow phases). `BENCH_dsp.json` records it as
//! `fft_2048_real`.

use crate::complex::Complex;

/// A planned FFT of a fixed power-of-two size.
///
/// Planning precomputes the bit-reversed block origins and the per-stage
/// twiddle tables, so repeated transforms (one per STFT frame) do no
/// trigonometry.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// `rev_n(4b)` for `b < n/4`, with `rev_n` the bit reversal of
    /// `0..n`: where block `b`'s first input comes from. Shifted right by
    /// one it is `rev_{n/2}(4b)`, for the packed real-input transform.
    quarter_rev: Vec<u32>,
    /// Forward twiddles, one contiguous table per stage: the stage of
    /// half-length `h` owns `[h − 1, 2h − 1)` and holds `w_n^{k·n/(2h)}`
    /// for `k < h`, with `w_n = e^{−2πi/n}`. The last table (`h = n/2`)
    /// is the full `w_n^k`, which the real-input unzip reads too.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// Imaginary parts of the conjugated tables, for the inverse.
    inv_tw_im: Vec<f64>,
}

fn bit_reversal_table(n: usize) -> Vec<u32> {
    if n <= 1 {
        return vec![0; n];
    }
    let bits = n.trailing_zeros();
    (0..n as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect()
}

/// `w_n^k = e^{−2πik/n}` for `k < n/2`: the one source of every twiddle.
fn twiddle_table(n: usize) -> Vec<Complex> {
    (0..n / 2).map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)).collect()
}

/// One butterfly: `b·w` as the interleaved complex product, then `a ± b·w`.
#[inline(always)]
fn butterfly(ar: f64, ai: f64, br: f64, bi: f64, wr: f64, wi: f64) -> (f64, f64, f64, f64) {
    let tr = br * wr - bi * wi;
    let ti = br * wi + bi * wr;
    (ar + tr, ai + ti, ar - tr, ai - ti)
}

/// Every butterfly stage of an `m`-point transform of the inputs
/// `load(0..m)`, leaving the result in `re`/`im` (length `m`). `quarter_rev`
/// holds `rev_m(4b)`; `tw_re`/`tw_im` are a plan's per-stage tables (the
/// conjugated ones for the inverse), whose first `log2(m)` stages are the
/// `m`-point stages since `w_m^{k·m/L} = w_n^{k·n/L}`.
fn transform(
    m: usize,
    load: impl Fn(usize) -> (f64, f64),
    quarter_rev: impl Iterator<Item = usize>,
    re: &mut [f64],
    im: &mut [f64],
    tw_re: &[f64],
    tw_im: &[f64],
) {
    debug_assert!(re.len() == m && im.len() == m);
    if m < 4 {
        // Bit reversal of 0 or 1 bits is the identity.
        for (j, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            (*r, *i) = load(j);
        }
        if m == 2 {
            (re[0], im[0], re[1], im[1]) =
                butterfly(re[0], im[0], re[1], im[1], tw_re[0], tw_im[0]);
        }
        return;
    }
    // Bit-reversed block b holds inputs q, q + m/2, q + m/4, q + 3m/4 with
    // q = rev_m(4b); the half-length 1 and 2 stages finish it in registers.
    let qm = m / 4;
    let (w1r, w1i) = (tw_re[0], tw_im[0]);
    let (w20r, w20i, w21r, w21i) = (tw_re[1], tw_im[1], tw_re[2], tw_im[2]);
    for ((r, i), q) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)).zip(quarter_rev) {
        let ((x0r, x0i), (x1r, x1i)) = (load(q), load(q + 2 * qm));
        let ((x2r, x2i), (x3r, x3i)) = (load(q + qm), load(q + 3 * qm));
        let (a0r, a0i, a1r, a1i) = butterfly(x0r, x0i, x1r, x1i, w1r, w1i);
        let (a2r, a2i, a3r, a3i) = butterfly(x2r, x2i, x3r, x3i, w1r, w1i);
        let (b0r, b0i, b2r, b2i) = butterfly(a0r, a0i, a2r, a2i, w20r, w20i);
        let (b1r, b1i, b3r, b3i) = butterfly(a1r, a1i, a3r, a3i, w21r, w21i);
        r.copy_from_slice(&[b0r, b1r, b2r, b3r]);
        i.copy_from_slice(&[b0i, b1i, b2i, b3i]);
    }
    let mut h = 4;
    while 4 * h <= m {
        radix4_pass(h, re, im, tw_re, tw_im);
        h *= 4;
    }
    if 2 * h <= m {
        radix2_pass(h, re, im, tw_re, tw_im);
    }
}

/// Four adjacent butterflies of one stage, one per lane.
type Lanes = [f64; 4];

/// Loads lanes `k..k + 4` of a column.
#[inline(always)]
fn lanes(col: &[f64], k: usize) -> Lanes {
    col[k..k + 4].try_into().expect("four lanes")
}

/// [`butterfly`] on four lanes at once. The sweeps below are written in
/// these fixed 4-wide groups, every load of a group ahead of its stores,
/// so the vectorizer needs no proof that the quarters of a block do not
/// overlap. Written as plain loops over `k`, whether LLVM finds that proof
/// depends on how the crate is inlined, and without it the sweeps run
/// scalar at about twice the cost.
#[inline(always)]
fn butterfly4(a: (Lanes, Lanes), b: (Lanes, Lanes), w: (Lanes, Lanes)) -> [Lanes; 4] {
    let lane = |l: usize| butterfly(a.0[l], a.1[l], b.0[l], b.1[l], w.0[l], w.1[l]);
    let (l0, l1, l2, l3) = (lane(0), lane(1), lane(2), lane(3));
    [
        [l0.0, l1.0, l2.0, l3.0],
        [l0.1, l1.1, l2.1, l3.1],
        [l0.2, l1.2, l2.2, l3.2],
        [l0.3, l1.3, l2.3, l3.3],
    ]
}

/// The stage of half-length `h ≥ 4` over blocks of `2h`.
fn radix2_pass(h: usize, re: &mut [f64], im: &mut [f64], tw_re: &[f64], tw_im: &[f64]) {
    let (wr, wi) = (&tw_re[h - 1..2 * h - 1], &tw_im[h - 1..2 * h - 1]);
    for (r, i) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
        let ((r0, r1), (i0, i1)) = (r.split_at_mut(h), i.split_at_mut(h));
        for k in (0..h).step_by(4) {
            let [sr, si, dr, di] = butterfly4(
                (lanes(r0, k), lanes(i0, k)),
                (lanes(r1, k), lanes(i1, k)),
                (lanes(wr, k), lanes(wi, k)),
            );
            r0[k..k + 4].copy_from_slice(&sr);
            i0[k..k + 4].copy_from_slice(&si);
            r1[k..k + 4].copy_from_slice(&dr);
            i1[k..k + 4].copy_from_slice(&di);
        }
    }
}

/// The stages of half-length `h ≥ 4` and `2h` in one sweep over blocks of
/// `4h`: quarters 0|1 and 2|3 meet at half-length `h` with twiddle `k`,
/// then quarters 0|2 and 1|3 at half-length `2h` with twiddles `k` and
/// `k + h` — each element sees exactly the two radix-2 sweeps' operations.
fn radix4_pass(h: usize, re: &mut [f64], im: &mut [f64], tw_re: &[f64], tw_im: &[f64]) {
    let (ar, ai) = (&tw_re[h - 1..2 * h - 1], &tw_im[h - 1..2 * h - 1]);
    let (br, bi) = (&tw_re[2 * h - 1..4 * h - 1], &tw_im[2 * h - 1..4 * h - 1]);
    for (r, i) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        let ((r01, r23), (i01, i23)) = (r.split_at_mut(2 * h), i.split_at_mut(2 * h));
        let ((r0, r1), (r2, r3)) = (r01.split_at_mut(h), r23.split_at_mut(h));
        let ((i0, i1), (i2, i3)) = (i01.split_at_mut(h), i23.split_at_mut(h));
        for k in (0..h).step_by(4) {
            let w = (lanes(ar, k), lanes(ai, k));
            let [y0r, y0i, y1r, y1i] =
                butterfly4((lanes(r0, k), lanes(i0, k)), (lanes(r1, k), lanes(i1, k)), w);
            let [y2r, y2i, y3r, y3i] =
                butterfly4((lanes(r2, k), lanes(i2, k)), (lanes(r3, k), lanes(i3, k)), w);
            let [z0r, z0i, z2r, z2i] =
                butterfly4((y0r, y0i), (y2r, y2i), (lanes(br, k), lanes(bi, k)));
            let [z1r, z1i, z3r, z3i] =
                butterfly4((y1r, y1i), (y3r, y3i), (lanes(br, k + h), lanes(bi, k + h)));
            for (col, v) in [(&mut *r0, z0r), (&mut *r1, z1r), (&mut *r2, z2r), (&mut *r3, z3r)] {
                col[k..k + 4].copy_from_slice(&v);
            }
            for (col, v) in [(&mut *i0, z0i), (&mut *i1, z1i), (&mut *i2, z2i), (&mut *i3, z3i)] {
                col[k..k + 4].copy_from_slice(&v);
            }
        }
    }
}

/// One Hermitian unzip pair of the real-input transform: from the packed
/// bins `z_k`, `z_j` (`j = m − k`) and twiddles `w_k`, `w_j`, returns
/// `(X_k, X_j)` as `[re_k, im_k, re_j, im_j]`. Spelled out operation for
/// operation as the interleaved `Complex` expressions
/// `e = (z_k + conj z_j)·0.5`, `o = (z_k − conj z_j)·(0 − 0.5i)`,
/// `X_k = e + w_k·o`, `X_j = conj e + w_j·conj o`.
#[inline(always)]
fn unzip_pair(zk: (f64, f64), zj: (f64, f64), wk: (f64, f64), wj: (f64, f64)) -> [f64; 4] {
    let er = (zk.0 + zj.0) * 0.5;
    let ei = (zk.1 + -zj.1) * 0.5;
    let dr = zk.0 - zj.0;
    let di = zk.1 - -zj.1;
    let or = dr * 0.0 - di * -0.5;
    let oi = dr * -0.5 + di * 0.0;
    let xkr = er + (wk.0 * or - wk.1 * oi);
    let xki = ei + (wk.0 * oi + wk.1 * or);
    let xjr = er + (wj.0 * or - wj.1 * -oi);
    let xji = -ei + (wj.0 * -oi + wj.1 * or);
    [xkr, xki, xjr, xji]
}

/// The unzip pairs `k = 1..m/2`, branch-free: `lo_*` hold bins
/// `1..m/2` ascending and `hi_*` bins `m/2 + 1..m` ascending, so pair `t`
/// meets `hi[len − 1 − t]`. `w_re`/`w_im` is the full `w_n^k`, `k < m`.
/// Never inlined: as separate `&mut` arguments the four columns are known
/// not to overlap, so the loop vectorizes without run-time checks.
#[inline(never)]
fn unzip_pairs(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    w_re: &[f64],
    w_im: &[f64],
) {
    let p = lo_re.len();
    let (lo_im, hi_re, hi_im) = (&mut lo_im[..p], &mut hi_re[..p], &mut hi_im[..p]);
    let (wk_re, wk_im) = (&w_re[1..=p], &w_im[1..=p]);
    let (wj_re, wj_im) = (&w_re[p + 2..2 * p + 2], &w_im[p + 2..2 * p + 2]);
    for t in 0..p {
        let u = p - 1 - t;
        let [xkr, xki, xjr, xji] = unzip_pair(
            (lo_re[t], lo_im[t]),
            (hi_re[u], hi_im[u]),
            (wk_re[t], wk_im[t]),
            (wj_re[u], wj_im[u]),
        );
        (lo_re[t], lo_im[t], hi_re[u], hi_im[u]) = (xkr, xki, xjr, xji);
    }
}

impl Fft {
    /// Plans an FFT of size `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT size must be a power of two, got {n}");
        let base = twiddle_table(n);
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut h = 1;
        while 2 * h <= n {
            let stride = n / (2 * h);
            for k in 0..h {
                tw_re.push(base[k * stride].re);
                tw_im.push(base[k * stride].im);
            }
            h *= 2;
        }
        let inv_tw_im = tw_im.iter().map(|&w| -w).collect();
        let quarter_rev = bit_reversal_table(n).into_iter().step_by(4).collect();
        Fft { n, quarter_rev, tw_re, tw_im, inv_tw_im }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate size-1 plan, whose transform is the
    /// identity. (The constructor asserts the size is a power of two ≥ 1,
    /// so a size-0 plan cannot exist.)
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward DFT: `X[k] = Σ x[j]·e^{-2πijk/n}`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.complex(data, &self.tw_im);
    }

    /// In-place inverse DFT (normalized by 1/n).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.complex(data, &self.inv_tw_im);
        let k = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(k);
        }
    }

    /// Complex transform of `data` through split working columns, with
    /// the given twiddle signs, written back interleaved.
    fn complex(&self, data: &mut [Complex], tw_im: &[f64]) {
        assert_eq!(data.len(), self.n, "buffer length must equal FFT size");
        let (mut re, mut im) = (vec![0.0; self.n], vec![0.0; self.n]);
        transform(
            self.n,
            |j| (data[j].re, data[j].im),
            self.quarter_rev.iter().map(|&q| q as usize),
            &mut re,
            &mut im,
            &self.tw_re,
            tw_im,
        );
        for (z, (&r, &i)) in data.iter_mut().zip(re.iter().zip(&im)) {
            *z = Complex::new(r, i);
        }
    }

    /// Forward DFT of a real signal; returns the `n/2 + 1` non-redundant
    /// bins (DC through Nyquist).
    ///
    /// Computed by packing the even/odd samples into an n/2-point complex
    /// transform and unzipping via Hermitian symmetry — half the butterfly
    /// work of a full complex FFT on zero-imaginary input.
    pub fn forward_real(&self, signal: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.n / 2 + 1];
        self.forward_real_into(signal, &mut out);
        out
    }

    /// [`Fft::forward_real`] into a caller buffer of `n/2 + 1` bins. Runs
    /// [`Fft::forward_real_split`] on two temporary columns; hot loops call
    /// that directly with columns they reuse.
    pub fn forward_real_into(&self, signal: &[f64], out: &mut [Complex]) {
        assert_eq!(out.len(), self.n / 2 + 1, "output length must be n/2 + 1");
        let (mut re, mut im) = (vec![0.0; out.len()], vec![0.0; out.len()]);
        self.forward_real_split(signal, &mut re, &mut im);
        for (z, (&r, &i)) in out.iter_mut().zip(re.iter().zip(&im)) {
            *z = Complex::new(r, i);
        }
    }

    /// Allocation-free real-input transform in split form: writes the
    /// `n/2 + 1` non-redundant bins' real parts into `re` and imaginary
    /// parts into `im`, which double as the working columns.
    pub fn forward_real_split(&self, signal: &[f64], re: &mut [f64], im: &mut [f64]) {
        assert_eq!(signal.len(), self.n, "signal length must equal FFT size");
        let m = self.n / 2;
        assert!(re.len() == m + 1 && im.len() == m + 1, "output length must be n/2 + 1");
        if self.n == 1 {
            (re[0], im[0]) = (signal[0], 0.0);
            return;
        }
        // Transform the packed z[j] = x[2j] + i·x[2j+1] at size m.
        transform(
            m,
            |j| (signal[2 * j], signal[2 * j + 1]),
            self.quarter_rev.iter().map(|&q| q as usize >> 1),
            &mut re[..m],
            &mut im[..m],
            &self.tw_re,
            &self.tw_im,
        );
        // Unzip: with E_k/O_k the transforms of the even/odd samples,
        // Z_k = E_k + i·O_k and Hermitian symmetry gives
        // E_k = (Z_k + conj(Z_{m−k}))/2, O_k = (Z_k − conj(Z_{m−k}))/(2i),
        // X_k = E_k + w_n^k·O_k, X_{m−k} = conj(E_k) + w_n^{m−k}·conj(O_k).
        let (z0r, z0i) = (re[0], im[0]);
        (re[0], im[0]) = (z0r + z0i, 0.0);
        (re[m], im[m]) = (z0r - z0i, 0.0);
        let h = m / 2;
        if h == 0 {
            return;
        }
        // w_n^k for k < m is the last stage table.
        let (w_re, w_im) = (&self.tw_re[m - 1..], &self.tw_im[m - 1..]);
        let (lo_re, hi_re) = re[1..m].split_at_mut(h - 1);
        let (lo_im, hi_im) = im[1..m].split_at_mut(h - 1);
        unzip_pairs(lo_re, lo_im, &mut hi_re[1..], &mut hi_im[1..], w_re, w_im);
        // k = m/2 pairs with itself and writes only X_k.
        let z = (re[h], im[h]);
        let w = (w_re[h], w_im[h]);
        let [xr, xi, _, _] = unzip_pair(z, z, w, w);
        (re[h], im[h]) = (xr, xi);
    }
}

/// Convenience one-shot forward FFT (plans internally).
pub fn fft(data: &mut [Complex]) {
    Fft::new(data.len()).forward(data);
}

/// Convenience one-shot inverse FFT (plans internally).
pub fn ifft(data: &mut [Complex]) {
    Fft::new(data.len()).inverse(data);
}

/// Naive O(n²) DFT used as a test oracle.
#[cfg(test)]
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                acc += x * Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

/// The interleaved kernel the split one replaced, kept verbatim as the
/// bitwise oracle: `Complex` buffers, in-place bit-reversal swaps, strided
/// `twiddles[k·stride]` reads and the branching real-input unzip.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{bit_reversal_table, twiddle_table};
    use crate::complex::Complex;

    pub(crate) struct Interleaved {
        n: usize,
        rev: Vec<u32>,
        twiddles: Vec<Complex>,
        half_rev: Vec<u32>,
    }

    impl Interleaved {
        pub(crate) fn new(n: usize) -> Self {
            Interleaved {
                n,
                rev: bit_reversal_table(n),
                twiddles: twiddle_table(n),
                half_rev: bit_reversal_table(n / 2),
            }
        }

        pub(crate) fn forward(&self, data: &mut [Complex]) {
            self.permute(data);
            self.butterflies(data, false);
        }

        pub(crate) fn inverse(&self, data: &mut [Complex]) {
            self.permute(data);
            self.butterflies(data, true);
            let k = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(k);
            }
        }

        pub(crate) fn forward_real_into(&self, signal: &[f64], out: &mut [Complex]) {
            if self.n == 1 {
                out[0] = Complex::from_real(signal[0]);
                return;
            }
            let m = self.n / 2;
            for (z, pair) in out[..m].iter_mut().zip(signal.chunks_exact(2)) {
                *z = Complex::new(pair[0], pair[1]);
            }
            for i in 0..m {
                let j = self.half_rev[i] as usize;
                if i < j {
                    out.swap(i, j);
                }
            }
            self.butterflies_sized(&mut out[..m]);
            let z0 = out[0];
            out[0] = Complex::from_real(z0.re + z0.im);
            out[m] = Complex::from_real(z0.re - z0.im);
            let neg_half_i = Complex::new(0.0, -0.5);
            for k in 1..=m / 2 {
                let j = m - k;
                let zk = out[k];
                let zj = out[j];
                let e = (zk + zj.conj()).scale(0.5);
                let o = (zk - zj.conj()) * neg_half_i;
                out[k] = e + self.twiddles[k] * o;
                if j != k {
                    out[j] = e.conj() + self.twiddles[j] * o.conj();
                }
            }
        }

        fn permute(&self, data: &mut [Complex]) {
            for i in 0..self.n {
                let j = self.rev[i] as usize;
                if i < j {
                    data.swap(i, j);
                }
            }
        }

        fn butterflies_sized(&self, data: &mut [Complex]) {
            let m = data.len();
            let mut len = 2;
            while len <= m {
                let half = len / 2;
                let stride = self.n / len;
                for start in (0..m).step_by(len) {
                    for k in 0..half {
                        let w = self.twiddles[k * stride];
                        let a = data[start + k];
                        let b = data[start + k + half] * w;
                        data[start + k] = a + b;
                        data[start + k + half] = a - b;
                    }
                }
                len <<= 1;
            }
        }

        fn butterflies(&self, data: &mut [Complex], inverse: bool) {
            if !inverse {
                self.butterflies_sized(data);
                return;
            }
            let n = self.n;
            let mut len = 2;
            while len <= n {
                let half = len / 2;
                let stride = n / len;
                for start in (0..n).step_by(len) {
                    for k in 0..half {
                        let w = self.twiddles[k * stride].conj();
                        let a = data[start + k];
                        let b = data[start + k + half] * w;
                        data[start + k] = a + b;
                        data[start + k + half] = a - b;
                    }
                }
                len <<= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: Complex, b: Complex, eps: f64) -> bool {
        (a.re - b.re).abs() < eps && (a.im - b.im).abs() < eps
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft(&mut data);
        for z in &data {
            assert!(close(*z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let bin = 5;
        let mut data: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (bin * j) as f64 / n as f64))
            .collect();
        fft(&mut data);
        for (k, z) in data.iter().enumerate() {
            if k == bin {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 4, 16, 128] {
            let input: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let expect = dft_naive(&input);
            let mut got = input.clone();
            fft(&mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!(close(*g, *e, 1e-8), "n={n}");
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 256;
        let original: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut data = original.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 512;
        let input: Vec<Complex> =
            (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut data = input;
        fft(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn forward_real_matches_full_fft() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let plan = Fft::new(n);
        let half = plan.forward_real(&signal);
        assert_eq!(half.len(), n / 2 + 1);
        let mut full: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        plan.forward(&mut full);
        for (k, z) in half.iter().enumerate() {
            assert!(close(*z, full[k], 1e-10));
        }
        // Hermitian symmetry of the real transform.
        for k in 1..n / 2 {
            assert!(close(full[n - k], full[k].conj(), 1e-9));
        }
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Fft::new(1);
        let mut data = vec![Complex::new(3.0, 4.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
    }

    #[test]
    fn is_empty_only_for_degenerate_plan() {
        assert!(Fft::new(1).is_empty());
        assert!(!Fft::new(2).is_empty());
        assert!(!Fft::new(2048).is_empty());
        assert_eq!(Fft::new(2048).len(), 2048);
    }

    #[test]
    fn forward_real_tiny_sizes() {
        // n = 1: identity. n = 2: [x0+x1, x0−x1]. n = 4 checked by hand.
        assert_eq!(Fft::new(1).forward_real(&[5.0]), vec![Complex::from_real(5.0)]);
        let two = Fft::new(2).forward_real(&[3.0, 1.0]);
        assert!(close(two[0], Complex::from_real(4.0), 1e-12));
        assert!(close(two[1], Complex::from_real(2.0), 1e-12));
        let four = Fft::new(4).forward_real(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(four[0], Complex::from_real(10.0), 1e-12));
        assert!(close(four[1], Complex::new(-2.0, 2.0), 1e-12));
        assert!(close(four[2], Complex::from_real(-2.0), 1e-12));
    }

    #[test]
    fn forward_real_into_reuses_buffer() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 64;
        let plan = Fft::new(n);
        let mut out = vec![Complex::new(9.9, 9.9); n / 2 + 1];
        for _ in 0..3 {
            let signal: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            plan.forward_real_into(&signal, &mut out);
            let fresh = plan.forward_real(&signal);
            for (a, b) in out.iter().zip(&fresh) {
                assert!(close(*a, *b, 1e-15));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Fft::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn linearity() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 64;
        let a: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let plan = Fft::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        plan.forward(&mut sum);
        for k in 0..n {
            assert!(close(sum[k], fa[k] + fb[k], 1e-9));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A value drawn for the bitwise oracle check: mostly uniform, with
        /// signed zeros, subnormals and large magnitudes mixed in. Large
        /// values stay far enough from overflow that no sum reaches ±∞.
        fn edge_value() -> impl Strategy<Value = f64> {
            (0u8..8, -1.0f64..1.0).prop_map(|(kind, x)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => x * 1e-310,
                3 => x * 1e150,
                _ => x,
            })
        }

        fn same_bits(got: &[Complex], want: &[Complex]) -> bool {
            got.len() == want.len()
                && got.iter().zip(want).all(|(g, w)| {
                    g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits()
                })
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(24))]

            /// The split kernel is bit-identical to the retained interleaved
            /// oracle for `forward`, `inverse` and `forward_real_into` at
            /// every power of two up to 4096. Each case also runs on its
            /// signs alone (every value a signed zero), where the sign of
            /// each zero — the only thing the unzip's multiplies by `0.0`
            /// can change — reaches the output.
            #[test]
            fn split_kernel_is_bit_identical_to_the_oracle(
                drawn in proptest::collection::vec(edge_value(), 2 * 4096),
            ) {
                let signs: Vec<f64> = drawn.iter().map(|&v| 0.0 * v).collect();
                for values in [&drawn, &signs] {
                    for bits in 0..=12u32 {
                        let n = 1usize << bits;
                        let (plan, reference) = (Fft::new(n), oracle::Interleaved::new(n));
                        let input: Vec<Complex> = values[..2 * n]
                            .chunks_exact(2)
                            .map(|p| Complex::new(p[0], p[1]))
                            .collect();
                        let (mut got, mut want) = (input.clone(), input.clone());
                        plan.forward(&mut got);
                        reference.forward(&mut want);
                        prop_assert!(same_bits(&got, &want), "forward n={}", n);
                        let (mut got, mut want) = (input.clone(), input);
                        plan.inverse(&mut got);
                        reference.inverse(&mut want);
                        prop_assert!(same_bits(&got, &want), "inverse n={}", n);
                        let mut want = vec![Complex::ZERO; n / 2 + 1];
                        reference.forward_real_into(&values[..n], &mut want);
                        let mut got = vec![Complex::new(9.9, 9.9); n / 2 + 1];
                        plan.forward_real_into(&values[..n], &mut got);
                        prop_assert!(same_bits(&got, &want), "real n={}", n);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn round_trip_any_signal(values in proptest::collection::vec(-1.0f64..1.0, 64)) {
                let original: Vec<Complex> = values.iter().map(|&x| Complex::from_real(x)).collect();
                let mut data = original.clone();
                fft(&mut data);
                ifft(&mut data);
                for (a, b) in data.iter().zip(&original) {
                    prop_assert!((a.re - b.re).abs() < 1e-9);
                    prop_assert!(a.im.abs() < 1e-9);
                }
            }

            /// The packed real-input transform agrees with the full complex
            /// FFT on random signals at every power-of-two size in range.
            #[test]
            fn real_fft_matches_complex_fft(
                values in proptest::collection::vec(-1.0f64..1.0, 256),
                bits in 0u32..9,
            ) {
                let n = 1usize << bits;
                let signal = &values[..n];
                let plan = Fft::new(n);
                let half = plan.forward_real(signal);
                let mut full: Vec<Complex> =
                    signal.iter().map(|&x| Complex::from_real(x)).collect();
                plan.forward(&mut full);
                prop_assert_eq!(half.len(), n / 2 + 1);
                for (k, z) in half.iter().enumerate() {
                    prop_assert!(
                        (z.re - full[k].re).abs() < 1e-9 && (z.im - full[k].im).abs() < 1e-9,
                        "bin {} of n={}: packed {:?} vs full {:?}", k, n, z, full[k]
                    );
                }
            }
        }
    }
}
