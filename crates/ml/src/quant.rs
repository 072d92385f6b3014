//! Post-training quantization and int8 integer inference.
//!
//! Energy-constrained edge inference commonly quantizes weights to 8 bits;
//! on a Raspberry-Pi-class device this shrinks the model and enables
//! integer arithmetic. Two layers of machinery live here:
//!
//! 1. **Fake quantization** ([`QuantParams`], [`quantize_tensor`],
//!    [`quantize_resnet`]) — symmetric per-tensor rounding with dequantized
//!    f64 inference, used to measure the accuracy cost of a bit width.
//! 2. **A true integer engine** ([`QuantizedResNetLite`]) — per-channel
//!    symmetric int8 weights, activations quantized once per plane, an
//!    im2col that packs four taps to a 32-bit word, a register-blocked
//!    u8×i8→i32 GEMM over those words, and a per-channel rescale back to
//!    f64 at each layer output. Activation scales come from a one-shot
//!    calibration pass over a sample corpus; the f32 network stays around
//!    as the accuracy oracle.
//!
//! The GEMM multiplies activations offset to u8 (`x + 128`, stored as
//! `x ^ 0x80`) by signed weights, four taps per step — the operand shape
//! of AVX-512 VNNI's `vpdpbusd`, which the kernel uses when the build
//! target has it and a portable scalar step of the same loop nest
//! otherwise. Each output channel then subtracts its constant
//! `128·Σw`. The integer accumulation is *exact*: a fan-in of `F` taps
//! bounds every partial sum by `F·255·127`, so any layer with
//! `F ≤ 66 311` fits an `i32` with no wrap (asserted at construction),
//! and because i32 sums do not depend on their order the logits are the
//! same bits on either step. The only error versus a dequantized-f64
//! reference is the final `bias + s_w·s_x·acc` rounding, which the parity
//! proptest pins to ≤1e-9 relative.
//!
//! Batched inference ([`QuantizedResNetLite::forward_batch`]) fans clips
//! over the persistent worker pool in a fixed number of lanes derived
//! only from the batch length — never the worker count — with one
//! [`ClipScratch`] arena per lane, so results are bit-identical at any
//! `RAYON_NUM_THREADS` and steady-state forward allocates nothing.

use crate::nn::conv::{Conv2d, ConvScratch};
use crate::nn::layers::{global_avg_pool, relu, Dense};
use crate::nn::resnet::ResNetLite;
use crate::tensor::FeatureMap;

/// Largest representable int8 magnitude on the symmetric grid.
pub const Q_MAX_I8: i32 = 127;

/// Lanes used by [`QuantizedResNetLite::forward_batch`]. The lane count
/// is `min(batch_len, MAX_BATCH_LANES)` — a function of the batch alone,
/// so the clip→lane assignment (and therefore every result bit) is
/// independent of how many pool workers execute the lanes.
pub const MAX_BATCH_LANES: usize = 8;

/// Largest convolution fan-in whose quad GEMM sums stay exact in i32:
/// `fan_in·255·127 < 2³¹`.
const MAX_FAN_IN: usize = 66_311;

/// Symmetric per-tensor quantization parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    /// Scale: real value = scale × quantized integer.
    pub scale: f64,
    /// Number of bits (2–16).
    pub bits: u32,
}

impl QuantParams {
    /// Chooses the scale covering `values` symmetrically at `bits` bits.
    /// A degenerate all-zero tensor gets scale 1.
    pub fn fit(values: &[f64], bits: u32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        let max_abs = values.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let q_max = ((1i64 << (bits - 1)) - 1) as f64;
        let scale = if max_abs > 0.0 { max_abs / q_max } else { 1.0 };
        QuantParams { scale, bits }
    }

    /// Quantizes one value to the integer grid, saturating at `±q_max` so
    /// the grid stays symmetric: `-max_abs` and `+max_abs` round-trip to
    /// values of equal magnitude.
    pub fn quantize(&self, v: f64) -> i32 {
        let q_max = (1i64 << (self.bits - 1)) - 1;
        ((v / self.scale).round() as i64).clamp(-q_max, q_max) as i32
    }

    /// Dequantizes an integer back to a real value.
    pub fn dequantize(&self, q: i32) -> f64 {
        f64::from(q) * self.scale
    }

    /// Round-trips a value through the grid (fake quantization).
    pub fn fake_quantize(&self, v: f64) -> f64 {
        self.dequantize(self.quantize(v))
    }

    /// Worst-case absolute rounding error of this grid.
    pub fn max_error(&self) -> f64 {
        self.scale * 0.5
    }
}

/// Statistics of quantizing one tensor.
#[derive(Clone, Copy, Debug)]
pub struct TensorQuantReport {
    /// Elements quantized.
    pub n: usize,
    /// Root-mean-square quantization error.
    pub rms_error: f64,
}

/// Fake-quantizes a tensor in place; returns the error report.
pub fn quantize_tensor(values: &mut [f64], bits: u32) -> TensorQuantReport {
    let params = QuantParams::fit(values, bits);
    let mut sq = 0.0;
    for v in values.iter_mut() {
        let q = params.fake_quantize(*v);
        sq += (q - *v).powi(2);
        *v = q;
    }
    TensorQuantReport { n: values.len(), rms_error: (sq / values.len().max(1) as f64).sqrt() }
}

/// Report of quantizing a whole network.
#[derive(Clone, Debug)]
pub struct ModelQuantReport {
    /// Bits used.
    pub bits: u32,
    /// Per-tensor reports in network order.
    pub tensors: Vec<TensorQuantReport>,
}

impl ModelQuantReport {
    /// Parameter-weighted mean RMS error.
    pub fn mean_rms_error(&self) -> f64 {
        let total: usize = self.tensors.iter().map(|t| t.n).sum();
        if total == 0 {
            return 0.0;
        }
        self.tensors.iter().map(|t| t.rms_error * t.n as f64).sum::<f64>() / total as f64
    }

    /// Model size in bytes at this bit width (weights only, no packing
    /// overhead).
    pub fn model_bytes(&self) -> usize {
        let params: usize = self.tensors.iter().map(|t| t.n).sum();
        (params * self.bits as usize).div_ceil(8)
    }
}

/// Fake-quantizes every weight tensor of a [`ResNetLite`] in place
/// (biases stay in float, as deployment stacks typically keep them at
/// 32 bits).
pub fn quantize_resnet(net: &mut ResNetLite, bits: u32) -> ModelQuantReport {
    let mut tensors = Vec::new();
    for w in net.weight_tensors_mut() {
        tensors.push(quantize_tensor(w, bits));
    }
    ModelQuantReport { bits, tensors }
}

// ---------------------------------------------------------------------------
// The int8 integer engine.
// ---------------------------------------------------------------------------

/// Saturating round-to-nearest int8 quantization by reciprocal scale —
/// the activation quantizer of the hot path. Rounds half away from zero
/// via shift-and-truncate rather than `f64::round` (a libm call that
/// blocks autovectorization of the plane-quantization loop). The
/// reference (dequantized) parity tests call the same function, so both
/// sides see identical grids.
#[inline]
pub(crate) fn quantize_sat_i8(v: f64, inv_scale: f64) -> i8 {
    let q = v * inv_scale;
    let r = q + if q >= 0.0 { 0.5 } else { -0.5 };
    (r as i32).clamp(-Q_MAX_I8, Q_MAX_I8) as i8
}

fn max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |a, &v| a.max(v.abs()))
}

fn scale_for(range: f64) -> f64 {
    if range > 0.0 {
        range / Q_MAX_I8 as f64
    } else {
        1.0
    }
}

/// Quantizes one `[fan_in]`-long weight row to int8 at its own symmetric
/// scale; returns the scale.
fn quantize_weight_row(row: &[f64], out: &mut Vec<i8>) -> f64 {
    let scale = scale_for(max_abs(row));
    let inv = 1.0 / scale;
    out.extend(row.iter().map(|&v| quantize_sat_i8(v, inv)));
    scale
}

/// Packs an int8 weight row into `⌈len/4⌉` little-endian quads, the
/// last one zero-padded; returns the row's offset correction `128·Σw`.
fn pack_quads(row: &[i8], out: &mut Vec<u32>) -> i32 {
    out.extend(row.chunks(4).map(|taps| {
        let mut bytes = [0u8; 4];
        for (b, &t) in bytes.iter_mut().zip(taps) {
            *b = t as u8;
        }
        u32::from_le_bytes(bytes)
    }));
    128 * row.iter().map(|&t| i32::from(t)).sum::<i32>()
}

/// Output channels of one register tile of the quad GEMM.
const TILE_OC: usize = 8;
/// Patches of one register tile of the quad GEMM.
const TILE_P: usize = 32;

/// One register tile of the quad GEMM: up to [`TILE_OC`] channels (the
/// step's const parameter) × `np ≤ TILE_P` patches from `p0`.
struct Tile<'a> {
    /// Weight quads from the tile's first channel on, `n_quads` a row.
    w: &'a [u32],
    /// Offset corrections from the tile's first channel on.
    offset: &'a [i32],
    n_quads: usize,
    /// The whole `[n_quads][n_patch]` patch matrix.
    cols: &'a [u32],
    n_patch: usize,
    p0: usize,
    np: usize,
    /// Accumulator rows from the tile's first channel on, `n_patch` a row.
    acc: &'a mut [i32],
}

/// How one tile runs its fan-in: the loop nest and the layout are
/// [`gemm_quads`]'s; a step only multiplies quads and stores the tile.
trait QuadStep {
    /// Accumulates `Σ_q dot4(cols[q][p], w[c][q])` for the tile's `OC`
    /// channels in registers and stores each minus its offset, once.
    fn tile<const OC: usize>(t: Tile<'_>);
}

/// `acc[oc][p] = Σ_f w[oc][f] · x[f][p]` in exact i32 over the quad
/// layout: weights `[out_c][n_quads]`, patches `[n_quads][n_patch]` with
/// activations offset to u8. Tiles of 8 channels × 32 patches keep their
/// accumulators in registers across the whole fan-in; patch tiles run
/// outermost so a tile's columns stay in L1 across the channel tiles.
fn gemm_quads<S: QuadStep>(
    w: &[u32],
    offset: &[i32],
    n_quads: usize,
    cols: &[u32],
    n_patch: usize,
    acc: &mut [i32],
) {
    let out_c = offset.len();
    debug_assert_eq!(w.len(), out_c * n_quads);
    debug_assert_eq!(cols.len(), n_quads * n_patch);
    debug_assert_eq!(acc.len(), out_c * n_patch);
    for p0 in (0..n_patch).step_by(TILE_P) {
        let np = TILE_P.min(n_patch - p0);
        for oc0 in (0..out_c).step_by(TILE_OC) {
            let t = Tile {
                w: &w[oc0 * n_quads..],
                offset: &offset[oc0..],
                n_quads,
                cols,
                n_patch,
                p0,
                np,
                acc: &mut acc[oc0 * n_patch..],
            };
            match out_c - oc0 {
                1 => S::tile::<1>(t),
                2 => S::tile::<2>(t),
                3 => S::tile::<3>(t),
                4 => S::tile::<4>(t),
                5 => S::tile::<5>(t),
                6 => S::tile::<6>(t),
                7 => S::tile::<7>(t),
                _ => S::tile::<TILE_OC>(t),
            }
        }
    }
}

/// The quad step of this build: VNNI when the target has it, else the
/// portable one. A compile-time choice (`target-cpu=native` in
/// `.cargo/config.toml`), with no runtime switch.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
type Step = vnni::Vnni;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512vnni")))]
type Step = portable::Portable;

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512vnni"))))]
mod portable {
    use super::{QuadStep, Tile, TILE_P};

    /// Scalar quad step: the same tile, one 4-tap dot product per lane.
    pub(super) struct Portable;

    impl QuadStep for Portable {
        fn tile<const OC: usize>(t: Tile<'_>) {
            let mut acc = [[0i32; TILE_P]; OC];
            let mut x = [0u32; TILE_P];
            for q in 0..t.n_quads {
                x[..t.np].copy_from_slice(&t.cols[q * t.n_patch + t.p0..][..t.np]);
                for (c, row) in acc.iter_mut().enumerate() {
                    let [w0, w1, w2, w3] =
                        t.w[c * t.n_quads + q].to_le_bytes().map(|b| i32::from(b as i8));
                    for (a, &xv) in row.iter_mut().zip(&x) {
                        let [x0, x1, x2, x3] = xv.to_le_bytes().map(i32::from);
                        *a += x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3;
                    }
                }
            }
            for (c, row) in acc.iter().enumerate() {
                let out = &mut t.acc[c * t.n_patch + t.p0..][..t.np];
                for (o, &a) in out.iter_mut().zip(row) {
                    *o = a - t.offset[c];
                }
            }
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
mod vnni {
    use super::{QuadStep, Tile, TILE_P};
    use std::arch::x86_64::*;

    /// AVX-512 VNNI quad step: two 16-lane `vpdpbusd` accumulators per
    /// channel, masked loads and stores for a short patch tile.
    pub(super) struct Vnni;

    impl QuadStep for Vnni {
        fn tile<const OC: usize>(t: Tile<'_>) {
            // SAFETY: this module is only compiled for targets with
            // AVX-512 VNNI (and so AVX-512F).
            unsafe { tile::<OC>(t) }
        }
    }

    #[target_feature(enable = "avx512f,avx512vnni")]
    fn tile<const OC: usize>(t: Tile<'_>) {
        const HALF: usize = TILE_P / 2;
        let lanes = |n: usize| ((1u32 << n.min(HALF)) - 1) as __mmask16;
        let (m0, m1) = (lanes(t.np), lanes(t.np.saturating_sub(HALF)));
        let mut acc = [[_mm512_setzero_si512(); 2]; OC];
        for q in 0..t.n_quads {
            let x = t.cols[q * t.n_patch + t.p0..][..t.np].as_ptr().cast::<i32>();
            // SAFETY: `x` starts a slice of `np` elements and the lanes at
            // or past `np` are masked off (masked-off lanes neither load
            // nor fault).
            let (x0, x1) = unsafe {
                (
                    _mm512_maskz_loadu_epi32(m0, x),
                    _mm512_maskz_loadu_epi32(m1, x.wrapping_add(HALF)),
                )
            };
            for (c, a) in acc.iter_mut().enumerate() {
                let w = _mm512_set1_epi32(t.w[c * t.n_quads + q] as i32);
                a[0] = _mm512_dpbusd_epi32(a[0], x0, w);
                a[1] = _mm512_dpbusd_epi32(a[1], x1, w);
            }
        }
        for (c, a) in acc.iter().enumerate() {
            let out = t.acc[c * t.n_patch + t.p0..][..t.np].as_mut_ptr();
            let offset = _mm512_set1_epi32(t.offset[c]);
            // SAFETY: as for the loads, `out` starts a slice of `np`
            // elements and only the `np` unmasked lanes are written.
            unsafe {
                _mm512_mask_storeu_epi32(out, m0, _mm512_sub_epi32(a[0], offset));
                _mm512_mask_storeu_epi32(
                    out.wrapping_add(HALF),
                    m1,
                    _mm512_sub_epi32(a[1], offset),
                );
            }
        }
    }
}

/// A convolution whose weights live on per-output-channel symmetric int8
/// grids, with the input activation grid fixed by calibration.
#[derive(Clone, Debug)]
pub struct QuantizedConv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Taps per output channel, `in_c·k·k`.
    fan_in: usize,
    /// Quads per output channel, `⌈fan_in/4⌉`.
    n_quads: usize,
    /// Int8 weights packed four taps to a word, `[out_c][n_quads]`.
    w_quads: Vec<u32>,
    /// Per-output-channel `128·Σw`, what the u8 activation offset adds
    /// to every sum.
    w_offset: Vec<i32>,
    /// Per-output-channel weight scales.
    w_scales: Vec<f64>,
    /// Biases stay in f64.
    bias: Vec<f64>,
    /// Input activation scale (per tensor, from calibration).
    x_scale: f64,
    inv_x_scale: f64,
}

impl QuantizedConv2d {
    /// Quantizes `conv`'s weights per channel; `x_range` is the calibrated
    /// maximum absolute input activation.
    pub fn from_conv(conv: &Conv2d, x_range: f64) -> Self {
        let fan_in = conv.in_c * conv.k * conv.k;
        assert!(fan_in <= MAX_FAN_IN, "fan-in {fan_in} could overflow the i32 accumulator");
        let n_quads = fan_in.div_ceil(4);
        let mut w_quads = Vec::with_capacity(conv.out_c * n_quads);
        let mut w_offset = Vec::with_capacity(conv.out_c);
        let mut w_scales = Vec::with_capacity(conv.out_c);
        let mut row_i8 = Vec::with_capacity(fan_in);
        for row in conv.weights.chunks_exact(fan_in) {
            row_i8.clear();
            w_scales.push(quantize_weight_row(row, &mut row_i8));
            w_offset.push(pack_quads(&row_i8, &mut w_quads));
        }
        let x_scale = scale_for(x_range);
        QuantizedConv2d {
            in_c: conv.in_c,
            out_c: conv.out_c,
            k: conv.k,
            stride: conv.stride,
            pad: conv.pad,
            fan_in,
            n_quads,
            w_quads,
            w_offset,
            w_scales,
            bias: conv.bias.clone(),
            x_scale,
            inv_x_scale: 1.0 / x_scale,
        }
    }

    /// Output spatial size for an input of `(h, w)` — same contract as
    /// [`Conv2d::output_size`].
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad >= self.k && w + 2 * self.pad >= self.k,
            "input {h}x{w} too small for kernel {} with padding {}",
            self.k,
            self.pad
        );
        (
            (h + 2 * self.pad - self.k) / self.stride + 1,
            (w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Output channel count.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// The calibrated activation scale.
    pub fn x_scale(&self) -> f64 {
        self.x_scale
    }

    /// Per-channel weight scales.
    pub fn w_scales(&self) -> &[f64] {
        &self.w_scales
    }

    /// Quantizes one activation onto this layer's input grid.
    pub fn quantize_activation(&self, v: f64) -> i8 {
        quantize_sat_i8(v, self.inv_x_scale)
    }

    /// Int8 weight bytes, one per tap (the zero bytes padding each
    /// channel's last quad are not counted).
    pub fn weight_bytes(&self) -> usize {
        self.out_c * self.fan_in
    }

    /// Quantizes a whole `in_c × h × w` activation plane onto this
    /// layer's input grid in one vectorizable pass. Each input sample is
    /// quantized exactly once here; the im2col unroll that replicates it
    /// under up to `k·k` kernel taps then moves plain bytes.
    pub(crate) fn quantize_plane(&self, data: &[f64], qplane: &mut Vec<i8>) {
        qplane.clear();
        qplane.resize(data.len(), 0);
        let inv = self.inv_x_scale;
        for (q, &v) in qplane.iter_mut().zip(data) {
            *q = quantize_sat_i8(v, inv);
        }
    }

    /// im2col over the *already quantized* plane, four taps to a word:
    /// byte `f % 4` of word `(f / 4, p)` in the `n_quads × (oh·ow)` patch
    /// matrix holds tap `f = (ic·k + ky)·k + kx` of patch `p`, offset to
    /// u8 (`x ^ 0x80`). Padding and the taps past `fan_in` that fill the
    /// last quad read `0x80`, the offset form of x = 0. Same geometry as
    /// the f64 [`Conv2d`] unroll; each tap is one pass that flips its
    /// byte of the words it reads inside the plane.
    fn im2col_quads(
        &self,
        qplane: &[i8],
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        qcols: &mut Vec<u32>,
    ) {
        let n_patch = oh * ow;
        qcols.clear();
        qcols.resize(self.n_quads * n_patch, 0x8080_8080);
        for f in 0..self.fan_in {
            let (ic, ky, kx) = (f / (self.k * self.k), (f / self.k) % self.k, f % self.k);
            let chan = &qplane[ic * h * w..(ic + 1) * h * w];
            let words = &mut qcols[(f / 4) * n_patch..(f / 4 + 1) * n_patch];
            let shift = 8 * (f % 4);
            let off_y = ky as isize - self.pad as isize;
            let off_x = kx as isize - self.pad as isize;
            let ox_lo = if off_x >= 0 { 0 } else { ((-off_x) as usize).div_ceil(self.stride) };
            let ox_hi = if (w as isize) <= off_x {
                0
            } else {
                (((w as isize - 1 - off_x) as usize) / self.stride + 1).min(ow)
            };
            if ox_lo >= ox_hi {
                continue;
            }
            for oy in 0..oh {
                let iy = oy as isize * self.stride as isize + off_y;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src = &chan[iy as usize * w..(iy as usize + 1) * w];
                let dst = &mut words[oy * ow..(oy + 1) * ow];
                if self.stride == 1 {
                    let ix0 = (ox_lo as isize + off_x) as usize;
                    for (d, &x) in dst[ox_lo..ox_hi].iter_mut().zip(&src[ix0..]) {
                        *d ^= u32::from(x as u8) << shift;
                    }
                } else {
                    for (ox, d) in dst[..ox_hi].iter_mut().enumerate().skip(ox_lo) {
                        let x = src[(ox as isize * self.stride as isize + off_x) as usize];
                        *d ^= u32::from(x as u8) << shift;
                    }
                }
            }
        }
    }

    /// Integer forward pass: plane quantization, quad im2col, quad GEMM,
    /// then a per-channel rescale
    /// `out[oc][p] = bias[oc] + s_w[oc]·s_x·acc` with an optionally fused
    /// ReLU. `out` is resized to `out_c·oh·ow`; all buffers reuse their
    /// capacity on warm calls.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_into(
        &self,
        data: &[f64],
        h: usize,
        w: usize,
        qplane: &mut Vec<i8>,
        qcols: &mut Vec<u32>,
        acc: &mut Vec<i32>,
        out: &mut Vec<f64>,
        fuse_relu: bool,
    ) -> (usize, usize) {
        assert_eq!(data.len(), self.in_c * h * w, "input shape mismatch");
        self.quantize_plane(data, qplane);
        self.forward_quantized(qplane, h, w, qcols, acc, out, fuse_relu)
    }

    /// [`QuantizedConv2d::forward_into`] from a plane already on this
    /// layer's input grid — lets sibling layers that share a calibrated
    /// input range (a residual block's conv1 and its projection) quantize
    /// the plane once between them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_quantized(
        &self,
        qplane: &[i8],
        h: usize,
        w: usize,
        qcols: &mut Vec<u32>,
        acc: &mut Vec<i32>,
        out: &mut Vec<f64>,
        fuse_relu: bool,
    ) -> (usize, usize) {
        assert_eq!(qplane.len(), self.in_c * h * w, "input shape mismatch");
        let (oh, ow) = self.output_size(h, w);
        let n_patch = oh * ow;
        self.im2col_quads(qplane, h, w, oh, ow, qcols);
        acc.clear();
        acc.resize(self.out_c * n_patch, 0);
        gemm_quads::<Step>(&self.w_quads, &self.w_offset, self.n_quads, qcols, n_patch, acc);
        out.clear();
        out.resize(self.out_c * n_patch, 0.0);
        for oc in 0..self.out_c {
            let s = self.w_scales[oc] * self.x_scale;
            let b = self.bias[oc];
            let arow = &acc[oc * n_patch..(oc + 1) * n_patch];
            let orow = &mut out[oc * n_patch..(oc + 1) * n_patch];
            if fuse_relu {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = (b + s * f64::from(a)).max(0.0);
                }
            } else {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = b + s * f64::from(a);
                }
            }
        }
        (oh, ow)
    }
}

/// A dense head on a per-output-row symmetric int8 grid.
#[derive(Clone, Debug)]
pub struct QuantizedDense {
    in_dim: usize,
    out_dim: usize,
    weights_i8: Vec<i8>,
    w_scales: Vec<f64>,
    bias: Vec<f64>,
    x_scale: f64,
    inv_x_scale: f64,
}

impl QuantizedDense {
    /// Quantizes `dense`'s weights per output row; `x_range` is the
    /// calibrated maximum absolute input.
    pub fn from_dense(dense: &Dense, x_range: f64) -> Self {
        let mut weights_i8 = Vec::with_capacity(dense.weights.len());
        let mut w_scales = Vec::with_capacity(dense.out_dim);
        for row in dense.weights.chunks_exact(dense.in_dim) {
            w_scales.push(quantize_weight_row(row, &mut weights_i8));
        }
        let x_scale = scale_for(x_range);
        QuantizedDense {
            in_dim: dense.in_dim,
            out_dim: dense.out_dim,
            weights_i8,
            w_scales,
            bias: dense.bias.clone(),
            x_scale,
            inv_x_scale: 1.0 / x_scale,
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight bytes of the packed layout.
    pub fn weight_bytes(&self) -> usize {
        self.weights_i8.len()
    }

    /// Integer forward: quantizes `x` into `qvec`, then one exact i32 dot
    /// product per output row, rescaled to f64.
    pub fn forward_into(&self, x: &[f64], qvec: &mut Vec<i8>, out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "dense input dimension mismatch");
        assert_eq!(out.len(), self.out_dim, "dense output dimension mismatch");
        qvec.clear();
        qvec.extend(x.iter().map(|&v| quantize_sat_i8(v, self.inv_x_scale)));
        for (o, (row, (&s, &b))) in out.iter_mut().zip(
            self.weights_i8
                .chunks_exact(self.in_dim)
                .zip(self.w_scales.iter().zip(self.bias.iter())),
        ) {
            let acc: i32 =
                row.iter().zip(qvec.iter()).map(|(&w, &q)| i32::from(w) * i32::from(q)).sum();
            *o = b + s * self.x_scale * f64::from(acc);
        }
    }
}

/// Per-clip scratch arena: the quad patch matrix, the i32
/// accumulator, ping-pong f64 activation planes, the projection/skip
/// buffer, and the pooled/quantized head inputs. After the first clip of
/// a given geometry every buffer is capacity-warm, so steady-state
/// forward is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ClipScratch {
    qplane: Vec<i8>,
    qcols: Vec<u32>,
    acc: Vec<i32>,
    a: Vec<f64>,
    b: Vec<f64>,
    t: Vec<f64>,
    skip: Vec<f64>,
    pooled: Vec<f64>,
    qvec: Vec<i8>,
}

/// Caller-held scratch for [`QuantizedResNetLite`]: one [`ClipScratch`]
/// lane per parallel worker slot of a batched forward.
#[derive(Clone, Debug, Default)]
pub struct QuantScratch {
    lanes: Vec<ClipScratch>,
}

impl QuantScratch {
    fn ensure_lanes(&mut self, n: usize) {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, ClipScratch::default);
        }
    }
}

/// One quantized residual block.
#[derive(Clone, Debug)]
struct QuantBlock {
    conv1: QuantizedConv2d,
    conv2: QuantizedConv2d,
    projection: Option<QuantizedConv2d>,
}

/// The int8 residual classifier: per-channel int8 weights, calibrated
/// activation grids, integer GEMM throughout, f64 only between layers.
#[derive(Clone, Debug)]
pub struct QuantizedResNetLite {
    stem: QuantizedConv2d,
    blocks: Vec<QuantBlock>,
    fc: QuantizedDense,
    n_classes: usize,
    telemetry: pb_telemetry::Telemetry,
}

impl QuantizedResNetLite {
    /// One-shot calibration + quantization. Runs the f32 `net` forward
    /// over `calib` recording the maximum absolute input activation of
    /// every convolution and the dense head, fixes each layer's
    /// activation grid to that range, and quantizes all weights per
    /// channel to int8. The f32 network is untouched — it remains the
    /// accuracy oracle.
    pub fn quantize(net: &ResNetLite, calib: &[FeatureMap]) -> Self {
        assert!(!calib.is_empty(), "calibration corpus must be non-empty");
        let nb = net.blocks.len();
        let mut stem_in = 0.0f64;
        let mut block_in = vec![0.0f64; nb];
        let mut r1_in = vec![0.0f64; nb];
        let mut fc_in = 0.0f64;
        let mut scratch = ConvScratch::default();
        for x in calib {
            stem_in = stem_in.max(max_abs(x.data()));
            let mut cur = relu(&net.stem.forward_with_scratch(x, &mut scratch));
            for (i, blk) in net.blocks.iter().enumerate() {
                block_in[i] = block_in[i].max(max_abs(cur.data()));
                let r1 = relu(&blk.conv1.forward_with_scratch(&cur, &mut scratch));
                r1_in[i] = r1_in[i].max(max_abs(r1.data()));
                let a2 = blk.conv2.forward_with_scratch(&r1, &mut scratch);
                let skip = match &blk.projection {
                    Some(p) => p.forward_with_scratch(&cur, &mut scratch),
                    None => cur.clone(),
                };
                cur = relu(&a2.add(&skip));
            }
            fc_in = fc_in.max(max_abs(&global_avg_pool(&cur)));
        }

        let stem = QuantizedConv2d::from_conv(&net.stem, stem_in);
        let blocks = net
            .blocks
            .iter()
            .enumerate()
            .map(|(i, blk)| QuantBlock {
                conv1: QuantizedConv2d::from_conv(&blk.conv1, block_in[i]),
                conv2: QuantizedConv2d::from_conv(&blk.conv2, r1_in[i]),
                projection: blk
                    .projection
                    .as_ref()
                    .map(|p| QuantizedConv2d::from_conv(p, block_in[i])),
            })
            .collect();
        let fc = QuantizedDense::from_dense(&net.fc, fc_in);
        QuantizedResNetLite {
            stem,
            blocks,
            fc,
            n_classes: net.fc.out_dim,
            telemetry: pb_telemetry::Telemetry::disabled(),
        }
    }

    /// Times every int8 inference into `telemetry` as the
    /// `cnn.forward.int8` wall-time histogram and publishes batch sizes
    /// on the `quant.batch.size` gauge. Logits are unchanged.
    pub fn with_telemetry(mut self, telemetry: pb_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total packed int8 weight bytes (biases and scales excluded) —
    /// 1/8 of the f64 weight footprint.
    pub fn weight_bytes(&self) -> usize {
        self.stem.weight_bytes()
            + self
                .blocks
                .iter()
                .map(|b| {
                    b.conv1.weight_bytes()
                        + b.conv2.weight_bytes()
                        + b.projection.as_ref().map_or(0, QuantizedConv2d::weight_bytes)
                })
                .sum::<usize>()
            + self.fc.weight_bytes()
    }

    /// Single-clip integer forward pass producing class logits.
    pub fn forward(&self, x: &FeatureMap, scratch: &mut QuantScratch) -> Vec<f64> {
        let _span = self.telemetry.span("cnn.forward.int8");
        self.telemetry.set_gauge("quant.batch.size", 1.0);
        scratch.ensure_lanes(1);
        let mut out = vec![0.0; self.n_classes];
        self.forward_clip(x, &mut scratch.lanes[0], &mut out);
        out
    }

    /// Predicted class of an input.
    pub fn predict(&self, x: &FeatureMap, scratch: &mut QuantScratch) -> usize {
        let logits = self.forward(x, scratch);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Batched integer forward over `clips`; returns one logit vector per
    /// clip, in order. Clips fan out over the persistent pool in
    /// [`MAX_BATCH_LANES`]-bounded lanes; each lane owns one
    /// [`ClipScratch`], and the clip→lane split depends only on
    /// `clips.len()`, so logits are bit-identical to a serial loop at any
    /// worker count.
    pub fn forward_batch(&self, clips: &[FeatureMap], scratch: &mut QuantScratch) -> Vec<Vec<f64>> {
        let mut flat = vec![0.0; clips.len() * self.n_classes];
        self.forward_batch_into(clips, scratch, &mut flat);
        flat.chunks(self.n_classes.max(1)).map(|c| c.to_vec()).collect()
    }

    /// Allocation-free batched forward: logits land in `out` as
    /// `clips.len() × n_classes` row-major.
    pub fn forward_batch_into(
        &self,
        clips: &[FeatureMap],
        scratch: &mut QuantScratch,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), clips.len() * self.n_classes, "output buffer shape mismatch");
        if clips.is_empty() {
            return;
        }
        let _span = self.telemetry.span("cnn.forward.int8");
        self.telemetry.set_gauge("quant.batch.size", clips.len() as f64);
        let n_lanes = clips.len().min(MAX_BATCH_LANES);
        scratch.ensure_lanes(n_lanes);
        let per = clips.len().div_ceil(n_lanes);
        let n_classes = self.n_classes;
        rayon::scope(|s| {
            for ((chunk, ochunk), lane) in
                clips.chunks(per).zip(out.chunks_mut(per * n_classes)).zip(scratch.lanes.iter_mut())
            {
                s.spawn(move |_| {
                    for (clip, o) in chunk.iter().zip(ochunk.chunks_mut(n_classes)) {
                        self.forward_clip(clip, lane, o);
                    }
                });
            }
        });
    }

    /// Runs one clip through stem → blocks → GAP → head entirely within
    /// `s`'s buffers, writing logits to `out`.
    fn forward_clip(&self, x: &FeatureMap, s: &mut ClipScratch, out: &mut [f64]) {
        let ClipScratch { qplane, qcols, acc, a, b, t, skip, pooled, qvec } = s;
        let (mut h, mut w) = (x.height(), x.width());
        let (oh, ow) = self.stem.forward_into(x.data(), h, w, qplane, qcols, acc, a, true);
        (h, w) = (oh, ow);
        let mut c = self.stem.out_c();
        for blk in &self.blocks {
            // conv1 and the projection share the block-input grid, so the
            // plane is quantized once and fed to both.
            blk.conv1.quantize_plane(a, qplane);
            let (h1, w1) = blk.conv1.forward_quantized(qplane, h, w, qcols, acc, b, true);
            if let Some(p) = &blk.projection {
                debug_assert_eq!(
                    p.x_scale(),
                    blk.conv1.x_scale(),
                    "projection must share conv1's input grid"
                );
                p.forward_quantized(qplane, h, w, qcols, acc, skip, false);
            }
            let (h2, w2) = blk.conv2.forward_into(b, h1, w1, qplane, qcols, acc, t, false);
            match &blk.projection {
                Some(_) => {
                    for (tv, &sv) in t.iter_mut().zip(skip.iter()) {
                        *tv = (*tv + sv).max(0.0);
                    }
                }
                None => {
                    debug_assert_eq!((h, w), (h2, w2), "identity skip needs matching shape");
                    for (tv, &av) in t.iter_mut().zip(a.iter()) {
                        *tv = (*tv + av).max(0.0);
                    }
                }
            }
            std::mem::swap(a, t);
            (h, w) = (h2, w2);
            c = blk.conv2.out_c();
        }
        // Global average pooling from the final activation plane.
        pooled.clear();
        let plane = h * w;
        let inv = 1.0 / plane as f64;
        pooled.extend(a.chunks_exact(plane).take(c).map(|ch| ch.iter().sum::<f64>() * inv));
        self.fc.forward_into(pooled, qvec, out);
    }
}

/// The row-layout int8 path the quad kernel replaced, kept as its
/// bit-identity oracle: an i8 patch row per tap, and one widening axpy
/// of a whole accumulator row per (channel, tap).
#[cfg(test)]
mod oracle {
    use super::QuantizedConv2d;

    /// Row `f = (ic·k + ky)·k + kx` of the `fan_in × (oh·ow)` patch
    /// matrix holds the sample under tap `(ic, ky, kx)`, zero in padding.
    pub(super) fn im2col_rows(
        conv: &QuantizedConv2d,
        qplane: &[i8],
        h: usize,
        w: usize,
    ) -> Vec<i8> {
        let (oh, ow) = conv.output_size(h, w);
        let (k, stride, pad) = (conv.k, conv.stride as isize, conv.pad as isize);
        let n_patch = oh * ow;
        let mut cols = vec![0i8; conv.fan_in * n_patch];
        for (f, row) in cols.chunks_exact_mut(n_patch).enumerate() {
            let (ic, ky, kx) = (f / (k * k), (f / k) % k, f % k);
            for (p, c) in row.iter_mut().enumerate() {
                let iy = (p / ow) as isize * stride + ky as isize - pad;
                let ix = (p % ow) as isize * stride + kx as isize - pad;
                if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                    *c = qplane[ic * h * w + iy as usize * w + ix as usize];
                }
            }
        }
        cols
    }

    /// `acc[oc][p] = Σ_f w[oc][f] · cols[f][p]`, one row axpy at a time.
    pub(super) fn gemm_rows(
        weights: &[i8],
        fan_in: usize,
        cols: &[i8],
        n_patch: usize,
    ) -> Vec<i32> {
        let mut acc = vec![0i32; weights.len() / fan_in.max(1) * n_patch];
        for (arow, wrow) in acc.chunks_exact_mut(n_patch).zip(weights.chunks_exact(fan_in)) {
            for (&wv, crow) in wrow.iter().zip(cols.chunks_exact(n_patch)) {
                for (a, &c) in arow.iter_mut().zip(crow) {
                    *a += i32::from(wv) * i32::from(c);
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::resnet::{ResNetConfig, StageSpec};
    use crate::tensor::FeatureMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fit_covers_the_range() {
        let p = QuantParams::fit(&[-2.0, 1.0, 0.5], 8);
        // q_max = 127; scale = 2/127.
        assert!((p.scale - 2.0 / 127.0).abs() < 1e-12);
        assert_eq!(p.quantize(2.0), 127);
        assert_eq!(p.quantize(-2.0), -127);
        assert_eq!(p.quantize(0.0), 0);
    }

    #[test]
    fn clamp_is_symmetric_at_the_range_edges() {
        // Regression: -max_abs used to clamp to -(q_max+1) (e.g. -128)
        // while +max_abs clamps to q_max, breaking round-trip symmetry.
        for bits in [2u32, 4, 8, 16] {
            let q_max = (1i64 << (bits - 1)) - 1;
            let p = QuantParams::fit(&[3.0, -3.0], bits);
            assert_eq!(i64::from(p.quantize(3.0)), q_max, "bits {bits}");
            assert_eq!(i64::from(p.quantize(-3.0)), -q_max, "bits {bits}");
            // Values past the range saturate symmetrically too.
            assert_eq!(i64::from(p.quantize(30.0)), q_max, "bits {bits}");
            assert_eq!(i64::from(p.quantize(-30.0)), -q_max, "bits {bits}");
            // And the round-trip of the two edges has equal magnitude.
            assert_eq!(p.fake_quantize(3.0), -p.fake_quantize(-3.0), "bits {bits}");
        }
    }

    #[test]
    fn round_trip_edge_cases_across_bit_widths() {
        for bits in [2u32, 8, 16] {
            let values: Vec<f64> = vec![-1.5, -0.75, -1e-9, 0.0, 1e-9, 0.3, 1.5];
            let p = QuantParams::fit(&values, bits);
            for &v in &values {
                let rt = p.fake_quantize(v);
                assert!(
                    (rt - v).abs() <= p.max_error() + 1e-12,
                    "bits {bits}: {v} round-tripped to {rt}"
                );
            }
            // The extreme magnitudes are exactly representable.
            assert!((p.fake_quantize(1.5) - 1.5).abs() < 1e-12, "bits {bits}");
            assert!((p.fake_quantize(-1.5) + 1.5).abs() < 1e-12, "bits {bits}");
        }
    }

    #[test]
    fn degenerate_tensor() {
        let p = QuantParams::fit(&[0.0, 0.0], 8);
        assert_eq!(p.scale, 1.0);
        assert_eq!(p.fake_quantize(0.0), 0.0);
    }

    #[test]
    fn round_trip_error_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..1000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let p = QuantParams::fit(&values, 8);
        for &v in &values {
            assert!((p.fake_quantize(v) - v).abs() <= p.max_error() + 1e-12);
        }
    }

    #[test]
    fn more_bits_less_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<f64> = (0..500).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut v4 = values.clone();
        let mut v8 = values.clone();
        let r4 = quantize_tensor(&mut v4, 4);
        let r8 = quantize_tensor(&mut v8, 8);
        assert!(
            r8.rms_error < r4.rms_error / 4.0,
            "8-bit {} vs 4-bit {}",
            r8.rms_error,
            r4.rms_error
        );
    }

    fn tiny_net() -> ResNetLite {
        ResNetLite::new(ResNetConfig {
            input_channels: 1,
            base_width: 4,
            stages: vec![
                StageSpec { channels: 4, stride: 1 },
                StageSpec { channels: 8, stride: 2 },
            ],
            n_classes: 2,
            seed: 5,
        })
    }

    fn random_clip(side: usize, seed: u64) -> FeatureMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..side * side).map(|_| rng.gen_range(0.0..1.0)).collect();
        FeatureMap::from_vec(1, side, side, data)
    }

    #[test]
    fn quantized_network_stays_close_in_logits() {
        let float_net = tiny_net();
        let mut q_net = float_net.clone();
        let report = quantize_resnet(&mut q_net, 8);
        assert!(report.mean_rms_error() < 0.01, "rms {}", report.mean_rms_error());

        let x = random_clip(10, 7);
        let a = float_net.forward(&x);
        let b = q_net.forward(&x);
        for (fa, fb) in a.iter().zip(&b) {
            assert!((fa - fb).abs() < 0.2, "logits drifted: {fa} vs {fb}");
        }
        // Predictions agree on a batch of random inputs.
        let mut agree = 0;
        for s in 0..20u64 {
            let x = random_clip(10, 100 + s);
            if float_net.predict(&x) == q_net.predict(&x) {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 predictions agree after int8 quantization");
    }

    #[test]
    fn model_bytes_shrink_with_bits() {
        let mut a = tiny_net();
        let r8 = quantize_resnet(&mut a, 8);
        let mut b = tiny_net();
        let r4 = quantize_resnet(&mut b, 4);
        assert_eq!(r8.model_bytes(), 2 * r4.model_bytes());
        // int8 is a quarter of f32.
        let n_weights: usize = r8.tensors.iter().map(|t| t.n).sum();
        assert_eq!(r8.model_bytes(), n_weights);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn silly_bit_width_panics() {
        let _ = QuantParams::fit(&[1.0], 1);
    }

    // --- int8 engine ---

    fn calib_corpus(side: usize) -> Vec<FeatureMap> {
        (0..6u64).map(|s| random_clip(side, 900 + s)).collect()
    }

    /// The int8 weight of channel `oc` at tap `f`, unpacked from its quad.
    fn weight_i8(q: &QuantizedConv2d, oc: usize, f: usize) -> i8 {
        q.w_quads[oc * q.n_quads + f / 4].to_le_bytes()[f % 4] as i8
    }

    /// Dequantized-f64 reference for one quantized conv: rebuild an f64
    /// `Conv2d` from the dequantized int8 weights and feed it the
    /// dequantized int8 activations; the integer path must match to
    /// floating-point rounding (the i32 accumulation itself is exact).
    fn dequantized_reference(q: &QuantizedConv2d, conv: &Conv2d, x: &FeatureMap) -> FeatureMap {
        let fan_in = conv.in_c * conv.k * conv.k;
        let weights: Vec<f64> = (0..conv.out_c * fan_in)
            .map(|i| f64::from(weight_i8(q, i / fan_in, i % fan_in)) * q.w_scales()[i / fan_in])
            .collect();
        let deq_conv = Conv2d { weights, ..conv.clone() };
        let deq_x = FeatureMap::from_vec(
            x.channels(),
            x.height(),
            x.width(),
            x.data().iter().map(|&v| f64::from(q.quantize_activation(v)) * q.x_scale()).collect(),
        );
        deq_conv.forward_direct(&deq_x)
    }

    #[test]
    fn int8_conv_matches_dequantized_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for (i, &(in_c, out_c, k, stride, pad, h, w)) in [
            (1usize, 1usize, 1usize, 1usize, 0usize, 5usize, 5usize),
            (1, 4, 3, 1, 1, 8, 8),
            (3, 8, 3, 2, 1, 9, 7),
            (2, 3, 5, 1, 2, 6, 11),
        ]
        .iter()
        .enumerate()
        {
            let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
            for b in conv.bias.iter_mut() {
                *b = rng.gen_range(-0.5..0.5);
            }
            let data: Vec<f64> = (0..in_c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = FeatureMap::from_vec(in_c, h, w, data);
            let q = QuantizedConv2d::from_conv(&conv, max_abs(x.data()));

            let (mut qplane, mut qcols) = (Vec::new(), Vec::new());
            let (mut acc, mut out) = (Vec::new(), Vec::new());
            let (oh, ow) =
                q.forward_into(x.data(), h, w, &mut qplane, &mut qcols, &mut acc, &mut out, false);
            let reference = dequantized_reference(&q, &conv, &x);
            assert_eq!((out_c, oh, ow), reference.shape(), "case {i}");
            for (j, (&a, &b)) in out.iter().zip(reference.data()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "case {i} elem {j}: int8 {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn quantized_resnet_tracks_float_oracle() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10));
        let mut scratch = QuantScratch::default();
        let mut agree = 0;
        for s in 0..20u64 {
            let x = random_clip(10, 500 + s);
            let fl = net.forward(&x);
            let il = q.forward(&x, &mut scratch);
            assert_eq!(fl.len(), il.len());
            for (a, b) in fl.iter().zip(&il) {
                assert!((a - b).abs() < 0.25, "logits drifted: f32 {a} vs int8 {b}");
            }
            if net.predict(&x) == q.predict(&x, &mut scratch) {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 predictions agree");
        // Packed weights are one byte per f64 weight — 1/8 the footprint.
        let n_weights: usize = net.clone().weight_tensors_mut().iter().map(|t| t.len()).sum();
        assert_eq!(q.weight_bytes(), n_weights);
    }

    #[test]
    fn batch_forward_is_bitwise_identical_to_the_loop() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let clips: Vec<FeatureMap> = (0..13u64).map(|s| random_clip(12, 700 + s)).collect();
        let mut scratch = QuantScratch::default();
        let batched = q.forward_batch(&clips, &mut scratch);
        for (i, clip) in clips.iter().enumerate() {
            let single = q.forward(clip, &mut scratch);
            assert_eq!(batched[i], single, "clip {i} diverged from the serial loop");
        }
    }

    #[test]
    fn batch_forward_is_thread_count_invariant() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let clips: Vec<FeatureMap> = (0..11u64).map(|s| random_clip(12, 800 + s)).collect();
        let runs: Vec<Vec<Vec<f64>>> = [1usize, 2, 4]
            .iter()
            .map(|&cap| {
                rayon::pool::with_thread_cap(cap, || {
                    let mut scratch = QuantScratch::default();
                    q.forward_batch(&clips, &mut scratch)
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 4 workers");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10));
        let mut scratch = QuantScratch::default();
        assert!(q.forward_batch(&[], &mut scratch).is_empty());
    }

    #[test]
    fn telemetry_records_int8_spans_and_batch_gauge() {
        let tel = pb_telemetry::Telemetry::metrics_only();
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(10)).with_telemetry(tel.clone());
        let clips: Vec<FeatureMap> = (0..5u64).map(|s| random_clip(10, 60 + s)).collect();
        let mut scratch = QuantScratch::default();
        let _ = q.forward_batch(&clips, &mut scratch);
        let _ = q.forward(&clips[0], &mut scratch);
        let snap = tel.snapshot();
        let h = snap.histogram("cnn.forward.int8").cloned().expect("span recorded");
        assert_eq!(h.count, 2);
        let g = snap.gauge("quant.batch.size").expect("gauge set");
        assert_eq!(g, 1.0); // last write was the single-clip forward
    }

    #[test]
    fn warm_forward_is_allocation_free_in_capacity() {
        let net = tiny_net();
        let q = QuantizedResNetLite::quantize(&net, &calib_corpus(12));
        let mut scratch = QuantScratch::default();
        let x = random_clip(12, 1);
        let _ = q.forward(&x, &mut scratch);
        let caps = |s: &QuantScratch| {
            let l = &s.lanes[0];
            (
                l.qcols.capacity(),
                l.acc.capacity(),
                l.a.capacity(),
                l.b.capacity(),
                l.t.capacity(),
                l.skip.capacity(),
            )
        };
        let warm = caps(&scratch);
        for s in 0..4u64 {
            let x = random_clip(12, 2 + s);
            let _ = q.forward(&x, &mut scratch);
        }
        assert_eq!(caps(&scratch), warm, "warm int8 forward grew a scratch buffer");
    }

    // --- quad GEMM against the row oracle ---

    /// The int8 patch rows in the quad layout: byte `j` of word `(q, p)`
    /// is row `4q + j` at patch `p` offset to u8, `0x80` past `fan_in`.
    fn rows_to_quads(rows: &[i8], fan_in: usize, n_patch: usize) -> Vec<u32> {
        let n_quads = fan_in.div_ceil(4);
        (0..n_quads * n_patch)
            .map(|i| {
                let (q, p) = (i / n_patch, i % n_patch);
                let bytes: [u8; 4] = std::array::from_fn(|j| {
                    let f = 4 * q + j;
                    if f < fan_in {
                        rows[f * n_patch + p] as u8 ^ 0x80
                    } else {
                        0x80
                    }
                });
                u32::from_le_bytes(bytes)
            })
            .collect()
    }

    /// Runs [`gemm_quads`] on `step` from row-layout weights and patches.
    fn quad_gemm<S: QuadStep>(
        weights: &[i8],
        fan_in: usize,
        rows: &[i8],
        n_patch: usize,
    ) -> Vec<i32> {
        let (mut w, mut offset) = (Vec::new(), Vec::new());
        for row in weights.chunks_exact(fan_in) {
            offset.push(pack_quads(row, &mut w));
        }
        let cols = rows_to_quads(rows, fan_in, n_patch);
        let mut acc = vec![0i32; offset.len() * n_patch];
        gemm_quads::<S>(&w, &offset, fan_in.div_ceil(4), &cols, n_patch, &mut acc);
        acc
    }

    /// Both quad steps this build has, each against the row oracle.
    fn assert_steps_match_oracle(weights: &[i8], fan_in: usize, rows: &[i8], n_patch: usize) {
        let want = oracle::gemm_rows(weights, fan_in, rows, n_patch);
        assert_eq!(
            quad_gemm::<portable::Portable>(weights, fan_in, rows, n_patch),
            want,
            "portable step"
        );
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
        assert_eq!(quad_gemm::<vnni::Vnni>(weights, fan_in, rows, n_patch), want, "VNNI step");
    }

    /// Runs [`gemm_quads`] on `step` with `q`'s weights over `cols`.
    fn conv_gemm<S: QuadStep>(q: &QuantizedConv2d, cols: &[u32], n_patch: usize) -> Vec<i32> {
        let mut acc = vec![0i32; q.out_c * n_patch];
        gemm_quads::<S>(&q.w_quads, &q.w_offset, q.n_quads, cols, n_patch, &mut acc);
        acc
    }

    #[test]
    fn max_fan_in_is_the_exact_i32_bound() {
        let bound = |f: usize| f as i64 * 255 * i64::from(Q_MAX_I8);
        assert!(bound(MAX_FAN_IN) < 1 << 31);
        assert!(bound(MAX_FAN_IN + 1) >= 1 << 31);
    }

    #[test]
    fn quad_kernel_is_exact_at_the_fan_in_bound() {
        // x = 127 is u8 255, the largest partial sum `dpbusd` can build.
        let rows = vec![Q_MAX_I8 as i8; MAX_FAN_IN * 3];
        for w in [Q_MAX_I8 as i8, -Q_MAX_I8 as i8] {
            let weights = vec![w; MAX_FAN_IN];
            let want = MAX_FAN_IN as i32 * i32::from(w) * Q_MAX_I8;
            assert_eq!(oracle::gemm_rows(&weights, MAX_FAN_IN, &rows, 3), vec![want; 3]);
            assert_steps_match_oracle(&weights, MAX_FAN_IN, &rows, 3);
        }
    }

    #[test]
    #[should_panic(expected = "could overflow the i32 accumulator")]
    fn from_conv_rejects_a_fan_in_past_the_bound() {
        let conv = Conv2d::new(MAX_FAN_IN + 1, 1, 1, 1, 0, &mut StdRng::seed_from_u64(3));
        let _ = QuantizedConv2d::from_conv(&conv, 1.0);
    }

    #[test]
    fn network_shapes_match_the_oracle() {
        // The distinct (out_c, fan_in, n_patch) shapes of the default
        // network's nine GEMMs at 100 px: patch counts 10 000, 2 500 and
        // 625 all leave a partial 32-patch tile.
        let mut rng = StdRng::seed_from_u64(21);
        for (out_c, fan_in, n_patch) in [
            (8, 9, 10_000),
            (8, 72, 10_000),
            (16, 72, 2_500),
            (16, 8, 2_500),
            (16, 144, 2_500),
            (32, 144, 625),
            (32, 16, 625),
            (32, 288, 625),
        ] {
            let weights: Vec<i8> = (0..out_c * fan_in).map(|_| rng.gen_range(-127..=127)).collect();
            let rows: Vec<i8> = (0..fan_in * n_patch).map(|_| rng.gen_range(-127..=127)).collect();
            assert_steps_match_oracle(&weights, fan_in, &rows, n_patch);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(64))]
            #[test]
            fn quad_kernel_matches_the_row_oracle(
                out_c in 1usize..=40,
                fan_in in 1usize..=300,
                n_patch in 1usize..=200,
                fill in 0u8..4,
                seed in 0u64..1_000_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut draw = |n: usize| -> Vec<i8> {
                    (0..n).map(|_| rng.gen_range(-127..=127)).collect()
                };
                let (mut weights, mut rows) = (draw(out_c * fan_in), draw(fan_in * n_patch));
                match fill {
                    // All ±127: the largest magnitudes the grid holds.
                    1 => {
                        for v in weights.iter_mut().chain(rows.iter_mut()) {
                            *v = if *v < 0 { -127 } else { 127 };
                        }
                    }
                    // One sign throughout, the largest sums of either sign.
                    2 => {
                        let w = if seed % 2 == 0 { 127 } else { -127 };
                        weights.fill(w);
                        rows.fill(127);
                    }
                    // Every other weight row all zero.
                    3 => {
                        for row in weights.chunks_exact_mut(fan_in).step_by(2) {
                            row.fill(0);
                        }
                    }
                    _ => {}
                }
                assert_steps_match_oracle(&weights, fan_in, &rows, n_patch);
            }

            #[test]
            fn quad_im2col_and_kernel_match_the_row_oracle(
                in_c in 1usize..=12,
                out_c in 1usize..=20,
                k in 1usize..=5,
                stride in 1usize..=2,
                pad in 0usize..=2,
                extra_h in 0usize..=9,
                extra_w in 0usize..=9,
                seed in 0u64..1_000_000,
            ) {
                let (h, w) = (k + extra_h, k + extra_w);
                let mut rng = StdRng::seed_from_u64(seed);
                let conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
                let q = QuantizedConv2d::from_conv(&conv, 1.0);
                let (oh, ow) = q.output_size(h, w);
                let qplane: Vec<i8> =
                    (0..in_c * h * w).map(|_| rng.gen_range(-127..=127)).collect();
                let weights: Vec<i8> = (0..out_c * q.fan_in)
                    .map(|i| weight_i8(&q, i / q.fan_in, i % q.fan_in))
                    .collect();
                let want = oracle::gemm_rows(
                    &weights,
                    q.fan_in,
                    &oracle::im2col_rows(&q, &qplane, h, w),
                    oh * ow,
                );
                let mut cols = Vec::new();
                q.im2col_quads(&qplane, h, w, oh, ow, &mut cols);
                let portable = conv_gemm::<portable::Portable>(&q, &cols, oh * ow);
                prop_assert_eq!(portable, want.clone());
                #[cfg(all(target_arch = "x86_64", target_feature = "avx512vnni"))]
                prop_assert_eq!(conv_gemm::<vnni::Vnni>(&q, &cols, oh * ow), want);
            }
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(32))]
            #[test]
            fn int8_gemm_parity_with_dequantized_reference(
                in_c in 1usize..4,
                out_c in 1usize..4,
                k in 1usize..4,
                stride in 1usize..3,
                pad in 0usize..3,
                extra_h in 0usize..5,
                extra_w in 0usize..5,
                seed in 0u64..1_000_000,
            ) {
                let h = k + extra_h;
                let w = k + extra_w;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
                for b in conv.bias.iter_mut() {
                    *b = rng.gen_range(-0.5..0.5);
                }
                let data: Vec<f64> =
                    (0..in_c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x = FeatureMap::from_vec(in_c, h, w, data);
                let q = QuantizedConv2d::from_conv(&conv, max_abs(x.data()));
                let (mut qplane, mut qcols) = (Vec::new(), Vec::new());
                let (mut acc, mut out) = (Vec::new(), Vec::new());
                let _ = q.forward_into(
                    x.data(), h, w, &mut qplane, &mut qcols, &mut acc, &mut out, false,
                );
                let reference = dequantized_reference(&q, &conv, &x);
                for (a, b) in out.iter().zip(reference.data()) {
                    prop_assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                        "int8 {} vs reference {}", a, b
                    );
                }
            }
        }
    }
}
