//! Runtime-dispatched SIMD distance kernels, bit-identical to scalar.
//!
//! This module holds the repo's only `unsafe` code: AVX2 and SSE paths for
//! the hot inner loops (`sq_ed`, `ed_early_abandon`, f32 segment sums for
//! PAA, and f64 squared distances for pivot space). `ed_early_abandon_le`
//! runs the early-abandoning kernel over a stored record's little-endian
//! value bytes, so scans score records in place instead of decoding them
//! into an `f32` buffer first. The contract that makes
//! them safe to dispatch freely is **bit-identity**: every tier reduces its
//! lane accumulators in exactly the same pairwise order as the scalar
//! reference, and no tier uses fused multiply-add (FMA changes rounding).
//! A query answered on an AVX2 host is therefore byte-for-byte the query
//! answered on a scalar host — dispatch is a pure speed knob, never a
//! semantics knob.
//!
//! ## Lane layout
//!
//! The f32 kernels accumulate in chunks of 8 with one `f64` accumulator per
//! lane, reduced as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`; the f64 kernel
//! uses chunks of 4 reduced as `(l0+l2)+(l1+l3)`. The SIMD tiers materialise
//! the same lanes in vector registers:
//!
//! * AVX2: lanes 0-3 in one `__m256d`, lanes 4-7 in another; one
//!   `_mm256_add_pd` yields `[l0+l4, l1+l5, l2+l6, l3+l7]` and the final
//!   scalar combine `(s0+s2)+(s1+s3)` reproduces the reference tree.
//! * SSE: four `__m128d` accumulators `[l0,l1] [l2,l3] [l4,l5] [l6,l7]`;
//!   `(A+C) + (B+D)` yields the same vector, then `t0+t1`.
//!
//! Tails shorter than a chunk are always summed sequentially in scalar code,
//! identically across tiers.
//!
//! ## Dispatch
//!
//! [`detect`] probes CPU features once (cached in an atomic); [`force`] is a
//! test hook that pins the auto-dispatched entry points to a specific tier.
//! Forcing is a process-global toggle, which is race-safe precisely because
//! tiers never disagree on results.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

/// A kernel implementation tier. Ordered from most portable to fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dispatch {
    /// Portable Rust, the reference implementation. Always available.
    Scalar,
    /// 128-bit SSE path (gated on `sse4.1` detection; x86-64 only).
    Sse41,
    /// 256-bit AVX path (gated on `avx2` detection; x86-64 only).
    Avx2,
}

impl Dispatch {
    /// Human-readable feature name, as printed by benches and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Sse41 => "sse4.1",
            Dispatch::Avx2 => "avx2",
        }
    }

    /// Every tier this host can execute, in ascending speed order.
    /// Always contains at least [`Dispatch::Scalar`].
    pub fn available() -> Vec<Dispatch> {
        let best = detect();
        [Dispatch::Scalar, Dispatch::Sse41, Dispatch::Avx2]
            .into_iter()
            .filter(|t| *t <= best)
            .collect()
    }
}

const TIER_UNSET: u8 = 0;
const TIER_SCALAR: u8 = 1;
const TIER_SSE41: u8 = 2;
const TIER_AVX2: u8 = 3;

/// Cached result of CPU-feature probing (0 = not yet probed).
static DETECTED: AtomicU8 = AtomicU8::new(TIER_UNSET);
/// Test hook: a forced tier for the auto-dispatched entry points (0 = none).
static FORCED: AtomicU8 = AtomicU8::new(TIER_UNSET);

fn tier_of(code: u8) -> Dispatch {
    match code {
        TIER_SSE41 => Dispatch::Sse41,
        TIER_AVX2 => Dispatch::Avx2,
        _ => Dispatch::Scalar,
    }
}

fn code_of(tier: Dispatch) -> u8 {
    match tier {
        Dispatch::Scalar => TIER_SCALAR,
        Dispatch::Sse41 => TIER_SSE41,
        Dispatch::Avx2 => TIER_AVX2,
    }
}

/// The best tier this host supports, probed once and cached.
pub fn detect() -> Dispatch {
    let cached = DETECTED.load(Ordering::Relaxed);
    if cached != TIER_UNSET {
        return tier_of(cached);
    }
    #[cfg(target_arch = "x86_64")]
    let probed = if std::arch::is_x86_feature_detected!("avx2") {
        Dispatch::Avx2
    } else if std::arch::is_x86_feature_detected!("sse4.1") {
        Dispatch::Sse41
    } else {
        Dispatch::Scalar
    };
    #[cfg(not(target_arch = "x86_64"))]
    let probed = Dispatch::Scalar;
    DETECTED.store(code_of(probed), Ordering::Relaxed);
    probed
}

/// Pins (`Some`) or releases (`None`) the tier used by the auto-dispatched
/// entry points. Test hook for exercising lower tiers on capable hosts.
///
/// # Panics
/// If the requested tier is not supported by this host (executing it would
/// be undefined behaviour, so the hook refuses).
pub fn force(tier: Option<Dispatch>) {
    match tier {
        None => FORCED.store(TIER_UNSET, Ordering::Relaxed),
        Some(t) => {
            assert!(
                t <= detect(),
                "cannot force {:?}: host only supports up to {:?}",
                t,
                detect()
            );
            FORCED.store(code_of(t), Ordering::Relaxed);
        }
    }
}

/// The tier the auto-dispatched entry points use right now: the forced tier
/// if one is pinned, otherwise the detected best.
pub fn current() -> Dispatch {
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != TIER_UNSET {
        tier_of(forced)
    } else {
        detect()
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------

/// Reduces the 8 lane accumulators in the fixed pairwise order shared by
/// every tier.
#[inline]
pub(crate) fn combine_lanes(l: &[f64; 8]) -> f64 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Reduces the 4 lane accumulators of the f64 kernel in fixed order.
#[inline]
fn combine_lanes4(l: &[f64; 4]) -> f64 {
    (l[0] + l[2]) + (l[1] + l[3])
}

#[inline]
fn sq_ed_scalar(x: &[f32], y: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (cx, cy) in (&mut xc).zip(&mut yc) {
        for i in 0..8 {
            let d = f64::from(cx[i]) - f64::from(cy[i]);
            lanes[i] += d * d;
        }
    }
    let mut acc = combine_lanes(&lanes);
    for (a, b) in xc.remainder().iter().zip(yc.remainder().iter()) {
        let d = f64::from(*a) - f64::from(*b);
        acc += d * d;
    }
    acc
}

/// The scalar early-abandoning kernel over `x.len()` values of `y`, read
/// through `y_at` — one loop for `f32` slices and for little-endian record
/// bytes, so the two can never drift apart.
#[inline(always)]
fn ed_early_abandon_scalar(x: &[f32], y_at: impl Fn(usize) -> f32, sq_bound: f64) -> Option<f64> {
    let mut lanes = [0.0f64; 8];
    let chunks = x.len() / 8;
    for (c, cx) in x.chunks_exact(8).enumerate() {
        for j in 0..8 {
            let d = f64::from(cx[j]) - f64::from(y_at(c * 8 + j));
            lanes[j] += d * d;
        }
        // Check after every second 8-chunk (16 readings). Combining the
        // lanes for the check does not disturb their running values.
        if c % 2 == 1 && combine_lanes(&lanes) > sq_bound {
            return None;
        }
    }
    let mut acc = combine_lanes(&lanes);
    for (i, a) in x.iter().enumerate().skip(chunks * 8) {
        let d = f64::from(*a) - f64::from(y_at(i));
        acc += d * d;
    }
    if acc > sq_bound {
        return None;
    }
    Some(acc)
}

/// The `i`-th little-endian `f32` of `bytes`.
#[inline(always)]
fn le_f32_at(bytes: &[u8], i: usize) -> f32 {
    let b = &bytes[i * 4..i * 4 + 4];
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn sum_f32_scalar(v: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut vc = v.chunks_exact(8);
    for c in &mut vc {
        for i in 0..8 {
            lanes[i] += f64::from(c[i]);
        }
    }
    let mut acc = combine_lanes(&lanes);
    for a in vc.remainder() {
        acc += f64::from(*a);
    }
    acc
}

#[inline]
fn sq_dist_f64_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for i in 0..4 {
            let d = ca[i] - cb[i];
            lanes[i] += d * d;
        }
    }
    let mut acc = combine_lanes4(&lanes);
    for (x, y) in ac.remainder().iter().zip(bc.remainder().iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

// ---------------------------------------------------------------------------
// x86-64 SIMD tiers
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 and SSE lanes. Every function here upholds the module's
    //! bit-identity contract: same lane layout, same combine tree, no FMA.
    //! Loads are all bounds-respecting: 256-bit f32 loads cover exactly one
    //! 8-chunk, and the SSE f32 path loads 64-bit pairs so the final chunk
    //! never reads past the slice.

    use core::arch::x86_64::*;

    /// Combines AVX2 accumulators `[l0..l3]` and `[l4..l7]` in the scalar
    /// reference order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn combine_avx2(lo: __m256d, hi: __m256d) -> f64 {
        let s = _mm256_add_pd(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), s);
        (out[0] + out[2]) + (out[1] + out[3])
    }

    /// Combines SSE accumulators `[l0,l1] [l2,l3] [l4,l5] [l6,l7]` in the
    /// scalar reference order.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    unsafe fn combine_sse(a: __m128d, b: __m128d, c: __m128d, d: __m128d) -> f64 {
        let sac = _mm_add_pd(a, c); // [l0+l4, l1+l5]
        let sbd = _mm_add_pd(b, d); // [l2+l6, l3+l7]
        let t = _mm_add_pd(sac, sbd); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)]
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), t);
        out[0] + out[1]
    }

    /// Loads two consecutive f32 at `p` widened to f64 — an 8-byte load, so
    /// it stays in bounds even at the very end of a slice.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    unsafe fn load2_ps_pd(p: *const f32) -> __m128d {
        _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(p as *const __m128i)))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_ed_avx2(x: &[f32], y: &[f32]) -> f64 {
        let n = x.len();
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8));
            let dlo = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                _mm256_cvtps_pd(_mm256_castps256_ps128(vy)),
            );
            let dhi = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
            );
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(dlo, dlo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(dhi, dhi));
        }
        let mut acc = combine_avx2(acc_lo, acc_hi);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(*y.get_unchecked(i));
            acc += d * d;
        }
        acc
    }

    /// # Safety
    /// The host must support AVX2, and `y` must be readable for
    /// `x.len()` f32 values. `y` may be unaligned: every load of it is an
    /// unaligned one.
    #[target_feature(enable = "avx2")]
    pub unsafe fn ed_early_abandon_avx2(x: &[f32], y: *const f32, sq_bound: f64) -> Option<f64> {
        let n = x.len();
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            let vy = _mm256_loadu_ps(y.add(c * 8));
            let dlo = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                _mm256_cvtps_pd(_mm256_castps256_ps128(vy)),
            );
            let dhi = _mm256_sub_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
            );
            acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(dlo, dlo));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(dhi, dhi));
            // Same cadence as scalar: every second chunk, strict >.
            if c % 2 == 1 && combine_avx2(acc_lo, acc_hi) > sq_bound {
                return None;
            }
        }
        let mut acc = combine_avx2(acc_lo, acc_hi);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(y.add(i).read_unaligned());
            acc += d * d;
        }
        if acc > sq_bound {
            return None;
        }
        Some(acc)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_f32_avx2(v: &[f32]) -> f64 {
        let n = v.len();
        let chunks = n / 8;
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let vv = _mm256_loadu_ps(v.as_ptr().add(c * 8));
            acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(vv)));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(vv, 1)));
        }
        let mut acc = combine_avx2(acc_lo, acc_hi);
        for i in chunks * 8..n {
            acc += f64::from(*v.get_unchecked(i));
        }
        acc
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dist_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let chunks = n / 4;
        let mut accv = _mm256_setzero_pd();
        for c in 0..chunks {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(a.as_ptr().add(c * 4)),
                _mm256_loadu_pd(b.as_ptr().add(c * 4)),
            );
            accv = _mm256_add_pd(accv, _mm256_mul_pd(d, d));
        }
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), accv);
        let mut acc = (out[0] + out[2]) + (out[1] + out[3]);
        for i in chunks * 4..n {
            let d = *a.get_unchecked(i) - *b.get_unchecked(i);
            acc += d * d;
        }
        acc
    }

    #[target_feature(enable = "sse4.1")]
    pub unsafe fn sq_ed_sse(x: &[f32], y: &[f32]) -> f64 {
        let n = x.len();
        let chunks = n / 8;
        let mut la = _mm_setzero_pd();
        let mut lb = _mm_setzero_pd();
        let mut lc = _mm_setzero_pd();
        let mut ld = _mm_setzero_pd();
        for c in 0..chunks {
            let px = x.as_ptr().add(c * 8);
            let py = y.as_ptr().add(c * 8);
            let d0 = _mm_sub_pd(load2_ps_pd(px), load2_ps_pd(py));
            let d1 = _mm_sub_pd(load2_ps_pd(px.add(2)), load2_ps_pd(py.add(2)));
            let d2 = _mm_sub_pd(load2_ps_pd(px.add(4)), load2_ps_pd(py.add(4)));
            let d3 = _mm_sub_pd(load2_ps_pd(px.add(6)), load2_ps_pd(py.add(6)));
            la = _mm_add_pd(la, _mm_mul_pd(d0, d0));
            lb = _mm_add_pd(lb, _mm_mul_pd(d1, d1));
            lc = _mm_add_pd(lc, _mm_mul_pd(d2, d2));
            ld = _mm_add_pd(ld, _mm_mul_pd(d3, d3));
        }
        let mut acc = combine_sse(la, lb, lc, ld);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(*y.get_unchecked(i));
            acc += d * d;
        }
        acc
    }

    /// # Safety
    /// The host must support SSE4.1, and `y` must be readable for
    /// `x.len()` f32 values. `y` may be unaligned: the pair loads and the
    /// tail reads of it are unaligned ones.
    #[target_feature(enable = "sse4.1")]
    pub unsafe fn ed_early_abandon_sse(x: &[f32], y: *const f32, sq_bound: f64) -> Option<f64> {
        let n = x.len();
        let chunks = n / 8;
        let mut la = _mm_setzero_pd();
        let mut lb = _mm_setzero_pd();
        let mut lc = _mm_setzero_pd();
        let mut ld = _mm_setzero_pd();
        for c in 0..chunks {
            let px = x.as_ptr().add(c * 8);
            let py = y.add(c * 8);
            let d0 = _mm_sub_pd(load2_ps_pd(px), load2_ps_pd(py));
            let d1 = _mm_sub_pd(load2_ps_pd(px.add(2)), load2_ps_pd(py.add(2)));
            let d2 = _mm_sub_pd(load2_ps_pd(px.add(4)), load2_ps_pd(py.add(4)));
            let d3 = _mm_sub_pd(load2_ps_pd(px.add(6)), load2_ps_pd(py.add(6)));
            la = _mm_add_pd(la, _mm_mul_pd(d0, d0));
            lb = _mm_add_pd(lb, _mm_mul_pd(d1, d1));
            lc = _mm_add_pd(lc, _mm_mul_pd(d2, d2));
            ld = _mm_add_pd(ld, _mm_mul_pd(d3, d3));
            if c % 2 == 1 && combine_sse(la, lb, lc, ld) > sq_bound {
                return None;
            }
        }
        let mut acc = combine_sse(la, lb, lc, ld);
        for i in chunks * 8..n {
            let d = f64::from(*x.get_unchecked(i)) - f64::from(y.add(i).read_unaligned());
            acc += d * d;
        }
        if acc > sq_bound {
            return None;
        }
        Some(acc)
    }

    #[target_feature(enable = "sse4.1")]
    pub unsafe fn sum_f32_sse(v: &[f32]) -> f64 {
        let n = v.len();
        let chunks = n / 8;
        let mut la = _mm_setzero_pd();
        let mut lb = _mm_setzero_pd();
        let mut lc = _mm_setzero_pd();
        let mut ld = _mm_setzero_pd();
        for c in 0..chunks {
            let p = v.as_ptr().add(c * 8);
            la = _mm_add_pd(la, load2_ps_pd(p));
            lb = _mm_add_pd(lb, load2_ps_pd(p.add(2)));
            lc = _mm_add_pd(lc, load2_ps_pd(p.add(4)));
            ld = _mm_add_pd(ld, load2_ps_pd(p.add(6)));
        }
        let mut acc = combine_sse(la, lb, lc, ld);
        for i in chunks * 8..n {
            acc += f64::from(*v.get_unchecked(i));
        }
        acc
    }

    #[target_feature(enable = "sse4.1")]
    pub unsafe fn sq_dist_f64_sse(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let chunks = n / 4;
        let mut la = _mm_setzero_pd();
        let mut lb = _mm_setzero_pd();
        for c in 0..chunks {
            let pa = a.as_ptr().add(c * 4);
            let pb = b.as_ptr().add(c * 4);
            let d0 = _mm_sub_pd(_mm_loadu_pd(pa), _mm_loadu_pd(pb));
            let d1 = _mm_sub_pd(_mm_loadu_pd(pa.add(2)), _mm_loadu_pd(pb.add(2)));
            la = _mm_add_pd(la, _mm_mul_pd(d0, d0));
            lb = _mm_add_pd(lb, _mm_mul_pd(d1, d1));
        }
        let t = _mm_add_pd(la, lb); // [l0+l2, l1+l3]
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), t);
        let mut acc = out[0] + out[1];
        for i in chunks * 4..n {
            let d = *a.get_unchecked(i) - *b.get_unchecked(i);
            acc += d * d;
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Tier-explicit entry points
// ---------------------------------------------------------------------------

/// [`sq_ed`] on an explicit tier.
///
/// # Panics
/// If the slices differ in length, or `tier` is unsupported on this host.
#[inline]
pub fn sq_ed_with(tier: Dispatch, x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "ED requires equal-length series");
    match tier {
        Dispatch::Scalar => sq_ed_scalar(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `force`/`current` only hand out host-supported tiers;
        // explicit callers are checked here before entering SIMD code.
        Dispatch::Sse41 => {
            assert_supported(tier);
            unsafe { x86::sq_ed_sse(x, y) }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::sq_ed_avx2(x, y) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`ed_early_abandon`] on an explicit tier.
///
/// # Panics
/// If the slices differ in length, or `tier` is unsupported on this host.
#[inline]
pub fn ed_early_abandon_with(tier: Dispatch, x: &[f32], y: &[f32], sq_bound: f64) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "ED requires equal-length series");
    match tier {
        Dispatch::Scalar => ed_early_abandon_scalar(x, |i| y[i], sq_bound),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse41 => {
            assert_supported(tier);
            // SAFETY: the tier is supported (asserted just above), and `y`
            // holds `x.len()` f32 values (asserted on entry).
            unsafe { x86::ed_early_abandon_sse(x, y.as_ptr(), sq_bound) }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            assert_supported(tier);
            // SAFETY: as for the SSE4.1 arm.
            unsafe { x86::ed_early_abandon_avx2(x, y.as_ptr(), sq_bound) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`ed_early_abandon_le`] on an explicit tier.
///
/// # Panics
/// If `y` is not exactly `4 * x.len()` bytes, or `tier` is unsupported on
/// this host.
#[inline]
pub fn ed_early_abandon_le_with(tier: Dispatch, x: &[f32], y: &[u8], sq_bound: f64) -> Option<f64> {
    assert_eq!(y.len(), 4 * x.len(), "ED requires equal-length series");
    match tier {
        Dispatch::Scalar => ed_early_abandon_scalar(x, |i| le_f32_at(y, i), sq_bound),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse41 => {
            assert_supported(tier);
            // SAFETY: the tier is supported (asserted just above); `y`
            // holds `4 * x.len()` bytes (asserted on entry), i.e. `x.len()`
            // f32 values, which the kernel reads only through unaligned
            // loads. x86-64 is little-endian, so the stored bytes are the
            // values' native `f32` representation.
            unsafe { x86::ed_early_abandon_sse(x, y.as_ptr().cast(), sq_bound) }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            assert_supported(tier);
            // SAFETY: as for the SSE4.1 arm.
            unsafe { x86::ed_early_abandon_avx2(x, y.as_ptr().cast(), sq_bound) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`sum_f32`] on an explicit tier.
///
/// # Panics
/// If `tier` is unsupported on this host.
#[inline]
pub fn sum_f32_with(tier: Dispatch, v: &[f32]) -> f64 {
    match tier {
        Dispatch::Scalar => sum_f32_scalar(v),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse41 => {
            assert_supported(tier);
            unsafe { x86::sum_f32_sse(v) }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::sum_f32_avx2(v) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

/// [`sq_dist_f64`] on an explicit tier.
///
/// # Panics
/// If the slices differ in length, or `tier` is unsupported on this host.
#[inline]
pub fn sq_dist_f64_with(tier: Dispatch, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared distance requires equal lengths");
    match tier {
        Dispatch::Scalar => sq_dist_f64_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Sse41 => {
            assert_supported(tier);
            unsafe { x86::sq_dist_f64_sse(a, b) }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            assert_supported(tier);
            unsafe { x86::sq_dist_f64_avx2(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unsupported(tier),
    }
}

#[inline]
fn assert_supported(tier: Dispatch) {
    assert!(
        tier <= detect(),
        "kernel tier {:?} not supported on this host (best: {:?})",
        tier,
        detect()
    );
}

#[cfg(not(target_arch = "x86_64"))]
fn unsupported(tier: Dispatch) -> ! {
    panic!("kernel tier {tier:?} not supported on this architecture")
}

// ---------------------------------------------------------------------------
// Auto-dispatched entry points
// ---------------------------------------------------------------------------

/// Below this length the auto-dispatched entry points route straight to
/// the scalar tier: the vector paths' fixed costs (dispatch load,
/// accumulator setup, lane combine) exceed their per-element win on
/// short inputs like PAA segments and pivot-space points. Because every
/// tier is bit-identical, the cutoff is unobservable in results.
const SIMD_MIN_LEN: usize = 32;

/// Squared Euclidean distance on the current tier.
#[inline]
pub fn sq_ed(x: &[f32], y: &[f32]) -> f64 {
    if x.len() < SIMD_MIN_LEN {
        sq_ed_with(Dispatch::Scalar, x, y)
    } else {
        sq_ed_with(current(), x, y)
    }
}

/// Early-abandoning squared Euclidean distance on the current tier.
#[inline]
pub fn ed_early_abandon(x: &[f32], y: &[f32], sq_bound: f64) -> Option<f64> {
    if x.len() < SIMD_MIN_LEN {
        ed_early_abandon_with(Dispatch::Scalar, x, y, sq_bound)
    } else {
        ed_early_abandon_with(current(), x, y, sq_bound)
    }
}

/// Early-abandoning squared Euclidean distance on the current tier, with
/// `y` given as its little-endian `f32` bytes — a stored record's values,
/// scored straight from the (possibly block-cached) partition image with
/// no decode pass. Bit-identical to [`ed_early_abandon`] on the decoded
/// values.
///
/// # Panics
/// If `y` is not exactly `4 * x.len()` bytes.
#[inline]
pub fn ed_early_abandon_le(x: &[f32], y: &[u8], sq_bound: f64) -> Option<f64> {
    if x.len() < SIMD_MIN_LEN {
        ed_early_abandon_le_with(Dispatch::Scalar, x, y, sq_bound)
    } else {
        ed_early_abandon_le_with(current(), x, y, sq_bound)
    }
}

/// Sum of an f32 slice accumulated in f64 lanes on the current tier —
/// the segment-mean kernel behind PAA extraction.
#[inline]
pub fn sum_f32(v: &[f32]) -> f64 {
    if v.len() < SIMD_MIN_LEN {
        sum_f32_with(Dispatch::Scalar, v)
    } else {
        sum_f32_with(current(), v)
    }
}

/// Squared Euclidean distance between f64 points on the current tier —
/// the pivot-space kernel behind signature extraction.
#[inline]
pub fn sq_dist_f64(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < SIMD_MIN_LEN {
        sq_dist_f64_with(Dispatch::Scalar, a, b)
    } else {
        sq_dist_f64_with(current(), a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, salt: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
                ((x % 1000) as f32 - 500.0) / 37.0
            })
            .collect()
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let first = detect();
        assert_eq!(detect(), first);
        assert!(Dispatch::available().contains(&Dispatch::Scalar));
        assert!(Dispatch::available().contains(&first));
    }

    #[test]
    fn every_available_tier_matches_scalar_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255, 256] {
            let x = series(len, 1);
            let y = series(len, 2);
            let want = sq_ed_with(Dispatch::Scalar, &x, &y);
            let want_sum = sum_f32_with(Dispatch::Scalar, &x);
            for tier in Dispatch::available() {
                assert_eq!(
                    sq_ed_with(tier, &x, &y).to_bits(),
                    want.to_bits(),
                    "sq_ed {tier:?} len {len}"
                );
                assert_eq!(
                    sum_f32_with(tier, &x).to_bits(),
                    want_sum.to_bits(),
                    "sum_f32 {tier:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn force_pins_and_releases_the_auto_path() {
        force(Some(Dispatch::Scalar));
        assert_eq!(current(), Dispatch::Scalar);
        force(None);
        assert_eq!(current(), detect());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        sq_ed(&[1.0], &[1.0, 2.0]);
    }
}
