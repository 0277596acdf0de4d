//! Property test: every SIMD kernel tier is **bit-identical** to scalar.
//!
//! The contract behind `climber_series::kernels`: AVX2 and SSE4.1 paths
//! keep one f64 accumulator per lane position and reduce them in the
//! same fixed pairwise order as the scalar reference, never contracting
//! through FMA. That makes the vectorised kernels drop-in replacements
//! whose results can be compared with `f64::to_bits` — not "close
//! enough", *equal* — over arbitrary finite inputs: negatives,
//! subnormals, huge magnitudes, misaligned subslices, and early-abandon
//! cutoffs that land exactly on a chunk-boundary partial sum.
#![recursion_limit = "1024"]

use climber_series::kernels::{
    self, ed_early_abandon_le_with, ed_early_abandon_with, sq_dist_f64_with, sq_ed_with,
    sum_f32_with, Dispatch,
};
use proptest::prelude::*;

/// Maps a `(selector, magnitude)` pair onto a finite f32 that stresses a
/// specific numeric regime: plain values, exact zeros of both signs,
/// subnormals, and magnitudes large enough that squaring reorders badly
/// under any accumulation scheme other than the pinned one.
fn shape_f32(sel: u8, v: f32) -> f32 {
    match sel % 8 {
        0 => v,
        1 => -v,
        2 => 0.0,
        3 => -0.0,
        // Scaling a [0, 16) magnitude down to ~1e-41 lands in (or near)
        // the subnormal range of f32.
        4 => v * 1e-41,
        5 => -v * 1e-41,
        6 => v * 1e18,
        _ => f32::MIN_POSITIVE * f32::from(sel),
    }
}

/// A vector of "nasty" finite f32s of length `0..512`.
fn nasty_f32s() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((any::<u8>(), 0f32..16.0), 0..512)
        .prop_map(|pairs| pairs.into_iter().map(|(s, v)| shape_f32(s, v)).collect())
}

/// Two equal-length nasty vectors plus a misalignment offset in `0..8`.
/// Slicing both sides at the offset guarantees the vector loads in the
/// SIMD paths routinely start off any 16/32-byte boundary.
fn nasty_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, usize)> {
    (
        prop::collection::vec(
            ((any::<u8>(), 0f32..16.0), (any::<u8>(), 0f32..16.0)),
            0..512,
        ),
        0usize..8,
    )
        .prop_map(|(pairs, off)| {
            let (xs, ys): (Vec<f32>, Vec<f32>) = pairs
                .into_iter()
                .map(|((sx, vx), (sy, vy))| (shape_f32(sx, vx), shape_f32(sy, vy)))
                .unzip();
            (xs, ys, off)
        })
}

/// Every tier the host can actually run, paired against the scalar
/// reference. On a plain x86-64 host this exercises SSE4.1 and AVX2;
/// elsewhere it degenerates to scalar-vs-scalar (trivially true) so the
/// suite stays green on any architecture.
fn tiers() -> Vec<Dispatch> {
    Dispatch::available()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sq_ed` is bit-identical across tiers on misaligned nasty slices.
    #[test]
    fn sq_ed_bitwise_equal_across_tiers(input in nasty_pair()) {
        let (xs, ys, off) = input;
        let start = off.min(xs.len());
        let (x, y) = (&xs[start..], &ys[start..]);
        let want = sq_ed_with(Dispatch::Scalar, x, y);
        for tier in tiers() {
            let got = sq_ed_with(tier, x, y);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "sq_ed {} = {got:e} != scalar {want:e} (len {})", tier.name(), x.len()
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sum_f32` (the PAA segment-mean kernel) is bit-identical across
    /// tiers, including on subslices that misalign every vector load.
    #[test]
    fn sum_f32_bitwise_equal_across_tiers(vs in nasty_f32s(), off in 0usize..8) {
        let v = &vs[off.min(vs.len())..];
        let want = sum_f32_with(Dispatch::Scalar, v);
        for tier in tiers() {
            let got = sum_f32_with(tier, v);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "sum_f32 {} = {got:e} != scalar {want:e} (len {})", tier.name(), v.len()
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sq_dist_f64` (the pivot-space kernel) is bit-identical across
    /// tiers over signed/subnormal/large f64 inputs.
    #[test]
    fn sq_dist_f64_bitwise_equal_across_tiers(
        pairs in prop::collection::vec(
            ((any::<u8>(), 0f64..16.0), (any::<u8>(), 0f64..16.0)), 0..300),
        off in 0usize..4,
    ) {
        let shape = |sel: u8, v: f64| -> f64 {
            match sel % 6 {
                0 => v,
                1 => -v,
                2 => 0.0,
                3 => v * 1e-310, // subnormal f64 territory
                4 => v * 1e150,
                _ => -v * 1e150,
            }
        };
        let (xs, ys): (Vec<f64>, Vec<f64>) = pairs
            .into_iter()
            .map(|((sx, vx), (sy, vy))| (shape(sx, vx), shape(sy, vy)))
            .unzip();
        let start = off.min(xs.len());
        let (a, b) = (&xs[start..], &ys[start..]);
        let want = sq_dist_f64_with(Dispatch::Scalar, a, b);
        for tier in tiers() {
            let got = sq_dist_f64_with(tier, a, b);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "sq_dist_f64 {} = {got:e} != scalar {want:e} (len {})", tier.name(), a.len()
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ed_early_abandon` agrees with scalar on *whether* it abandons and
    /// on the exact bits of the distance when it does not — for generic
    /// bounds spanning "always abandon" to "never abandon".
    #[test]
    fn ed_early_abandon_bitwise_equal_across_tiers(
        input in nasty_pair(),
        scale in 0f64..2.0,
    ) {
        let (xs, ys, off) = input;
        let start = off.min(xs.len());
        let (x, y) = (&xs[start..], &ys[start..]);
        let full = sq_ed_with(Dispatch::Scalar, x, y);
        let bounds = [0.0, full * scale, full, f64::INFINITY];
        for bound in bounds {
            let want = ed_early_abandon_with(Dispatch::Scalar, x, y, bound);
            for tier in tiers() {
                let got = ed_early_abandon_with(tier, x, y, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits), want.map(f64::to_bits),
                    "ed_early_abandon {} bound {bound:e} (len {})", tier.name(), x.len()
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Early-abandon cutoffs placed **exactly on chunk-boundary partial
    /// sums**: the kernel checks the combined lanes after every second
    /// 8-wide chunk, so a bound equal to the partial sum at a 16-element
    /// boundary sits precisely on the `>` comparison's knife edge. A
    /// prefix of length 16·c has no tail, so the scalar `sq_ed` of that
    /// prefix *is* the partial the check compares against — every tier
    /// must make the same keep/abandon call on it, and on its nearest
    /// representable neighbours.
    #[test]
    fn ed_early_abandon_chunk_boundary_cutoffs(input in nasty_pair()) {
        let (xs, ys, _) = input;
        let (x, y) = (&xs[..], &ys[..]);
        let mut bounds = vec![f64::INFINITY];
        let mut c = 16;
        while c <= x.len() {
            let partial = sq_ed_with(Dispatch::Scalar, &x[..c], &y[..c]);
            bounds.push(partial);
            bounds.push(f64::from_bits(partial.to_bits().saturating_sub(1)));
            bounds.push(f64::from_bits(partial.to_bits() + 1));
            c += 16;
        }
        for bound in bounds {
            let want = ed_early_abandon_with(Dispatch::Scalar, x, y, bound);
            for tier in tiers() {
                let got = ed_early_abandon_with(tier, x, y, bound);
                prop_assert_eq!(
                    got.map(f64::to_bits), want.map(f64::to_bits),
                    "ed_early_abandon {} at boundary bound {bound:e} (len {})",
                    tier.name(), x.len()
                );
            }
        }
    }
}

/// Packs `records` the way a partition stores them — `id u64 | len × f32`,
/// all little-endian, at a stride of `8 + 4·len` — behind `lead` filler
/// bytes, and returns the buffer with each record's value-byte range.
fn pack_records(lead: usize, records: &[&[f32]]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let mut bytes = vec![0xA5u8; lead];
    let mut ranges = Vec::new();
    for (id, vals) in records.iter().enumerate() {
        bytes.extend_from_slice(&(id as u64).to_le_bytes());
        let start = bytes.len();
        for v in *vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        ranges.push(start..bytes.len());
    }
    (bytes, ranges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `ed_early_abandon_le` — the kernel that scores a stored record
    /// straight from its little-endian bytes — equals `ed_early_abandon`
    /// on the decoded values bit for bit, on every tier and through the
    /// auto-dispatched entry points (which switch to scalar below 32
    /// values). Records sit at the on-disk stride behind `lead` filler
    /// bytes, so over the cases their values start at every byte offset
    /// modulo a vector width; lengths cover 0..512 with every tail, and
    /// the cutoffs include the partial sums at each 16-value chunk
    /// boundary and their neighbouring bit patterns.
    #[test]
    fn ed_early_abandon_le_matches_decoded_values(
        input in nasty_pair(),
        lead in 0usize..32,
        scale in 0f64..2.0,
    ) {
        let (xs, ys, _) = input;
        let reversed: Vec<f32> = ys.iter().rev().copied().collect();
        let records: [&[f32]; 3] = [&ys, &xs, &reversed];
        let (bytes, ranges) = pack_records(lead, &records);
        for (vals, range) in records.iter().zip(&ranges) {
            let rec = &bytes[range.clone()];
            let full = sq_ed_with(Dispatch::Scalar, &xs, vals);
            let mut bounds = vec![0.0, full * scale, full, f64::INFINITY];
            let mut c = 16;
            while c <= xs.len() {
                let partial = sq_ed_with(Dispatch::Scalar, &xs[..c], &vals[..c]);
                bounds.push(partial);
                bounds.push(f64::from_bits(partial.to_bits().saturating_sub(1)));
                bounds.push(f64::from_bits(partial.to_bits() + 1));
                c += 16;
            }
            for bound in bounds {
                for tier in tiers() {
                    let want = ed_early_abandon_with(tier, &xs, vals, bound);
                    let got = ed_early_abandon_le_with(tier, &xs, rec, bound);
                    prop_assert_eq!(
                        got.map(f64::to_bits), want.map(f64::to_bits),
                        "ed_early_abandon_le {} bound {bound:e} (len {}, lead {lead})",
                        tier.name(), xs.len()
                    );
                }
                prop_assert_eq!(
                    kernels::ed_early_abandon_le(&xs, rec, bound).map(f64::to_bits),
                    kernels::ed_early_abandon(&xs, vals, bound).map(f64::to_bits),
                    "auto-dispatched ed_early_abandon_le bound {bound:e} (len {})", xs.len()
                );
            }
        }
    }
}

/// A record whose byte length is not four times the query's is refused,
/// like a length mismatch between two `f32` slices.
#[test]
#[should_panic(expected = "equal-length")]
fn ed_early_abandon_le_rejects_a_short_record() {
    kernels::ed_early_abandon_le(&[1.0, 2.0], &[0u8; 7], f64::INFINITY);
}

/// The forced-dispatch hook pins the auto path to the requested tier and
/// releases it again. Because every tier is bit-identical (the properties
/// above), concurrently running tests observe no behavioural difference
/// while the pin is held — only this test inspects `current()`.
#[test]
fn force_pins_auto_dispatch_to_each_tier() {
    let detected = kernels::detect();
    let x: Vec<f32> = (0..97).map(|i| (i as f32).sin() * 3.0).collect();
    let y: Vec<f32> = (0..97).map(|i| (i as f32).cos() * 3.0).collect();
    let want = sq_ed_with(Dispatch::Scalar, &x, &y).to_bits();
    for tier in Dispatch::available() {
        kernels::force(Some(tier));
        assert_eq!(kernels::current(), tier);
        assert_eq!(
            kernels::sq_ed(&x, &y).to_bits(),
            want,
            "auto path forced to {} disagrees with scalar",
            tier.name()
        );
    }
    kernels::force(None);
    assert_eq!(kernels::current(), detected);
}
