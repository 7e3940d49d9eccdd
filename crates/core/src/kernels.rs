//! Fused row kernels for the Chambolle dual update.
//!
//! [`crate::solver::compute_term_into`] and
//! [`crate::solver::update_p_inplace`] walk the frame with bounds-checked
//! 2-D indexing, three passes and an intermediate full-frame `term` grid.
//! The kernels here compute the same arithmetic — *bit-identically*, with
//! the same operation order and grouping — over flat `&[R]` row slices:
//!
//! - [`compute_term_row`]: `term = div p − v/θ` for one row, with the
//!   backward-difference boundary rules resolved once per row instead of
//!   once per cell;
//! - [`update_p_row`]: the semi-implicit projected dual update for one row
//!   (forward differences, norm, projection — one fused pass);
//! - [`fused_band_iteration`]: one full Chambolle iteration over a band of
//!   rows, rolling two term-row buffers so no per-iteration term grid is
//!   ever allocated. The term for row `y+1` is computed *before* row `y` is
//!   updated, so every term value is derived from old-`p` data exactly as
//!   the two-pass reference does.
//!
//! A band only reads its own rows plus a fixed halo (old `py` row `r0−1`
//! above; old `px`/`py` rows `r1` below), which the caller snapshots
//! before running bands concurrently. The solvers themselves run K
//! iterations per pass on the engine in [`crate::schedule`], which uses
//! the same row kernels.
//!
//! The kernels implement the [`crate::solver::Convention::Standard`] sign
//! convention (the convergent one every production path uses); the literal
//! paper-prose variant stays available through the reference two-pass
//! functions.

use crate::backend::KernelBackend;
use crate::real::Real;
use crate::schedule::{band_iteration, ExactStep};

/// `term = div p − v/θ` for one row.
///
/// `py_above` is the `py` row directly above (`None` for the first row);
/// `last_row` says whether this is the frame's last row. Both together
/// select the backward-difference y-boundary rule:
///
/// | `py_above` | `last_row` | `div_y`                    |
/// |------------|------------|-----------------------------|
/// | `None`     | `true`     | `0` (single-row frame)      |
/// | `None`     | `false`    | `py[x]` (first row)         |
/// | `Some(a)`  | `false`    | `py[x] − a[x]` (interior)   |
/// | `Some(a)`  | `true`     | `−a[x]` (last row)          |
///
/// # Panics
///
/// Panics in debug builds if the slice lengths disagree.
#[inline]
pub fn compute_term_row<R: Real>(
    px_row: &[R],
    py_row: &[R],
    py_above: Option<&[R]>,
    v_row: &[R],
    inv_theta: R,
    last_row: bool,
    out: &mut [R],
) {
    debug_assert_eq!(px_row.len(), out.len());
    debug_assert_eq!(py_row.len(), out.len());
    debug_assert_eq!(v_row.len(), out.len());
    match (py_above, last_row) {
        (None, true) => term_row_impl(px_row, v_row, inv_theta, out, |_| R::ZERO),
        (None, false) => term_row_impl(px_row, v_row, inv_theta, out, |x| py_row[x]),
        (Some(above), false) => {
            debug_assert_eq!(above.len(), out.len());
            term_row_impl(px_row, v_row, inv_theta, out, |x| py_row[x] - above[x])
        }
        (Some(above), true) => {
            debug_assert_eq!(above.len(), out.len());
            term_row_impl(px_row, v_row, inv_theta, out, |x| -above[x])
        }
    }
}

/// Shared x-sweep: resolves the backward-difference x-boundary rules once
/// per row and folds the selected `div_y` in with the reference grouping
/// `(div_x + div_y) − v·(1/θ)`.
#[inline]
fn term_row_impl<R: Real>(
    px_row: &[R],
    v_row: &[R],
    inv_theta: R,
    out: &mut [R],
    div_y: impl Fn(usize) -> R,
) {
    let w = out.len();
    if w == 0 {
        return;
    }
    if w == 1 {
        // A single column has a zero x-gradient, so its adjoint is zero.
        out[0] = (R::ZERO + div_y(0)) - v_row[0] * inv_theta;
        return;
    }
    out[0] = (px_row[0] + div_y(0)) - v_row[0] * inv_theta;
    for x in 1..w - 1 {
        out[x] = ((px_row[x] - px_row[x - 1]) + div_y(x)) - v_row[x] * inv_theta;
    }
    out[w - 1] = (-px_row[w - 2] + div_y(w - 1)) - v_row[w - 1] * inv_theta;
}

/// The semi-implicit projected dual update for one row:
/// `p ← (p + τ/θ·∇term) / (1 + τ/θ·|∇term|)`.
///
/// `term_below` is the term row directly below (`None` for the frame's last
/// row, where the forward y-difference is zero).
///
/// # Panics
///
/// Panics in debug builds if the slice lengths disagree.
#[inline]
pub fn update_p_row<R: Real>(
    term_row: &[R],
    term_below: Option<&[R]>,
    step_ratio: R,
    px_row: &mut [R],
    py_row: &mut [R],
) {
    let w = term_row.len();
    debug_assert_eq!(px_row.len(), w);
    debug_assert_eq!(py_row.len(), w);
    if w == 0 {
        return;
    }
    let cell = |x: usize, t1: R, t2: R, px_row: &mut [R], py_row: &mut [R]| {
        let grad = (t1 * t1 + t2 * t2).sqrt();
        let denom = R::ONE + step_ratio * grad;
        px_row[x] = (px_row[x] + step_ratio * t1) / denom;
        py_row[x] = (py_row[x] + step_ratio * t2) / denom;
    };
    match term_below {
        Some(below) => {
            debug_assert_eq!(below.len(), w);
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                let t2 = below[x] - term_row[x];
                cell(x, t1, t2, px_row, py_row);
            }
            let t2 = below[w - 1] - term_row[w - 1];
            cell(w - 1, R::ZERO, t2, px_row, py_row);
        }
        None => {
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                cell(x, t1, R::ZERO, px_row, py_row);
            }
            cell(w - 1, R::ZERO, R::ZERO, px_row, py_row);
        }
    }
}

/// Snapshot of the old-`p` rows a band reads beyond its own row range.
///
/// When bands run concurrently, their neighbors mutate these rows in place;
/// the caller copies them *before* launching the bands so every term value
/// a band derives is old-`p` data, exactly as the sequential two-pass
/// reference computes it.
pub struct BandHalo<'a, R> {
    /// Old `py` row `r0 − 1` (required iff the band does not start at the
    /// frame's first row).
    pub py_above: Option<&'a [R]>,
    /// Old rows at `r1` (required iff the band does not end at the frame's
    /// last row).
    pub below: Option<BelowHalo<'a, R>>,
}

/// The three row slices of [`BandHalo::below`]: the frame row just past the
/// band's end, needed to form the last term row the band consumes.
pub struct BelowHalo<'a, R> {
    /// Old `px` row `r1`.
    pub px: &'a [R],
    /// Old `py` row `r1`.
    pub py: &'a [R],
    /// `v` row `r1` (immutable in the caller; passed for uniformity).
    pub v: &'a [R],
}

/// One fused Chambolle iteration over rows `[r0, r0 + rows)` of a `w × h`
/// frame, where `px_band`/`py_band`/`v_band` are flat row-major slices
/// covering exactly those rows.
///
/// Rolls two caller-provided term-row buffers (`term_a`, `term_b`, each of
/// length `w`): the term for row `y + 1` is computed — from still-old `p`
/// values — before row `y` is updated, so the result is bit-identical to
/// running [`crate::solver::compute_term_into`] followed by
/// [`crate::solver::update_p_inplace`] on the whole frame.
///
/// With `r0 == 0` and `rows == h` (and an empty halo) this *is* one whole
/// sequential iteration, minus the full-frame term allocation.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `w`/`rows`, or if a
/// required halo row is missing.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub fn fused_band_iteration<R: Real>(
    px_band: &mut [R],
    py_band: &mut [R],
    v_band: &[R],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, R>,
    inv_theta: R,
    step_ratio: R,
    term_a: &mut [R],
    term_b: &mut [R],
) {
    fused_band_iteration_on(
        KernelBackend::Scalar,
        px_band,
        py_band,
        v_band,
        w,
        h,
        r0,
        halo,
        inv_theta,
        step_ratio,
        term_a,
        term_b,
    );
}

/// [`fused_band_iteration`] with the term and update rows computed by
/// `backend`. Every backend is bit-identical to
/// [`crate::backend::KernelBackend::Scalar`], so this only changes speed.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub fn fused_band_iteration_on<R: Real>(
    backend: KernelBackend,
    px_band: &mut [R],
    py_band: &mut [R],
    v_band: &[R],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, R>,
    inv_theta: R,
    step_ratio: R,
    term_a: &mut [R],
    term_b: &mut [R],
) {
    let step = ExactStep {
        backend,
        inv_theta,
        step_ratio,
    };
    band_iteration(
        &step, px_band, py_band, v_band, w, h, r0, halo, term_a, term_b,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{compute_term_into, update_p_inplace, Convention, DualField};
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_state(w: usize, h: usize, seed: u64) -> (DualField<f32>, Grid<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = DualField::zeros(w, h);
        p.px = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        p.py = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        (p, v)
    }

    fn reference_iteration(p: &mut DualField<f32>, v: &Grid<f32>, inv_theta: f32, step: f32) {
        let mut term = Grid::new(v.width(), v.height(), 0.0f32);
        compute_term_into(p, v, inv_theta, &mut term);
        update_p_inplace(p, &term, step, Convention::Standard);
    }

    fn fused_full_iteration(p: &mut DualField<f32>, v: &Grid<f32>, inv_theta: f32, step: f32) {
        let (w, h) = v.dims();
        let mut ta = vec![0.0f32; w];
        let mut tb = vec![0.0f32; w];
        fused_band_iteration(
            p.px.as_mut_slice(),
            p.py.as_mut_slice(),
            v.as_slice(),
            w,
            h,
            0,
            BandHalo {
                py_above: None,
                below: None,
            },
            inv_theta,
            step,
            &mut ta,
            &mut tb,
        );
    }

    #[test]
    fn term_row_matches_reference_all_row_kinds() {
        for (w, h) in [(7usize, 5usize), (1, 4), (6, 1), (1, 1), (2, 2)] {
            let (p, v) = random_state(w, h, 42 + (w * h) as u64);
            let inv_theta = 1.0f32 / 0.25;
            let mut reference = Grid::new(w, h, 0.0f32);
            compute_term_into(&p, &v, inv_theta, &mut reference);
            for y in 0..h {
                let mut out = vec![0.0f32; w];
                let above = (y > 0).then(|| p.py.row(y - 1));
                compute_term_row(
                    p.px.row(y),
                    p.py.row(y),
                    above,
                    v.row(y),
                    inv_theta,
                    y + 1 == h,
                    &mut out,
                );
                assert_eq!(out.as_slice(), reference.row(y), "{w}x{h} row {y}");
            }
        }
    }

    #[test]
    fn update_row_matches_reference_all_row_kinds() {
        for (w, h) in [(7usize, 5usize), (1, 4), (6, 1), (1, 1)] {
            let (mut p, v) = random_state(w, h, 7 + w as u64);
            let inv_theta = 4.0f32;
            let step = 0.25f32 / 0.25;
            let mut term = Grid::new(w, h, 0.0f32);
            compute_term_into(&p, &v, inv_theta, &mut term);
            let mut p_ref = p.clone();
            update_p_inplace(&mut p_ref, &term, step, Convention::Standard);
            for y in 0..h {
                let below = (y + 1 < h).then(|| term.row(y + 1).to_vec());
                update_p_row(
                    term.row(y),
                    below.as_deref(),
                    step,
                    p.px.row_mut(y),
                    p.py.row_mut(y),
                );
            }
            assert_eq!(p.px.as_slice(), p_ref.px.as_slice(), "{w}x{h} px");
            assert_eq!(p.py.as_slice(), p_ref.py.as_slice(), "{w}x{h} py");
        }
    }

    #[test]
    fn fused_full_frame_is_bit_identical_to_two_pass() {
        for (w, h) in [(13usize, 11usize), (1, 9), (9, 1), (1, 1), (32, 24)] {
            let (mut p_fused, v) = random_state(w, h, 1000 + w as u64);
            let mut p_ref = p_fused.clone();
            for _ in 0..5 {
                reference_iteration(&mut p_ref, &v, 4.0, 1.0);
                fused_full_iteration(&mut p_fused, &v, 4.0, 1.0);
            }
            assert_eq!(p_fused.px.as_slice(), p_ref.px.as_slice(), "{w}x{h}");
            assert_eq!(p_fused.py.as_slice(), p_ref.py.as_slice(), "{w}x{h}");
        }
    }

    #[test]
    fn banded_iteration_with_halos_is_bit_identical() {
        // Split a frame into bands, snapshot halos, run bands in arbitrary
        // order — the stitched result must match the whole-frame reference.
        let (w, h) = (17usize, 23usize);
        let (p, v) = random_state(w, h, 99);
        let mut p_ref = p.clone();
        reference_iteration(&mut p_ref, &v, 4.0, 1.0);

        for bands in [2usize, 3, 5, 8] {
            let mut p_band = p.clone();
            let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
            // Snapshot halos from old p before any band runs.
            let snap_py_above: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.py.row(bounds[b] - 1).to_vec())
                .collect();
            let snap_px_below: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.px.row(bounds[b]).to_vec())
                .collect();
            let snap_py_below: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.py.row(bounds[b]).to_vec())
                .collect();
            // Run bands in reverse order to prove order-independence.
            for b in (0..bands).rev() {
                let (r0, r1) = (bounds[b], bounds[b + 1]);
                if r0 == r1 {
                    continue;
                }
                let halo = BandHalo {
                    py_above: (r0 > 0).then(|| snap_py_above[b - 1].as_slice()),
                    below: (r1 < h).then(|| BelowHalo {
                        px: snap_px_below[b].as_slice(),
                        py: snap_py_below[b].as_slice(),
                        v: v.row(r1),
                    }),
                };
                let mut ta = vec![0.0f32; w];
                let mut tb = vec![0.0f32; w];
                fused_band_iteration(
                    &mut p_band.px.as_mut_slice()[r0 * w..r1 * w],
                    &mut p_band.py.as_mut_slice()[r0 * w..r1 * w],
                    &v.as_slice()[r0 * w..r1 * w],
                    w,
                    h,
                    r0,
                    halo,
                    4.0,
                    1.0,
                    &mut ta,
                    &mut tb,
                );
            }
            assert_eq!(p_band.px.as_slice(), p_ref.px.as_slice(), "{bands} bands");
            assert_eq!(p_band.py.as_slice(), p_ref.py.as_slice(), "{bands} bands");
        }
        // Keep the f64 path honest too.
        let mut p64 = DualField::<f64>::zeros(4, 4);
        p64.px = p.px.crop(0, 0, 4, 4).map(|&x| x as f64);
        p64.py = p.py.crop(0, 0, 4, 4).map(|&x| x as f64);
        let v64 = v.crop(0, 0, 4, 4).map(|&x| x as f64);
        let mut p64_ref = p64.clone();
        let mut term = Grid::new(4, 4, 0.0f64);
        compute_term_into(&p64_ref, &v64, 4.0, &mut term);
        update_p_inplace(&mut p64_ref, &term, 1.0, Convention::Standard);
        let (mut ta, mut tb) = (vec![0.0f64; 4], vec![0.0f64; 4]);
        fused_band_iteration(
            p64.px.as_mut_slice(),
            p64.py.as_mut_slice(),
            v64.as_slice(),
            4,
            4,
            0,
            BandHalo {
                py_above: None,
                below: None,
            },
            4.0,
            1.0,
            &mut ta,
            &mut tb,
        );
        assert_eq!(p64.px.as_slice(), p64_ref.px.as_slice());
    }

    #[test]
    #[should_panic(expected = "py_above halo required")]
    fn missing_halo_is_rejected() {
        let mut px = vec![0.0f32; 4];
        let mut py = vec![0.0f32; 4];
        let v = vec![0.0f32; 4];
        let (mut ta, mut tb) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        fused_band_iteration(
            &mut px,
            &mut py,
            &v,
            4,
            3,
            1, // starts mid-frame but provides no py_above
            BandHalo {
                py_above: None,
                below: None,
            },
            4.0,
            1.0,
            &mut ta,
            &mut tb,
        );
    }
}
