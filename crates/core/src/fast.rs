//! Fast-tier row kernels: the tolerance-validated speed path.
//!
//! The Exact tier (see [`crate::backend`]) buys bit-identical results
//! across backends, thread counts and tile schedules by forbidding every
//! transform that changes rounding: no FMA contraction, no reassociation,
//! no approximate reciprocals. That contract is also its speed ceiling.
//! Its AVX2 row step already fuses the term and update passes into one
//! traversal, as this tier's does, so what is left is the divider: one
//! `sqrt` and two IEEE divides per cell that nothing is allowed to touch
//! (≈ 0.9 ns/px on the AVX2 bench host; see the `x86` module of
//! [`crate::backend`]).
//!
//! The kernels here implement [`crate::ctx::NumericsPolicy::Fast`], which
//! replaces the byte-equality contract with the validation model of the
//! paper's own quantized 13/9/9-bit datapath: an explicit accuracy bound
//! against the exact reference (energy and duality-gap tolerance, pinned by
//! the workspace tolerance harness) instead of bit comparison. Freed from
//! replaying scalar rounding, the kernels:
//!
//! - **share one reciprocal** across the two normalizing divides of the
//!   dual update (`inv = 1/(1 + τ/θ·|∇|)`, then two multiplies);
//! - **contract with FMA** everywhere a multiply feeds an add;
//! - replace the division with a **hardware reciprocal estimate refined by
//!   one Newton–Raphson step** (`rcp`, ~22–28 accurate bits — far inside
//!   the tier's 1e-3 tolerance), while the square root stays the hardware
//!   instruction: it executes on the divider port the rest of the kernel
//!   leaves idle, so exactness there is free;
//! - run true **16-lane AVX-512F bodies** (the Exact tier delegates AVX-512
//!   to its AVX2 kernels rather than auditing bit-exactness on a third
//!   vector width);
//! - finish the fused term+update row step (`fused_term_update_row`) with
//!   **masked epilogues**, so the remainder columns stay on the vector
//!   path. The masked last column computes `0 − px[w − 2]`, which turns
//!   `−0.0` into `+0.0`; the Exact tier's fused step keeps the scalar
//!   `−px[w − 2]` tail instead.
//!
//! Which iterations run together is not this module's business: every
//! solve, at both tiers and for every pool size, runs K-deep temporally
//! fused wavefronts over row bands on the engine in [`crate::schedule`],
//! which picks these row steps at the Fast tier and the backend's exact
//! rows at the Exact tier.
//!
//! Within one backend the Fast tier is deterministic and **thread-count
//! invariant**: every band runs the same full-width row kernels, so the
//! band split, fusion depth and pool size never change a bit. It is *not*
//! bit-comparable across backends or tile shapes — that is exactly the
//! guarantee the tier trades away. The fast tier applies to the `f32`
//! production kernels; `f64` solves always run exact.
//!
//! The scalar fast bodies are the tier's *portable reference*: SSE2 (which
//! lacks FMA) and non-x86 hosts run them.

use crate::backend::KernelBackend;
use crate::ctx::NumericsPolicy;
use crate::kernels::{self, BandHalo};
use crate::real::{f32_slice, f32_slice_mut, Real};
use crate::schedule::{band_iteration, FastStep};
use std::any::TypeId;

/// The vector body a backend's fast tier actually runs, after runtime
/// feature checks. SSE2 has no FMA, so its fast tier is the scalar fast
/// reference; an AVX-512 request on a host without the full feature set
/// falls to the AVX2 bodies, then scalar.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FastLevel {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn fast_level(backend: KernelBackend) -> FastLevel {
    #[cfg(target_arch = "x86_64")]
    {
        let fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        match backend {
            KernelBackend::Avx512 if backend.is_supported() => return FastLevel::Avx512,
            KernelBackend::Avx512 | KernelBackend::Avx2 if fma => return FastLevel::Avx2,
            _ => {}
        }
    }
    let _ = backend;
    FastLevel::Scalar
}

/// Fast-tier `term = div p − v/θ` for one row (same boundary-rule table as
/// [`kernels::compute_term_row`]). Vector bodies contract the `v·(1/θ)`
/// multiply into the subtraction with FMA.
#[allow(clippy::too_many_arguments)] // mirrors the exact kernel's shape
#[inline]
pub fn compute_term_row_fast(
    backend: KernelBackend,
    px_row: &[f32],
    py_row: &[f32],
    py_above: Option<&[f32]>,
    v_row: &[f32],
    inv_theta: f32,
    last_row: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if out.len() >= 2 {
        match fast_level(backend) {
            // SAFETY: fast_level proved the required CPU features at run
            // time; the slice-length contract matches the exact kernels'.
            FastLevel::Avx512 => unsafe {
                return x86::term_row_avx512(
                    px_row, py_row, py_above, v_row, inv_theta, last_row, out,
                );
            },
            // SAFETY: as above (avx2 + fma detected).
            FastLevel::Avx2 => unsafe {
                return x86::term_row_avx2(
                    px_row, py_row, py_above, v_row, inv_theta, last_row, out,
                );
            },
            FastLevel::Scalar => {}
        }
    }
    let _ = backend;
    // The scalar fast term row is the exact one: it has no divide or sqrt
    // to approximate, and plain Rust must not call `f32::mul_add` (a libm
    // soft-float call without a compile-time FMA target).
    kernels::compute_term_row(px_row, py_row, py_above, v_row, inv_theta, last_row, out);
}

/// Fast-tier semi-implicit projected dual update for one row.
///
/// The defining transform of the tier: the two normalizing divides share
/// one reciprocal (`inv = 1/(1 + τ/θ·|∇|)`, then two multiplies), and the
/// vector bodies produce that reciprocal from a hardware estimate plus one
/// Newton–Raphson step (the norm's square root stays the hardware
/// instruction — it runs on the otherwise-idle divider port).
#[inline]
pub fn update_p_row_fast(
    backend: KernelBackend,
    term_row: &[f32],
    term_below: Option<&[f32]>,
    step_ratio: f32,
    px_row: &mut [f32],
    py_row: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if term_row.len() >= 2 {
        match fast_level(backend) {
            // SAFETY: fast_level proved the required CPU features at run
            // time; the slice-length contract matches the exact kernels'.
            FastLevel::Avx512 => unsafe {
                return x86::update_p_row_avx512(term_row, term_below, step_ratio, px_row, py_row);
            },
            // SAFETY: as above (avx2 + fma detected).
            FastLevel::Avx2 => unsafe {
                return x86::update_p_row_avx2(term_row, term_below, step_ratio, px_row, py_row);
            },
            FastLevel::Scalar => {}
        }
    }
    let _ = backend;
    update_p_row_fast_scalar(term_row, term_below, step_ratio, px_row, py_row);
}

/// The portable fast update body: reassociated shared-reciprocal form, no
/// `mul_add` (which lowers to a libm call when FMA is not a compile-time
/// target feature).
fn update_p_row_fast_scalar(
    term_row: &[f32],
    term_below: Option<&[f32]>,
    step_ratio: f32,
    px_row: &mut [f32],
    py_row: &mut [f32],
) {
    let w = term_row.len();
    debug_assert_eq!(px_row.len(), w);
    debug_assert_eq!(py_row.len(), w);
    if w == 0 {
        return;
    }
    let cell = |x: usize, t1: f32, t2: f32, px_row: &mut [f32], py_row: &mut [f32]| {
        let grad = (t1 * t1 + t2 * t2).sqrt();
        let inv = 1.0 / (1.0 + step_ratio * grad);
        px_row[x] = (px_row[x] + step_ratio * t1) * inv;
        py_row[x] = (py_row[x] + step_ratio * t2) * inv;
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
            cell(w - 1, 0.0, t2, px_row, py_row);
        }
        None => {
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                cell(x, t1, 0.0, px_row, py_row);
            }
            cell(w - 1, 0.0, 0.0, px_row, py_row);
        }
    }
}

/// Fused term+update step: computes the next row's term into `next` while
/// updating the current row against it, collapsing the two per-row passes
/// into one traversal. `py_row` doubles as the next row's upper halo — it
/// is read strictly before the update overwrites it, which is exactly the
/// single-pass machine's old-`p` discipline.
///
/// Per-cell math is identical to running [`compute_term_row_fast`] then
/// [`update_p_row_fast`] (the AVX2 and AVX-512 bodies replicate their lane
/// operations verbatim; other levels literally call them), so fusion is
/// pure scheduling: priming rows, banded runs and wavefronts all stay
/// bitwise coherent with each other.
#[allow(clippy::too_many_arguments)] // the flat-slice shape, as elsewhere
pub(crate) fn fused_term_update_row(
    backend: KernelBackend,
    px_next: &[f32],
    py_next: &[f32],
    v_next: &[f32],
    inv_theta: f32,
    next_is_last: bool,
    cur: &[f32],
    next: &mut [f32],
    step_ratio: f32,
    px_row: &mut [f32],
    py_row: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if cur.len() >= 2 {
        // SAFETY (both arms): fast_level proved the feature at run time;
        // the slice-length contract matches the standalone kernels'.
        match fast_level(backend) {
            FastLevel::Avx512 => unsafe {
                return x86::fused_row_avx512(
                    px_next,
                    py_next,
                    v_next,
                    inv_theta,
                    next_is_last,
                    cur,
                    next,
                    step_ratio,
                    px_row,
                    py_row,
                );
            },
            FastLevel::Avx2 => unsafe {
                return x86::fused_row_avx2(
                    px_next,
                    py_next,
                    v_next,
                    inv_theta,
                    next_is_last,
                    cur,
                    next,
                    step_ratio,
                    px_row,
                    py_row,
                );
            },
            FastLevel::Scalar => {}
        }
    }
    compute_term_row_fast(
        backend,
        px_next,
        py_next,
        Some(py_row),
        v_next,
        inv_theta,
        next_is_last,
        next,
    );
    update_p_row_fast(backend, cur, Some(next), step_ratio, px_row, py_row);
}

/// One fast-tier Chambolle iteration over rows `[r0, r0 + rows)` — the
/// fast twin of [`kernels::fused_band_iteration_on`], with the same band,
/// halo and term-ring structure, and the per-iteration reference the
/// engine's Fast-tier wavefronts are pinned bit-identical to.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub fn fused_band_iteration_fast(
    backend: KernelBackend,
    px_band: &mut [f32],
    py_band: &mut [f32],
    v_band: &[f32],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, f32>,
    inv_theta: f32,
    step_ratio: f32,
    term_a: &mut [f32],
    term_b: &mut [f32],
) {
    let step = FastStep {
        backend,
        inv_theta,
        step_ratio,
    };
    band_iteration(
        &step, px_band, py_band, v_band, w, h, r0, halo, term_a, term_b,
    );
}

/// Tier dispatch for one term row: the Fast tier's FMA term kernel for
/// `f32`, the backend's exact kernel otherwise. Used by solve paths (e.g.
/// the weighted solver) that run row kernels outside the fused band
/// machines.
#[allow(clippy::too_many_arguments)] // mirrors the row kernels' shape
pub(crate) fn term_row_tiered<R: Real>(
    backend: KernelBackend,
    numerics: NumericsPolicy,
    px_row: &[R],
    py_row: &[R],
    py_above: Option<&[R]>,
    v_row: &[R],
    inv_theta: R,
    last_row: bool,
    out: &mut [R],
) {
    if numerics == NumericsPolicy::Fast && TypeId::of::<R>() == TypeId::of::<f32>() {
        compute_term_row_fast(
            backend,
            f32_slice(px_row).expect("R is f32"),
            f32_slice(py_row).expect("R is f32"),
            py_above.map(|s| f32_slice(s).expect("R is f32")),
            f32_slice(v_row).expect("R is f32"),
            inv_theta.to_f64() as f32,
            last_row,
            f32_slice_mut(out).expect("R is f32"),
        );
        return;
    }
    backend.compute_term_row(px_row, py_row, py_above, v_row, inv_theta, last_row, out);
}

/// The x86-64 fast-tier intrinsic bodies (AVX2+FMA and AVX-512F).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use crate::kernels;

    /// The y-divergence shapes, as in the exact kernels.
    pub(super) enum DivY<'a> {
        Zero,
        First(&'a [f32]),
        Interior(&'a [f32], &'a [f32]),
        Last(&'a [f32]),
    }

    impl DivY<'_> {
        #[inline]
        fn at(&self, x: usize) -> f32 {
            match self {
                DivY::Zero => 0.0,
                DivY::First(py) => py[x],
                DivY::Interior(py, above) => py[x] - above[x],
                DivY::Last(above) => -above[x],
            }
        }
    }

    fn div_y_shape<'a>(py: &'a [f32], above: Option<&'a [f32]>, last_row: bool) -> DivY<'a> {
        match (above, last_row) {
            (None, true) => DivY::Zero,
            (None, false) => DivY::First(py),
            (Some(a), false) => DivY::Interior(py, a),
            (Some(a), true) => DivY::Last(a),
        }
    }

    const DY_ZERO: u8 = 0;
    const DY_FIRST: u8 = 1;
    const DY_INTERIOR: u8 = 2;
    const DY_LAST: u8 = 3;

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn term_row_avx2(
        px: &[f32],
        py: &[f32],
        above: Option<&[f32]>,
        v: &[f32],
        inv_theta: f32,
        last_row: bool,
        out: &mut [f32],
    ) {
        let div_y = div_y_shape(py, above, last_row);
        // SAFETY (all arms): the caller's bounds contract is forwarded; the
        // slices passed as dy payloads match each selector's expectations.
        unsafe {
            match &div_y {
                DivY::Zero => term_row_avx2_on::<DY_ZERO>(px, px, px, v, inv_theta, out, &div_y),
                DivY::First(py) => {
                    term_row_avx2_on::<DY_FIRST>(px, py, py, v, inv_theta, out, &div_y)
                }
                DivY::Interior(py, ab) => {
                    term_row_avx2_on::<DY_INTERIOR>(px, py, ab, v, inv_theta, out, &div_y)
                }
                DivY::Last(ab) => {
                    term_row_avx2_on::<DY_LAST>(px, ab, ab, v, inv_theta, out, &div_y)
                }
            }
        }
    }

    /// 8-lane fast term row: `out = (div_x + div_y) − v·(1/θ)` with the
    /// final multiply-subtract contracted into one FMA.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn term_row_avx2_on<const DY: u8>(
        px: &[f32],
        py: &[f32],
        above: &[f32],
        v: &[f32],
        inv_theta: f32,
        out: &mut [f32],
        div_y: &DivY<'_>,
    ) {
        let w = out.len();
        let it = _mm256_set1_ps(inv_theta);
        out[0] = (px[0] + div_y.at(0)) - v[0] * inv_theta;
        let mut x = 1usize;
        while x + 8 < w {
            // SAFETY: `x + 8 <= w − 1 < len` bounds every unaligned load,
            // including the shifted `px[x − 1]` stencil read.
            unsafe {
                let dx = _mm256_sub_ps(
                    _mm256_loadu_ps(px.as_ptr().add(x)),
                    _mm256_loadu_ps(px.as_ptr().add(x - 1)),
                );
                let dy = match DY {
                    DY_ZERO => _mm256_setzero_ps(),
                    DY_FIRST => _mm256_loadu_ps(py.as_ptr().add(x)),
                    DY_INTERIOR => _mm256_sub_ps(
                        _mm256_loadu_ps(py.as_ptr().add(x)),
                        _mm256_loadu_ps(above.as_ptr().add(x)),
                    ),
                    _ => {
                        _mm256_xor_ps(_mm256_set1_ps(-0.0), _mm256_loadu_ps(above.as_ptr().add(x)))
                    }
                };
                // term = (dx + dy) − v·it, contracted: fnmadd(v, it, dx+dy).
                let sum = _mm256_add_ps(dx, dy);
                let term = _mm256_fnmadd_ps(_mm256_loadu_ps(v.as_ptr().add(x)), it, sum);
                _mm256_storeu_ps(out.as_mut_ptr().add(x), term);
            }
            x += 8;
        }
        // Masked epilogue (`vmaskmovps`): the remaining `w − x` cells
        // (1..=8), including the last column — `m_dx` drops the `px[x]`
        // term on that lane, which is exactly its backward-difference
        // boundary rule.
        let rem = (w - x) as i32;
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let m = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), idx);
        let m_dx = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 1), idx);
        // SAFETY: every masked load's highest active lane indexes at most
        // `w − 1`; `vmaskmovps` suppresses faults on masked lanes.
        unsafe {
            let dx = _mm256_sub_ps(
                _mm256_maskload_ps(px.as_ptr().add(x), m_dx),
                _mm256_maskload_ps(px.as_ptr().add(x - 1), m),
            );
            let dy = match DY {
                DY_ZERO => _mm256_setzero_ps(),
                DY_FIRST => _mm256_maskload_ps(py.as_ptr().add(x), m),
                DY_INTERIOR => _mm256_sub_ps(
                    _mm256_maskload_ps(py.as_ptr().add(x), m),
                    _mm256_maskload_ps(above.as_ptr().add(x), m),
                ),
                _ => _mm256_sub_ps(
                    _mm256_setzero_ps(),
                    _mm256_maskload_ps(above.as_ptr().add(x), m),
                ),
            };
            let sum = _mm256_add_ps(dx, dy);
            let term = _mm256_fnmadd_ps(_mm256_maskload_ps(v.as_ptr().add(x), m), it, sum);
            _mm256_maskstore_ps(out.as_mut_ptr().add(x), m, term);
        }
    }

    /// 8-lane fast dual update: FMA throughout, hardware `sqrt` for the
    /// norm (it runs on the divider port, which this kernel otherwise
    /// leaves idle, so it costs no ALU slot), one `rcp`+NR reciprocal
    /// shared by both component divides.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn update_p_row_avx2(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        let w = term.len();
        let sv = _mm256_set1_ps(step);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let mut x = 0usize;
        while x + 8 < w {
            // SAFETY: `x + 8 <= w − 1 < len` bounds every unaligned load,
            // including the forward-difference `term[x + 1]` read.
            unsafe {
                let t = _mm256_loadu_ps(term.as_ptr().add(x));
                let t1 = _mm256_sub_ps(_mm256_loadu_ps(term.as_ptr().add(x + 1)), t);
                let t2 = match below {
                    Some(b) => _mm256_sub_ps(_mm256_loadu_ps(b.as_ptr().add(x)), t),
                    None => _mm256_setzero_ps(),
                };
                let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
                let grad = _mm256_sqrt_ps(mag);
                let denom = _mm256_fmadd_ps(sv, grad, one);
                // inv = rcp(denom) refined by one NR step: i ← i·(2 − d·i),
                // then shared by both component updates.
                let i0 = _mm256_rcp_ps(denom);
                let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
                let npx = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t1, _mm256_loadu_ps(px.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t2, _mm256_loadu_ps(py.as_ptr().add(x))),
                    inv,
                );
                _mm256_storeu_ps(px.as_mut_ptr().add(x), npx);
                _mm256_storeu_ps(py.as_mut_ptr().add(x), npy);
            }
            x += 8;
        }
        // Masked epilogue (`vmaskmovps`): the remaining `w − x` cells
        // (1..=8) run the same vector math under a lane mask instead of
        // falling to scalar `sqrt`/`div` — at production widths that tail
        // was a third of the row's update cost. `m1` keeps the forward
        // difference only on lanes with a right-hand neighbour, so the
        // last column's `t1 = 0` boundary rule falls out of the zeroed
        // lane. Masked-off lanes compute on zeros (sqrt(0) = 0, denom = 1,
        // so no NaNs) and are never stored.
        let rem = (w - x) as i32;
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let m = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), idx);
        let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 1), idx);
        // SAFETY: every masked load's highest active lane indexes at most
        // `w − 1`; `vmaskmovps` suppresses faults on masked lanes.
        unsafe {
            let t = _mm256_maskload_ps(term.as_ptr().add(x), m);
            let tn = _mm256_maskload_ps(term.as_ptr().add(x + 1), m1);
            let t1 = _mm256_and_ps(_mm256_sub_ps(tn, t), _mm256_castsi256_ps(m1));
            let t2 = match below {
                Some(b) => _mm256_sub_ps(_mm256_maskload_ps(b.as_ptr().add(x), m), t),
                None => _mm256_setzero_ps(),
            };
            let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
            let grad = _mm256_sqrt_ps(mag);
            let denom = _mm256_fmadd_ps(sv, grad, one);
            let i0 = _mm256_rcp_ps(denom);
            let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
            let npx = _mm256_mul_ps(
                _mm256_fmadd_ps(sv, t1, _mm256_maskload_ps(px.as_ptr().add(x), m)),
                inv,
            );
            let npy = _mm256_mul_ps(
                _mm256_fmadd_ps(sv, t2, _mm256_maskload_ps(py.as_ptr().add(x), m)),
                inv,
            );
            _mm256_maskstore_ps(px.as_mut_ptr().add(x), m, npx);
            _mm256_maskstore_ps(py.as_mut_ptr().add(x), m, npy);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn term_row_avx512(
        px: &[f32],
        py: &[f32],
        above: Option<&[f32]>,
        v: &[f32],
        inv_theta: f32,
        last_row: bool,
        out: &mut [f32],
    ) {
        let div_y = div_y_shape(py, above, last_row);
        let w = out.len();
        let it = _mm512_set1_ps(inv_theta);
        let zero = _mm512_setzero_ps();
        out[0] = (px[0] + div_y.at(0)) - v[0] * inv_theta;
        let mut x = 1usize;
        while x + 16 < w {
            // SAFETY: `x + 16 <= w − 1 < len` bounds every unaligned load,
            // including the shifted `px[x − 1]` stencil read.
            unsafe {
                let dx = _mm512_sub_ps(
                    _mm512_loadu_ps(px.as_ptr().add(x)),
                    _mm512_loadu_ps(px.as_ptr().add(x - 1)),
                );
                let dy = match &div_y {
                    DivY::Zero => zero,
                    DivY::First(py) => _mm512_loadu_ps(py.as_ptr().add(x)),
                    DivY::Interior(py, ab) => _mm512_sub_ps(
                        _mm512_loadu_ps(py.as_ptr().add(x)),
                        _mm512_loadu_ps(ab.as_ptr().add(x)),
                    ),
                    // `0 − a`: value-equal negation (the fast tier has no
                    // −0.0 bit contract to preserve).
                    DivY::Last(ab) => _mm512_sub_ps(zero, _mm512_loadu_ps(ab.as_ptr().add(x))),
                };
                let sum = _mm512_add_ps(dx, dy);
                let term = _mm512_fnmadd_ps(_mm512_loadu_ps(v.as_ptr().add(x)), it, sum);
                _mm512_storeu_ps(out.as_mut_ptr().add(x), term);
            }
            x += 16;
        }
        // Masked epilogue: the remaining `w − x` cells (1..=16), including
        // the last column, run the same vector math under a lane mask —
        // `m_dx` drops the `px[x]` term on the last column's lane, which is
        // exactly its backward-difference boundary rule. Production widths
        // would otherwise put ~3% of the row through the scalar path.
        let rem = w - x;
        let m: __mmask16 = 0xFFFFu16 >> (16 - rem);
        let m_dx: __mmask16 = m >> 1;
        // SAFETY: every masked load's highest active lane indexes at most
        // `w − 1`; masked lanes cannot fault.
        unsafe {
            let dx = _mm512_sub_ps(
                _mm512_maskz_loadu_ps(m_dx, px.as_ptr().add(x)),
                _mm512_maskz_loadu_ps(m, px.as_ptr().add(x - 1)),
            );
            let dy = match &div_y {
                DivY::Zero => zero,
                DivY::First(py) => _mm512_maskz_loadu_ps(m, py.as_ptr().add(x)),
                DivY::Interior(py, ab) => _mm512_sub_ps(
                    _mm512_maskz_loadu_ps(m, py.as_ptr().add(x)),
                    _mm512_maskz_loadu_ps(m, ab.as_ptr().add(x)),
                ),
                DivY::Last(ab) => _mm512_sub_ps(zero, _mm512_maskz_loadu_ps(m, ab.as_ptr().add(x))),
            };
            let sum = _mm512_add_ps(dx, dy);
            let term = _mm512_fnmadd_ps(_mm512_maskz_loadu_ps(m, v.as_ptr().add(x)), it, sum);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(x), m, term);
        }
    }

    /// 16-lane fast dual update: the AVX2 body's algorithm on ZMM —
    /// hardware `sqrt` on the divider port for the norm, one NR step on
    /// the higher-precision `rcp14` seed for the shared reciprocal.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn update_p_row_avx512(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        let w = term.len();
        let sv = _mm512_set1_ps(step);
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_ps(2.0);
        let mut x = 0usize;
        while x + 16 < w {
            // SAFETY: `x + 16 <= w − 1 < len` bounds every unaligned load,
            // including the forward-difference `term[x + 1]` read.
            unsafe {
                let t = _mm512_loadu_ps(term.as_ptr().add(x));
                let t1 = _mm512_sub_ps(_mm512_loadu_ps(term.as_ptr().add(x + 1)), t);
                let t2 = match below {
                    Some(b) => _mm512_sub_ps(_mm512_loadu_ps(b.as_ptr().add(x)), t),
                    None => _mm512_setzero_ps(),
                };
                let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
                let grad = _mm512_sqrt_ps(mag);
                let denom = _mm512_fmadd_ps(sv, grad, one);
                let i0 = _mm512_rcp14_ps(denom);
                let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
                let npx = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t1, _mm512_loadu_ps(px.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t2, _mm512_loadu_ps(py.as_ptr().add(x))),
                    inv,
                );
                _mm512_storeu_ps(px.as_mut_ptr().add(x), npx);
                _mm512_storeu_ps(py.as_mut_ptr().add(x), npy);
            }
            x += 16;
        }
        // Masked epilogue: the remaining `w − x` cells (1..=16) run the
        // same vector math under a lane mask instead of falling to scalar
        // `sqrt`/`div` — at production widths that tail was a third of the
        // row's update cost. `m1` keeps the forward difference only on
        // lanes with a right-hand neighbour; the last column's `t1 = 0`
        // boundary rule falls out of the zeroed lane. Masked-off lanes
        // compute on zeros (sqrt(0) = 0, denom = 1, so no NaNs) and are
        // never stored.
        let rem = w - x;
        let m: __mmask16 = 0xFFFFu16 >> (16 - rem);
        let m1: __mmask16 = m >> 1;
        // SAFETY: every masked load's highest active lane indexes at most
        // `w − 1`; masked lanes cannot fault.
        unsafe {
            let t = _mm512_maskz_loadu_ps(m, term.as_ptr().add(x));
            let tn = _mm512_maskz_loadu_ps(m1, term.as_ptr().add(x + 1));
            let t1 = _mm512_maskz_sub_ps(m1, tn, t);
            let t2 = match below {
                Some(b) => _mm512_sub_ps(_mm512_maskz_loadu_ps(m, b.as_ptr().add(x)), t),
                None => _mm512_setzero_ps(),
            };
            let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
            let grad = _mm512_sqrt_ps(mag);
            let denom = _mm512_fmadd_ps(sv, grad, one);
            let i0 = _mm512_rcp14_ps(denom);
            let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
            let npx = _mm512_mul_ps(
                _mm512_fmadd_ps(sv, t1, _mm512_maskz_loadu_ps(m, px.as_ptr().add(x))),
                inv,
            );
            let npy = _mm512_mul_ps(
                _mm512_fmadd_ps(sv, t2, _mm512_maskz_loadu_ps(m, py.as_ptr().add(x))),
                inv,
            );
            _mm512_mask_storeu_ps(px.as_mut_ptr().add(x), m, npx);
            _mm512_mask_storeu_ps(py.as_mut_ptr().add(x), m, npy);
        }
    }

    /// One fused fast-tier row step on ZMM: computes the next row's term
    /// (lane math identical to [`term_row_avx512`], including the
    /// uncontracted scalar expression for column 0 and the last column's
    /// dropped-`px` rule) while updating the current row against it (lane
    /// math identical to [`update_p_row_avx512`]). The two passes' loads,
    /// stores and loop machinery collapse into one traversal; the term
    /// vector just computed feeds the update's `t2` through a one-lane
    /// `valignd` carry instead of a memory round-trip.
    ///
    /// `py_row` is both the update target and the next row's upper halo;
    /// every halo read happens before the update's store of the same
    /// lanes, within one loop iteration, so the old-`p` discipline holds.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fused_row_avx512(
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        inv_theta: f32,
        next_is_last: bool,
        cur: &[f32],
        next: &mut [f32],
        step: f32,
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        let w = cur.len();
        let it = _mm512_set1_ps(inv_theta);
        let sv = _mm512_set1_ps(step);
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_ps(2.0);
        let zero = _mm512_setzero_ps();
        // Column 0 of the next term row: the standalone kernel's exact
        // scalar expression, so priming rows and fused rows agree bitwise.
        let dy0 = if next_is_last {
            -py_row[0]
        } else {
            py_next[0] - py_row[0]
        };
        next[0] = (px_next[0] + dy0) - v_next[0] * inv_theta;
        // Lane 15 of `carry` holds the term value of the cell just left of
        // the current update group; `valignd` shifts it in as lane 0.
        let mut carry = _mm512_set1_ps(next[0]);
        let mut x = 0usize;
        // Full groups: term cells x+1..=x+16 stay left of the last column
        // (x + 16 <= w - 2) and the update's `t1` read of cur[x + 16] stays
        // in bounds.
        while x + 17 < w {
            // SAFETY: the loop bound keeps every unaligned load inside the
            // row; `py_row`'s halo lanes are read before they are stored.
            unsafe {
                let dx = _mm512_sub_ps(
                    _mm512_loadu_ps(px_next.as_ptr().add(x + 1)),
                    _mm512_loadu_ps(px_next.as_ptr().add(x)),
                );
                let above = _mm512_loadu_ps(py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    _mm512_sub_ps(zero, above)
                } else {
                    _mm512_sub_ps(_mm512_loadu_ps(py_next.as_ptr().add(x + 1)), above)
                };
                let sum = _mm512_add_ps(dx, dy);
                let term = _mm512_fnmadd_ps(_mm512_loadu_ps(v_next.as_ptr().add(x + 1)), it, sum);
                _mm512_storeu_ps(next.as_mut_ptr().add(x + 1), term);

                let t = _mm512_loadu_ps(cur.as_ptr().add(x));
                let t1 = _mm512_sub_ps(_mm512_loadu_ps(cur.as_ptr().add(x + 1)), t);
                let below = _mm512_castsi512_ps(_mm512_alignr_epi32::<15>(
                    _mm512_castps_si512(term),
                    _mm512_castps_si512(carry),
                ));
                let t2 = _mm512_sub_ps(below, t);
                let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
                let grad = _mm512_sqrt_ps(mag);
                let denom = _mm512_fmadd_ps(sv, grad, one);
                let i0 = _mm512_rcp14_ps(denom);
                let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
                let npx = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t1, _mm512_loadu_ps(px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t2, _mm512_loadu_ps(py_row.as_ptr().add(x))),
                    inv,
                );
                _mm512_storeu_ps(px_row.as_mut_ptr().add(x), npx);
                _mm512_storeu_ps(py_row.as_mut_ptr().add(x), npy);
                carry = term;
            }
            x += 16;
        }
        // Masked tail: the loop exits with 2..=17 cells left, so up to two
        // masked steps. `ct` counts term cells (x+1..w), `cdx` the ones
        // left of the last column (whose `px` term the mask drops — its
        // backward-difference boundary rule), and `ct` doubles as the
        // update's has-right-neighbour mask.
        while x < w {
            let rem = w - x;
            let cu = rem.min(16);
            let ct = (rem - 1).min(16);
            let cdx = rem.saturating_sub(2).min(16);
            let m_u = (0xFFFFu32 >> (16 - cu)) as __mmask16;
            let m_t = (0xFFFFu32 >> (16 - ct)) as __mmask16;
            let m_dx = (0xFFFFu32 >> (16 - cdx)) as __mmask16;
            // SAFETY: every masked load's highest active lane indexes at
            // most `w − 1`; masked lanes cannot fault. Masked-off lanes
            // compute on zeros (sqrt(0) = 0, denom = 1, so no NaNs) and
            // are never stored.
            unsafe {
                let dx = _mm512_sub_ps(
                    _mm512_maskz_loadu_ps(m_dx, px_next.as_ptr().add(x + 1)),
                    _mm512_maskz_loadu_ps(m_t, px_next.as_ptr().add(x)),
                );
                let above = _mm512_maskz_loadu_ps(m_t, py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    _mm512_sub_ps(zero, above)
                } else {
                    _mm512_sub_ps(
                        _mm512_maskz_loadu_ps(m_t, py_next.as_ptr().add(x + 1)),
                        above,
                    )
                };
                let sum = _mm512_add_ps(dx, dy);
                let term = _mm512_fnmadd_ps(
                    _mm512_maskz_loadu_ps(m_t, v_next.as_ptr().add(x + 1)),
                    it,
                    sum,
                );
                _mm512_mask_storeu_ps(next.as_mut_ptr().add(x + 1), m_t, term);

                let t = _mm512_maskz_loadu_ps(m_u, cur.as_ptr().add(x));
                let tn = _mm512_maskz_loadu_ps(m_t, cur.as_ptr().add(x + 1));
                let t1 = _mm512_maskz_sub_ps(m_t, tn, t);
                let below = _mm512_castsi512_ps(_mm512_alignr_epi32::<15>(
                    _mm512_castps_si512(term),
                    _mm512_castps_si512(carry),
                ));
                let t2 = _mm512_sub_ps(below, t);
                let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
                let grad = _mm512_sqrt_ps(mag);
                let denom = _mm512_fmadd_ps(sv, grad, one);
                let i0 = _mm512_rcp14_ps(denom);
                let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
                let npx = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t1, _mm512_maskz_loadu_ps(m_u, px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t2, _mm512_maskz_loadu_ps(m_u, py_row.as_ptr().add(x))),
                    inv,
                );
                _mm512_mask_storeu_ps(px_row.as_mut_ptr().add(x), m_u, npx);
                _mm512_mask_storeu_ps(py_row.as_mut_ptr().add(x), m_u, npy);
                carry = term;
            }
            x += 16;
        }
    }

    /// One fused fast-tier row step on YMM — [`fused_row_avx512`]'s 8-lane
    /// twin, with the one-lane term carry built from `vperm2f128` +
    /// `palignr` (AVX2 has no full-width `valignd`). Lane math matches the
    /// standalone AVX2 kernels column for column, including the body's
    /// `xor` negation versus the tail's `sub` for a last-shape `div_y`:
    /// the body/tail column split here is the same as theirs, so every
    /// column sees the identical operation either way.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fused_row_avx2(
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        inv_theta: f32,
        next_is_last: bool,
        cur: &[f32],
        next: &mut [f32],
        step: f32,
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        let w = cur.len();
        let it = _mm256_set1_ps(inv_theta);
        let sv = _mm256_set1_ps(step);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        // Column 0 of the next term row: the standalone kernel's exact
        // scalar expression, so priming rows and fused rows agree bitwise.
        let dy0 = if next_is_last {
            -py_row[0]
        } else {
            py_next[0] - py_row[0]
        };
        next[0] = (px_next[0] + dy0) - v_next[0] * inv_theta;
        // Lane 7 of `carry` holds the term value of the cell just left of
        // the current update group.
        let mut carry = _mm256_set1_ps(next[0]);
        let mut x = 0usize;
        // Full groups: term cells x+1..=x+8 stay left of the last column
        // (x + 8 <= w - 2) and the update's `t1` read of cur[x + 8] stays
        // in bounds.
        while x + 9 < w {
            // SAFETY: the loop bound keeps every unaligned load inside the
            // row; `py_row`'s halo lanes are read before they are stored.
            unsafe {
                let dx = _mm256_sub_ps(
                    _mm256_loadu_ps(px_next.as_ptr().add(x + 1)),
                    _mm256_loadu_ps(px_next.as_ptr().add(x)),
                );
                let above = _mm256_loadu_ps(py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    _mm256_xor_ps(_mm256_set1_ps(-0.0), above)
                } else {
                    _mm256_sub_ps(_mm256_loadu_ps(py_next.as_ptr().add(x + 1)), above)
                };
                let sum = _mm256_add_ps(dx, dy);
                let term = _mm256_fnmadd_ps(_mm256_loadu_ps(v_next.as_ptr().add(x + 1)), it, sum);
                _mm256_storeu_ps(next.as_mut_ptr().add(x + 1), term);

                let t = _mm256_loadu_ps(cur.as_ptr().add(x));
                let t1 = _mm256_sub_ps(_mm256_loadu_ps(cur.as_ptr().add(x + 1)), t);
                // below = [carry[7], term[0..7)]: swap in carry's high half,
                // then a per-128-lane byte-align picks one float from it.
                let inter = _mm256_permute2f128_ps(term, carry, 0x03);
                let below = _mm256_castsi256_ps(_mm256_alignr_epi8::<12>(
                    _mm256_castps_si256(term),
                    _mm256_castps_si256(inter),
                ));
                let t2 = _mm256_sub_ps(below, t);
                let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
                let grad = _mm256_sqrt_ps(mag);
                let denom = _mm256_fmadd_ps(sv, grad, one);
                let i0 = _mm256_rcp_ps(denom);
                let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
                let npx = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t1, _mm256_loadu_ps(px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t2, _mm256_loadu_ps(py_row.as_ptr().add(x))),
                    inv,
                );
                _mm256_storeu_ps(px_row.as_mut_ptr().add(x), npx);
                _mm256_storeu_ps(py_row.as_mut_ptr().add(x), npy);
                carry = term;
            }
            x += 8;
        }
        // Masked tail: the loop exits with 2..=9 cells left, so up to two
        // masked steps. `ct` counts term cells (x+1..w), `cdx` the ones
        // left of the last column (whose `px` term the mask drops — its
        // backward-difference boundary rule), and `ct` doubles as the
        // update's has-right-neighbour mask.
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        while x < w {
            let rem = w - x;
            let cu = rem.min(8) as i32;
            let ct = (rem - 1).min(8) as i32;
            let cdx = rem.saturating_sub(2).min(8) as i32;
            let m_u = _mm256_cmpgt_epi32(_mm256_set1_epi32(cu), idx);
            let m_t = _mm256_cmpgt_epi32(_mm256_set1_epi32(ct), idx);
            let m_dx = _mm256_cmpgt_epi32(_mm256_set1_epi32(cdx), idx);
            // SAFETY: every masked load's highest active lane indexes at
            // most `w − 1`; `vmaskmovps` suppresses faults on masked lanes.
            // Masked-off lanes compute on zeros or stale term lanes (all
            // finite) and are never stored.
            unsafe {
                let dx = _mm256_sub_ps(
                    _mm256_maskload_ps(px_next.as_ptr().add(x + 1), m_dx),
                    _mm256_maskload_ps(px_next.as_ptr().add(x), m_t),
                );
                let above = _mm256_maskload_ps(py_row.as_ptr().add(x + 1), m_t);
                let dy = if next_is_last {
                    _mm256_sub_ps(_mm256_setzero_ps(), above)
                } else {
                    _mm256_sub_ps(_mm256_maskload_ps(py_next.as_ptr().add(x + 1), m_t), above)
                };
                let sum = _mm256_add_ps(dx, dy);
                let term =
                    _mm256_fnmadd_ps(_mm256_maskload_ps(v_next.as_ptr().add(x + 1), m_t), it, sum);
                _mm256_maskstore_ps(next.as_mut_ptr().add(x + 1), m_t, term);

                let t = _mm256_maskload_ps(cur.as_ptr().add(x), m_u);
                let tn = _mm256_maskload_ps(cur.as_ptr().add(x + 1), m_t);
                let t1 = _mm256_and_ps(_mm256_sub_ps(tn, t), _mm256_castsi256_ps(m_t));
                let inter = _mm256_permute2f128_ps(term, carry, 0x03);
                let below = _mm256_castsi256_ps(_mm256_alignr_epi8::<12>(
                    _mm256_castps_si256(term),
                    _mm256_castps_si256(inter),
                ));
                let t2 = _mm256_sub_ps(below, t);
                let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
                let grad = _mm256_sqrt_ps(mag);
                let denom = _mm256_fmadd_ps(sv, grad, one);
                let i0 = _mm256_rcp_ps(denom);
                let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
                let npx = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t1, _mm256_maskload_ps(px_row.as_ptr().add(x), m_u)),
                    inv,
                );
                let npy = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t2, _mm256_maskload_ps(py_row.as_ptr().add(x), m_u)),
                    inv,
                );
                _mm256_maskstore_ps(px_row.as_mut_ptr().add(x), m_u, npx);
                _mm256_maskstore_ps(py_row.as_mut_ptr().add(x), m_u, npy);
                carry = term;
            }
            x += 8;
        }
    }

    // Re-exported so `compute_term_row_fast`'s scalar fallback can assert
    // shape parity with the exact kernels in debug builds.
    #[allow(unused_imports)]
    pub(super) use kernels::compute_term_row as _term_reference;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::BelowHalo;
    use crate::solver::DualField;
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn backends() -> Vec<KernelBackend> {
        let mut all = vec![KernelBackend::Scalar];
        for b in [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            if b.is_supported() {
                all.push(b);
            }
        }
        all
    }

    fn random_state(w: usize, h: usize, seed: u64) -> (DualField<f32>, Grid<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = DualField::zeros(w, h);
        p.px = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        p.py = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        (p, v)
    }

    fn fast_full_iteration(
        backend: KernelBackend,
        p: &mut DualField<f32>,
        v: &Grid<f32>,
        inv_theta: f32,
        step: f32,
    ) {
        let (w, h) = v.dims();
        let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
        fused_band_iteration_fast(
            backend,
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
    fn fast_rows_stay_within_tolerance_of_exact() {
        for backend in backends() {
            for w in [1usize, 2, 3, 7, 8, 9, 16, 17, 31, 64, 129] {
                let mut rng = StdRng::seed_from_u64(3 + w as u64);
                let row = |rng: &mut StdRng| -> Vec<f32> {
                    (0..w).map(|_| rng.gen_range(-0.9f32..0.9)).collect()
                };
                let (term, below, px0, py0) =
                    (row(&mut rng), row(&mut rng), row(&mut rng), row(&mut rng));
                for below_opt in [None, Some(below.as_slice())] {
                    let (mut epx, mut epy) = (px0.clone(), py0.clone());
                    kernels::update_p_row(&term, below_opt, 0.248, &mut epx, &mut epy);
                    let (mut fpx, mut fpy) = (px0.clone(), py0.clone());
                    update_p_row_fast(backend, &term, below_opt, 0.248, &mut fpx, &mut fpy);
                    for i in 0..w {
                        assert!(
                            (epx[i] - fpx[i]).abs() < 1e-5 && (epy[i] - fpy[i]).abs() < 1e-5,
                            "{backend:?} w={w} i={i}: exact ({}, {}) vs fast ({}, {})",
                            epx[i],
                            epy[i],
                            fpx[i],
                            fpy[i],
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_term_rows_stay_within_tolerance_of_exact() {
        for backend in backends() {
            for w in [2usize, 8, 9, 17, 33, 65] {
                let mut rng = StdRng::seed_from_u64(11 + w as u64);
                let row = |rng: &mut StdRng| -> Vec<f32> {
                    (0..w).map(|_| rng.gen_range(-0.9f32..0.9)).collect()
                };
                let (px, py, above, v) =
                    (row(&mut rng), row(&mut rng), row(&mut rng), row(&mut rng));
                for (above_opt, last) in [
                    (None, true),
                    (None, false),
                    (Some(above.as_slice()), false),
                    (Some(above.as_slice()), true),
                ] {
                    let mut exact = vec![0.0f32; w];
                    kernels::compute_term_row(&px, &py, above_opt, &v, 4.0, last, &mut exact);
                    let mut fast = vec![0.0f32; w];
                    compute_term_row_fast(backend, &px, &py, above_opt, &v, 4.0, last, &mut fast);
                    for i in 0..w {
                        assert!((exact[i] - fast[i]).abs() < 1e-5, "{backend:?} w={w} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn wavefront_bit_identical_to_sequential_fast_passes() {
        // The engine's invariant at the Fast tier: a depth-k wavefront
        // performs exactly the per-cell operations, in the same order, of
        // k sequential fast passes, on every backend and for every frame
        // shape — including frames shorter than the fusion depth — and
        // whether the rows sit in one block or in three segments.
        use crate::schedule::{Rows, StepPolicy};
        for backend in backends() {
            for (w, h) in [
                (13usize, 11usize),
                (1, 9),
                (9, 1),
                (1, 1),
                (32, 24),
                (17, 2),
                (19, 3),
                (23, 5),
            ] {
                for k in [1u32, 2, 3, 4, 7, 8] {
                    let (p0, v) = random_state(w, h, 500 + w as u64 + k as u64);
                    let mut p_seq = p0.clone();
                    for _ in 0..k {
                        fast_full_iteration(backend, &mut p_seq, &v, 4.0, 0.125);
                    }
                    let params = crate::ChambolleParams::new(0.25, 0.03125, k).unwrap();
                    let step = StepPolicy::new(&params, backend, NumericsPolicy::Fast);
                    let mut rings = Vec::new();
                    let mut p_fused = p0.clone();
                    step.sweep(
                        Rows::whole(p_fused.px.as_mut_slice(), w),
                        Rows::whole(p_fused.py.as_mut_slice(), w),
                        v.as_slice(),
                        k as usize,
                        &mut rings,
                    );
                    // The same rows split as [above | own | below].
                    let (a, b) = (h / 3 * w, (h - h / 4) * w);
                    let mut px = p0.px.as_slice().to_vec();
                    let mut py = p0.py.as_slice().to_vec();
                    let (mut px_above, mut px_below) = (px[..a].to_vec(), px[b..].to_vec());
                    let (mut py_above, mut py_below) = (py[..a].to_vec(), py[b..].to_vec());
                    step.sweep(
                        Rows::new(&mut px_above, &mut px[a..b], &mut px_below, w),
                        Rows::new(&mut py_above, &mut py[a..b], &mut py_below, w),
                        v.as_slice(),
                        k as usize,
                        &mut rings,
                    );
                    let bits = |s: &[f32]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    let seq_px = bits(p_seq.px.as_slice());
                    let seq_py = bits(p_seq.py.as_slice());
                    let tag = format!("{backend:?} {w}x{h} k={k}");
                    assert_eq!(bits(p_fused.px.as_slice()), seq_px, "{tag} px");
                    assert_eq!(bits(p_fused.py.as_slice()), seq_py, "{tag} py");
                    assert_eq!(bits(&px_above), seq_px[..a], "{tag} split px above");
                    assert_eq!(bits(&px[a..b]), seq_px[a..b], "{tag} split px own");
                    assert_eq!(bits(&px_below), seq_px[b..], "{tag} split px below");
                    assert_eq!(bits(&py_above), seq_py[..a], "{tag} split py above");
                    assert_eq!(bits(&py[a..b]), seq_py[a..b], "{tag} split py own");
                    assert_eq!(bits(&py_below), seq_py[b..], "{tag} split py below");
                }
            }
        }
    }

    #[test]
    fn fast_band_with_halos_matches_fast_full_frame() {
        // Fast-tier thread-count invariance: stitched bands with
        // snapshotted halos must bit-match the full-frame fast pass (bands
        // run the same full-width row kernels, so per-cell op order is
        // unchanged).
        let (w, h) = (33usize, 23usize);
        for backend in backends() {
            let (p, v) = random_state(w, h, 321);
            let mut p_ref = p.clone();
            fast_full_iteration(backend, &mut p_ref, &v, 4.0, 0.125);

            for bands in [2usize, 3, 5] {
                let mut pb = p.clone();
                let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
                let snap_py_above: Vec<Vec<f32>> = (1..bands)
                    .map(|b| pb.py.row(bounds[b] - 1).to_vec())
                    .collect();
                let snap_px_below: Vec<Vec<f32>> =
                    (1..bands).map(|b| pb.px.row(bounds[b]).to_vec()).collect();
                let snap_py_below: Vec<Vec<f32>> =
                    (1..bands).map(|b| pb.py.row(bounds[b]).to_vec()).collect();
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
                    let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
                    fused_band_iteration_fast(
                        backend,
                        &mut pb.px.as_mut_slice()[r0 * w..r1 * w],
                        &mut pb.py.as_mut_slice()[r0 * w..r1 * w],
                        &v.as_slice()[r0 * w..r1 * w],
                        w,
                        h,
                        r0,
                        halo,
                        4.0,
                        0.125,
                        &mut ta,
                        &mut tb,
                    );
                }
                assert_eq!(
                    pb.px.as_slice(),
                    p_ref.px.as_slice(),
                    "{backend:?} {bands} bands px"
                );
                assert_eq!(
                    pb.py.as_slice(),
                    p_ref.py.as_slice(),
                    "{backend:?} {bands} bands py"
                );
            }
        }
    }

    #[test]
    fn fast_projection_keeps_the_dual_ball_invariant() {
        // |p| ≤ 1 (+ the tier's tolerance) must survive approximate
        // reciprocals: the NR-refined inv slightly perturbs the projection
        // but cannot let the dual field escape.
        for backend in backends() {
            let (mut p, v) = random_state(31, 17, 77);
            for _ in 0..30 {
                fast_full_iteration(backend, &mut p, &v, 4.0, 0.25);
            }
            assert!(
                p.max_norm() <= 1.0 + 1e-4,
                "{backend:?}: |p| = {} escaped the unit ball",
                p.max_norm()
            );
        }
    }
}
