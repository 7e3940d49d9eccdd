//! Runtime-dispatched SIMD backends for the fused row kernels.
//!
//! A [`KernelBackend`] names one implementation of the hot row kernels in
//! [`crate::kernels`]: the portable scalar reference, 128-bit SSE2,
//! 256-bit AVX2 or 512-bit AVX-512 `std::arch` intrinsics. At the
//! **Exact** numerics tier all of them compute **bit-identical** results
//! (the AVX-512 backend executes the AVX2 exact bodies — dedicated 16-lane
//! kernels exist only at the Fast tier, where byte equality is not the
//! contract):
//!
//! - vector lanes replay the scalar operation order exactly — no fused
//!   multiply-add, no reassociation — and every op used (`add`, `sub`,
//!   `mul`, `div`, `sqrt`, sign-flip via XOR) is correctly rounded
//!   elementwise under IEEE 754, so each lane produces the same bits the
//!   scalar loop would;
//! - horizontal reductions (the energies in [`crate::solver::rof_energy`]
//!   and [`crate::diagnostics`]) are **not** vectorized at all: they keep
//!   the fixed left-to-right accumulation order of a sequential `f64` sum
//!   over row-major cells, on every backend;
//! - `f64` grids always take the scalar path (the SIMD bodies are written
//!   for the `f32` production kernels).
//!
//! The process-wide default is resolved once by [`KernelBackend::active`]:
//! the widest level the CPU supports, overridable with
//! `CHAMBOLLE_BACKEND=scalar|sse2|avx2|avx512` (see
//! [`chambolle_par::simd`]). Because every backend is bit-identical at the
//! Exact tier, the choice is purely a throughput knob — pinned by the
//! backend-exactness test matrix at the workspace root.
//!
//! The **Fast** tier ([`crate::ctx::NumericsPolicy::Fast`]) swaps in the
//! kernels of [`crate::fast`]: FMA contraction, a shared reciprocal for
//! the two normalizing divides, `rsqrt`/`rcp` approximations refined by one
//! Newton–Raphson step, and true 16-lane AVX-512 bodies. Those are
//! tolerance-validated against the exact reference, not bit-compared.

use chambolle_par::simd::{self, SimdLevel};
use chambolle_telemetry::{names, Telemetry};

use crate::kernels::{self, BandHalo};
use crate::real::Real;
#[cfg(target_arch = "x86_64")]
use crate::real::{f32_slice, f32_slice_mut};

/// One implementation of the fused row kernels.
///
/// Constructed either explicitly (tests, benchmarks) or via
/// [`KernelBackend::active`] (production paths). A backend whose CPU
/// features are missing at run time silently executes the scalar reference
/// instead — selection can change *speed*, never *bits* and never safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar Rust — the reference all other backends must match.
    Scalar,
    /// 128-bit SSE2 intrinsics, 4 × `f32` per op.
    Sse2,
    /// 256-bit AVX2 intrinsics, 8 × `f32` per op.
    Avx2,
    /// 512-bit AVX-512F intrinsics, 16 × `f32` per op. Exact-tier solves
    /// delegate to the AVX2 bodies (bit-identity is cheaper to audit on one
    /// vector width); the Fast tier runs dedicated 16-lane kernels.
    Avx512,
}

impl Default for KernelBackend {
    /// The process-wide active backend ([`KernelBackend::active`]).
    fn default() -> Self {
        KernelBackend::active()
    }
}

impl KernelBackend {
    /// The process-wide backend: `CHAMBOLLE_BACKEND` override if valid and
    /// supported, else the widest level the CPU offers. Resolved once.
    pub fn active() -> Self {
        KernelBackend::from_level(simd::active())
    }

    /// The widest backend the current CPU supports, ignoring the override.
    pub fn detect() -> Self {
        KernelBackend::from_level(simd::detect())
    }

    /// Maps a raw [`SimdLevel`] onto a backend.
    pub fn from_level(level: SimdLevel) -> Self {
        match level {
            SimdLevel::Scalar => KernelBackend::Scalar,
            SimdLevel::Sse2 => KernelBackend::Sse2,
            SimdLevel::Avx2 => KernelBackend::Avx2,
            SimdLevel::Avx512 => KernelBackend::Avx512,
        }
    }

    /// Maps a tuning-profile [`chambolle_tune::BackendChoice`] onto a
    /// backend: `Auto` defers to [`KernelBackend::active`] (including the
    /// `CHAMBOLLE_BACKEND` override). A profile naming a backend the host
    /// cannot execute stays safe — unsupported levels dispatch to the
    /// scalar reference at run time, same bits, lower speed.
    pub fn from_choice(choice: chambolle_tune::BackendChoice) -> Self {
        use chambolle_tune::BackendChoice;
        match choice {
            BackendChoice::Auto => KernelBackend::active(),
            BackendChoice::Scalar => KernelBackend::Scalar,
            BackendChoice::Sse2 => KernelBackend::Sse2,
            BackendChoice::Avx2 => KernelBackend::Avx2,
            BackendChoice::Avx512 => KernelBackend::Avx512,
        }
    }

    /// The raw [`SimdLevel`] this backend runs at, for the `imaging` row
    /// kernels which dispatch on the level directly.
    pub fn simd_level(&self) -> SimdLevel {
        match self {
            KernelBackend::Scalar => SimdLevel::Scalar,
            KernelBackend::Sse2 => SimdLevel::Sse2,
            KernelBackend::Avx2 => SimdLevel::Avx2,
            KernelBackend::Avx512 => SimdLevel::Avx512,
        }
    }

    /// Stable identifier (`scalar`/`sse2`/`avx2`/`avx512`).
    pub fn as_str(&self) -> &'static str {
        self.simd_level().as_str()
    }

    /// `f32` lanes per vector op.
    pub fn lanes(&self) -> usize {
        self.simd_level().lanes()
    }

    /// Whether the current CPU can execute this backend's intrinsics.
    pub fn is_supported(&self) -> bool {
        self.simd_level().is_supported()
    }

    /// Records the `backend.*` gauges describing this backend and the
    /// host's capabilities into `telemetry`.
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        telemetry.gauge_set(names::BACKEND_SIMD_LANES, self.lanes() as f64);
        telemetry.gauge_set(
            names::BACKEND_SSE2_SUPPORTED,
            f64::from(SimdLevel::Sse2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX2_SUPPORTED,
            f64::from(SimdLevel::Avx2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX512_SUPPORTED,
            f64::from(SimdLevel::Avx512.is_supported()),
        );
    }

    /// [`kernels::compute_term_row`] on this backend. Bit-identical to the
    /// scalar reference for every backend.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's flat-slice shape
    #[inline]
    pub fn compute_term_row<R: Real>(
        &self,
        px_row: &[R],
        py_row: &[R],
        py_above: Option<&[R]>,
        v_row: &[R],
        inv_theta: R,
        last_row: bool,
        out: &mut [R],
    ) {
        #[cfg(target_arch = "x86_64")]
        if *self != KernelBackend::Scalar && out.len() >= 2 && self.is_supported() {
            if let (Some(px), Some(py), Some(v)) =
                (f32_slice(px_row), f32_slice(py_row), f32_slice(v_row))
            {
                let above = py_above.map(|a| f32_slice(a).expect("R proven to be f32"));
                let out = f32_slice_mut(out).expect("R proven to be f32");
                x86::term_row(*self, px, py, above, v, inv_theta.to_f32(), last_row, out);
                return;
            }
        }
        kernels::compute_term_row(px_row, py_row, py_above, v_row, inv_theta, last_row, out);
    }

    /// [`kernels::update_p_row`] on this backend. Bit-identical to the
    /// scalar reference for every backend.
    #[inline]
    pub fn update_p_row<R: Real>(
        &self,
        term_row: &[R],
        term_below: Option<&[R]>,
        step_ratio: R,
        px_row: &mut [R],
        py_row: &mut [R],
    ) {
        #[cfg(target_arch = "x86_64")]
        if *self != KernelBackend::Scalar && term_row.len() >= 2 && self.is_supported() {
            if let Some(term) = f32_slice(term_row) {
                let below = term_below.map(|b| f32_slice(b).expect("R proven to be f32"));
                let px = f32_slice_mut(px_row).expect("R proven to be f32");
                let py = f32_slice_mut(py_row).expect("R proven to be f32");
                x86::update_p_row(*self, term, below, step_ratio.to_f32(), px, py);
                return;
            }
        }
        kernels::update_p_row(term_row, term_below, step_ratio, px_row, py_row);
    }

    /// The Exact tier's row step: [`Self::compute_term_row`] of the next row
    /// (whose `py_above` is `py_row`, read before it is overwritten) into
    /// `next`, then [`Self::update_p_row`] of the current row against
    /// `cur`/`next`. On AVX2 and AVX-512 `f32` rows both passes share one
    /// traversal; the bits are those of the two calls on every backend.
    #[allow(clippy::too_many_arguments)] // the flat-slice shape, as elsewhere
    #[inline]
    pub(crate) fn term_and_update_row<R: Real>(
        &self,
        px_next: &[R],
        py_next: &[R],
        v_next: &[R],
        inv_theta: R,
        next_is_last: bool,
        cur: &[R],
        next: &mut [R],
        step_ratio: R,
        px_row: &mut [R],
        py_row: &mut [R],
    ) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self, KernelBackend::Avx2 | KernelBackend::Avx512)
            && cur.len() >= 2
            && self.is_supported()
        {
            if let (Some(pxn), Some(pyn), Some(vn), Some(cur)) = (
                f32_slice(px_next),
                f32_slice(py_next),
                f32_slice(v_next),
                f32_slice(cur),
            ) {
                x86::fused_row(
                    pxn,
                    pyn,
                    vn,
                    inv_theta.to_f32(),
                    next_is_last,
                    cur,
                    f32_slice_mut(next).expect("R proven to be f32"),
                    step_ratio.to_f32(),
                    f32_slice_mut(px_row).expect("R proven to be f32"),
                    f32_slice_mut(py_row).expect("R proven to be f32"),
                );
                return;
            }
        }
        self.compute_term_row(
            px_next,
            py_next,
            Some(py_row),
            v_next,
            inv_theta,
            next_is_last,
            next,
        );
        self.update_p_row(cur, Some(next), step_ratio, px_row, py_row);
    }

    /// [`kernels::fused_band_iteration`] with the term and update rows
    /// running on this backend. Bit-identical to the scalar reference.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's flat-slice shape
    pub fn fused_band_iteration<R: Real>(
        &self,
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
        kernels::fused_band_iteration_on(
            *self, px_band, py_band, v_band, w, h, r0, halo, inv_theta, step_ratio, term_a, term_b,
        );
    }
}

/// The x86-64 intrinsic bodies.
///
/// Every function replays the scalar loops of [`crate::kernels`] with the
/// per-lane operation order preserved exactly: no FMA contraction, no
/// reassociation, negation as an IEEE sign-flip (so `-0.0` behaves as in
/// the scalar code), and scalar handling for row edges and remainder lanes.
///
/// `fused_row` runs the AVX2 term and update rows as one traversal, the
/// way the Fast tier's fused rows do. With no term row going through
/// memory between the passes, an Exact row step is bound by the divider:
/// one `vsqrtps` and two `vdivps` per 8 cells. On the bench host (2-vCPU
/// Sapphire Rapids guest, ~2.2 GHz) those cost about 2.7 and 2.2 ns per
/// YMM instruction, and the ZMM forms cost the same per lane. That is a
/// floor of (2 × 2.2 + 2.7) / 8 ≈ 0.89 ns/px. One fused iteration over an
/// XGA frame measures 0.95–1.0 ns/px at best, against 1.4–1.6 ns/px for
/// the two passes in the same process. The divider is also why the AVX-512
/// backend runs these bodies: a 16-lane fused step was bit-identical and
/// no faster.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::KernelBackend;
    use crate::kernels;

    /// Which y-divergence rule the term row uses (the four cases of
    /// [`kernels::compute_term_row`]).
    enum DivY<'a> {
        /// Single-row frame: `div_y = 0`.
        Zero,
        /// First frame row: `div_y = py[x]`.
        First(&'a [f32]),
        /// Interior row: `div_y = py[x] − above[x]`.
        Interior(&'a [f32], &'a [f32]),
        /// Last frame row: `div_y = −above[x]`.
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

    /// Vectorized [`kernels::compute_term_row`]; caller guarantees
    /// `out.len() >= 2` and that `backend` is supported on this CPU.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn term_row(
        backend: KernelBackend,
        px: &[f32],
        py: &[f32],
        above: Option<&[f32]>,
        v: &[f32],
        inv_theta: f32,
        last_row: bool,
        out: &mut [f32],
    ) {
        let div_y = match (above, last_row) {
            (None, true) => DivY::Zero,
            (None, false) => DivY::First(py),
            (Some(a), false) => DivY::Interior(py, a),
            (Some(a), true) => DivY::Last(a),
        };
        match backend {
            // SAFETY: the caller checked `backend.is_supported()`, which for
            // Avx2 is a runtime `is_x86_feature_detected!("avx2")` — and for
            // Avx512 includes the same avx2 check (see `SimdLevel`), since
            // the exact tier delegates to the AVX2 bodies.
            KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe {
                term_row_avx2(px, v, inv_theta, out, &div_y)
            },
            // SAFETY: as above with `is_x86_feature_detected!("sse2")`.
            KernelBackend::Sse2 => unsafe { term_row_sse2(px, v, inv_theta, out, &div_y) },
            KernelBackend::Scalar => unreachable!("scalar never dispatches here"),
        }
    }

    /// Vectorized [`kernels::update_p_row`]; caller guarantees
    /// `term.len() >= 2` and that `backend` is supported on this CPU.
    pub(super) fn update_p_row(
        backend: KernelBackend,
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        match backend {
            // SAFETY: the caller checked `backend.is_supported()`, which for
            // Avx2 is a runtime `is_x86_feature_detected!("avx2")` — and for
            // Avx512 includes the same avx2 check (see `SimdLevel`), since
            // the exact tier delegates to the AVX2 bodies.
            KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe {
                update_p_row_avx2(term, below, step, px, py)
            },
            // SAFETY: as above with `is_x86_feature_detected!("sse2")`.
            KernelBackend::Sse2 => unsafe { update_p_row_sse2(term, below, step, px, py) },
            KernelBackend::Scalar => unreachable!("scalar never dispatches here"),
        }
    }

    /// The four `DivY` shapes as compile-time selectors, so each vector
    /// loop body is stamped out branch-free (the runtime `match` happens
    /// once per row, not once per vector).
    const DY_ZERO: u8 = 0;
    const DY_FIRST: u8 = 1;
    const DY_INTERIOR: u8 = 2;
    const DY_LAST: u8 = 3;

    /// Eight term cells from their `div_x` and `div_y` lanes:
    /// `(dx + dy) − v·(1/θ)`, the scalar expression's op order. Shared by
    /// the standalone and the fused AVX2 rows, so both round alike.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn term_lanes(dx: __m256, dy: __m256, v: __m256, it: __m256) -> __m256 {
        _mm256_sub_ps(_mm256_add_ps(dx, dy), _mm256_mul_ps(v, it))
    }

    /// The dual update of eight cells from their forward differences,
    /// returning the new `(px, py)`: `t1·t1 + t2·t2`, `√`, `1 + step·grad`,
    /// then two IEEE divides, the scalar cell's op order. Shared by the
    /// standalone and the fused AVX2 rows.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn update_lanes(
        t1: __m256,
        t2: __m256,
        px: __m256,
        py: __m256,
        sv: __m256,
    ) -> (__m256, __m256) {
        let grad = _mm256_sqrt_ps(_mm256_add_ps(_mm256_mul_ps(t1, t1), _mm256_mul_ps(t2, t2)));
        let denom = _mm256_add_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(sv, grad));
        (
            _mm256_div_ps(_mm256_add_ps(px, _mm256_mul_ps(sv, t1)), denom),
            _mm256_div_ps(_mm256_add_ps(py, _mm256_mul_ps(sv, t2)), denom),
        )
    }

    #[target_feature(enable = "avx2")]
    unsafe fn term_row_avx2(
        px: &[f32],
        v: &[f32],
        inv_theta: f32,
        out: &mut [f32],
        div_y: &DivY<'_>,
    ) {
        // SAFETY (all four arms): delegated; the caller's bounds contract
        // is forwarded unchanged, and the slice passed as `dy` matches the
        // selector's expectations (unused/`py`/`above` per variant).
        unsafe {
            match div_y {
                DivY::Zero => term_row_avx2_on::<DY_ZERO>(px, px, px, v, inv_theta, out, div_y),
                DivY::First(py) => {
                    term_row_avx2_on::<DY_FIRST>(px, py, py, v, inv_theta, out, div_y)
                }
                DivY::Interior(py, above) => {
                    term_row_avx2_on::<DY_INTERIOR>(px, py, above, v, inv_theta, out, div_y)
                }
                DivY::Last(above) => {
                    term_row_avx2_on::<DY_LAST>(px, above, above, v, inv_theta, out, div_y)
                }
            }
        }
    }

    /// One monomorphized AVX2 term-row loop per `DivY` shape. `py` and
    /// `above` are the variant's payload slices (aliased to `px` when the
    /// variant has no payload — never read then).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
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
        // One 8-lane tap shared by both the paired and the single loop.
        //
        // SAFETY (of the closure body): every caller guarantees
        // `x + 8 <= w − 1 < len`, bounding every unaligned load including
        // the shifted `px[x − 1]` stencil read.
        let tap = |x: usize, out: &mut [f32]| unsafe {
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
                // IEEE sign-flip: matches the scalar `−above[x]` bitwise
                // (a `0.0 − a` subtraction would turn `−0.0` into `+0.0`).
                _ => _mm256_xor_ps(_mm256_set1_ps(-0.0), _mm256_loadu_ps(above.as_ptr().add(x))),
            };
            let v = _mm256_loadu_ps(v.as_ptr().add(x));
            _mm256_storeu_ps(out.as_mut_ptr().add(x), term_lanes(dx, dy, v, it));
        };
        let mut x = 1usize;
        // Two vectors per trip to amortize loop overhead; trips are
        // independent, so unrolling cannot change any lane's result.
        while x + 16 < w {
            tap(x, out);
            tap(x + 8, out);
            x += 16;
        }
        while x + 8 < w {
            tap(x, out);
            x += 8;
        }
        while x < w - 1 {
            out[x] = ((px[x] - px[x - 1]) + div_y.at(x)) - v[x] * inv_theta;
            x += 1;
        }
        out[w - 1] = (-px[w - 2] + div_y.at(w - 1)) - v[w - 1] * inv_theta;
    }

    #[target_feature(enable = "sse2")]
    unsafe fn term_row_sse2(
        px: &[f32],
        v: &[f32],
        inv_theta: f32,
        out: &mut [f32],
        div_y: &DivY<'_>,
    ) {
        let w = out.len();
        let it = _mm_set1_ps(inv_theta);
        out[0] = (px[0] + div_y.at(0)) - v[0] * inv_theta;
        let mut x = 1usize;
        while x + 4 < w {
            // SAFETY: `x + 4 <= w − 1 < len` bounds every unaligned load,
            // including the shifted `px[x − 1]` stencil read.
            unsafe {
                let dx = _mm_sub_ps(
                    _mm_loadu_ps(px.as_ptr().add(x)),
                    _mm_loadu_ps(px.as_ptr().add(x - 1)),
                );
                let dy = match div_y {
                    DivY::Zero => _mm_setzero_ps(),
                    DivY::First(py) => _mm_loadu_ps(py.as_ptr().add(x)),
                    DivY::Interior(py, above) => _mm_sub_ps(
                        _mm_loadu_ps(py.as_ptr().add(x)),
                        _mm_loadu_ps(above.as_ptr().add(x)),
                    ),
                    // IEEE sign-flip: matches the scalar `−above[x]` bitwise.
                    DivY::Last(above) => {
                        _mm_xor_ps(_mm_set1_ps(-0.0), _mm_loadu_ps(above.as_ptr().add(x)))
                    }
                };
                let vi = _mm_mul_ps(_mm_loadu_ps(v.as_ptr().add(x)), it);
                _mm_storeu_ps(out.as_mut_ptr().add(x), _mm_sub_ps(_mm_add_ps(dx, dy), vi));
            }
            x += 4;
        }
        while x < w - 1 {
            out[x] = ((px[x] - px[x - 1]) + div_y.at(x)) - v[x] * inv_theta;
            x += 1;
        }
        out[w - 1] = (-px[w - 2] + div_y.at(w - 1)) - v[w - 1] * inv_theta;
    }

    #[target_feature(enable = "avx2")]
    unsafe fn update_p_row_avx2(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        // SAFETY (both arms): delegated; the caller's bounds contract is
        // forwarded unchanged, and `below` aliases `term` in the absent
        // case purely as a placeholder — the `HAS_BELOW = false` body never
        // reads it.
        unsafe {
            match below {
                Some(b) => update_p_row_avx2_on::<true>(term, b, below, step, px, py),
                None => update_p_row_avx2_on::<false>(term, term, below, step, px, py),
            }
        }
    }

    /// One monomorphized AVX2 update-row loop per `below` shape, so the
    /// last-row / interior-row branch is resolved once per row instead of
    /// once per vector trip.
    #[target_feature(enable = "avx2")]
    unsafe fn update_p_row_avx2_on<const HAS_BELOW: bool>(
        term: &[f32],
        below: &[f32],
        below_opt: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        let w = term.len();
        let sv = _mm256_set1_ps(step);
        // One 8-lane update.
        //
        // SAFETY (of the closure body): every caller guarantees
        // `x + 8 <= w − 1 < len`, bounding every unaligned load including
        // the forward-difference `term[x + 1]` read.
        let tap = |x: usize, px: &mut [f32], py: &mut [f32]| unsafe {
            let t = _mm256_loadu_ps(term.as_ptr().add(x));
            let t1 = _mm256_sub_ps(_mm256_loadu_ps(term.as_ptr().add(x + 1)), t);
            let t2 = if HAS_BELOW {
                _mm256_sub_ps(_mm256_loadu_ps(below.as_ptr().add(x)), t)
            } else {
                _mm256_setzero_ps()
            };
            let (npx, npy) = update_lanes(
                t1,
                t2,
                _mm256_loadu_ps(px.as_ptr().add(x)),
                _mm256_loadu_ps(py.as_ptr().add(x)),
                sv,
            );
            _mm256_storeu_ps(px.as_mut_ptr().add(x), npx);
            _mm256_storeu_ps(py.as_mut_ptr().add(x), npy);
        };
        let mut x = 0usize;
        // Two independent vectors per trip: the divider and sqrt units are
        // only partially pipelined, so exposing 16 in-flight lanes lets the
        // second vector's long-latency ops overlap the first's. Trips and
        // taps are independent, so unrolling cannot change any lane.
        // The last column (t1 forced to zero) never enters a vector loop.
        while x + 16 < w {
            tap(x, px, py);
            tap(x + 8, px, py);
            x += 16;
        }
        while x + 8 < w {
            tap(x, px, py);
            x += 8;
        }
        // Remainder lanes and the final column: the scalar row kernel on the
        // suffix computes exactly them (its zero-t1 last column is the
        // frame's real last column).
        kernels::update_p_row(
            &term[x..],
            below_opt.map(|b| &b[x..]),
            step,
            &mut px[x..],
            &mut py[x..],
        );
    }

    /// The fused Exact row step of [`KernelBackend::term_and_update_row`];
    /// the caller guarantees `cur.len() >= 2` and that AVX2 is supported on
    /// this CPU.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn fused_row(
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
        // The vector body's unchecked loads and stores rely on these.
        let lens = [px_next, py_next, v_next, next, px_row, py_row].map(|s| s.len());
        assert!(lens == [w; 6], "fused row slices need width w");
        let f = if next_is_last {
            fused_row_avx2::<true>
        } else {
            fused_row_avx2::<false>
        };
        // SAFETY: the caller checked `is_supported()` for Avx2 or Avx512,
        // both of which include a runtime `is_x86_feature_detected!("avx2")`
        // (see `SimdLevel`); the lengths are checked above.
        unsafe {
            f(
                px_next, py_next, v_next, inv_theta, cur, next, step, px_row, py_row,
            )
        }
    }

    /// The next row's `div_y` at column `c`, read from `py_row` before the
    /// update overwrites it: `−py_row[c]` below a last row, else
    /// `py_next[c] − py_row[c]` (the last and interior shapes of
    /// [`kernels::compute_term_row`]).
    #[inline(always)]
    fn next_dy<const LAST: bool>(py_next: &[f32], py_row: &[f32], c: usize) -> f32 {
        if LAST {
            -py_row[c]
        } else {
            py_next[c] - py_row[c]
        }
    }

    /// One fused Exact row step on YMM. The traversal is that of the Fast
    /// tier's `fused_row_avx2`: each trip computes term cells `x+1..=x+8`
    /// of the next row and updates cells `x..x+8` of the current one,
    /// whose `t2` takes `next[x..x+8]` from the fresh term vector through a
    /// one-lane `vperm2f128` + `palignr` carry, so no term row is reloaded.
    /// Its lanes run the standalone rows' `term_lanes` and `update_lanes`
    /// (with the same `xor` negation), and the remainder and last columns
    /// use the standalone kernels' scalar expressions, so each column gets
    /// exactly the bits of the two passes.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn fused_row_avx2<const LAST: bool>(
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        inv_theta: f32,
        cur: &[f32],
        next: &mut [f32],
        step: f32,
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        let w = cur.len();
        let it = _mm256_set1_ps(inv_theta);
        let sv = _mm256_set1_ps(step);
        next[0] = (px_next[0] + next_dy::<LAST>(py_next, py_row, 0)) - v_next[0] * inv_theta;
        // Lane 7 of `carry` holds term cell `x`, just left of the group.
        let mut carry = _mm256_set1_ps(next[0]);
        let mut x = 0usize;
        // Term cells x+1..=x+8 stay left of the last column (x + 8 <= w − 2),
        // and so does the update's `t1` read of cur[x + 8].
        while x + 9 < w {
            // SAFETY: `x + 9 < w` and the checked slice lengths bound every
            // unaligned load and store; `py_row[x+1..x+9]` is read as the
            // term's upper halo before the update stores `py_row[x..x+8]`,
            // and the next trip reads only beyond it.
            unsafe {
                let dx = _mm256_sub_ps(
                    _mm256_loadu_ps(px_next.as_ptr().add(x + 1)),
                    _mm256_loadu_ps(px_next.as_ptr().add(x)),
                );
                let above = _mm256_loadu_ps(py_row.as_ptr().add(x + 1));
                let dy = if LAST {
                    // IEEE sign-flip, as the scalar `−above[x]`.
                    _mm256_xor_ps(_mm256_set1_ps(-0.0), above)
                } else {
                    _mm256_sub_ps(_mm256_loadu_ps(py_next.as_ptr().add(x + 1)), above)
                };
                let term = term_lanes(dx, dy, _mm256_loadu_ps(v_next.as_ptr().add(x + 1)), it);
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
                let (npx, npy) = update_lanes(
                    t1,
                    t2,
                    _mm256_loadu_ps(px_row.as_ptr().add(x)),
                    _mm256_loadu_ps(py_row.as_ptr().add(x)),
                    sv,
                );
                _mm256_storeu_ps(px_row.as_mut_ptr().add(x), npx);
                _mm256_storeu_ps(py_row.as_mut_ptr().add(x), npy);
                carry = term;
            }
            x += 8;
        }
        // The rest of the next term row, from still-old `py_row[x+1..]`,
        // then the current row's remainder and last column: the standalone
        // kernels' scalar expressions.
        for c in x + 1..w - 1 {
            next[c] = ((px_next[c] - px_next[c - 1]) + next_dy::<LAST>(py_next, py_row, c))
                - v_next[c] * inv_theta;
        }
        next[w - 1] =
            (-px_next[w - 2] + next_dy::<LAST>(py_next, py_row, w - 1)) - v_next[w - 1] * inv_theta;
        kernels::update_p_row(
            &cur[x..],
            Some(&next[x..]),
            step,
            &mut px_row[x..],
            &mut py_row[x..],
        );
    }

    #[target_feature(enable = "sse2")]
    unsafe fn update_p_row_sse2(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        let w = term.len();
        let sv = _mm_set1_ps(step);
        let one = _mm_set1_ps(1.0);
        let mut x = 0usize;
        while x + 4 < w {
            // SAFETY: `x + 4 <= w − 1 < len` bounds every unaligned load,
            // including the forward-difference `term[x + 1]` read.
            unsafe {
                let t = _mm_loadu_ps(term.as_ptr().add(x));
                let t1 = _mm_sub_ps(_mm_loadu_ps(term.as_ptr().add(x + 1)), t);
                let t2 = match below {
                    Some(b) => _mm_sub_ps(_mm_loadu_ps(b.as_ptr().add(x)), t),
                    None => _mm_setzero_ps(),
                };
                let grad = _mm_sqrt_ps(_mm_add_ps(_mm_mul_ps(t1, t1), _mm_mul_ps(t2, t2)));
                let denom = _mm_add_ps(one, _mm_mul_ps(sv, grad));
                let npx = _mm_div_ps(
                    _mm_add_ps(_mm_loadu_ps(px.as_ptr().add(x)), _mm_mul_ps(sv, t1)),
                    denom,
                );
                let npy = _mm_div_ps(
                    _mm_add_ps(_mm_loadu_ps(py.as_ptr().add(x)), _mm_mul_ps(sv, t2)),
                    denom,
                );
                _mm_storeu_ps(px.as_mut_ptr().add(x), npx);
                _mm_storeu_ps(py.as_mut_ptr().add(x), npy);
            }
            x += 4;
        }
        kernels::update_p_row(
            &term[x..],
            below.map(|b| &b[x..]),
            step,
            &mut px[x..],
            &mut py[x..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn vector_backends() -> Vec<KernelBackend> {
        [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
        .collect()
    }

    fn random_rows(w: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = |rng: &mut StdRng| (0..w).map(|_| rng.gen_range(-0.9f32..0.9)).collect();
        (row(&mut rng), row(&mut rng), row(&mut rng), row(&mut rng))
    }

    #[test]
    fn backend_identity_mapping_is_consistent() {
        for b in [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            assert_eq!(KernelBackend::from_level(b.simd_level()), b);
            assert_eq!(b.lanes(), b.simd_level().lanes());
        }
        assert!(KernelBackend::active().is_supported());
        assert_eq!(KernelBackend::default(), KernelBackend::active());
    }

    #[test]
    fn term_rows_bit_identical_across_backends_and_row_kinds() {
        for w in [1usize, 2, 3, 4, 5, 8, 9, 16, 31, 64, 129] {
            let (px, py, above, v) = random_rows(w, 7 + w as u64);
            let inv_theta = 4.0f32;
            for (above_opt, last) in [
                (None, true),
                (None, false),
                (Some(above.as_slice()), false),
                (Some(above.as_slice()), true),
            ] {
                let mut reference = vec![0.0f32; w];
                kernels::compute_term_row(&px, &py, above_opt, &v, inv_theta, last, &mut reference);
                for backend in vector_backends() {
                    let mut out = vec![0.0f32; w];
                    backend.compute_term_row(&px, &py, above_opt, &v, inv_theta, last, &mut out);
                    assert_eq!(
                        out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} w={w} above={} last={last}",
                        above_opt.is_some(),
                    );
                }
            }
        }
    }

    #[test]
    fn update_rows_bit_identical_across_backends_and_widths() {
        for w in [1usize, 2, 3, 4, 5, 8, 9, 16, 31, 64, 129] {
            let (term, below, px0, py0) = random_rows(w, 99 + w as u64);
            let step = 0.248f32;
            for below_opt in [None, Some(below.as_slice())] {
                let (mut rpx, mut rpy) = (px0.clone(), py0.clone());
                kernels::update_p_row(&term, below_opt, step, &mut rpx, &mut rpy);
                for backend in vector_backends() {
                    let (mut bpx, mut bpy) = (px0.clone(), py0.clone());
                    backend.update_p_row(&term, below_opt, step, &mut bpx, &mut bpy);
                    assert_eq!(
                        bpx.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        rpx.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} px w={w} below={}",
                        below_opt.is_some(),
                    );
                    assert_eq!(
                        bpy.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        rpy.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} py w={w} below={}",
                        below_opt.is_some(),
                    );
                }
            }
        }
    }

    fn bits(s: &[f32]) -> Vec<u32> {
        s.iter().map(|f| f.to_bits()).collect()
    }

    /// The fused row step on `backend` against the scalar
    /// `compute_term_row` + `update_p_row` from the same inputs
    /// `[px_next, py_next, v_next, cur, px_row, py_row]`.
    fn assert_fused_row_matches_two_pass(
        backend: KernelBackend,
        [px_next, py_next, v_next, cur, px_row, py_row]: &[Vec<f32>; 6],
        next_is_last: bool,
    ) {
        let (inv_theta, step) = (4.0f32, 0.248f32);
        let w = cur.len();
        let (mut rnext, mut rpx, mut rpy) = (vec![f32::NAN; w], px_row.clone(), py_row.clone());
        kernels::compute_term_row(
            px_next,
            py_next,
            Some(&rpy),
            v_next,
            inv_theta,
            next_is_last,
            &mut rnext,
        );
        kernels::update_p_row(cur, Some(&rnext), step, &mut rpx, &mut rpy);
        let (mut next, mut px, mut py) = (vec![f32::NAN; w], px_row.clone(), py_row.clone());
        backend.term_and_update_row(
            px_next,
            py_next,
            v_next,
            inv_theta,
            next_is_last,
            cur,
            &mut next,
            step,
            &mut px,
            &mut py,
        );
        let ctx = format!("{backend:?} w={w} next_is_last={next_is_last}");
        assert_eq!(bits(&next), bits(&rnext), "term {ctx}");
        assert_eq!(bits(&px), bits(&rpx), "px {ctx}");
        assert_eq!(bits(&py), bits(&rpy), "py {ctx}");
    }

    #[test]
    fn fused_term_update_rows_bit_identical_to_two_pass() {
        // Every entry is +0.0, −0.0 or a random value, so the signed-zero
        // cases of the boundary columns and of the body lanes all occur.
        let widths = (2usize..=40).chain([1023, 1024, 1025]);
        let mut rng = StdRng::seed_from_u64(0xF05ED);
        for w in widths {
            for _ in 0..4 {
                let rows: [Vec<f32>; 6] = std::array::from_fn(|_| {
                    (0..w)
                        .map(|_| match rng.gen_range(0..3) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.gen_range(-0.9f32..0.9),
                        })
                        .collect()
                });
                for next_is_last in [false, true] {
                    for backend in vector_backends().into_iter().chain([KernelBackend::Scalar]) {
                        assert_fused_row_matches_two_pass(backend, &rows, next_is_last);
                    }
                }
            }
        }
    }

    #[test]
    fn negative_zero_in_last_row_matches_scalar_sign() {
        // `div_y = −above[x]` must preserve −0.0 semantics; a subtraction
        // from +0.0 would not.
        for backend in vector_backends() {
            let w = 24;
            let px = vec![0.0f32; w];
            let py = vec![0.0f32; w];
            let above = vec![0.0f32; w];
            let v = vec![0.0f32; w];
            let mut reference = vec![1.0f32; w];
            let mut out = vec![1.0f32; w];
            kernels::compute_term_row(&px, &py, Some(&above), &v, 4.0, true, &mut reference);
            backend.compute_term_row(&px, &py, Some(&above), &v, 4.0, true, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{backend:?}");
        }
        // The fused row's next term row, with `v_next = +0.0`, `px_next`
        // alternating `+0.0, −0.0, …` and `div_y = −0.0` (a last row below
        // `+0.0`, or `−0.0 − +0.0`): a column's term is `−0.0` exactly when
        // its x part is, which the body lanes and the last column keep only
        // if they negate (`xor`, `−px[w − 2]`) rather than subtract from
        // zero.
        for backend in vector_backends() {
            for w in 2..=26 {
                let zeros = vec![0.0f32; w];
                let rows = [
                    (0..w)
                        .map(|x| if x % 2 == 0 { 0.0 } else { -0.0 })
                        .collect(),
                    vec![-0.0f32; w],
                    zeros.clone(),
                    zeros.clone(),
                    zeros.clone(),
                    zeros,
                ];
                for next_is_last in [false, true] {
                    assert_fused_row_matches_two_pass(backend, &rows, next_is_last);
                }
            }
        }
    }

    #[test]
    fn f64_grids_always_take_the_scalar_path() {
        // The dispatch must not misroute f64 slices into f32 intrinsics.
        let w = 19;
        let px: Vec<f64> = (0..w).map(|i| (i as f64).sin()).collect();
        let py: Vec<f64> = (0..w).map(|i| (i as f64).cos()).collect();
        let v: Vec<f64> = (0..w).map(|i| i as f64 / w as f64).collect();
        let mut reference = vec![0.0f64; w];
        kernels::compute_term_row(&px, &py, None, &v, 4.0f64, false, &mut reference);
        for backend in [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            let mut out = vec![0.0f64; w];
            backend.compute_term_row(&px, &py, None, &v, 4.0f64, false, &mut out);
            assert_eq!(
                out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn fused_band_iteration_bit_identical_across_backends() {
        let (w, h) = (37, 9);
        let mut rng = StdRng::seed_from_u64(1234);
        let px0 = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let py0 = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        let run = |backend: KernelBackend| {
            let (mut px, mut py) = (px0.clone(), py0.clone());
            let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
            backend.fused_band_iteration(
                px.as_mut_slice(),
                py.as_mut_slice(),
                v.as_slice(),
                w,
                h,
                0,
                BandHalo {
                    py_above: None,
                    below: None,
                },
                4.0,
                0.125,
                &mut ta,
                &mut tb,
            );
            (px, py)
        };
        let (rpx, rpy) = run(KernelBackend::Scalar);
        for backend in vector_backends() {
            let (bpx, bpy) = run(backend);
            assert_eq!(bpx.as_slice(), rpx.as_slice(), "{backend:?} px");
            assert_eq!(bpy.as_slice(), rpy.as_slice(), "{backend:?} py");
        }
    }
}
