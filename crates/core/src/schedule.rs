//! The schedule engine: the paper's loop decomposition (Fig. 1, Fig. 2),
//! implemented once.
//!
//! A region of full-width rows can run `k` Chambolle iterations on its own
//! if it carries a halo that absorbs the dependency cone (see
//! [`crate::dependency`]): `k` rows on the leading side and `k + 1` on the
//! trailing side. The extra trailing row pays for the divergence boundary
//! rule, which corrupts `term` on a region's last row, and that `term` is
//! consumed in the same iteration by the update one row inward. `halo` is
//! the one place this rule is computed; [`crate::tiling::TileConfig`] reads
//! it too.
//!
//! Every solve runs on this engine:
//!
//! - [`chambolle_iterate_with_ctx`](crate::chambolle_iterate_with_ctx)
//!   splits the frame into full-width row bands, one per pool worker (a
//!   single band with no halo without a pool). Before each round of
//!   `k = min(remaining, TEMPORAL_FUSION_DEPTH)` iterations every band
//!   copies its old-`p` halo rows, then all bands run concurrently — one
//!   pool dispatch per round — each updating its own rows in place.
//! - The tiled solver's windows run their `K` window-local iterations
//!   through the same wavefront.
//!
//! Within a region, the `k` iterations run as one depth-`k` row
//! wavefront: `k` staggered copies of the fused single-pass machine
//! share one traversal of the rows, so `k` iterations stream the region
//! once instead of `k` times. The per-row step is picked by
//! `(NumericsPolicy, KernelBackend)` through the `RowStep` trait: the
//! backend's exact term and update rows at the Exact tier (and for every
//! `f64` solve), the fused FMA rows of [`crate::fast`] at the Fast tier.
//! Row fusion is not a Fast-tier privilege: on AVX2 and AVX-512 `f32`
//! rows both tiers compute the next term row and update the current row
//! in one traversal, so no term row makes a round trip through memory
//! between the two passes. What remains of the Exact step's cost is the
//! divider floor (see the `x86` module of [`crate::backend`]).
//!
//! Every row step is a full-width row kernel, and every level of the
//! wavefront applies the same per-cell operations to the same inputs as a
//! whole-frame iteration would, so the engine is pure scheduling: the
//! Exact tier stays bit-identical to the sequential two-pass reference,
//! and both tiers give the same bits for every band split, depth and pool
//! size.

use std::any::TypeId;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use chambolle_imaging::Grid;
use chambolle_par::ThreadPool;

use crate::backend::KernelBackend;
use crate::cancel::Cancelled;
use crate::ctx::{ExecCtx, NumericsPolicy};
use crate::fast;
use crate::kernels::BandHalo;
use crate::params::ChambolleParams;
use crate::real::{f32_slice, f32_slice_mut, Real};
use crate::solver::DualField;

/// How many iterations one round fuses into a single wavefront pass.
///
/// Each fused level needs two term rows and keeps a ~3-row window of
/// `px`/`py` warm; at depth 8 the working set of a 512-wide frame is ~46
/// rows of `f32` (~92 KiB), inside L2, while an unfused loop streams the
/// whole frame from memory every iteration. Depth is pure scheduling: the
/// result is the same at every depth, so raising it trades only cache
/// headroom (and a wider band halo) for fewer trips over the frame.
pub const TEMPORAL_FUSION_DEPTH: u32 = 8;

/// The halo rows `(leading, trailing)` a region needs so that `depth`
/// region-local iterations leave every row inside it exact.
pub(crate) fn halo(depth: usize) -> (usize, usize) {
    (depth, depth + 1)
}

/// One row of the fused single-pass machine, for one numerics tier.
pub(crate) trait RowStep<R> {
    /// `term = div p − v/θ` for one row; `py_above` is `None` on the
    /// frame's (or region's) first row.
    fn term(
        &self,
        px: &[R],
        py: &[R],
        py_above: Option<&[R]>,
        v: &[R],
        last_row: bool,
        out: &mut [R],
    );

    /// Computes the next row's term into `next` from still-old `p`, then
    /// updates the current row against `cur`/`next`. `py_row` doubles as
    /// the next row's upper halo, read before it is overwritten.
    #[allow(clippy::too_many_arguments)] // the flat-slice shape, as elsewhere
    fn term_and_update(
        &self,
        px_next: &[R],
        py_next: &[R],
        v_next: &[R],
        next_is_last: bool,
        cur: &[R],
        next: &mut [R],
        px_row: &mut [R],
        py_row: &mut [R],
    );

    /// Updates the last row, whose forward y-difference is zero.
    fn update_last(&self, cur: &[R], px_row: &mut [R], py_row: &mut [R]);
}

/// The Exact tier's row step: the backend's term row, then its update row.
/// On AVX2 and AVX-512 `f32` rows of width ≥ 2 the two run as one fused
/// traversal ([`KernelBackend::term_and_update_row`]), bound by the
/// divider; scalar, SSE2, `f64` and one-column rows make the two calls.
/// The bits are the same either way.
pub(crate) struct ExactStep<R> {
    pub(crate) backend: KernelBackend,
    pub(crate) inv_theta: R,
    pub(crate) step_ratio: R,
}

impl<R: Real> RowStep<R> for ExactStep<R> {
    fn term(
        &self,
        px: &[R],
        py: &[R],
        py_above: Option<&[R]>,
        v: &[R],
        last_row: bool,
        out: &mut [R],
    ) {
        self.backend
            .compute_term_row(px, py, py_above, v, self.inv_theta, last_row, out);
    }

    fn term_and_update(
        &self,
        px_next: &[R],
        py_next: &[R],
        v_next: &[R],
        next_is_last: bool,
        cur: &[R],
        next: &mut [R],
        px_row: &mut [R],
        py_row: &mut [R],
    ) {
        self.backend.term_and_update_row(
            px_next,
            py_next,
            v_next,
            self.inv_theta,
            next_is_last,
            cur,
            next,
            self.step_ratio,
            px_row,
            py_row,
        );
    }

    fn update_last(&self, cur: &[R], px_row: &mut [R], py_row: &mut [R]) {
        self.backend
            .update_p_row(cur, None, self.step_ratio, px_row, py_row);
    }
}

/// The Fast tier's row step: the fused FMA term+update row of
/// [`crate::fast`], with its standalone term and update rows at the ends.
pub(crate) struct FastStep {
    pub(crate) backend: KernelBackend,
    pub(crate) inv_theta: f32,
    pub(crate) step_ratio: f32,
}

impl RowStep<f32> for FastStep {
    fn term(
        &self,
        px: &[f32],
        py: &[f32],
        py_above: Option<&[f32]>,
        v: &[f32],
        last_row: bool,
        out: &mut [f32],
    ) {
        fast::compute_term_row_fast(
            self.backend,
            px,
            py,
            py_above,
            v,
            self.inv_theta,
            last_row,
            out,
        );
    }

    fn term_and_update(
        &self,
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        next_is_last: bool,
        cur: &[f32],
        next: &mut [f32],
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        fast::fused_term_update_row(
            self.backend,
            px_next,
            py_next,
            v_next,
            self.inv_theta,
            next_is_last,
            cur,
            next,
            self.step_ratio,
            px_row,
            py_row,
        );
    }

    fn update_last(&self, cur: &[f32], px_row: &mut [f32], py_row: &mut [f32]) {
        fast::update_p_row_fast(self.backend, cur, None, self.step_ratio, px_row, py_row);
    }
}

/// One Chambolle iteration over rows `[r0, r0 + rows)` of a `w × h` frame
/// against old-`p` halo rows: the body of
/// [`crate::kernels::fused_band_iteration_on`] and
/// [`crate::fast::fused_band_iteration_fast`].
///
/// Rolls the two term-row buffers: the term for row `y + 1` is computed
/// from still-old `p` before row `y` is updated.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub(crate) fn band_iteration<R: Real>(
    step: &impl RowStep<R>,
    px_band: &mut [R],
    py_band: &mut [R],
    v_band: &[R],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, R>,
    term_a: &mut [R],
    term_b: &mut [R],
) {
    assert!(w > 0, "band width must be positive");
    let rows = px_band.len() / w;
    let r1 = r0 + rows;
    assert!(rows > 0 && px_band.len() == rows * w, "px band misshapen");
    assert_eq!(py_band.len(), rows * w, "py band misshapen");
    assert_eq!(v_band.len(), rows * w, "v band misshapen");
    assert!(r1 <= h, "band exceeds frame height");
    assert_eq!(
        halo.py_above.is_some(),
        r0 > 0,
        "py_above halo required exactly when the band starts mid-frame"
    );
    assert_eq!(
        halo.below.is_some(),
        r1 < h,
        "below halo required exactly when the band ends mid-frame"
    );
    assert!(
        term_a.len() == w && term_b.len() == w,
        "term buffers need width w"
    );

    let mut cur: &mut [R] = term_a;
    let mut next: &mut [R] = term_b;
    step.term(
        &px_band[..w],
        &py_band[..w],
        halo.py_above,
        &v_band[..w],
        r0 + 1 == h,
        cur,
    );
    for i in 0..rows {
        let y = r0 + i;
        let lo = i * w;
        if y + 1 == h {
            step.update_last(cur, &mut px_band[lo..lo + w], &mut py_band[lo..lo + w]);
            continue;
        }
        if i + 1 < rows {
            let (px_here, px_next) = px_band[lo..lo + 2 * w].split_at_mut(w);
            let (py_here, py_next) = py_band[lo..lo + 2 * w].split_at_mut(w);
            let v_next = &v_band[lo + w..lo + 2 * w];
            step.term_and_update(
                px_next,
                py_next,
                v_next,
                y + 2 == h,
                cur,
                next,
                px_here,
                py_here,
            );
        } else {
            let below = halo.below.as_ref().expect("below halo checked above");
            step.term_and_update(
                below.px,
                below.py,
                below.v,
                y + 2 == h,
                cur,
                next,
                &mut px_band[lo..lo + w],
                &mut py_band[lo..lo + w],
            );
        }
        std::mem::swap(&mut cur, &mut next);
    }
}

/// A stack of `w`-wide rows held as three segments — halo above, own rows,
/// halo below — so a band updates its own rows in place while its halo
/// lives in scratch. Any segment may be empty.
pub(crate) struct Rows<'a, R> {
    segments: [&'a mut [R]; 3],
    w: usize,
}

impl<'a, R> Rows<'a, R> {
    /// The rows `[above | own | below]`.
    pub(crate) fn new(above: &'a mut [R], own: &'a mut [R], below: &'a mut [R], w: usize) -> Self {
        Rows {
            segments: [above, own, below],
            w,
        }
    }

    /// One contiguous block of rows.
    pub(crate) fn whole(rows: &'a mut [R], w: usize) -> Self {
        Rows::new(&mut [], rows, &mut [], w)
    }

    fn height(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum::<usize>() / self.w
    }

    /// `(segment, row within it)` of row `y`.
    fn locate(&self, mut y: usize) -> (usize, usize) {
        for (s, segment) in self.segments.iter().enumerate() {
            let rows = segment.len() / self.w;
            if y < rows {
                return (s, y);
            }
            y -= rows;
        }
        panic!("row out of range");
    }

    fn row(&self, y: usize) -> &[R] {
        let (s, i) = self.locate(y);
        &self.segments[s][i * self.w..(i + 1) * self.w]
    }

    fn row_mut(&mut self, y: usize) -> &mut [R] {
        let (s, i) = self.locate(y);
        &mut self.segments[s][i * self.w..(i + 1) * self.w]
    }

    /// Row `y` for writing and row `y + 1` for reading.
    fn pair_mut(&mut self, y: usize) -> (&mut [R], &[R]) {
        let w = self.w;
        let (s, i) = self.locate(y);
        if (i + 2) * w <= self.segments[s].len() {
            let (here, next) = self.segments[s][i * w..(i + 2) * w].split_at_mut(w);
            return (here, next);
        }
        // Row y + 1 opens the next non-empty segment.
        let (head, tail) = self.segments.split_at_mut(s + 1);
        let next = tail
            .iter()
            .find(|segment| !segment.is_empty())
            .expect("row out of range");
        (&mut head[s][i * w..(i + 1) * w], &next[..w])
    }
}

impl<'a, R: Real> Rows<'a, R> {
    /// The same rows as `f32`; `R` must be `f32`.
    fn into_f32(self) -> Rows<'a, f32> {
        let Rows { segments, w } = self;
        Rows {
            segments: segments.map(|s| f32_slice_mut(s).expect("R is f32")),
            w,
        }
    }
}

/// `k` Chambolle iterations over `px`/`py` in **one pass over the rows**:
/// the cache-level instance of the paper's loop decomposition.
///
/// Runs `k` staggered copies of the fused single-pass machine over the
/// shared rows, which are treated as a whole frame (the first and last rows
/// take the frame-border rules). At step `t`, level `l` (0-indexed) updates
/// row `t − l`: it reads row `t − l + 1`, which level `l − 1` finished
/// earlier in the *same* step, so a one-row stagger is exactly the
/// dependency distance of the dual update. Level `l` owns the term-row pair
/// `rings[2lw..2(l+1)w]`; it has consumed one term row per row it updated,
/// so the parity of the row index says which half is current. The working
/// set is `2k` term rows plus a ~`k + 2`-row window of `px`/`py`/`v`.
///
/// Every level performs the per-cell operations of one whole-frame
/// iteration on the values the previous level left, so the result is
/// bit-identical to `k` calls of [`band_iteration`] over the same rows.
fn wavefront<R: Real>(
    step: &impl RowStep<R>,
    mut px: Rows<'_, R>,
    mut py: Rows<'_, R>,
    v: &[R],
    k: usize,
    rings: &mut [R],
) {
    let w = px.w;
    let n = px.height();
    debug_assert_eq!(py.height(), n, "py misshapen");
    debug_assert_eq!(v.len(), n * w, "v misshapen");
    for t in 0..n + k - 1 {
        for (l, ring) in rings[..2 * k * w].chunks_exact_mut(2 * w).enumerate() {
            let Some(y) = t.checked_sub(l) else { break };
            if y >= n {
                continue;
            }
            let (a, b) = ring.split_at_mut(w);
            let (cur, next) = if y % 2 == 0 { (a, b) } else { (b, a) };
            if y == 0 {
                // The level's first term row, from level l − 1's final row 0
                // (the input for l = 0).
                step.term(px.row(0), py.row(0), None, &v[..w], n == 1, cur);
            }
            if y + 1 < n {
                // Row y + 1 holds level l − 1 state (updated earlier this
                // step); py row y is still pre-update for this level.
                let (px_here, px_next) = px.pair_mut(y);
                let (py_here, py_next) = py.pair_mut(y);
                let v_next = &v[(y + 1) * w..(y + 2) * w];
                step.term_and_update(
                    px_next,
                    py_next,
                    v_next,
                    y + 2 == n,
                    cur,
                    next,
                    px_here,
                    py_here,
                );
            } else {
                step.update_last(cur, px.row_mut(y), py.row_mut(y));
            }
        }
    }
}

/// The row step a solve runs — picked by `(NumericsPolicy, KernelBackend)`
/// — and its parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepPolicy<R> {
    backend: KernelBackend,
    numerics: NumericsPolicy,
    inv_theta: R,
    step_ratio: R,
}

impl<R: Real> StepPolicy<R> {
    pub(crate) fn new(
        params: &ChambolleParams,
        backend: KernelBackend,
        numerics: NumericsPolicy,
    ) -> Self {
        StepPolicy {
            backend,
            numerics,
            inv_theta: R::ONE / R::from_f32(params.theta),
            step_ratio: R::from_f32(params.step_ratio()),
        }
    }

    /// Runs `k` iterations over `px`/`py` as one depth-`k` [`wavefront`].
    /// `rings` is the caller's reusable term-row scratch. The Fast tier
    /// applies to `f32` solves; `f64` solves always run Exact.
    pub(crate) fn sweep(
        &self,
        px: Rows<'_, R>,
        py: Rows<'_, R>,
        v: &[R],
        k: usize,
        rings: &mut Vec<R>,
    ) {
        rings.resize(2 * k * px.w, R::ZERO);
        if self.numerics == NumericsPolicy::Fast && TypeId::of::<R>() == TypeId::of::<f32>() {
            // `f32 → f64 → f32` round-trips exactly, so the tier change
            // never perturbs the solve parameters.
            let step = FastStep {
                backend: self.backend,
                inv_theta: self.inv_theta.to_f64() as f32,
                step_ratio: self.step_ratio.to_f64() as f32,
            };
            let v = f32_slice(v).expect("R is f32");
            let rings = f32_slice_mut(rings).expect("R is f32");
            wavefront(&step, px.into_f32(), py.into_f32(), v, k, rings);
        } else {
            let step = ExactStep {
                backend: self.backend,
                inv_theta: self.inv_theta,
                step_ratio: self.step_ratio,
            };
            wavefront(&step, px, py, v, k, rings);
        }
    }
}

/// A band's scratch, reused across rounds: its old-`p` halo rows and the
/// wavefront's term rings.
#[derive(Default)]
struct BandScratch<R> {
    px_above: Vec<R>,
    py_above: Vec<R>,
    px_below: Vec<R>,
    py_below: Vec<R>,
    rings: Vec<R>,
}

/// A band's share of one round: its own rows of `p` and its scratch.
struct BandWork<'a, R> {
    px: &'a mut [R],
    py: &'a mut [R],
    scratch: &'a mut BandScratch<R>,
}

/// Runs `iterations` Chambolle iterations on `p` under `ctx`: the body of
/// [`crate::chambolle_iterate_with_ctx`].
///
/// The frame is split into full-width row bands, one per pool worker. Each
/// round of `k ≤ TEMPORAL_FUSION_DEPTH` iterations first copies every
/// band's old-`p` halo ([`halo`] rows, clipped to the frame), then runs
/// every band's depth-`k` [`wavefront`] over `[halo above | own rows |
/// halo below]` in one pool dispatch. After the round each band's own rows
/// hold the global state after `k` more iterations. The token is polled
/// before every round.
pub(crate) fn iterate<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    assert_eq!(p.dims(), v.dims(), "dual field and v must match in size");
    let (w, h) = v.dims();
    if w == 0 || h == 0 {
        return Ok(());
    }
    let step = StepPolicy::new(params, ctx.backend(), ctx.numerics());
    let pool = ctx.pool().map(Arc::as_ref);
    let bands = pool.map_or(1, ThreadPool::threads).min(h);
    // Deterministic band bounds; the result does not depend on them.
    let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
    let mut scratch: Vec<BandScratch<R>> = (0..bands).map(|_| BandScratch::default()).collect();

    let mut remaining = iterations;
    while remaining > 0 {
        ctx.checkpoint()?;
        let k = remaining.min(TEMPORAL_FUSION_DEPTH);
        remaining -= k;
        let (lead, trail) = halo(k as usize);
        let window = |b: usize| {
            let (r0, r1) = (bounds[b], bounds[b + 1]);
            (r0.saturating_sub(lead), r0, r1, (r1 + trail).min(h))
        };
        // Every halo is copied before any band writes its rows.
        let copy = |dst: &mut Vec<R>, src: &Grid<R>, rows: Range<usize>| {
            dst.clear();
            dst.extend_from_slice(&src.as_slice()[rows.start * w..rows.end * w]);
        };
        for (b, s) in scratch.iter_mut().enumerate() {
            let (s0, r0, r1, s1) = window(b);
            copy(&mut s.px_above, &p.px, s0..r0);
            copy(&mut s.py_above, &p.py, s0..r0);
            copy(&mut s.px_below, &p.px, r1..s1);
            copy(&mut s.py_below, &p.py, r1..s1);
        }
        let (mut px_rest, mut py_rest) = (p.px.as_mut_slice(), p.py.as_mut_slice());
        let work: Vec<Mutex<BandWork<'_, R>>> = scratch
            .iter_mut()
            .enumerate()
            .map(|(b, scratch)| {
                let len = (bounds[b + 1] - bounds[b]) * w;
                let (px, px_tail) = std::mem::take(&mut px_rest).split_at_mut(len);
                let (py, py_tail) = std::mem::take(&mut py_rest).split_at_mut(len);
                (px_rest, py_rest) = (px_tail, py_tail);
                Mutex::new(BandWork { px, py, scratch })
            })
            .collect();
        let run = |b: usize| {
            let mut guard = work[b].lock().expect("band work poisoned");
            let BandWork { px, py, scratch } = &mut *guard;
            let s = &mut **scratch;
            let (s0, _, _, s1) = window(b);
            step.sweep(
                Rows::new(&mut s.px_above, px, &mut s.px_below, w),
                Rows::new(&mut s.py_above, py, &mut s.py_below, w),
                &v.as_slice()[s0 * w..s1 * w],
                k as usize,
                &mut s.rings,
            );
        };
        match pool {
            Some(pool) if bands > 1 => {
                pool.parallel_tiles("par.solver.round", bands, |_, b| run(b))
            }
            _ => run(0),
        }
    }
    Ok(())
}
