//! Discrete TV operators: forward-difference gradient and its negative
//! adjoint, the backward-difference divergence.
//!
//! These are the `Forward*`/`Backward*` functions of the paper's Algorithm 1.
//! Note on conventions: the paper's prose describes `ForwardX(z)` as "each
//! element reduced by its right neighbor" (`z[x] − z[x+1]`), which is the
//! *negative* of the standard forward difference; taken literally the dual
//! update ascends instead of descending and diverges (see
//! `solver::tests::literal_prose_convention_diverges`). We implement the
//! standard Chambolle (2004) discretization, which is what the paper's
//! sources \[11\]–\[13\] use:
//!
//! - gradient (forward, Neumann): `(∇z)ˣ[x] = z[x+1] − z[x]`, zero at the
//!   last column;
//! - divergence (backward, adjoint boundary rules):
//!   `(div p)ˣ[x] = px[x] − px[x−1]` in the interior, `px[0]` at the first
//!   column and `−px[x−1]` at the last.
//!
//! With these rules `⟨∇u, p⟩ = −⟨u, div p⟩` exactly (tested below), which is
//! what the convergence proof needs.

use chambolle_imaging::Grid;

use crate::real::Real;

/// Forward difference in x with Neumann boundary (zero at the last column):
/// the paper's `ForwardX` in the standard sign convention.
pub fn forward_diff_x<R: Real>(z: &Grid<R>) -> Grid<R> {
    let mut out = Grid::new(z.width(), z.height(), R::ZERO);
    forward_diff_x_into(z, &mut out);
    out
}

/// In-place variant of [`forward_diff_x`] (reuses `out`'s storage).
///
/// # Panics
///
/// Panics if `out` has different dimensions from `z`.
pub fn forward_diff_x_into<R: Real>(z: &Grid<R>, out: &mut Grid<R>) {
    assert_eq!(z.dims(), out.dims(), "output grid must match input size");
    let (w, h) = z.dims();
    for y in 0..h {
        for x in 0..w {
            out[(x, y)] = if x + 1 < w {
                z[(x + 1, y)] - z[(x, y)]
            } else {
                R::ZERO
            };
        }
    }
}

/// Forward difference in y with Neumann boundary (zero at the last row):
/// the paper's `ForwardY` in the standard sign convention.
pub fn forward_diff_y<R: Real>(z: &Grid<R>) -> Grid<R> {
    let mut out = Grid::new(z.width(), z.height(), R::ZERO);
    forward_diff_y_into(z, &mut out);
    out
}

/// In-place variant of [`forward_diff_y`].
///
/// # Panics
///
/// Panics if `out` has different dimensions from `z`.
pub fn forward_diff_y_into<R: Real>(z: &Grid<R>, out: &mut Grid<R>) {
    assert_eq!(z.dims(), out.dims(), "output grid must match input size");
    let (w, h) = z.dims();
    for y in 0..h {
        for x in 0..w {
            out[(x, y)] = if y + 1 < h {
                z[(x, y + 1)] - z[(x, y)]
            } else {
                R::ZERO
            };
        }
    }
}

/// Backward-difference x-component of the divergence at one cell, with
/// Chambolle's boundary rules. `BackwardX` of the paper.
#[inline]
pub fn div_x_at<R: Real>(px: &Grid<R>, x: usize, y: usize) -> R {
    let w = px.width();
    if w == 1 {
        // A single column has a zero gradient, so the adjoint is zero too.
        R::ZERO
    } else if x == 0 {
        px[(0, y)]
    } else if x + 1 < w {
        px[(x, y)] - px[(x - 1, y)]
    } else {
        -px[(x - 1, y)]
    }
}

/// Backward-difference y-component of the divergence at one cell, with
/// Chambolle's boundary rules. `BackwardY` of the paper.
#[inline]
pub fn div_y_at<R: Real>(py: &Grid<R>, x: usize, y: usize) -> R {
    let h = py.height();
    if h == 1 {
        // A single row has a zero gradient, so the adjoint is zero too.
        R::ZERO
    } else if y == 0 {
        py[(x, 0)]
    } else if y + 1 < h {
        py[(x, y)] - py[(x, y - 1)]
    } else {
        -py[(x, y - 1)]
    }
}

/// Divergence of a dual vector field:
/// `div p = BackwardX(px) + BackwardY(py)` with adjoint boundary rules.
///
/// # Panics
///
/// Panics if `px` and `py` dimensions differ.
pub fn divergence<R: Real>(px: &Grid<R>, py: &Grid<R>) -> Grid<R> {
    let mut out = Grid::new(px.width(), px.height(), R::ZERO);
    divergence_into(px, py, &mut out);
    out
}

/// In-place variant of [`divergence`].
///
/// # Panics
///
/// Panics if grid dimensions differ.
pub fn divergence_into<R: Real>(px: &Grid<R>, py: &Grid<R>, out: &mut Grid<R>) {
    assert_eq!(px.dims(), py.dims(), "px and py must match in size");
    assert_eq!(px.dims(), out.dims(), "output grid must match input size");
    for y in 0..px.height() {
        divergence_row(px, py, y, out.row_mut(y));
    }
}

/// Row `y` of `div p` into `out`, bit-identical to
/// `div_x_at(px, x, y) + div_y_at(py, x, y)` at every `x`: the whole
/// `div_y` row first (one of the four y-boundary shapes), then `div_x` is
/// added in front of it with the x-boundary rules resolved once per row.
pub(crate) fn divergence_row<R: Real>(px: &Grid<R>, py: &Grid<R>, y: usize, out: &mut [R]) {
    let (w, h) = px.dims();
    debug_assert_eq!(out.len(), w);
    let py_row = py.row(y);
    if h == 1 {
        // A single row has a zero gradient, so the adjoint is zero too.
        out.fill(R::ZERO);
    } else if y == 0 {
        out.copy_from_slice(py_row);
    } else if y + 1 < h {
        for ((d, &p), &a) in out.iter_mut().zip(py_row).zip(py.row(y - 1)) {
            *d = p - a;
        }
    } else {
        for (d, &a) in out.iter_mut().zip(py.row(y - 1)) {
            *d = -a;
        }
    }
    let px_row = px.row(y);
    match w {
        0 => {}
        // A single column has a zero gradient, so the adjoint is zero too.
        1 => out[0] = R::ZERO + out[0],
        _ => {
            out[0] = px_row[0] + out[0];
            for (d, pair) in out[1..w - 1].iter_mut().zip(px_row.windows(2)) {
                *d = (pair[1] - pair[0]) + *d;
            }
            out[w - 1] = -px_row[w - 2] + out[w - 1];
        }
    }
}

/// Total variation `Σ |∇u|` with the forward-difference gradient.
pub fn total_variation<R: Real>(u: &Grid<R>) -> f64 {
    let (w, h) = u.dims();
    let mut acc = 0.0f64;
    for y in 0..h {
        for x in 0..w {
            let gx = if x + 1 < w {
                (u[(x + 1, y)] - u[(x, y)]).to_f64()
            } else {
                0.0
            };
            let gy = if y + 1 < h {
                (u[(x, y + 1)] - u[(x, y)]).to_f64()
            } else {
                0.0
            };
            acc += (gx * gx + gy * gy).sqrt();
        }
    }
    acc
}

/// Inner product `⟨a, b⟩ = Σ a·b` over matching grids, accumulated in `f64`.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn inner_product<R: Real>(a: &Grid<R>, b: &Grid<R>) -> f64 {
    assert_eq!(a.dims(), b.dims(), "grids must match in size");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x.to_f64() * y.to_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_from(vals: &[f64], w: usize, h: usize) -> Grid<f64> {
        Grid::from_vec(w, h, vals.to_vec()).unwrap()
    }

    #[test]
    fn forward_diff_of_ramp() {
        let z = Grid::from_fn(4, 3, |x, _| x as f64);
        let gx = forward_diff_x(&z);
        for y in 0..3 {
            assert_eq!(gx[(0, y)], 1.0);
            assert_eq!(gx[(2, y)], 1.0);
            assert_eq!(gx[(3, y)], 0.0, "Neumann boundary");
        }
        let gy = forward_diff_y(&z);
        assert!(gy.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn divergence_boundary_rules() {
        // px = 1 everywhere: div_x = 1 at x=0, 0 interior, -1 at x=W-1.
        let px = Grid::new(4, 1, 1.0f64);
        let py = Grid::new(4, 1, 0.0f64);
        let d = divergence(&px, &py);
        assert_eq!(d.as_slice(), &[1.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn divergence_ignores_last_column_px() {
        let mut px = Grid::new(4, 2, 0.0f64);
        px[(3, 0)] = 5.0; // never read by the adjoint divergence
        let py = Grid::new(4, 2, 0.0f64);
        let d = divergence(&px, &py);
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adjointness_on_fixed_example() {
        let u = grid_from(&[1.0, -2.0, 3.0, 0.5, 4.0, -1.0], 3, 2);
        let px = grid_from(&[0.2, -0.7, 0.1, 0.9, -0.3, 0.4], 3, 2);
        let py = grid_from(&[-0.5, 0.6, 0.8, 0.0, 0.3, -0.9], 3, 2);
        let gx = forward_diff_x(&u);
        let gy = forward_diff_y(&u);
        let lhs = inner_product(&gx, &px) + inner_product(&gy, &py);
        let rhs = -inner_product(&u, &divergence(&px, &py));
        assert!((lhs - rhs).abs() < 1e-12, "⟨∇u,p⟩ = -⟨u,div p⟩ violated");
    }

    #[test]
    fn total_variation_of_step() {
        // A single vertical edge of height h and jump 1 has TV = h.
        let u = Grid::from_fn(6, 4, |x, _| if x < 3 { 0.0f64 } else { 1.0 });
        assert!((total_variation(&u) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn total_variation_nonnegative_and_zero_on_constant() {
        let u = Grid::new(5, 5, 3.25f64);
        assert_eq!(total_variation(&u), 0.0);
    }

    #[test]
    fn row_wise_divergence_and_recover_u_match_pointwise() {
        use crate::solver::{recover_u, DualField};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1F);
        // Signed zeros next to random values, so every boundary expression
        // also shows which zero it produces.
        let mut field = |w: usize, h: usize| {
            Grid::from_fn(w, h, |_, _| match rng.gen_range(0..3) {
                0 => 0.0f32,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
        };
        let bits = |g: &Grid<f32>| g.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let sizes = [1usize, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31];
        for (w, h) in sizes.iter().flat_map(|&w| sizes.map(|h| (w, h))) {
            let p = DualField {
                px: field(w, h),
                py: field(w, h),
            };
            let v = field(w, h);
            let div = Grid::from_fn(w, h, |x, y| div_x_at(&p.px, x, y) + div_y_at(&p.py, x, y));
            assert_eq!(bits(&divergence(&p.px, &p.py)), bits(&div), "div {w}x{h}");
            let th = 0.25f32;
            let u = Grid::from_fn(w, h, |x, y| v[(x, y)] - th * div[(x, y)]);
            assert_eq!(bits(&recover_u(&v, &p, th)), bits(&u), "u {w}x{h}");
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_divergence_panics() {
        let px = Grid::new(3, 3, 0.0f64);
        let py = Grid::new(4, 3, 0.0f64);
        divergence(&px, &py);
    }

    proptest! {
        /// The discrete Gauss identity ⟨∇u, p⟩ = -⟨u, div p⟩ must hold for
        /// arbitrary fields — this is what makes the dual iteration converge.
        #[test]
        fn adjointness_random(
            w in 1usize..9,
            h in 1usize..9,
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let u = Grid::from_fn(w, h, |_, _| rng.gen_range(-1.0f64..1.0));
            let px = Grid::from_fn(w, h, |_, _| rng.gen_range(-1.0f64..1.0));
            let py = Grid::from_fn(w, h, |_, _| rng.gen_range(-1.0f64..1.0));
            let lhs = inner_product(&forward_diff_x(&u), &px)
                + inner_product(&forward_diff_y(&u), &py);
            let rhs = -inner_product(&u, &divergence(&px, &py));
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }

        /// div and ∇ are linear; check additivity of div on random fields.
        #[test]
        fn divergence_is_linear(
            w in 1usize..8,
            h in 1usize..8,
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mk = |rng: &mut StdRng| Grid::from_fn(w, h, |_, _| rng.gen_range(-1.0f64..1.0));
            let (pxa, pya, pxb, pyb) = (mk(&mut rng), mk(&mut rng), mk(&mut rng), mk(&mut rng));
            let sum_px = Grid::from_fn(w, h, |x, y| pxa[(x, y)] + pxb[(x, y)]);
            let sum_py = Grid::from_fn(w, h, |x, y| pya[(x, y)] + pyb[(x, y)]);
            let da = divergence(&pxa, &pya);
            let db = divergence(&pxb, &pyb);
            let dsum = divergence(&sum_px, &sum_py);
            for i in 0..dsum.len() {
                prop_assert!((dsum.as_slice()[i] - (da.as_slice()[i] + db.as_slice()[i])).abs() < 1e-12);
            }
        }
    }
}
