//! The Fast-tier accuracy contract, pinned across every axis that changes
//! its code path.
//!
//! The `Exact` tier promises bit equality; the `Fast` tier promises the
//! paper's validation model instead — agreement with the reference solve
//! within an energy/duality-gap tolerance
//! ([`NumericsPolicy::ENERGY_RTOL`]) and a per-pixel bound
//! ([`NumericsPolicy::PIXEL_ATOL`]) on unit-range images. This harness
//! sweeps kernel backends, thread counts and iteration budgets (which
//! exercise different K-deep temporal-fusion tails) and checks both bounds,
//! plus the determinism the Fast tier *does* still guarantee: identical
//! results across thread counts for a fixed backend.

use std::sync::Arc;

use chambolle::core::fast::fused_band_iteration_fast;
use chambolle::core::kernels::BandHalo;
use chambolle::core::{
    chambolle_denoise_with_ctx, recover_u, rof_energy, ChambolleParams, DualField, ExecCtx,
    KernelBackend, NumericsPolicy,
};
use chambolle::imaging::{Grid, NoiseTexture, Scene};
use chambolle::par::ThreadPool;

fn supported_backends() -> Vec<KernelBackend> {
    [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ]
    .into_iter()
    .filter(KernelBackend::is_supported)
    .collect()
}

fn solve(
    v: &Grid<f32>,
    params: &ChambolleParams,
    numerics: NumericsPolicy,
    backend: KernelBackend,
    threads: Option<usize>,
) -> Grid<f32> {
    let mut ctx = ExecCtx::default()
        .with_numerics(numerics)
        .with_backend(backend);
    if let Some(n) = threads {
        ctx = ctx.with_pool(Arc::new(ThreadPool::new(n)));
    }
    let (u, _) = chambolle_denoise_with_ctx(v, params, &ctx).expect("no cancellation token");
    u
}

/// Max |Δpixel| and relative ROF-energy disagreement of `fast` vs `exact`.
fn deviations(
    exact: &Grid<f32>,
    fast: &Grid<f32>,
    v: &Grid<f32>,
    params: &ChambolleParams,
) -> (f32, f64) {
    let pixel = exact
        .as_slice()
        .iter()
        .zip(fast.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let e_exact = rof_energy(exact, v, params.theta);
    let e_fast = rof_energy(fast, v, params.theta);
    let energy = ((e_exact - e_fast) / e_exact.abs().max(f64::MIN_POSITIVE)).abs();
    (pixel, energy)
}

#[test]
fn fast_tier_stays_within_tolerance_across_backends_and_budgets() {
    let v = NoiseTexture::new(17).render(96, 80);
    // Budgets straddling the temporal-fusion depth: a partial sweep, exact
    // multiples, and a long run with a ragged tail.
    for iterations in [1u32, 3, 4, 8, 30, 101] {
        let params = ChambolleParams::with_iterations(iterations);
        let exact = solve(
            &v,
            &params,
            NumericsPolicy::Exact,
            KernelBackend::active(),
            None,
        );
        for backend in supported_backends() {
            let fast = solve(&v, &params, NumericsPolicy::Fast, backend, None);
            let (pixel, energy) = deviations(&exact, &fast, &v, &params);
            assert!(
                pixel <= NumericsPolicy::PIXEL_ATOL,
                "{backend:?} iters={iterations}: pixel deviation {pixel}"
            );
            assert!(
                energy <= NumericsPolicy::ENERGY_RTOL,
                "{backend:?} iters={iterations}: energy deviation {energy}"
            );
        }
    }
}

#[test]
fn fast_tier_stays_within_tolerance_under_threading() {
    let v = NoiseTexture::new(23).render(120, 90);
    let params = ChambolleParams::with_iterations(25);
    let exact = solve(
        &v,
        &params,
        NumericsPolicy::Exact,
        KernelBackend::active(),
        None,
    );
    for backend in supported_backends() {
        for threads in [1usize, 2, 4] {
            let fast = solve(&v, &params, NumericsPolicy::Fast, backend, Some(threads));
            let (pixel, energy) = deviations(&exact, &fast, &v, &params);
            assert!(
                pixel <= NumericsPolicy::PIXEL_ATOL && energy <= NumericsPolicy::ENERGY_RTOL,
                "{backend:?} threads={threads}: pixel {pixel}, energy {energy}"
            );
        }
    }
}

/// `params.iterations` whole-frame Fast passes, one iteration at a time:
/// the per-iteration reference the fused, banded Fast solve must match.
fn fast_per_iteration_reference(
    v: &Grid<f32>,
    params: &ChambolleParams,
    backend: KernelBackend,
) -> Grid<f32> {
    let (w, h) = v.dims();
    let mut p = DualField::zeros(w, h);
    let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
    for _ in 0..params.iterations {
        let no_halo = BandHalo {
            py_above: None,
            below: None,
        };
        fused_band_iteration_fast(
            backend,
            p.px.as_mut_slice(),
            p.py.as_mut_slice(),
            v.as_slice(),
            w,
            h,
            0,
            no_halo,
            1.0 / params.theta,
            params.step_ratio(),
            &mut ta,
            &mut tb,
        );
    }
    recover_u(v, &p, params.theta)
}

#[test]
fn fast_tier_is_thread_count_invariant_per_backend() {
    // Not a tolerance: for a fixed backend every band runs the same
    // full-width row kernels, so neither the band split nor the fusion
    // depth may change a single bit. The shapes put bands shorter than the
    // depth at 8 threads; the budgets make partial, whole and ragged rounds.
    let pools = [1usize, 2, 3, 4, 8].map(|n| Arc::new(ThreadPool::new(n)));
    let cases = [(110usize, 70usize, 18u32)].into_iter().chain(
        [(1usize, 1usize), (1, 9), (9, 1), (17, 13), (8, 31)]
            .into_iter()
            .flat_map(|(w, h)| [1u32, 7, 8, 9, 17].map(|n| (w, h, n))),
    );
    for (w, h, iterations) in cases {
        let v = NoiseTexture::new(29).render(w, h);
        let params = ChambolleParams::with_iterations(iterations);
        for backend in supported_backends() {
            let reference = fast_per_iteration_reference(&v, &params, backend);
            for pool in &pools {
                let ctx = ExecCtx::default()
                    .with_numerics(NumericsPolicy::Fast)
                    .with_backend(backend)
                    .with_pool(Arc::clone(pool));
                let (u, _) = chambolle_denoise_with_ctx(&v, &params, &ctx).expect("no token");
                assert_eq!(
                    reference.as_slice(),
                    u.as_slice(),
                    "{backend:?} {w}x{h} n={iterations}: fast tier drifted at {} threads",
                    pool.threads()
                );
            }
        }
    }
}

#[test]
fn exact_tier_is_bit_identical_across_backends() {
    // The flank the Fast tier must never erode: Exact solves replay the
    // scalar op order on every backend, bit for bit.
    let v = NoiseTexture::new(31).render(90, 60);
    let params = ChambolleParams::with_iterations(20);
    let reference = solve(
        &v,
        &params,
        NumericsPolicy::Exact,
        KernelBackend::Scalar,
        None,
    );
    for backend in supported_backends() {
        let u = solve(&v, &params, NumericsPolicy::Exact, backend, None);
        assert_eq!(reference.as_slice(), u.as_slice(), "{backend:?}");
    }
}
