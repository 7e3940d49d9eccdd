//! Probes of single layers, timed from outside through their public
//! functions: kernel, memory bandwidth, schedule and pool. Each writes its
//! per-layer metrics and records a span per timed call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chambolle_core::fast::fused_band_iteration_fast;
use chambolle_core::kernels::BandHalo;
use chambolle_core::{
    chambolle_iterate_tiled_with_ctx, chambolle_iterate_with_ctx, ChambolleParams, DualField,
    ExecCtx, KernelBackend, NumericsPolicy, TileConfig, TilePlan,
};
use chambolle_imaging::Grid;
use chambolle_par::ThreadPool;
use chambolle_tune::Tunables;

use crate::host;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Recorder;

/// Worker threads of every pool the benchmark builds.
pub const THREADS: usize = 2;

/// Bytes one fused iteration moves per pixel, computed from array traffic:
/// it reads `px`, `py` and `v` and writes `px` and `py`, four bytes each.
/// The two rolling term rows stay in cache and are not counted. The Fast
/// tier's fused iteration touches the same five arrays.
pub const BYTES_PER_PX_ITER: f64 = 20.0;

/// The kernel backend every context runs: the widest the CPU supports.
pub fn backend() -> KernelBackend {
    KernelBackend::detect()
}

/// A context with an explicit tier, backend and pool (no pool: 1 thread),
/// built from the default tunables so nothing ambient can leak in.
pub fn ctx(numerics: NumericsPolicy, pool: Option<&Arc<ThreadPool>>) -> ExecCtx {
    let ctx = ExecCtx::from_tunables(Tunables::default())
        .with_backend(backend())
        .with_numerics(numerics);
    match pool {
        Some(pool) => ctx.with_pool(Arc::clone(pool)),
        None => ctx,
    }
}

/// Repeats `round` until `budget` has passed (at least `min` and at most
/// `max` rounds).
fn repeat(budget: Duration, min: usize, max: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || (n < max && start.elapsed() < budget) {
        round();
        n += 1;
    }
}

/// One full-frame fused iteration per call on one thread: Exact on the
/// scalar and AVX2 backends and the Fast row kernels, interleaved so drift
/// hits every variant alike. Also derives achieved bandwidth and its share
/// of `triad_gbs`. The Exact tier has no AVX-512 code of its own (its
/// AVX-512 backend runs the AVX2 bodies), so it has no figure of its own;
/// the Fast kernel runs on the widest backend, AVX-512 where supported.
pub fn kernel(
    v: &Grid<f32>,
    budget: Duration,
    triad_gbs: f64,
    m: &mut Metrics,
    rec: &mut Recorder,
) {
    let (w, h) = v.dims();
    let params = ChambolleParams::default();
    let (inv_theta, step) = (1.0 / params.theta, params.step_ratio());
    let (mut px, mut py) = (vec![0.0f32; w * h], vec![0.0f32; w * h]);
    let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
    let no_halo = || BandHalo {
        py_above: None,
        below: None,
    };
    let exact = [
        ("kernel.exact.scalar", KernelBackend::Scalar),
        ("kernel.exact.avx2", KernelBackend::Avx2),
    ];
    let mut ns = vec![Vec::new(); exact.len() + 1];
    let px_count = (w * h) as f64;
    repeat(budget, 5, 5000, || {
        for (i, &(name, b)) in exact.iter().enumerate() {
            let id = rec.open(name, None);
            b.fused_band_iteration(
                &mut px,
                &mut py,
                v.as_slice(),
                w,
                h,
                0,
                no_halo(),
                inv_theta,
                step,
                &mut ta,
                &mut tb,
            );
            ns[i].push(rec.close(id) * 1e6 / px_count);
        }
        let id = rec.open("kernel.fast", None);
        fused_band_iteration_fast(
            backend(),
            &mut px,
            &mut py,
            v.as_slice(),
            w,
            h,
            0,
            no_halo(),
            inv_theta,
            step,
            &mut ta,
            &mut tb,
        );
        ns[exact.len()].push(rec.close(id) * 1e6 / px_count);
        black_box((&px, &py));
    });
    for (i, &(name, _)) in exact.iter().enumerate() {
        m.put(format!("{name}.ns_px"), median(&ns[i]), "ns/px");
    }
    m.put("kernel.fast.ns_px", median(&ns[exact.len()]), "ns/px");
    // A backend the CPU lacks runs the scalar code; the record says which
    // code the AVX2 figure timed.
    let avx2 = KernelBackend::Avx2.is_supported();
    m.note(
        "kernel_exact_avx2_ran",
        if avx2 { "avx2" } else { "scalar" }.into(),
    );
    // The Exact figure of the code the workloads run: the AVX2 bodies on
    // AVX2 and AVX-512 hosts, the scalar code elsewhere.
    let exact_best = median(&ns[usize::from(avx2)]);
    for (tier, ns_px) in [("exact", exact_best), ("fast", median(&ns[exact.len()]))] {
        let gbs = BYTES_PER_PX_ITER / ns_px;
        m.put(format!("kernel.{tier}.bytes_px"), BYTES_PER_PX_ITER, "B/px");
        m.put(format!("kernel.{tier}.gbs"), gbs, "GB/s");
        m.put(
            format!("kernel.{tier}.roofline_frac"),
            gbs / triad_gbs,
            "ratio",
        );
    }
}

/// STREAM triad `a = b + s·c` on one thread over `f64` arrays each at least
/// four times the last-level cache; reports the median of five timed passes
/// after one untimed pass that faults the pages in.
pub fn triad(m: &mut Metrics, rec: &mut Recorder) -> f64 {
    const FALLBACK_LLC: usize = 32 << 20;
    let llc = host::last_level_cache_bytes().unwrap_or(FALLBACK_LLC);
    let n = 4 * llc / std::mem::size_of::<f64>();
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let pass = |a: &mut [f64]| {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&*a);
    };
    pass(&mut a);
    let mut gbs = Vec::new();
    for _ in 0..5 {
        let id = rec.open("mem.triad", None);
        pass(&mut a);
        let ms = rec.close(id);
        gbs.push((3 * n * std::mem::size_of::<f64>()) as f64 / (ms * 1e6));
    }
    let triad = median(&gbs);
    m.put("mem.triad_gbs", triad, "GB/s");
    m.note("triad_array_bytes", (n * std::mem::size_of::<f64>()).into());
    triad
}

/// The iteration schedules on `v` for `iterations`: the fused sequential
/// sweep (1 thread), the banded sweep on a 2-thread pool, at both tiers,
/// and the paper's tiled schedule on the same pool.
pub fn schedule(
    v: &Grid<f32>,
    iterations: u32,
    pool: &Arc<ThreadPool>,
    budget: Duration,
    m: &mut Metrics,
    rec: &mut Recorder,
) {
    let params = ChambolleParams::with_iterations(iterations);
    let (w, h) = v.dims();
    let tile = TileConfig::default();
    let runs: [(&'static str, ExecCtx, bool); 5] = [
        ("sched.exact.1t", ctx(NumericsPolicy::Exact, None), false),
        (
            "sched.exact.2t",
            ctx(NumericsPolicy::Exact, Some(pool)),
            false,
        ),
        ("sched.fast.1t", ctx(NumericsPolicy::Fast, None), false),
        (
            "sched.fast.2t",
            ctx(NumericsPolicy::Fast, Some(pool)),
            false,
        ),
        (
            "sched.tiled.2t",
            ctx(NumericsPolicy::Exact, Some(pool)),
            true,
        ),
    ];
    let mut ms = vec![Vec::new(); runs.len()];
    repeat(budget, 3, 500, || {
        for (i, (name, c, tiled)) in runs.iter().enumerate() {
            let mut p = DualField::zeros(w, h);
            let id = rec.open(name, None);
            let done = if *tiled {
                chambolle_iterate_tiled_with_ctx(&mut p, v, &params, iterations, &tile, c)
            } else {
                chambolle_iterate_with_ctx(&mut p, v, &params, iterations, c)
            };
            ms[i].push(rec.close(id));
            done.expect("no cancellation token is attached");
            black_box(&p);
        }
    });
    let med: Vec<f64> = ms.iter().map(|v| median(v)).collect();
    for ((name, _, _), &t) in runs.iter().zip(&med) {
        m.put(format!("{name}_ms"), t, "ms");
    }
    // Efficiency of the 2-thread banded sweep over the 1-thread one, per tier.
    m.put(
        "sched.exact.par_eff",
        med[0] / (THREADS as f64 * med[1]),
        "ratio",
    );
    m.put(
        "sched.fast.par_eff",
        med[2] / (THREADS as f64 * med[3]),
        "ratio",
    );
    m.put(
        "sched.tiled.redundancy",
        TilePlan::new(w, h, tile).redundancy_fraction(),
        "ratio",
    );
}

/// Cost of one empty `parallel_tiles` dispatch over the pool's workers.
pub fn dispatch(pool: &ThreadPool, m: &mut Metrics, rec: &mut Recorder) {
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let id = rec.open("par.dispatch", None);
        pool.parallel_tiles("ledger.empty", THREADS, |_, i| {
            black_box(i);
        });
        us.push(rec.close(id) * 1e3);
    }
    m.put("par.dispatch_us", median(&us), "us");
}
