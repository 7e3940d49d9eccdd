//! The denoise workloads: Table II's two rows. One 1024×768 or 512×512
//! frame, 200 iterations, Exact and Fast solves alternating back-to-back
//! from one caller on a 2-thread pool.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chambolle_core::{
    chambolle_denoise_with_ctx, rof_energy, ChambolleParams, ExecCtx, NumericsPolicy,
};
use chambolle_imaging::Grid;
use chambolle_par::ThreadPool;

use crate::host;
use crate::inputs::noisy_frame;
use crate::layers::{self, ctx, THREADS};
use crate::report::{Metrics, Outcome};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::Recorder;

/// Table II's 1024×768 row: a ≈12.6 MiB working set (`v`, `px`, `py`,
/// `u`), past the L2 of both threads together.
pub const XGA: (usize, usize) = (1024, 768);
/// Table II's 512×512 row: a 4 MiB working set, about one L2 per thread,
/// where per-iteration pool dispatch weighs about three times its share
/// on the 1024×768 frame.
pub const SQUARE_512: (usize, usize) = (512, 512);
/// Chambolle iterations per solve (Table II's largest count).
pub const ITERATIONS: u32 = 200;

/// Largest per-pixel difference a Fast solve may show against the Exact
/// reference after [`ITERATIONS`] iterations on these workloads' noisy
/// frames. `NumericsPolicy::PIXEL_ATOL` (1e-3) is pinned by the workspace
/// tests only up to 101 iterations on smooth frames; here the Fast tier
/// deviates by about 2.2e-3 on the 1024×768 frame, so the end-to-end bound
/// is stated separately.
pub const FAST_ATOL: f32 = 5e-3;

/// How far one Fast solve landed from the Exact reference.
#[derive(Debug, Clone, Copy)]
pub struct FastError {
    /// Largest per-pixel difference.
    pub pixel: f32,
    /// Relative difference of the ROF energies.
    pub energy: f64,
}

impl FastError {
    /// Within [`FAST_ATOL`] per pixel and `NumericsPolicy::ENERGY_RTOL` in
    /// energy.
    pub fn within(&self) -> bool {
        self.pixel <= FAST_ATOL && self.energy <= NumericsPolicy::ENERGY_RTOL
    }
}

/// Everything the timed loop needs, built before timing.
pub struct Setup {
    frame: Grid<f32>,
    params: ChambolleParams,
    reference: Grid<f32>,
    reference_energy: f64,
    pool: Arc<ThreadPool>,
    exact: ExecCtx,
    fast: ExecCtx,
}

/// Whether two frames hold the same bits.
pub fn bit_identical(a: &Grid<f32>, b: &Grid<f32>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest per-pixel difference between two frames of equal size.
pub fn max_abs_diff(a: &Grid<f32>, b: &Grid<f32>) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

impl Setup {
    /// The seeded `(width, height)` frame, its 1-thread Exact reference,
    /// the pool and one warm-up solve per tier (checked like the timed
    /// ones).
    pub fn new(seed: u64, (width, height): (usize, usize), outcome: &mut Outcome) -> Setup {
        let frame = noisy_frame(&mut SplitMix64::new(seed), width, height, 0.2);
        let params = ChambolleParams::with_iterations(ITERATIONS);
        let reference = solve(&frame, &params, &ctx(NumericsPolicy::Exact, None));
        let pool = Arc::new(ThreadPool::new(THREADS));
        let setup = Setup {
            exact: ctx(NumericsPolicy::Exact, Some(&pool)),
            fast: ctx(NumericsPolicy::Fast, Some(&pool)),
            reference_energy: rof_energy(&reference, &frame, params.theta),
            frame,
            params,
            reference,
            pool,
        };
        setup.solve_checked(NumericsPolicy::Exact, outcome);
        setup.solve_checked(NumericsPolicy::Fast, outcome);
        setup
    }

    /// The deviation of Fast output `u` from the Exact reference.
    pub fn fast_error(&self, u: &Grid<f32>) -> FastError {
        let energy = rof_energy(u, &self.frame, self.params.theta);
        FastError {
            pixel: max_abs_diff(u, &self.reference),
            energy: ((energy - self.reference_energy) / self.reference_energy).abs(),
        }
    }

    /// The deviation of one Fast solve, for the run's record.
    pub fn sample_fast_error(&self) -> FastError {
        self.fast_error(&solve(&self.frame, &self.params, &self.fast))
    }

    /// One timed solve at `tier`; returns its wall time in ms and the
    /// hypervisor's steal share meanwhile.
    fn solve_checked(&self, tier: NumericsPolicy, outcome: &mut Outcome) -> (f64, f64) {
        let c = match tier {
            NumericsPolicy::Exact => &self.exact,
            NumericsPolicy::Fast => &self.fast,
        };
        let (u, ms, steal) = host::timed(|| solve(&self.frame, &self.params, c));
        outcome.count(match tier {
            NumericsPolicy::Exact => bit_identical(&u, &self.reference),
            NumericsPolicy::Fast => self.fast_error(&u).within(),
        });
        (ms, steal)
    }

    /// The closed loop: Exact and Fast solves alternate until `seconds`
    /// have passed. Lane `a` is Exact, lane `b` is Fast.
    pub fn run(&self, seconds: f64, outcome: &mut Outcome, m: &mut Metrics) {
        let (mut exact, mut fast) = (Vec::new(), Vec::new());
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < end || exact.len() < 2 {
            exact.push(self.solve_checked(NumericsPolicy::Exact, outcome));
            fast.push(self.solve_checked(NumericsPolicy::Fast, outcome));
        }
        m.put_lane("a", &exact);
        m.put_lane("b", &fast);
    }

    /// The per-layer view: kernel and schedule on this frame, pool counts per
    /// Exact solve, and the tracing overhead of a span around the solve.
    pub fn traced(
        &self,
        budget: Duration,
        triad_gbs: f64,
        outcome: &mut Outcome,
        m: &mut Metrics,
        rec: &mut Recorder,
    ) {
        layers::kernel(&self.frame, budget, triad_gbs, m, rec);
        layers::schedule(&self.frame, ITERATIONS, &self.pool, budget, m, rec);

        let before = self.pool.stats();
        let (mut plain, mut spanned) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            plain.push(self.solve_checked(NumericsPolicy::Exact, outcome).0);
            let t0 = Instant::now();
            let id = rec.open("denoise.exact", None);
            let u = solve(&self.frame, &self.params, &self.exact);
            rec.close(id);
            spanned.push(t0.elapsed().as_secs_f64() * 1e3);
            outcome.count(bit_identical(&u, &self.reference));
        }
        let after = self.pool.stats();
        let solves = (plain.len() + spanned.len()) as f64;
        m.put(
            "par.broadcasts_per_op",
            (after.broadcasts - before.broadcasts) as f64 / solves,
            "count",
        );
        m.put(
            "par.tasks_per_op",
            (after.tasks - before.tasks) as f64 / solves,
            "count",
        );
        m.put("trace.overhead", median(&spanned) / median(&plain), "ratio");
    }

    /// The pool the solves run on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }
}

/// One denoise through the public entry point.
fn solve(v: &Grid<f32>, params: &ChambolleParams, c: &ExecCtx) -> Grid<f32> {
    chambolle_denoise_with_ctx(v, params, c)
        .expect("no cancellation token is attached")
        .0
}
