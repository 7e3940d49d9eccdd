//! The flow-pipeline probe of every traced run: TV-L1 optical flow on a
//! 320×240 pair with known motion. The same Chambolle kernel as the denoise
//! workloads, but on cache-resident frames down to 20×15, where pyramid,
//! warp and threshold costs show, and, in the pooled configuration,
//! per-solve pool dispatch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chambolle_core::tvl1::threshold_step;
use chambolle_core::{
    ExecCtx, NumericsPolicy, ParallelSolver, SequentialSolver, TvDenoiser, TvL1Params, TvL1Solver,
};
use chambolle_imaging::{
    average_endpoint_error, upsample_flow_component, FlowField, Image, Pyramid, WarpLinearization,
};
use chambolle_par::ThreadPool;

use crate::denoise::bit_identical;
use crate::host;
use crate::inputs::{flow_case, FlowCase};
use crate::layers::{ctx, THREADS};
use crate::report::{Metrics, Outcome};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};

/// Frame width (QVGA).
pub const WIDTH: usize = 320;
/// Frame height.
pub const HEIGHT: usize = 240;

/// Average endpoint error, in pixels, the flow must stay under. The seeded
/// motions are sub-pixel to 1.5 px per axis; the default pipeline recovers
/// them to a few hundredths of a pixel.
pub const AEE_CEILING: f64 = 0.1;

/// Per-level span names of the inner solves (level 0 is the finest).
const INNER: [&str; 5] = [
    "tvl1.inner.L0",
    "tvl1.inner.L1",
    "tvl1.inner.L2",
    "tvl1.inner.L3",
    "tvl1.inner.L4",
];

/// The three ways the benchmark runs a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// `chambolle_flow` without `--threads`: no pool, Exact tier.
    Exact,
    /// The same at the Fast tier.
    Fast,
    /// `chambolle_flow --threads 2`: one 2-thread pool shared by the outer
    /// loop and a `ParallelSolver` inner solver, Exact tier.
    Pooled,
}

/// Everything the probe needs, built before timing.
struct Setup {
    case: FlowCase,
    params: TvL1Params,
    reference: FlowField,
    fast_reference: FlowField,
    pool: Arc<ThreadPool>,
    pooled: TvL1Solver<ParallelSolver>,
    sequential: TvL1Solver<SequentialSolver>,
    exact: ExecCtx,
    fast: ExecCtx,
}

/// Whether two flows hold the same bits.
fn same_flow(a: &FlowField, b: &FlowField) -> bool {
    bit_identical(&a.u1, &b.u1) && bit_identical(&a.u2, &b.u2)
}

impl Setup {
    /// The seeded pair, its 1-thread reference flows at both tiers (each
    /// checked against the AEE ceiling; they also warm the solver up), and
    /// the shared 2-thread pool wired into both the outer loop and a
    /// `ParallelSolver` inner solver.
    fn new(seed: u64, outcome: &mut Outcome) -> Setup {
        let case = flow_case(&mut SplitMix64::new(seed), WIDTH, HEIGHT);
        let params = TvL1Params::default();
        let exact = ctx(NumericsPolicy::Exact, None);
        let fast = ctx(NumericsPolicy::Fast, None);
        let sequential = TvL1Solver::sequential(params);
        let reference_at = |c: &ExecCtx, outcome: &mut Outcome| {
            let (flow, _) = sequential
                .flow_with_ctx(&case.i0, &case.i1, None, c)
                .expect("generated frames are valid");
            outcome.count(average_endpoint_error(&flow, &case.truth) <= AEE_CEILING);
            flow
        };
        let reference = reference_at(&exact, outcome);
        let fast_reference = reference_at(&fast, outcome);
        let pool = Arc::new(ThreadPool::new(THREADS));
        let pooled = TvL1Solver::with_backend(params, ParallelSolver::with_pool(Arc::clone(&pool)))
            .with_pool(Arc::clone(&pool));
        Setup {
            case,
            params,
            reference,
            fast_reference,
            pool,
            pooled,
            sequential,
            exact,
            fast,
        }
    }

    /// Average endpoint error of the Exact reference flow against the
    /// analytic ground truth.
    fn aee(&self) -> f64 {
        average_endpoint_error(&self.reference, &self.case.truth)
    }

    /// One flow, checked bit for bit against the reference of its tier;
    /// returns its wall time in ms and the hypervisor's steal share
    /// meanwhile.
    fn flow_checked(&self, run: Run, outcome: &mut Outcome) -> (f64, f64) {
        let (i0, i1) = (&self.case.i0, &self.case.i1);
        let (flow, ms, steal) = host::timed(|| match run {
            Run::Exact => self.sequential.flow_with_ctx(i0, i1, None, &self.exact),
            Run::Fast => self.sequential.flow_with_ctx(i0, i1, None, &self.fast),
            Run::Pooled => self.pooled.flow_with_ctx(i0, i1, None, &self.exact),
        });
        let reference = match run {
            Run::Fast => &self.fast_reference,
            Run::Exact | Run::Pooled => &self.reference,
        };
        outcome.count(flow.is_ok_and(|(f, _)| same_flow(&f, reference)));
        (ms, steal)
    }
}

/// The flow-pipeline layer of a traced run: one seeded QVGA pair. Runs, in
/// turn until `budget` has passed (at least eight rounds, at most 50), the
/// pooled pipeline re-driven with spans, the pooled `flow_with_ctx`, and
/// the pool-free one at both tiers; every flow is checked against the
/// reference of its tier. Writes the `tvl1.*` stage metrics,
/// `flow.{pooled,exact,fast}_ms` and `flow.aee`, and notes the seeded
/// motion.
pub fn probe(
    seed: u64,
    budget: Duration,
    outcome: &mut Outcome,
    m: &mut Metrics,
    rec: &mut Recorder,
) {
    let s = Setup::new(seed, outcome);
    let (mut pooled, mut exact, mut fast) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while pooled.len() < 8 || (start.elapsed() < budget && pooled.len() < 50) {
        outcome.count(same_flow(&pipeline(&s, rec), &s.reference));
        pooled.push(s.flow_checked(Run::Pooled, outcome).0);
        exact.push(s.flow_checked(Run::Exact, outcome).0);
        fast.push(s.flow_checked(Run::Fast, outcome).0);
    }
    pipeline_metrics(rec, m);
    m.put("flow.pooled_ms", median(&pooled), "ms");
    m.put("flow.exact_ms", median(&exact), "ms");
    m.put("flow.fast_ms", median(&fast), "ms");
    m.put("flow.aee", s.aee(), "px");
    m.note("flow_motion", format!("{:?}", s.case.motion).into());
}

/// Re-drives `TvL1Solver::flow_with_ctx` for the pooled configuration, in
/// its order, through the public stage functions, with a span around each.
/// Must produce the same bits as the solver itself.
fn pipeline(s: &Setup, rec: &mut Recorder) -> FlowField {
    let p = &s.params;
    let (pool, simd) = (&*s.pool, s.exact.backend().simd_level());
    let inner = s.pooled.backend();
    let root = rec.open("tvl1.flow", None);
    let build = |rec: &mut Recorder, img: &Image| {
        rec.time("tvl1.pyramid", Some(root), || {
            Pyramid::build_scaled_with_pool(img, p.pyramid_levels, p.scale_factor, pool, simd)
        })
    };
    let pyr0 = build(rec, &s.case.i0);
    let pyr1 = build(rec, &s.case.i1);
    let levels = pyr0.len().min(pyr1.len());
    let coarsest = &pyr0.levels()[levels - 1];
    let mut u = FlowField::zeros(coarsest.width(), coarsest.height());
    for level in (0..levels).rev() {
        let (l0, l1) = (&pyr0.levels()[level], &pyr1.levels()[level]);
        if u.dims() != l0.dims() {
            u = FlowField::from_components(
                upsample_flow_component(&u.u1, l0.width(), l0.height()),
                upsample_flow_component(&u.u2, l0.width(), l0.height()),
            );
        }
        for _ in 0..p.warps {
            let lin = rec.time("tvl1.warp", Some(root), || {
                WarpLinearization::new_with_pool(l0, l1, &u, pool, simd)
            });
            for _ in 0..p.outer_iterations {
                let v = rec.time("tvl1.threshold", Some(root), || {
                    threshold_step(&lin, &u, p.lambda, p.inner.theta)
                });
                let name = INNER[level.min(INNER.len() - 1)];
                let (u1, u2) = rec.time(name, Some(root), || {
                    (
                        inner.denoise_with_ctx(&v.u1, &p.inner, &s.exact),
                        inner.denoise_with_ctx(&v.u2, &p.inner, &s.exact),
                    )
                });
                u = FlowField::from_components(u1, u2);
            }
            if p.median_filter {
                u = FlowField::from_components(
                    chambolle_imaging::median3x3(&u.u1),
                    chambolle_imaging::median3x3(&u.u2),
                );
            }
        }
    }
    rec.close(root);
    u
}

/// Per-flow stage times from the recorded `tvl1.*` spans: each stage's
/// total divided by the number of re-driven flows; `other` is the flow
/// span's self time (upsampling and bookkeeping between stages).
fn pipeline_metrics(rec: &Recorder, m: &mut Metrics) {
    let roots: Vec<SpanId> = (0..rec.spans().len())
        .filter(|&i| rec.spans()[i].name == "tvl1.flow")
        .collect();
    let flows = roots.len() as f64;
    let total = |name: &str| -> f64 {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .sum::<f64>()
            / flows
    };
    let inner_calls = rec
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("tvl1.inner."))
        .count() as f64;
    let inner: f64 = INNER.iter().map(|n| total(n)).sum();
    let whole = total("tvl1.flow");
    for stage in ["pyramid", "warp", "threshold"] {
        m.put(
            format!("tvl1.{stage}_ms"),
            total(&format!("tvl1.{stage}")),
            "ms",
        );
    }
    m.put("tvl1.inner_ms", inner, "ms");
    for (level, name) in INNER.iter().enumerate() {
        m.put(format!("tvl1.inner_ms.L{level}"), total(name), "ms");
    }
    let other: f64 = roots.iter().map(|&r| rec.self_ms(r)).sum::<f64>() / flows;
    m.put("tvl1.other_ms", other, "ms");
    m.put("tvl1.inner_share", inner / whole, "ratio");
    // Two solves (one per flow component) per inner span.
    m.put("tvl1.inner_solves", 2.0 * inner_calls / flows, "count");
}
