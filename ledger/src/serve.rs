//! The service and wire layers, probed in every traced run: an in-process
//! `Service` under open-loop Poisson traffic at a rate where requests queue
//! and batches coalesce, so admission, lane priority and batch coalescing
//! show, and the wire protocol timed on its own and over loopback TCP.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chambolle_core::{chambolle_denoise_with_ctx, ChambolleParams, NumericsPolicy};
use chambolle_imaging::Grid;
use chambolle_service::wire::{
    decode_request, decode_response, encode_denoise_request, encode_ok_response, fnv1a64,
    WireResponse, WIRE_VERSION,
};
use chambolle_service::{
    Completed, Priority, RejectReason, Request, ResponseTier, Service, ServiceClient,
    ServiceConfig, ServiceError, ServiceHandle, ServiceStats, TcpServer, Ticket, TraceContext,
    Workload,
};
use chambolle_tune::Tunables;

use crate::denoise::bit_identical;
use crate::inputs::{noisy_frame, request_frame};
use crate::layers::{ctx, THREADS};
use crate::report::{Metrics, Outcome};
use crate::schedule::{poisson_schedule, Arrival, SplitMix64};
use crate::stats::{median, summarize};
use crate::trace::Recorder;

/// Offered rate of the probe, requests per second: loaded enough on a
/// 2-vCPU host that requests queue and batches coalesce.
const RATE_HZ: f64 = 240.0;
/// How long the probe offers traffic.
const PROBE_S: f64 = 2.0;
/// Share of open-loop requests in the interactive lane.
const INTERACTIVE_SHARE: f64 = 0.8;
/// Interactive requests: 128×128 frames, 50 iterations.
const SMALL: (usize, u32) = (128, 50);
/// Batch requests: 256×256 frames, 100 iterations.
const LARGE: (usize, u32) = (256, 100);
/// Wire requests: 64×64 frames, 20 iterations.
const WIRE: (usize, u32) = (64, 20);
/// Queue capacity: deep enough that the probe's backlog never fills it,
/// so overload shows as latency rather than refusals.
const QUEUE_CAPACITY: usize = 1 << 14;
/// Requests in flight at which the generator stops sending: far beyond
/// any steady state at [`RATE_HZ`], so a host too slow for the probe does
/// not pile up memory and drain time without bound.
const BACKLOG_ABORT: u64 = 50;
/// Distinct base frames per request size; each request adds its own patch.
const BASES: usize = 8;
/// One in this many requests keeps its output for the solo re-solve.
const KEEP_ONE_IN: u64 = 16;
/// Most outputs kept per lane for the solo re-solve.
const KEEP_MAX: usize = 48;

fn params(iterations: u32) -> ChambolleParams {
    ChambolleParams::with_iterations(iterations)
}

/// The service, its TCP front-end and the seeded inputs.
pub struct Rig {
    service: Service,
    server: TcpServer,
    addr: SocketAddr,
    small: Vec<Grid<f32>>,
    large: Vec<Grid<f32>>,
    wire: Vec<Grid<f32>>,
    schedule: Vec<Arrival>,
}

/// One request the generator sent, handed to the collector.
struct Sent {
    due: Instant,
    interactive: bool,
    content: u64,
    submit: (Instant, Instant),
    ticket: Result<Ticket, RejectReason>,
}

/// Per-request accounting the service returned, without the pixels.
#[derive(Debug, Clone, Copy)]
struct Served {
    interactive: bool,
    submitted: Instant,
    queue_us: u64,
    solve_us: u64,
    batch_size: usize,
}

/// What one pass of the probe measured.
struct Measured {
    /// Batch-lane latencies from due time, in ms.
    batch_ms: Vec<f64>,
    /// How late the generator submitted each request, in ms.
    lateness_ms: Vec<f64>,
    submit_spans: Vec<(Instant, Instant)>,
    served: Vec<Served>,
    /// Requests refused or failed.
    failed: usize,
    /// Service counters before and after.
    stats: (ServiceStats, ServiceStats),
    /// Sampled outputs: lane, content seed and digest.
    kept: Vec<(bool, u64, u64)>,
}

/// The service and wire layers for a traced run: the open-loop probe and
/// the wire probe on one seeded rig.
pub fn probe(seed: u64, outcome: &mut Outcome, m: &mut Metrics, rec: &mut Recorder) {
    let rig = Rig::new(seed, outcome);
    rig.probe(outcome, m, rec);
    rig.wire(outcome, m, rec);
    rig.shutdown();
}

impl Rig {
    /// Seeded base frames and arrival schedule, a 2-thread service with
    /// brownout off on the default tunables, its TCP front-end on loopback,
    /// and warm-up requests on both paths.
    fn new(seed: u64, outcome: &mut Outcome) -> Rig {
        let mut rng = SplitMix64::new(seed);
        let bases = |(side, _): (usize, u32), rng: &mut SplitMix64| {
            (0..BASES)
                .map(|_| noisy_frame(rng, side, side, 0.2))
                .collect::<Vec<_>>()
        };
        let small = bases(SMALL, &mut rng);
        let large = bases(LARGE, &mut rng);
        let wire = bases(WIRE, &mut rng);
        let schedule = poisson_schedule(&mut rng, RATE_HZ, PROBE_S, INTERACTIVE_SHARE);
        let config = ServiceConfig::from_tunables(THREADS, QUEUE_CAPACITY, &Tunables::default());
        let service = Service::spawn(config);
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0")
            .expect("binding a loopback port");
        let addr = server.local_addr();
        let rig = Rig {
            service,
            server,
            addr,
            small,
            large,
            wire,
            schedule,
        };
        rig.warm_up(outcome);
        rig
    }

    fn handle(&self) -> &ServiceHandle {
        self.service.handle()
    }

    /// The frame of an open-loop request.
    fn frame(&self, interactive: bool, content: u64) -> Grid<f32> {
        let bases = if interactive {
            &self.small
        } else {
            &self.large
        };
        request_frame(&bases[(content % BASES as u64) as usize], content)
    }

    /// The frame of a wire request.
    fn wire_frame(&self, content: u64) -> Grid<f32> {
        request_frame(&self.wire[(content % BASES as u64) as usize], content)
    }

    fn request(&self, interactive: bool, content: u64) -> Request {
        let (priority, (_, iterations)) = if interactive {
            (Priority::Interactive, SMALL)
        } else {
            (Priority::Batch, LARGE)
        };
        Request::new(Workload::Denoise {
            input: self.frame(interactive, content),
            params: params(iterations),
        })
        .with_priority(priority)
    }

    /// A few requests of each kind through both paths, checked.
    fn warm_up(&self, outcome: &mut Outcome) {
        for content in 0..4u64 {
            for interactive in [true, false] {
                let done = self
                    .handle()
                    .submit(self.request(interactive, content))
                    .map_err(|e| e.to_string())
                    .and_then(|t| t.wait().map_err(|e| e.to_string()));
                outcome.count(done.is_ok_and(|d| {
                    d.output
                        .as_denoised()
                        .is_some_and(|u| self.matches_solo(interactive, content, u))
                }));
            }
        }
        let mut client = ServiceClient::connect(self.addr).expect("connecting over loopback");
        for content in 0..4u64 {
            let frame = self.wire_frame(content);
            outcome.count(
                tcp_denoise(&mut client, &frame)
                    .is_some_and(|u| bit_identical(&u, &solo(&frame, WIRE.1))),
            );
        }
    }

    /// Whether `u` equals a solo 1-thread Exact solve of the request.
    fn matches_solo(&self, interactive: bool, content: u64, u: &Grid<f32>) -> bool {
        let iterations = if interactive { SMALL.1 } else { LARGE.1 };
        bit_identical(u, &solo(&self.frame(interactive, content), iterations))
    }

    /// Offers the seeded schedule: a generator thread submits each request
    /// at its due time (latencies are timed from it, so a late generator
    /// cannot hide queueing) while this thread collects the responses.
    fn drive(&self) -> Measured {
        let handle = self.handle();
        let (tx, rx) = mpsc::channel::<Sent>();
        let mut measured = Measured {
            batch_ms: Vec::new(),
            lateness_ms: Vec::new(),
            submit_spans: Vec::new(),
            served: Vec::new(),
            failed: 0,
            stats: (handle.stats(), handle.stats()),
            kept: Vec::new(),
        };
        std::thread::scope(|s| {
            let generator = s.spawn(|| {
                let before = handle.stats();
                let start = Instant::now();
                for a in &self.schedule {
                    let due = start + Duration::from_secs_f64(a.due_s);
                    let request = self.request(a.interactive, a.content);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    if handle.stats().in_flight() > BACKLOG_ABORT {
                        break;
                    }
                    let t0 = Instant::now();
                    let ticket = handle.submit(request);
                    let t1 = Instant::now();
                    tx.send(Sent {
                        due,
                        interactive: a.interactive,
                        content: a.content,
                        submit: (t0, t1),
                        ticket,
                    })
                    .expect("the collector outlives the generator");
                }
                drop(tx);
                while handle.stats().in_flight() > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                (before, handle.stats())
            });

            let mut kept = [0usize; 2];
            for sent in rx {
                let (t0, _) = sent.submit;
                measured
                    .lateness_ms
                    .push(t0.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
                measured.submit_spans.push(sent.submit);
                let done: Option<Result<Completed, ServiceError>> =
                    sent.ticket.ok().map(Ticket::wait);
                let Some(Ok(c)) = done else {
                    measured.failed += 1;
                    continue;
                };
                if !sent.interactive {
                    let late = t0.saturating_duration_since(sent.due).as_secs_f64() * 1e3;
                    measured.batch_ms.push(late + c.total_us as f64 / 1e3);
                }
                let lane = usize::from(!sent.interactive);
                if kept[lane] < KEEP_MAX && sent.content.is_multiple_of(KEEP_ONE_IN) {
                    if let Some(u) = c.output.as_denoised() {
                        kept[lane] += 1;
                        measured
                            .kept
                            .push((sent.interactive, sent.content, digest(u)));
                    }
                }
                measured.served.push(Served {
                    interactive: sent.interactive,
                    submitted: sent.submit.1,
                    queue_us: c.queue_us,
                    solve_us: c.solve_us,
                    batch_size: c.batch_size,
                });
            }
            measured.stats = generator.join().expect("generator thread panicked");
        });
        measured
    }

    /// The service layer: one pass of the schedule with spans recorded for
    /// every submit, queue wait and solve. Every request counts as an
    /// operation; a seeded sample of the responses is re-solved solo after
    /// the pass and compared bit for bit (through digests kept during it).
    fn probe(&self, outcome: &mut Outcome, m: &mut Metrics, rec: &mut Recorder) {
        let measured = self.drive();
        for _ in &measured.served {
            outcome.count(true);
        }
        for _ in 0..measured.failed {
            outcome.count(false);
        }
        for &(interactive, content, kept) in &measured.kept {
            let iterations = if interactive { SMALL.1 } else { LARGE.1 };
            let u = solo(&self.frame(interactive, content), iterations);
            outcome.check(digest(&u) == kept);
        }
        record_spans(&measured, rec);
        service_metrics(&measured, m);
    }

    /// The wire layer: encode and decode of 64×64 request and response
    /// frames, and TCP round trip minus in-process submit→wait on the idle
    /// service, alternating; each TCP response must equal the in-process
    /// one bit for bit.
    fn wire(&self, outcome: &mut Outcome, m: &mut Metrics, rec: &mut Recorder) {
        let frame = self.wire_frame(0);
        let p = params(WIRE.1);
        let output = solo(&frame, WIRE.1);
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        for id in 0..2000u64 {
            let span = rec.open("wire.encode", None);
            let req = encode_denoise_request(
                WIRE_VERSION,
                id,
                0,
                TraceContext::NONE,
                Priority::Interactive,
                None,
                &p,
                &frame,
            );
            let resp = encode_ok_response(
                WIRE_VERSION,
                id,
                TraceContext::NONE,
                ResponseTier::Full,
                &output,
            );
            enc.push(rec.close(span) * 1e3);
            let span = rec.open("wire.decode", None);
            let ok = decode_request(&req).is_ok() && decode_response(&resp).is_ok();
            dec.push(rec.close(span) * 1e3);
            if id == 0 {
                outcome.count(ok);
            }
        }
        m.put("wire.encode_us", median(&enc), "us");
        m.put("wire.decode_us", median(&dec), "us");

        let mut client = ServiceClient::connect(self.addr).expect("connecting over loopback");
        let (mut tcp, mut local) = (Vec::new(), Vec::new());
        for content in 0..200u64 {
            let frame = self.wire_frame(content);
            let span = rec.open("wire.tcp_rtt", None);
            let remote = tcp_denoise(&mut client, &frame);
            tcp.push(rec.close(span) * 1e3);
            let span = rec.open("wire.inproc_rtt", None);
            let done = self
                .handle()
                .submit(
                    Request::new(Workload::Denoise {
                        input: frame,
                        params: p,
                    })
                    .with_priority(Priority::Interactive),
                )
                .map_err(|e| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()));
            local.push(rec.close(span) * 1e3);
            let here = done.ok().and_then(|d| d.output.as_denoised().cloned());
            outcome.count(matches!((&remote, &here), (Some(r), Some(h)) if bit_identical(r, h)));
        }
        m.put("wire.rtt_overhead_us", median(&tcp) - median(&local), "us");
    }

    /// Stops the TCP front-end and drains the service.
    fn shutdown(self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// One TCP denoise of `frame` at the wire size's iterations; its output, or
/// `None` when the request failed.
fn tcp_denoise(client: &mut ServiceClient, frame: &Grid<f32>) -> Option<Grid<f32>> {
    match client.denoise(frame, &params(WIRE.1), Priority::Interactive, None) {
        Ok(WireResponse::Ok { output, .. }) => Some(output),
        _ => None,
    }
}

/// A 1-thread Exact solve: the reference every served output must equal.
fn solo(frame: &Grid<f32>, iterations: u32) -> Grid<f32> {
    chambolle_denoise_with_ctx(
        frame,
        &params(iterations),
        &ctx(NumericsPolicy::Exact, None),
    )
    .expect("no cancellation token is attached")
    .0
}

/// A 64-bit digest of a frame's size and bits, so sampled outputs can be
/// checked after the run without holding their pixels through it.
fn digest(u: &Grid<f32>) -> u64 {
    let (w, h) = u.dims();
    let mut bytes = Vec::with_capacity(16 + 4 * w * h);
    bytes.extend_from_slice(&(w as u64).to_le_bytes());
    bytes.extend_from_slice(&(h as u64).to_le_bytes());
    for v in u.as_slice() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// `values`, or one infinite sample when there are none, so that an empty
/// lane reads as missing every limit instead of aborting the summary.
fn nonempty(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        vec![f64::INFINITY]
    } else {
        values.to_vec()
    }
}

/// Spans of the probe: one per submit call and, from each response's own
/// accounting, its queue wait and solve.
fn record_spans(measured: &Measured, rec: &mut Recorder) {
    for &(t0, t1) in &measured.submit_spans {
        rec.record("service.submit", None, t0, t1);
    }
    for s in &measured.served {
        let t1 = s.submitted;
        let queued = t1 + Duration::from_micros(s.queue_us);
        let solved = queued + Duration::from_micros(s.solve_us);
        let root = rec.record("service.request", None, t1, solved);
        rec.record("service.queue", Some(root), t1, queued);
        rec.record("service.solve", Some(root), queued, solved);
    }
}

/// Service-layer metrics of the probe.
fn service_metrics(measured: &Measured, m: &mut Metrics) {
    let served = &measured.served;
    let submit_us: Vec<f64> = measured
        .submit_spans
        .iter()
        .map(|&(t0, t1)| (t1 - t0).as_secs_f64() * 1e6)
        .collect();
    m.put("service.submit_us", median(&nonempty(&submit_us)), "us");
    for (lane, interactive) in [("interactive", true), ("batch", false)] {
        let of_lane: Vec<&Served> = served
            .iter()
            .filter(|s| s.interactive == interactive)
            .collect();
        let queue: Vec<f64> = of_lane.iter().map(|s| s.queue_us as f64 / 1e3).collect();
        let solve: Vec<f64> = of_lane.iter().map(|s| s.solve_us as f64 / 1e3).collect();
        let q = summarize(&nonempty(&queue));
        m.put(format!("service.queue_ms.{lane}.p50"), q.p50, "ms");
        m.put(format!("service.queue_ms.{lane}.tail"), q.tail, "ms");
        m.put(
            format!("service.solve_ms.{lane}"),
            median(&nonempty(&solve)),
            "ms",
        );
    }
    let n = served.len().max(1) as f64;
    let sizes: f64 = served.iter().map(|s| s.batch_size as f64).sum();
    m.put("service.batch_size_mean", sizes / n, "count");
    let (before, after) = measured.stats;
    m.put(
        "service.batches",
        (after.batches - before.batches) as f64,
        "count",
    );
    m.put(
        "service.rejected_full",
        (after.rejected_full - before.rejected_full) as f64,
        "count",
    );
    m.put(
        "service.deadline_exceeded",
        (after.deadline_exceeded - before.deadline_exceeded) as f64,
        "count",
    );
    let late = summarize(&nonempty(&measured.lateness_ms));
    m.put("gen.lateness_ms", late.tail, "ms");
    let batch = summarize(&nonempty(&measured.batch_ms));
    m.put("serve.batch_p50_ms", batch.p50, "ms");
    m.put("serve.batch_tail_ms", batch.tail, "ms");
}
