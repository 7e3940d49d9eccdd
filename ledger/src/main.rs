//! The repository's benchmark: one command, two workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload denoise-xga|denoise-512 --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` before timing. Every output is checked
//! (bit identity against 1-thread references for Exact solves and flows, a
//! stated bound for Fast ones, an AEE ceiling for flows); any failure is counted,
//! reported, and makes the command exit non-zero. The last line of standard
//! output is the JSON result; the line before it describes the host and the
//! pinned configuration. A traced run also writes its spans under
//! `ledger/out/`.

mod denoise;
mod flow;
mod host;
mod inputs;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use chambolle_core::NumericsPolicy;
use chambolle_telemetry::json::JsonValue;
use chambolle_tune::Tunables;

use report::{result_line, Metrics, Outcome};
use stats::summarize_quiet;
use trace::Recorder;

/// An untraced run repeats its set-up at least `SETUP_REPS` times and
/// until `SETUP_WINDOW_S` seconds have passed; `setup_s` is the median of
/// the quiet ones (see `stats::summarize_quiet`), so a short set-up is read
/// over a window of host time as long as a long one.
const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`].
const SETUP_WINDOW_S: f64 = 8.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DenoiseXga,
    Denoise512,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("denoise-xga", Workload::DenoiseXga),
        ("denoise-512", Workload::Denoise512),
    ];

    /// The frame size of the workload's Table II row.
    fn frame(self) -> (usize, usize) {
        match self {
            Workload::DenoiseXga => denoise::XGA,
            Workload::Denoise512 => denoise::SQUARE_512,
        }
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Builds the workload's set-up repeatedly (see [`SETUP_REPS`]), keeping
/// the last one, and records the median build time of the quiet builds as
/// `setup_s`.
fn set_up<T>(m: &mut Metrics, mut build: impl FnMut() -> T) -> T {
    let mut samples = Vec::new();
    let mut kept = None;
    let start = Instant::now();
    while samples.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(kept.take());
        let (built, ms, steal) = host::timed(&mut build);
        kept = Some(built);
        samples.push((ms / 1e3, steal));
    }
    let s = summarize_quiet(&samples, SETUP_REPS);
    m.put("setup_s", s.p50, "s");
    m.note("setup_reps", format!("{} of {}", s.n, s.taken).into());
    kept.expect("at least one set-up")
}

/// The untraced run: set-up, the timed loop, memory and failure share.
fn untraced(args: &Args, outcome: &mut Outcome, m: &mut Metrics) {
    let frame = args.workload.frame();
    let s = set_up(m, || denoise::Setup::new(args.seed, frame, outcome));
    let err = s.sample_fast_error();
    m.note("fast_max_abs_diff", f64::from(err.pixel).into());
    m.note("fast_energy_rel_diff", err.energy.into());
    s.run(args.seconds, outcome, m);
    m.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");
}

/// The traced run: every layer's metrics. Kernel, schedule and pool are
/// measured on the workload's frame; the flow pipeline, the service and
/// the wire, which neither workload's path runs, are probed with seeded
/// inputs of their own, so every traced run reports every per-layer
/// metric.
fn traced(args: &Args, outcome: &mut Outcome, m: &mut Metrics, rec: &mut Recorder) {
    let budget = Duration::from_secs_f64((args.seconds / 20.0).clamp(0.25, 2.0));
    let triad = layers::triad(m, rec);
    serve::probe(args.seed, outcome, m, rec);
    flow::probe(args.seed, budget, outcome, m, rec);
    let s = denoise::Setup::new(args.seed, args.workload.frame(), outcome);
    layers::dispatch(s.pool(), m, rec);
    s.traced(budget, triad, outcome, m, rec);
}

/// The pinned configuration and the host, printed before the result line.
fn describe(args: &Args, notes: Vec<(String, JsonValue)>) -> JsonValue {
    let mut fields = vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.into()),
        ("seconds".into(), args.seconds.into()),
        ("trace".into(), args.trace.into()),
        ("backend".into(), layers::backend().as_str().into()),
        (
            "tiers".into(),
            JsonValue::Array(vec![
                NumericsPolicy::Exact.as_str().into(),
                NumericsPolicy::Fast.as_str().into(),
            ]),
        ),
        ("threads".into(), layers::THREADS.into()),
        ("tunables".into(), Tunables::default().to_json()),
        ("host".into(), host::describe()),
    ];
    fields.extend(notes);
    JsonValue::Object(fields)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!(
                "usage: ledger --workload denoise-xga|denoise-512 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = host::refuse_ambient_knobs() {
        eprintln!("ledger: {e}");
        std::process::exit(2);
    }
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let steal_before = host::cpu_steal();
    if args.trace {
        let mut rec = Recorder::new();
        traced(&args, &mut outcome, &mut m, &mut rec);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.spans.jsonl",
                args.workload.name(),
                args.seed
            ));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("ledger: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        m.note("spans", path.display().to_string().into());
    } else {
        untraced(&args, &mut outcome, &mut m);
    }
    m.note("fail_ratio", outcome.fail_ratio().into());
    if let Some(steal) = host::steal_share(steal_before, host::cpu_steal()) {
        m.note("host_steal", steal.into());
    }
    println!("{}", describe(&args, m.notes_json()).to_string());
    println!("{}", result_line(outcome, &m));
    if outcome.failed > 0 {
        eprintln!(
            "ledger: {} of {} operations failed or failed their checks",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "denoise-512",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Denoise512);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "serve-mix", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "tvl1-qvga", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "denoise-512", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "denoise-512", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
