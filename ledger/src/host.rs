//! The host and the process: refusing ambient configuration, describing
//! the machine a result came from, and reading peak memory.

use std::path::Path;
use std::time::Instant;

use chambolle_core::ctx::NUMERICS_ENV;
use chambolle_par::simd::BACKEND_ENV;
use chambolle_telemetry::json::JsonValue;
use chambolle_tune::{Fingerprint, Tunables, DEFAULT_PROFILE_PATH, PROFILE_ENV};

/// Fails when anything outside the command line could change how a solve
/// runs. `ExecCtx::default()` resolves the numerics tier, the kernel
/// backend and a tuning profile process-wide, including inside the service
/// and the sequential solver, so a stray variable or profile file would
/// silently change what is measured.
pub fn refuse_ambient_knobs() -> Result<(), String> {
    for var in [NUMERICS_ENV, BACKEND_ENV, PROFILE_ENV] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark pins its own configuration, unset it"
            ));
        }
    }
    if Path::new(DEFAULT_PROFILE_PATH).exists() {
        return Err(format!(
            "{DEFAULT_PROFILE_PATH} exists in the working directory; the benchmark \
             pins its own configuration, move it away"
        ));
    }
    if chambolle_tune::active() != Tunables::default() {
        return Err("the active tunables differ from the defaults".into());
    }
    Ok(())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the largest cache the kernel reports for CPU 0 (the
/// last-level cache), or `None` when sysfs does not say.
pub fn last_level_cache_bytes() -> Option<usize> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path().join("size")) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match text.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (text, 1),
            },
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(Some(n * scale));
        }
    }
    best
}

/// Peak resident set size of this process (`VmHWM`) in megabytes
/// (10^6 bytes), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Cumulative CPU time of the machine as `(steal, total)` jiffies from the
/// first line of `/proc/stat`, or `None` off Linux. Steal is time the
/// hypervisor ran something else while this guest wanted the CPU.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_steal`]
/// readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Runs `f`, returning its result, its wall time in ms, and the share of
/// the machine's CPU time the hypervisor stole meanwhile (0 when unknown).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = cpu_steal();
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (out, ms, steal_share(before, cpu_steal()).unwrap_or(0.0))
}

/// The host description every result carries.
pub fn describe() -> JsonValue {
    JsonValue::Object(vec![
        ("nproc".into(), nproc().into()),
        ("fingerprint".into(), Fingerprint::detect().to_json()),
        (
            "llc_bytes".into(),
            last_level_cache_bytes().map_or(JsonValue::Null, JsonValue::from),
        ),
    ])
}
