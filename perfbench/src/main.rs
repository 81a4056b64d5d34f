//! End-to-end and per-layer benchmark of the TyTra cost model.
//!
//! `tytra-perfbench --workload <dse_wide|cost_cold|serve_mixed> --seed <n>
//! --seconds <s> --trace <0|1> [--tybec <path>]`
//!
//! Each invocation runs one workload in its own process and prints, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload again with span tracing on and reports
//! the per-layer metrics. Every layer is timed from here, around calls to
//! its public functions; the program's own `estimator.*` / `dse.*` spans
//! and counters are read, never added to. See `README.md` beside this
//! crate for why each workload exists and which metric each layer moves.

mod cost_cold;
mod dse_wide;
mod layers;
mod serve_mixed;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `tybec` binary whose `cost` stdout the `cost_cold` asset
    /// references are checked against.
    pub tybec: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?.to_string();
    let seed = value("--seed").unwrap_or("1").parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 =
        value("--seconds").unwrap_or("10").parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
    };
    let tybec = value("--tybec").map(PathBuf::from);
    Ok(Args { workload, seed, seconds, trace, tybec })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run reports.
pub struct Outcome {
    /// Every output check and cross-run self-check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn render_outcome(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct && o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "dse_wide" => dse_wide::run(&args),
        "cost_cold" => cost_cold::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(o) => println!("{}", render_outcome(&o)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// Shared measurement helpers.

/// SplitMix64: the workload generators' only source of randomness, so a
/// seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated quantile of an ascending-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Set-up time samples, taken in batches of fresh set-ups spread over
/// the whole run: one set-up of a few microseconds lies far below the
/// timer's noise floor, and set-ups timed back to back all see the
/// machine at one moment.
pub struct SetupSamples<T, F: FnMut() -> T> {
    batch: usize,
    setup: F,
    per_setup_s: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupSamples<T, F> {
    pub fn new(batch: usize, setup: F) -> SetupSamples<T, F> {
        SetupSamples { batch, setup, per_setup_s: Vec::new() }
    }

    /// Time one batch.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..self.batch {
            std::hint::black_box((self.setup)());
        }
        self.per_setup_s.push(t0.elapsed().as_secs_f64() / self.batch as f64);
    }

    /// Median time of one set-up, in seconds.
    pub fn median(&self) -> f64 {
        median(&self.per_setup_s)
    }
}

/// Per-op latencies and the wall of one closed-loop timed phase.
pub struct Timed {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

/// Fewest ops a timed phase runs, so that at least ten samples lie
/// beyond its p90.
pub const MIN_OPS: usize = 110;

/// Run `op` back to back for `seconds` (and at least [`MIN_OPS`] times).
/// `op(i)` returns whether its output check passed; a failed op is
/// counted and the loop goes on. `between` runs before each op, outside
/// the op latencies and the phase wall.
pub fn timed_loop(
    seconds: f64,
    mut between: impl FnMut(),
    mut op: impl FnMut(u64) -> bool,
) -> Timed {
    let budget = Duration::from_secs_f64(seconds);
    let mut lat_ms = Vec::new();
    let mut failed = 0;
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() < budget + excluded || lat_ms.len() < MIN_OPS {
        let b0 = Instant::now();
        between();
        let t0 = Instant::now();
        excluded += t0 - b0;
        let ok = op(lat_ms.len() as u64);
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !ok {
            failed += 1;
        }
    }
    Timed { lat_ms, wall_s: (start.elapsed() - excluded).as_secs_f64(), failed }
}

impl Timed {
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / self.wall_s
    }

    /// `(p50, p90)` per-op latency in milliseconds.
    pub fn p50_p90(&self) -> (f64, f64) {
        let mut v = self.lat_ms.clone();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.5), quantile(&v, 0.9))
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The end-to-end metrics every workload reports from its untraced run.
pub fn end_to_end(setup_s: f64, timed: &Timed, points_per_op: f64) -> Vec<Metric> {
    let (p50, p90) = timed.p50_p90();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", timed.ops_per_s(), "1/s"),
        metric("op_p50_ms", p50, "ms"),
        metric("op_p90_ms", p90, "ms"),
        metric("points_per_s", timed.ops_per_s() * points_per_op, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// `trace.overhead_pct`: how much slower the traced phase ran.
pub fn overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("latency_ms", 1.5, "ms")],
        };
        let line = render_outcome(&o);
        let v = tytra_trace::json::parse(&line).expect("valid JSON");
        assert!(line.starts_with("{\"correct\": true"));
        assert!(v.as_obj().is_some());
        let failed = Outcome { failed: 1, ..o };
        assert!(render_outcome(&failed).starts_with("{\"correct\": false"));
    }
}
