//! `cost_cold`: the in-process `tybec cost` path over a fixed set of 46
//! TIRL texts per op — parse → validate → fresh-session estimate →
//! rendered report.
//!
//! Parse and validate are about half of the op; the rest is the tree
//! estimator from a cold session, which is every cold cost a `tybec
//! cost` user pays. Bypasses the variant factory, the bound pass, search
//! and serve. One op covers the whole set so that its latency has one
//! mode.

use crate::layers::{Layers, SpanTotals};
use crate::{end_to_end, overhead_pct, timed_loop, Args, Outcome, Rng, SetupSamples};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use tytra_cost::{estimate, EstimatorSession};
use tytra_device::TargetDevice;
use tytra_ir::{parse_unvalidated, print, validate, MemForm};
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_trace as trace;
use tytra_transform::Variant;

pub const ASSETS: [&str; 4] = [
    "assets/hotspot_c2.tirl",
    "assets/lavamd_c2.tirl",
    "assets/sor_c1_4lane.tirl",
    "assets/sor_c2.tirl",
];
const LANES: [u64; 5] = [1, 2, 4, 8, 16];
const FORMS: [MemForm; 3] = [MemForm::A, MemForm::B, MemForm::C];
/// Texts per op: four assets plus the legal lowerings (SOR's 27 000
/// work-items do not split into 16 lanes).
const DESIGNS: usize = 46;
const WARMUP_OPS: u64 = 3;
/// Fresh set-ups timed per batch; one batch before each op.
const SETUP_BATCH: usize = 200;

/// One design of the set with the report a correct op must render.
struct Design {
    text: String,
    want: String,
}

/// The four assets plus the printed lowerings of the three kernels at
/// lanes {1,2,4,8,16} × forms {A,B,C}. Lowering references are rendered
/// from the in-memory module, so a parse/print round trip that loses
/// anything shows as a mismatch.
fn designs(dev: &TargetDevice) -> Result<Vec<Design>, String> {
    let mut out = Vec::new();
    for path in ASSETS {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let m = tytra_ir::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let want = estimate(&m, dev).map_err(|e| format!("{path}: {e}"))?.to_string();
        out.push(Design { text, want });
    }
    let kernels: [Box<dyn EvalKernel>; 3] =
        [Box::new(Sor::default()), Box::new(Hotspot::default()), Box::new(LavaMd::default())];
    for k in &kernels {
        for lanes in LANES {
            for form in FORMS {
                let v = Variant { lanes, form, ..Variant::baseline() };
                let Ok(m) = k.lower_variant(&v) else { continue };
                let want = estimate(&m, dev).map_err(|e| format!("{}: {e}", m.name))?.to_string();
                out.push(Design { text: print(&m), want });
            }
        }
    }
    if out.len() != DESIGNS {
        return Err(format!("expected {DESIGNS} designs, built {}", out.len()));
    }
    Ok(out)
}

/// `tybec cost <asset>` stdout must equal the in-process reference.
/// Runs once, before timing.
fn assets_match_cli(tybec: &Path, designs: &[Design]) -> Result<bool, String> {
    let mut all = true;
    for (path, d) in ASSETS.iter().zip(designs) {
        let out = Command::new(tybec)
            .args(["cost", path])
            .output()
            .map_err(|e| format!("running {}: {e}", tybec.display()))?;
        let same = out.status.success() && out.stdout == d.want.as_bytes();
        if !same {
            eprintln!("perfbench: `tybec cost {path}` differs from the in-process report");
        }
        all &= same;
    }
    Ok(all)
}

/// Outside timings of one design's layers, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct Split {
    parse: u64,
    validate: u64,
    estimate: u64,
}

/// `tybec cost` for one text; `None` when any stage errors.
fn cost_one(text: &str, dev: &TargetDevice, split: &mut Split) -> Option<String> {
    let t0 = Instant::now();
    let m = parse_unvalidated(text).ok();
    let t1 = Instant::now();
    let valid = m.as_ref().map(|m| validate(m).is_ok()).unwrap_or(false);
    let t2 = Instant::now();
    let report = match (m, valid) {
        (Some(m), true) => EstimatorSession::new(dev.clone()).estimate(&m).ok(),
        _ => None,
    };
    let t3 = Instant::now();
    split.parse += (t1 - t0).as_nanos() as u64;
    split.validate += (t2 - t1).as_nanos() as u64;
    split.estimate += (t3 - t2).as_nanos() as u64;
    report.map(|r| r.to_string())
}

/// The output check of one design.
fn check(got: Option<&str>, want: &str) -> bool {
    got == Some(want)
}

/// One op: every design, in an order drawn from the seed and op index.
fn op(designs: &[Design], dev: &TargetDevice, seed: u64, i: u64, split: &mut Split) -> bool {
    let mut order: Vec<usize> = (0..designs.len()).collect();
    Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i)).shuffle(&mut order);
    let mut ok = true;
    for d in order.into_iter().map(|j| &designs[j]) {
        ok &= check(cost_one(&d.text, dev, split).as_deref(), &d.want);
    }
    ok
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // The set-up `tybec cost` pays before parsing: the device tables.
    let mut setup = SetupSamples::new(SETUP_BATCH, tytra_device::stratix_v_gsd8);
    let dev = tytra_device::stratix_v_gsd8();
    let designs = designs(&dev)?;
    let tybec = args.tybec.as_deref().ok_or("cost_cold needs --tybec <path to tybec>")?;
    let cli_ok = assets_match_cli(tybec, &designs)?;

    let mut split = Split::default();
    let mut warm_failed = 0;
    for i in 0..WARMUP_OPS {
        setup.sample();
        if !op(&designs, &dev, args.seed, u64::MAX - i, &mut split) {
            warm_failed += 1;
        }
    }
    let checks_ok = cli_ok && warm_failed == 0;

    if !args.trace {
        let timed = timed_loop(
            args.seconds,
            || setup.sample(),
            |i| op(&designs, &dev, args.seed, i, &mut split),
        );
        return Ok(Outcome {
            correct: checks_ok,
            attempted: timed.lat_ms.len() as u64,
            failed: timed.failed,
            metrics: end_to_end(setup.median(), &timed, DESIGNS as f64),
        });
    }

    let untraced =
        timed_loop(args.seconds / 2.0, || (), |i| op(&designs, &dev, args.seed, i, &mut split));
    let mut split = Split::default();
    let mut spans = SpanTotals::default();
    trace::set_enabled(true);
    let traced = timed_loop(
        args.seconds / 2.0,
        || (),
        |i| {
            let ok = op(&designs, &dev, args.seed, i, &mut split);
            spans.add(&trace::take_records());
            ok
        },
    );
    trace::set_enabled(false);

    let n = traced.lat_ms.len() as f64;
    let bytes: usize = designs.iter().map(|d| d.text.len()).sum();
    let mut l = Layers {
        ir_parse_ms: split.parse as f64 / 1e6 / n,
        ir_parse_mb_per_s: bytes as f64 * n / (split.parse as f64 / 1e9) / 1e6,
        ir_validate_ms: split.validate as f64 / 1e6 / n,
        ..Layers::default()
    };
    l.set_estimator(&spans, n);
    // Every estimate runs in a fresh session: its memo tables only ever
    // answer repeats inside one design.
    let (hits, lookups) = memo_totals(&designs, &dev);
    l.memo_hit_rate = hits as f64 / lookups.max(1) as f64;
    l.overhead_pct = overhead_pct(untraced.ops_per_s(), traced.ops_per_s());
    let op_ms = traced.lat_ms.iter().sum::<f64>() / n;
    let layered = (split.parse + split.validate + split.estimate) as f64 / 1e6 / n;
    l.residual_pct = (op_ms - layered) / op_ms * 100.0;

    Ok(Outcome {
        correct: checks_ok,
        attempted: (untraced.lat_ms.len() + traced.lat_ms.len()) as u64,
        failed: untraced.failed + traced.failed,
        metrics: l.metrics(),
    })
}

/// Memo hits and lookups of one op's fresh sessions.
fn memo_totals(designs: &[Design], dev: &TargetDevice) -> (u64, u64) {
    let (mut hits, mut lookups) = (0, 0);
    for d in designs {
        let Ok(m) = tytra_ir::parse(&d.text) else { continue };
        let mut s = EstimatorSession::new(dev.clone());
        let _ = s.estimate(&m);
        hits += s.stats().hits;
        lookups += s.stats().lookups();
    }
    (hits, lookups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_accepts_the_reference_and_rejects_wrong_reports() {
        let dev = tytra_device::stratix_v_gsd8();
        let m = Hotspot::default().lower_variant(&Variant::baseline()).unwrap();
        let want = estimate(&m, &dev).unwrap().to_string();
        let got = cost_one(&print(&m), &dev, &mut Split::default());
        assert!(check(got.as_deref(), &want), "round-tripped report must match");

        let wrong = want.replacen('1', "2", 1);
        assert!(!check(Some(&wrong), &want), "a changed report must fail");
        assert!(!check(None, &want), "an erroring stage must fail");
        let broken = cost_one("not tirl", &dev, &mut Split::default());
        assert!(!check(broken.as_deref(), &want), "a parse error must fail");
    }
}
