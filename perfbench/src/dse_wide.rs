//! `dse_wide`: the library equivalent of `tybec dse <k>` for three
//! kernels per op — lane sweep, pruned parallel search, guided tuning,
//! rendered leaderboard.
//!
//! Loads lowering, the variant factory, the bound pass, the estimator
//! passes (tree form in sweep/tune, arena form in search), search
//! scheduling and the congruence prefilter (SOR at NKI 1 collapses the
//! A/B forms). Parses no text and never touches serve.

use crate::layers::{Layers, SpanTotals};
use crate::{end_to_end, median, overhead_pct, timed_loop, Args, Outcome, Rng, SetupSamples};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;
use tytra_cost::{EstimatorSession, SessionStats};
use tytra_device::TargetDevice;
use tytra_dse::report::render_table;
use tytra_dse::{
    lane_sweep_session, render_search_leaderboard, search, tune_session, ExplorationConfig,
    SearchConfig, SearchOutcome,
};
use tytra_ir::MemForm;
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_trace as trace;
use tytra_transform::{Variant, VariantIter};

/// Search worker threads: the machine this benchmark is sized for has
/// two vCPUs. Explicit, never `available_parallelism`.
const WORKERS: usize = 2;
const SEARCH_LANES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
const SEARCH_VECTS: [u32; 4] = [1, 2, 4, 8];
const SEARCH_FORMS: [MemForm; 3] = [MemForm::A, MemForm::B, MemForm::C];
const TUNE_STEPS: usize = 12;
const TOP: usize = 10;
const WARMUP_OPS: u64 = 2;
/// Fresh set-ups timed per batch; one batch before each op.
const SETUP_BATCH: usize = 20;

fn kernels() -> Vec<Box<dyn EvalKernel>> {
    // SOR at NKI 1, so form A and form B cost the same and the
    // congruence prefilter collapses them.
    vec![Box::new(Sor::cubic(48, 1)), Box::new(Hotspot::default()), Box::new(LavaMd::default())]
}

fn sweep_lanes() -> Vec<u64> {
    (1..=64).collect()
}

fn search_config(workers: usize, exhaustive: bool) -> SearchConfig {
    let space = ExplorationConfig {
        lanes: SEARCH_LANES.to_vec(),
        vects: SEARCH_VECTS.to_vec(),
        forms: SEARCH_FORMS.to_vec(),
        include_seq: false,
        workers,
    };
    if exhaustive {
        SearchConfig::exhaustive(space)
    } else {
        SearchConfig::pruned(space)
    }
}

/// Everything one kernel's `tybec dse` run prints, split into the
/// leaderboard and the rest (sweep table and tuning trajectory).
struct KernelRun {
    board: String,
    rest: String,
    outcome: SearchOutcome,
    session: SessionStats,
}

/// One kernel's `tybec dse` equivalent. Each stage is wrapped in a
/// `bench.*` span so the traced run can attribute the program's spans to
/// the stage that caused them.
fn dse_kernel(kernel: &dyn EvalKernel, dev: &TargetDevice, cfg: &SearchConfig) -> KernelRun {
    let mut session = EstimatorSession::new(dev.clone());
    let mut rest = String::from("== lane sweep (Fig 15 style) ==\n");
    {
        let _s = trace::span("bench.sweep");
        let rows = lane_sweep_session(kernel, &mut session, &sweep_lanes(), &Variant::baseline());
        rest.push_str(&render_table(&rows));
    }
    let outcome = {
        let _s = trace::span("bench.search");
        search(kernel, dev, cfg)
    };
    {
        let _s = trace::span("bench.tune");
        rest.push_str("\n== guided tuning from baseline ==\n");
        for step in tune_session(kernel, &mut session, Variant::baseline(), TUNE_STEPS) {
            let action = step.action.map(|a| format!("→ {a}")).unwrap_or_default();
            let _ = writeln!(
                rest,
                "  {:<18} EKIT {:>12.1}  {} {}",
                step.variant.tag(),
                step.ekit,
                step.limiter,
                action
            );
        }
    }
    let board = {
        let _s = trace::span("bench.render");
        render_search_leaderboard(&outcome, TOP)
    };
    KernelRun { board, rest, outcome, session: session.stats() }
}

/// What a correct op must print for one kernel, computed once before
/// timing: the `--exhaustive` leaderboard (single worker, no pruning),
/// and the sweep/tuning text of a fresh run.
struct Reference {
    board: String,
    rest: String,
    generated: u64,
}

fn reference(kernel: &dyn EvalKernel, dev: &TargetDevice) -> Reference {
    let exhaustive = dse_kernel(kernel, dev, &search_config(1, true));
    let generated = VariantIter::new(
        kernel.geometry().size(),
        &SEARCH_LANES,
        &SEARCH_VECTS,
        &SEARCH_FORMS,
        false,
    )
    .count() as u64;
    Reference { board: exhaustive.board, rest: exhaustive.rest, generated }
}

/// The output check of one kernel run.
fn check(run: &KernelRun, want: &Reference) -> bool {
    run.board == want.board
        && run.rest == want.rest
        && run.outcome.stats.generated == want.generated
        && run.outcome.stats.faulted == 0
}

struct Bench {
    dev: TargetDevice,
    kernels: Vec<Box<dyn EvalKernel>>,
    refs: Vec<Reference>,
    cfg: SearchConfig,
}

impl Bench {
    /// One op: all three kernels, in an order drawn from the seed.
    /// Returns whether every kernel's output matched its reference, and
    /// the runs.
    fn op(&self, seed: u64, i: u64) -> (bool, Vec<KernelRun>) {
        let mut order: Vec<usize> = (0..self.kernels.len()).collect();
        Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i)).shuffle(&mut order);
        let mut ok = true;
        let mut runs = Vec::new();
        for k in order {
            let run = dse_kernel(self.kernels[k].as_ref(), &self.dev, &self.cfg);
            ok &= check(&run, &self.refs[k]);
            runs.push(run);
        }
        (ok, runs)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up as `tybec dse` pays it before its first costing: device
    // tables, kernel definitions, one session and one factory per kernel.
    let mut setup = SetupSamples::new(SETUP_BATCH, || {
        let dev = tytra_device::stratix_v_gsd8();
        kernels()
            .iter()
            .map(|k| (EstimatorSession::new(dev.clone()), k.variant_factory()))
            .collect::<Vec<_>>()
    });
    let dev = tytra_device::stratix_v_gsd8();
    let kernels = kernels();
    let refs: Vec<Reference> = kernels.iter().map(|k| reference(k.as_ref(), &dev)).collect();
    let points_per_op: u64 = refs.iter().map(|r| r.generated).sum();
    let bench = Bench { dev, kernels, refs, cfg: search_config(WORKERS, false) };

    let mut warm_failed = 0;
    for i in 0..WARMUP_OPS {
        setup.sample();
        if !bench.op(args.seed, u64::MAX - i).0 {
            warm_failed += 1;
        }
    }

    if !args.trace {
        let timed = timed_loop(args.seconds, || setup.sample(), |i| bench.op(args.seed, i).0);
        return Ok(Outcome {
            correct: warm_failed == 0,
            attempted: timed.lat_ms.len() as u64,
            failed: timed.failed,
            metrics: end_to_end(setup.median(), &timed, points_per_op as f64),
        });
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half that yields the per-layer numbers.
    let untraced = timed_loop(args.seconds / 2.0, || (), |i| bench.op(args.seed, i).0);
    let mut spans = SpanTotals::default();
    let mut l = Layers::default();
    let mut session = SessionStats::default();
    let mut wall_ms = 0.0;
    let mut exact_counts_ok = true;
    trace::set_enabled(true);
    let traced = timed_loop(
        args.seconds / 2.0,
        || (),
        |i| {
            let t0 = Instant::now();
            let (ok, runs) = bench.op(args.seed, i);
            wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            spans.add(&trace::take_records());
            let mut generated = 0;
            for r in &runs {
                let s = &r.outcome.stats;
                generated += s.generated;
                l.estimated += s.estimated as f64;
                l.pruned_bound += s.pruned_bound as f64;
                l.pruned_unfit += s.pruned_unfit as f64;
                l.stolen += s.stolen as f64;
                l.analyze_classes += s.classes as f64;
                l.analyze_collapsed += s.collapsed as f64;
                session += r.session;
                session += r.outcome.session;
            }
            exact_counts_ok &= generated == points_per_op;
            l.generated += generated as f64;
            ok
        },
    );
    trace::set_enabled(false);
    let n = traced.lat_ms.len() as f64;
    for v in [
        &mut l.estimated,
        &mut l.pruned_bound,
        &mut l.pruned_unfit,
        &mut l.stolen,
        &mut l.analyze_classes,
        &mut l.analyze_collapsed,
        &mut l.generated,
    ] {
        *v /= n;
    }
    l.estimate_ratio = l.estimated / l.generated;
    l.memo_hit_rate = session.hit_rate();
    l.memo_evictions = session.evictions as f64 / n;
    l.set_estimator(&spans, n);
    l.sweep_ms = spans.total_ms("bench.sweep") / n;
    l.search_ms = spans.total_ms("bench.search") / n;
    l.tune_ms = spans.total_ms("bench.tune") / n;
    l.render_ms = spans.total_ms("bench.render") / n;
    let worker_busy_ms = (spans.total_ms("dse.bound")
        + spans.total_ms("dse.variant")
        + spans.total_ms("dse.prefilter"))
        / n;
    l.sched_idle_ms = WORKERS as f64 * l.search_ms - worker_busy_ms;

    // Transform layer, replayed outside the op through its public
    // functions: the lowerings the sweep and tuning make, and the
    // factory designs the search serves.
    let replay = transform_replay(&bench);
    l.lower_ms = replay.lower_ms;
    l.factory_cold_ms = replay.factory_cold_ms;
    l.factory_warm_us = replay.factory_warm_us;
    l.factory_bases = replay.bases as f64;
    exact_counts_ok &= replay.bases_exact;
    l.parallel_speedup = parallel_speedup(&bench);
    l.overhead_pct = overhead_pct(untraced.ops_per_s(), traced.ops_per_s());

    // The op's blocking path: lowering and tree estimates in sweep and
    // tuning (main thread), the whole search, the render.
    let main_estimate_ms = (spans.total_ms("bench.sweep") - spans.self_ms("bench.sweep")
        + spans.total_ms("bench.tune")
        - spans.self_ms("bench.tune"))
        / n;
    let op_ms = wall_ms / n;
    let layered = l.lower_ms + main_estimate_ms + l.search_ms + l.render_ms;
    l.residual_pct = (op_ms - layered) / op_ms * 100.0;

    Ok(Outcome {
        correct: warm_failed == 0 && exact_counts_ok,
        attempted: (untraced.lat_ms.len() + traced.lat_ms.len()) as u64,
        failed: untraced.failed + traced.failed,
        metrics: l.metrics(),
    })
}

struct TransformReplay {
    lower_ms: f64,
    factory_cold_ms: f64,
    factory_warm_us: f64,
    bases: usize,
    /// Every replay built exactly one base per structural class.
    bases_exact: bool,
}

/// Time, per op, the lowerings of the sweep and tuning variants and the
/// factory designs of every searched variant (first design of a
/// structural class is cold: lower + arena build; the rest are
/// copy-on-write patches). Median of several replays.
fn transform_replay(bench: &Bench) -> TransformReplay {
    const REPS: usize = 5;
    let (mut lower, mut cold, mut warm, mut bases) = (vec![], vec![], vec![], vec![]);
    let mut bases_exact = true;
    for _ in 0..REPS {
        let (mut lower_ms, mut cold_ms, mut warm_ms, mut n_warm, mut n_bases) =
            (0.0, 0.0, 0.0, 0usize, 0usize);
        for k in &bench.kernels {
            let k = k.as_ref();
            let mut lowered: Vec<Variant> = sweep_lanes()
                .iter()
                .map(|&l| Variant { lanes: l, ..Variant::baseline() })
                .collect();
            let mut session = EstimatorSession::new(bench.dev.clone());
            lowered.extend(
                tune_session(k, &mut session, Variant::baseline(), TUNE_STEPS)
                    .iter()
                    .map(|s| s.variant),
            );
            for v in &lowered {
                let t0 = Instant::now();
                let _ = std::hint::black_box(k.lower_variant(v));
                lower_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
            let factory = k.variant_factory();
            let gen = VariantIter::new(
                k.geometry().size(),
                &SEARCH_LANES,
                &SEARCH_VECTS,
                &SEARCH_FORMS,
                false,
            );
            let mut classes = HashSet::new();
            for iv in gen {
                let v = iv.variant;
                classes.insert((v.lanes, v.inner, v.form == MemForm::C));
                let before = factory.bases_built();
                let t0 = Instant::now();
                let d = std::hint::black_box(factory.design(&iv.variant));
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                drop(d);
                if factory.bases_built() > before {
                    cold_ms += dt;
                } else {
                    warm_ms += dt;
                    n_warm += 1;
                }
            }
            bases_exact &= factory.bases_built() == classes.len();
            n_bases += factory.bases_built();
        }
        lower.push(lower_ms);
        cold.push(cold_ms);
        warm.push(warm_ms * 1e3 / n_warm.max(1) as f64);
        bases.push(n_bases);
    }
    TransformReplay {
        lower_ms: median(&lower),
        factory_cold_ms: median(&cold),
        factory_warm_us: median(&warm),
        bases: bases[0],
        bases_exact: bases_exact && bases.iter().all(|&b| b == bases[0]),
    }
}

/// Search wall at one worker ÷ search wall at [`WORKERS`], search only,
/// alternating the two settings; medians of several sweeps.
fn parallel_speedup(bench: &Bench) -> f64 {
    const REPS: usize = 7;
    let one = search_config(1, false);
    let (mut w1, mut wn) = (vec![], vec![]);
    for _ in 0..REPS {
        for (cfg, out) in [(&one, &mut w1), (&bench.cfg, &mut wn)] {
            let t0 = Instant::now();
            for k in &bench.kernels {
                std::hint::black_box(search(k.as_ref(), &bench.dev, cfg));
            }
            out.push(t0.elapsed().as_secs_f64());
        }
    }
    median(&w1) / median(&wn)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap kernel run whose output can be doctored.
    fn small_run() -> (KernelRun, Reference) {
        let dev = tytra_device::stratix_v_gsd8();
        let k = Hotspot::default();
        let want = reference(&k, &dev);
        let got = dse_kernel(&k, &dev, &search_config(WORKERS, false));
        (got, want)
    }

    #[test]
    fn check_accepts_the_real_output_and_rejects_wrong_ones() {
        let (mut got, want) = small_run();
        assert!(check(&got, &want), "pruned parallel run must match the exhaustive reference");

        let board = got.board.clone();
        got.board = board.replacen('1', "2", 1);
        assert!(!check(&got, &want), "a changed leaderboard must fail");
        got.board = board;

        let rest = got.rest.clone();
        got.rest.push(' ');
        assert!(!check(&got, &want), "a changed sweep/tuning text must fail");
        got.rest = rest;

        got.outcome.stats.generated += 1;
        assert!(!check(&got, &want), "a wrong generated count must fail");
        got.outcome.stats.generated -= 1;

        got.outcome.stats.faulted = 1;
        assert!(!check(&got, &want), "a faulted variant must fail");
    }
}
