//! `serve_mixed`: an in-process `serve_tcp` daemon on loopback driven by
//! two closed-loop clients (one connection each, lock-step
//! request/response — a DSE client waits for each answer).
//!
//! About four in five requests repeat estimate/bound/analyze over six
//! hot designs: fast-path and cache hits. The rest are seeded first-seen
//! designs (distinct `Sor::cubic(side, nki)` lowerings) that miss and go
//! to the workers; every [`SHARED_EVERY`]th round both clients send the
//! same first-seen design at once, so concurrent same-key misses meet in
//! the dispatcher. The response cache is small enough that first-seen
//! designs evict from early in the run while the hot set stays resident.
//! Covers the read/parse, cache, queue/dispatch, compute and write layers
//! of serve; bypasses search.

use crate::layers::{Layers, SpanTotals};
use crate::{median, metric, overhead_pct, quantile, Args, Outcome, Rng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};
use tytra_ir::print;
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_serve::engine::fast_key;
use tytra_serve::{
    parse_request, prepare, render_ok, serve_tcp, Engine, ServeConfig, ServerHandle, Shared,
};
use tytra_trace as trace;
use tytra_trace::json::escape;
use tytra_trace::metrics::{MetricValue, Snapshot};
use tytra_transform::Variant;

/// Daemon worker threads and client connections: the machine this
/// benchmark is sized for has two vCPUs. Explicit, never 0 ("available
/// parallelism").
const SERVE_WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Response-cache entries: the 18 hot entries stay resident (each is
/// touched every few dozen requests, so the CLOCK hand always finds
/// their reference bit set) while first-seen designs evict.
const CACHE_CAPACITY: usize = 64;
/// `ServeConfig`'s default micro-batch.
const BATCH_MAX: usize = 32;
const TARGET: &str = "stratix-v-gsd8";
const KINDS: [&str; 3] = ["estimate", "bound", "analyze"];
/// Per-mille chance that a client's own round sends a first-seen design.
const COLD_PER_MILLE: u64 = 190;
/// Every this many rounds, both clients send one first-seen design
/// together.
const SHARED_EVERY: usize = 40;
/// Rounds per client, per second of timed phase, the plan is sized for
/// (about 1.4× the fastest closed-loop rate measured).
const PLAN_ROUNDS_PER_S: f64 = 9000.0;
const WARMUP_ROUNDS: usize = 600;
const SETUP_REPS: usize = 9;
/// First-seen references computed per fresh engine.
const REFERENCE_BLOCK: usize = 1000;

/// One distinct request body (everything but the id).
struct Key {
    /// `"kind":…,"design":…[,"target":…]`, JSON-escaped.
    body: String,
    hot: bool,
}

/// One client's slot in the plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot {
    key: u32,
    /// Sent by both clients at the same moment.
    together: bool,
}

/// The seeded request plan: the distinct keys and each client's slots.
struct Plan {
    keys: Vec<Key>,
    slots: [Vec<Slot>; CLIENTS],
}

fn body(kind: &str, design: &str) -> String {
    let target =
        if kind == "analyze" { String::new() } else { format!(",\"target\":\"{TARGET}\"") };
    format!("\"kind\":\"{kind}\",\"design\":\"{}\"{target}", escape(design))
}

fn request_line(key: &Key, id: u64) -> String {
    format!("{{\"id\":{id},{}}}\n", key.body)
}

/// The six hot designs: the four assets and two baseline lowerings.
fn hot_designs() -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for path in crate::cost_cold::ASSETS {
        out.push(std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    let lowerings: [Box<dyn EvalKernel>; 2] =
        [Box::new(Hotspot::default()), Box::new(LavaMd::default())];
    for k in &lowerings {
        let m = k.lower_variant(&Variant::baseline()).map_err(|e| e.to_string())?;
        out.push(print(&m));
    }
    Ok(out)
}

/// A first-seen design: the baseline SOR lowering of a distinct
/// `(side, nki)`.
fn cold_design(rng: &mut Rng, seen: &mut HashSet<(u64, u64)>) -> Result<String, String> {
    loop {
        let (side, nki) = (8 + rng.below(120), 1 + rng.below(999));
        if seen.insert((side, nki)) {
            let m = Sor::cubic(side, nki)
                .lower_variant(&Variant::baseline())
                .map_err(|e| e.to_string())?;
            return Ok(print(&m));
        }
    }
}

fn plan(seed: u64, rounds: usize) -> Result<Plan, String> {
    let mut rng = Rng::new(seed);
    let mut keys = Vec::new();
    for design in hot_designs()? {
        for kind in KINDS {
            keys.push(Key { body: body(kind, &design), hot: true });
        }
    }
    let hot = keys.len() as u64;
    let mut seen = HashSet::new();
    let mut slots: [Vec<Slot>; CLIENTS] = Default::default();
    let mut cold = |rng: &mut Rng, keys: &mut Vec<Key>| -> Result<u32, String> {
        let kind = KINDS[rng.below(3) as usize];
        keys.push(Key { body: body(kind, &cold_design(rng, &mut seen)?), hot: false });
        Ok(keys.len() as u32 - 1)
    };
    for round in 0..rounds {
        if round % SHARED_EVERY == SHARED_EVERY - 1 {
            let key = cold(&mut rng, &mut keys)?;
            for s in &mut slots {
                s.push(Slot { key, together: true });
            }
            continue;
        }
        for s in &mut slots {
            let key = if rng.below(1000) < COLD_PER_MILLE {
                cold(&mut rng, &mut keys)?
            } else {
                rng.below(hot) as u32
            };
            s.push(Slot { key, together: false });
        }
    }
    Ok(Plan { keys, slots })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The JSON-escaped report of an `ok:true` reply to request `id`, or
/// `None` for an error reply, another id, or a malformed line.
fn reply_payload(reply: &str, id: u64) -> Option<&str> {
    let rest = reply.strip_prefix("{\"id\":")?;
    let rest = rest.strip_prefix(id.to_string().as_str())?;
    let rest = rest.strip_prefix(",\"ok\":true,\"report\":\"")?;
    rest.strip_suffix('\n').unwrap_or(rest).strip_suffix("\"}")
}

/// Reference payloads from the in-process `Engine::respond` path.
fn reference(engine: &mut Engine, shared: &Shared, key: &Key) -> Result<String, String> {
    let reply = engine.respond(&request_line(key, 0), shared);
    reply_payload(&reply, 0)
        .map(str::to_string)
        .ok_or_else(|| format!("reference request failed: {}", reply.trim_end()))
}

/// Rendezvous of the two clients before a together-slot. Gives up (and
/// returns false) once the phase is over.
struct Rendezvous {
    state: Mutex<(u64, usize)>,
    cv: Condvar,
}

impl Rendezvous {
    fn new() -> Rendezvous {
        Rendezvous { state: Mutex::new((0, 0)), cv: Condvar::new() }
    }

    fn wait(&self, stop: &AtomicBool) -> bool {
        let mut g = self.state.lock().expect("rendezvous lock");
        let generation = g.0;
        g.1 += 1;
        if g.1 == CLIENTS {
            *g = (generation + 1, 0);
            self.cv.notify_all();
            return true;
        }
        loop {
            g = self.cv.wait_timeout(g, Duration::from_millis(1)).expect("rendezvous lock").0;
            if g.0 != generation {
                return true;
            }
            if stop.load(Ordering::SeqCst) {
                g.1 -= 1;
                return false;
            }
        }
    }
}

/// One request as a client saw it.
struct Sample {
    key: u32,
    id: u64,
    /// Send time since the phase start, nanoseconds.
    sent_ns: u64,
    lat_ns: u64,
    /// Hot keys: checked on arrival. First-seen keys: the payload hash,
    /// checked against the reference after the run (`None`: not ok).
    check: Check,
}

enum Check {
    Done(bool),
    Later(Option<u64>),
}

/// One client's share of a phase.
struct ClientOut {
    samples: Vec<Sample>,
    next: usize,
    end: Instant,
}

/// What the clients of one phase share.
struct PhaseCtx<'a> {
    addr: SocketAddr,
    plan: &'a Plan,
    hot_want: &'a [String],
    /// Plan position no client passes.
    until: usize,
    start: Barrier,
    meet: Rendezvous,
    stop: AtomicBool,
    /// Phase start and deadline, set before the start barrier opens.
    clock: Mutex<Option<(Instant, Instant)>>,
}

fn client(ctx: &PhaseCtx, c: usize, from: usize) -> Result<ClientOut, String> {
    let connected = TcpStream::connect(ctx.addr).and_then(|s| {
        s.set_nodelay(true)?;
        Ok((s.try_clone()?, BufReader::new(s)))
    });
    // Every client passes the start barrier, connected or not.
    ctx.start.wait();
    let (mut writer, mut reader) = connected.map_err(|e| format!("connect: {e}"))?;
    let (begin, deadline) = ctx.clock.lock().expect("phase clock").expect("phase clock set");
    let (plan, stop) = (ctx.plan, &ctx.stop);
    let slots = &plan.slots[c];
    let mut samples = Vec::new();
    let mut reply = String::new();
    let mut next = from;
    while next < ctx.until {
        if Instant::now() >= deadline {
            stop.store(true, Ordering::SeqCst);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let slot = slots[next];
        if slot.together && !ctx.meet.wait(stop) {
            break;
        }
        let id = (next * CLIENTS + c) as u64;
        let key = &plan.keys[slot.key as usize];
        let line = request_line(key, id);
        reply.clear();
        let sent = Instant::now();
        let io = writer.write_all(line.as_bytes()).and_then(|_| reader.read_line(&mut reply));
        let lat_ns = sent.elapsed().as_nanos() as u64;
        let payload = if io.is_ok() { reply_payload(&reply, id) } else { None };
        let check = if key.hot {
            Check::Done(payload == Some(ctx.hot_want[slot.key as usize].as_str()))
        } else {
            Check::Later(payload.map(|p| fnv1a(p.as_bytes())))
        };
        samples.push(Sample {
            key: slot.key,
            id,
            sent_ns: (sent - begin).as_nanos() as u64,
            lat_ns,
            check,
        });
        next += 1;
        if io.is_err() {
            stop.store(true, Ordering::SeqCst);
            break;
        }
    }
    if next == slots.len() && !stop.load(Ordering::SeqCst) {
        eprintln!("perfbench: client {c} ran out of planned requests");
    }
    Ok(ClientOut { samples, next, end: Instant::now() })
}

/// One closed-loop phase of both clients, from plan positions `from` up
/// to `until`, for at most `seconds`.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    next: [usize; CLIENTS],
}

fn phase(
    addr: SocketAddr,
    plan: &Plan,
    hot_want: &[String],
    from: [usize; CLIENTS],
    until: usize,
    seconds: f64,
) -> Result<Phase, String> {
    let ctx = PhaseCtx {
        addr,
        plan,
        hot_want,
        until,
        start: Barrier::new(CLIENTS + 1),
        meet: Rendezvous::new(),
        stop: AtomicBool::new(false),
        clock: Mutex::new(None),
    };
    let ctx = &ctx;
    let outs: Vec<Result<ClientOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..CLIENTS).map(|c| s.spawn(move || client(ctx, c, from[c]))).collect();
        let begin = Instant::now();
        *ctx.clock.lock().expect("phase clock") =
            Some((begin, begin + Duration::from_secs_f64(seconds)));
        ctx.start.wait();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let begin = ctx.clock.lock().expect("phase clock").expect("phase clock set").0;
    let mut samples = Vec::new();
    let mut next = from;
    let mut end = begin;
    for (c, out) in outs.into_iter().enumerate() {
        let out = out?;
        samples.extend(out.samples);
        next[c] = out.next;
        end = end.max(out.end);
    }
    samples.sort_by_key(|s| s.sent_ns);
    Ok(Phase { samples, wall_s: (end - begin).as_secs_f64(), next })
}

/// Start a daemon and fill its cache with the hot set: the set-up a
/// client of a fresh `tybec serve` pays before its first answer.
fn start_daemon(plan: &Plan) -> Result<ServerHandle, String> {
    let cfg = ServeConfig {
        workers: SERVE_WORKERS,
        cache_capacity: CACHE_CAPACITY,
        batch_max: BATCH_MAX,
        fault_inject: None,
    };
    let handle = serve_tcp("127.0.0.1:0", cfg).map_err(|e| format!("binding loopback: {e}"))?;
    let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    for (i, key) in plan.keys.iter().enumerate().filter(|(_, k)| k.hot) {
        reply.clear();
        writer
            .write_all(request_line(key, i as u64).as_bytes())
            .and_then(|_| reader.read_line(&mut reply))
            .map_err(|e| format!("filling the hot set: {e}"))?;
        if reply_payload(&reply, i as u64).is_none() {
            return Err(format!("hot-set request failed: {}", reply.trim_end()));
        }
    }
    Ok(handle)
}

/// [`start_daemon`], timed into `setups`.
fn timed_setup(plan: &Plan, setups: &mut Vec<f64>) -> Result<ServerHandle, String> {
    let t0 = Instant::now();
    let d = start_daemon(plan)?;
    setups.push(t0.elapsed().as_secs_f64());
    Ok(d)
}

fn hist(s: &Snapshot, name: &str) -> (f64, f64) {
    match s.get(name) {
        Some(MetricValue::Histogram(h)) => (h.count as f64, h.sum as f64),
        _ => (0.0, 0.0),
    }
}

/// Verify every first-seen reply of `samples` against its
/// `Engine::respond` reference, on [`CLIENTS`] threads. Returns how many
/// samples failed, counting the hot ones checked on arrival.
fn failures(plan: &Plan, samples: &[Sample]) -> Result<u64, String> {
    let mut cold: Vec<u32> =
        samples.iter().filter(|s| matches!(s.check, Check::Later(_))).map(|s| s.key).collect();
    cold.sort_unstable();
    cold.dedup();
    let chunk = cold.len().div_ceil(CLIENTS).max(1);
    let want: Vec<Result<Vec<(u32, u64)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = cold
            .chunks(chunk)
            .map(|keys| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(keys.len());
                    // A fresh engine per block bounds the memo tables'
                    // memory; payloads do not depend on engine state.
                    for block in keys.chunks(REFERENCE_BLOCK) {
                        let shared = Shared::new(CACHE_CAPACITY);
                        let mut engine = Engine::new();
                        for &k in block {
                            let payload = reference(&mut engine, &shared, &plan.keys[k as usize])?;
                            out.push((k, fnv1a(payload.as_bytes())));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference thread panicked")).collect()
    });
    let mut want_hash = std::collections::HashMap::new();
    for w in want {
        want_hash.extend(w?);
    }
    Ok(samples
        .iter()
        .filter(|s| match s.check {
            Check::Done(ok) => !ok,
            Check::Later(got) => got.is_none() || got != want_hash.get(&s.key).copied(),
        })
        .count() as u64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let rounds = WARMUP_ROUNDS + (args.seconds * PLAN_ROUNDS_PER_S).ceil() as usize;
    let plan = plan(args.seed, rounds)?;
    // The request mix must repeat bit-for-bit for a seed.
    let again = self::plan(args.seed, rounds.min(2000))?;
    let mix_repeats = again.slots.iter().zip(&plan.slots).all(|(a, b)| b.starts_with(a))
        && again.keys.iter().zip(&plan.keys).all(|(a, b)| a.body == b.body);
    drop(again);
    let hot_want: Vec<String> = {
        let shared = Shared::new(CACHE_CAPACITY);
        let mut engine = Engine::new();
        plan.keys
            .iter()
            .filter(|k| k.hot)
            .map(|k| reference(&mut engine, &shared, k))
            .collect::<Result<_, _>>()?
    };

    // Set-up: daemon start plus the hot-set fill. Fresh daemons are
    // timed before and after the timed phase, and the median reported;
    // the last one before it serves the run.
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS / 2 {
        timed_setup(&plan, &mut setups)?.stop();
    }
    let daemon = timed_setup(&plan, &mut setups)?;
    let addr = daemon.addr();

    let warm = phase(addr, &plan, &hot_want, [0; CLIENTS], WARMUP_ROUNDS, 60.0)?;
    let warm_failed = failures(&plan, &warm.samples)?;
    let end = plan.slots[0].len();
    let checks_ok = mix_repeats && warm_failed == 0;

    if !args.trace {
        let timed = phase(addr, &plan, &hot_want, warm.next, end, args.seconds)?;
        daemon.stop();
        while setups.len() < SETUP_REPS {
            timed_setup(&plan, &mut setups)?.stop();
        }
        let setup_s = median(&setups);
        let failed = failures(&plan, &timed.samples)?;
        let mut lat_ms: Vec<f64> = timed.samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect();
        lat_ms.sort_by(f64::total_cmp);
        let n = lat_ms.len() as f64;
        let points = timed
            .samples
            .iter()
            .filter(|s| !plan.keys[s.key as usize].body.starts_with("\"kind\":\"analyze\""))
            .count() as f64;
        return Ok(Outcome {
            correct: checks_ok,
            attempted: timed.samples.len() as u64,
            failed,
            metrics: vec![
                metric("setup_s", setup_s, "s"),
                metric("ops_per_s", n / timed.wall_s, "1/s"),
                metric("op_p50_ms", quantile(&lat_ms, 0.5), "ms"),
                metric("op_p90_ms", quantile(&lat_ms, 0.9), "ms"),
                metric("points_per_s", points / timed.wall_s, "1/s"),
                metric("peak_rss_mb", crate::peak_rss_mb(), "MiB"),
            ],
        });
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half whose spans, registry deltas and replay give the
    // per-layer numbers.
    let untraced = phase(addr, &plan, &hot_want, warm.next, end, args.seconds / 2.0)?;
    trace::set_record_cap(1 << 20);
    let before = daemon.shared().snapshot();
    trace::set_enabled(true);
    let traced = phase(addr, &plan, &hot_want, untraced.next, end, args.seconds / 2.0)?;
    trace::set_enabled(false);
    let after = daemon.shared().snapshot();
    daemon.stop();
    let mut spans = SpanTotals::default();
    spans.add(&trace::take_records());
    let failed = failures(&plan, &untraced.samples)? + failures(&plan, &traced.samples)?;

    let n = traced.samples.len() as f64;
    let parse_ms = spans.total_ms("ir.parse");
    let mut l = Layers {
        ir_parse_ms: parse_ms / n,
        ir_parse_mb_per_s: spans.parse_bytes as f64 / (parse_ms / 1e3) / 1e6,
        ir_validate_ms: spans.total_ms("ir.validate") / n,
        ..Layers::default()
    };
    l.set_estimator(&spans, n);
    let analyses = spans.count("analyze.module").max(1) as f64;
    l.analyze_module_ms = spans.total_ms("analyze.module") / analyses;

    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    l.hit_rate = hits / (hits + misses);
    l.evictions = delta("serve.cache.evictions") / n;
    l.batches = delta("serve.batches") / n;
    let ((c0, s0), (c1, s1)) =
        (hist(&before, "serve.batch_size"), hist(&after, "serve.batch_size"));
    l.batch_size_mean = (s1 - s0) / (c1 - c0);
    let cold_keys: HashSet<u32> =
        traced.samples.iter().filter(|s| !plan.keys[s.key as usize].hot).map(|s| s.key).collect();
    l.computes_per_cold_key = misses / cold_keys.len().max(1) as f64;

    let r = replay(&plan, &traced.samples)?;
    l.read_parse_us = r.read_parse_ns / n / 1e3;
    l.write_us = r.write_ns / n / 1e3;
    l.compute_us = r.compute_ns / r.misses.max(1.0) / 1e3;
    l.queue_us = r.queue_ns / r.misses.max(1.0) / 1e3;
    l.memo_hit_rate = r.memo_hit_rate;
    l.memo_evictions = r.memo_evictions / n;
    let lat_ns: f64 = traced.samples.iter().map(|s| s.lat_ns as f64).sum();
    l.residual_pct = (lat_ns - r.busy_ns - r.queue_ns) / lat_ns * 100.0;
    l.overhead_pct = overhead_pct(
        untraced.samples.len() as f64 / untraced.wall_s,
        traced.samples.len() as f64 / traced.wall_s,
    );

    Ok(Outcome {
        correct: checks_ok && trace::dropped_spans() == 0,
        attempted: (untraced.samples.len() + traced.samples.len()) as u64,
        failed,
        metrics: l.metrics(),
    })
}

/// Busy times of the traced phase's requests, replayed in send order
/// through the daemon's public per-request functions on one thread.
#[derive(Default)]
struct Replay {
    read_parse_ns: f64,
    write_ns: f64,
    compute_ns: f64,
    /// Client latency minus replayed busy time, summed over misses.
    queue_ns: f64,
    busy_ns: f64,
    misses: f64,
    memo_hit_rate: f64,
    memo_evictions: f64,
}

fn replay(plan: &Plan, samples: &[Sample]) -> Result<Replay, String> {
    let shared = Shared::new(CACHE_CAPACITY);
    let mut engine = Engine::new();
    for key in plan.keys.iter().filter(|k| k.hot) {
        engine.respond(&request_line(key, 0), &shared);
    }
    let before = engine.session_stats();
    let mut r = Replay::default();
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    for s in samples {
        let line = request_line(&plan.keys[s.key as usize], s.id);
        let t = Instant::now();
        let req = parse_request(line.trim_end()).map_err(|e| e.error.message)?;
        let mut read_parse = ns(t);
        let fk = fast_key(&req.kind);
        let t = Instant::now();
        let fast = fk.as_ref().and_then(|k| shared.fast_get(k));
        let mut busy = ns(t);
        // Compute time of a miss; the hit paths compute nothing.
        let mut compute = None;
        let payload = match fast {
            Some(hit) => hit,
            None => {
                let t = Instant::now();
                let (work, key) = prepare(&req.kind).map_err(|e| e.message)?;
                read_parse += ns(t);
                let key = key.ok_or("planned requests are cacheable")?;
                let t = Instant::now();
                if let Some(fk) = fk {
                    shared.fast_put(fk, key.clone());
                }
                let cached = shared.cache_get(&key);
                busy += ns(t);
                match cached {
                    Some(hit) => hit,
                    None => {
                        let t = Instant::now();
                        let payload = engine.compute(&work, &shared).map_err(|e| e.message)?;
                        compute = Some(ns(t));
                        let t = Instant::now();
                        shared.cache_put(key, payload.clone());
                        busy += ns(t);
                        payload
                    }
                }
            }
        };
        let t = Instant::now();
        std::hint::black_box(render_ok(s.id, &payload));
        let write = ns(t);
        r.read_parse_ns += read_parse;
        r.write_ns += write;
        busy += read_parse + write;
        if let Some(c) = compute {
            busy += c;
            r.compute_ns += c;
            r.misses += 1.0;
            r.queue_ns += s.lat_ns as f64 - busy;
        }
        r.busy_ns += busy;
    }
    let after = engine.session_stats();
    let (hits, lookups) = (after.hits - before.hits, after.lookups() - before.lookups());
    r.memo_hit_rate = hits as f64 / lookups.max(1) as f64;
    r.memo_evictions = (after.evictions - before.evictions) as f64;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::TybecError;

    #[test]
    fn reply_checks_reject_wrong_replies() {
        let m = Sor::cubic(16, 3).lower_variant(&Variant::baseline()).unwrap();
        let key = Key { body: body("estimate", &print(&m)), hot: false };
        let want = reference(&mut Engine::new(), &Shared::new(CACHE_CAPACITY), &key).unwrap();

        let good = format!("{{\"id\":5,\"ok\":true,\"report\":\"{want}\"}}\n");
        assert_eq!(reply_payload(&good, 5), Some(want.as_str()));
        assert_eq!(reply_payload(&good, 6), None, "another id must fail");
        assert_eq!(reply_payload(&good.replace("true", "false"), 5), None, "ok:false must fail");
        let err =
            tytra_serve::render_err(5, &TybecError::new(tytra_ir::ErrorCategory::Parse, "x"), None);
        assert_eq!(reply_payload(&err, 5), None, "an error reply must fail");

        // First-seen payloads are checked by hash after the run.
        let plan = Plan { keys: vec![key], slots: Default::default() };
        let sample = |check| Sample { key: 0, id: 5, sent_ns: 0, lat_ns: 0, check };
        let samples = [
            sample(Check::Later(Some(fnv1a(want.as_bytes())))),
            sample(Check::Later(Some(fnv1a(want.replacen('1', "2", 1).as_bytes())))),
            sample(Check::Later(None)),
            sample(Check::Done(true)),
            sample(Check::Done(false)),
        ];
        assert_eq!(failures(&plan, &samples).unwrap(), 3, "changed, missing and failed replies");
    }

    #[test]
    fn cold_designs_repeat_per_seed() {
        let m = |seed| {
            let mut rng = Rng::new(seed);
            (0..5).map(|_| cold_design(&mut rng, &mut HashSet::new()).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(m(3), m(3));
        assert_ne!(m(3), m(4));
    }
}
