//! The flight recorder: always-on, crash-surviving event rings.
//!
//! Every thread that passes through a span site owns one fixed-capacity
//! ring of compact event records ([`RING_CAPACITY`] slots). The write
//! path is a single relaxed enabled-check plus a seqlocked slot write —
//! no lock, no allocation in steady state (the ring itself is allocated
//! once, the first time a thread records). Unlike the span collector
//! (off by default, drained post-hoc), the recorder is **on by
//! default** and never drained: it always holds the last-N events per
//! thread, so a panic, a `dse.fault` or a fuzz crash can [`dump`] the
//! immediate history of every lane post-mortem. A lane outlives its
//! thread: on exit it retires, and the newest [`RETIRED_LANES`] retired
//! lanes stay dumpable beside every live one.
//!
//! Records are deliberately lossy where the span collector is exact:
//! names are truncated to [`NAME_BYTES`] bytes and there are no
//! timestamps, only a per-lane order stamp — the recorder answers
//! "what was this thread doing just now", not "how long did it take".
//!
//! Concurrency: each ring has exactly one writer (its owning thread);
//! [`dump`] may race it from any thread. Every slot is a seqlock over
//! plain atomics — the writer brackets its field stores with an
//! odd/even sequence, and a reader that observes an odd or changed
//! sequence discards the slot. A torn record is therefore impossible
//! by construction; at worst a dump misses the slot being overwritten
//! at that instant. The writer advances the lane cursor before it
//! closes a slot's sequence, and a dump reads the cursor after its
//! snapshot, so every recovered event's `order` is below the dump's
//! `written` count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Events retained per thread lane (a power of two).
pub const RING_CAPACITY: usize = 256;

/// Name bytes kept per event (longer names are truncated).
pub const NAME_BYTES: usize = 24;

const NAME_WORDS: usize = NAME_BYTES / 8;

/// Recorder master switch. On by default; [`set_enabled`] exists for
/// overhead A/B measurements and the `TYTRA_FLIGHT_RECORDER=0` escape
/// hatch, not for normal operation.
static RECORDER_ON: AtomicBool = AtomicBool::new(true);

/// Retired lanes (of exited threads) kept for post-mortems. A dead
/// thread's last events are exactly what a post-mortem wants, but a
/// process that spawns threads per request or per search must not keep
/// one ring per thread it ever ran.
pub const RETIRED_LANES: usize = 64;

/// The live lanes plus the last [`RETIRED_LANES`] retired ones.
static LANES: Mutex<Registry> =
    Mutex::new(Registry { lanes: Vec::new(), retired: VecDeque::new() });

struct Registry {
    /// Every retained lane, in registration order.
    lanes: Vec<Arc<Lane>>,
    /// Thread ids of retired lanes, oldest first.
    retired: VecDeque<u64>,
}

impl Registry {
    /// A thread exited: keep its lane as retired, and drop the oldest
    /// retired lane (and its thread label) beyond the cap.
    fn retire(&mut self, tid: u64) {
        self.retired.push_back(tid);
        while self.retired.len() > RETIRED_LANES {
            let Some(old) = self.retired.pop_front() else { break };
            self.lanes.retain(|l| l.tid != old);
            crate::forget_thread_label(old);
        }
    }
}

/// The calling thread's lane; retires it from [`LANES`] when the
/// thread exits (thread-local destructor).
struct LaneHandle(Arc<Lane>);

impl Drop for LaneHandle {
    fn drop(&mut self) {
        if let Ok(mut reg) = LANES.lock() {
            reg.retire(self.0.tid);
        }
    }
}

thread_local! {
    static MY_LANE: std::cell::RefCell<Option<LaneHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// What kind of history entry an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span()` was called).
    Open,
    /// A traced span closed (guard drop; recorder-only spans log opens).
    Close,
    /// A point event from [`mark`].
    Mark,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Open => 0,
            EventKind::Close => 1,
            EventKind::Mark => 2,
        }
    }

    fn from_code(c: u64) -> Option<EventKind> {
        match c {
            0 => Some(EventKind::Open),
            1 => Some(EventKind::Close),
            2 => Some(EventKind::Mark),
            _ => None,
        }
    }

    /// Fixed-width label for the text dump.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Open => "open ",
            EventKind::Close => "close",
            EventKind::Mark => "mark ",
        }
    }
}

/// One slot: a seqlock over plain atomics. `seq` is odd while the
/// writer is mid-update; `order` repeats the event number so a reader
/// can tell which generation of the ring it is looking at.
struct Slot {
    seq: AtomicU64,
    /// `kind (8 bits) | name_len (8 bits)`.
    meta: AtomicU64,
    /// Lane-local event number (the ring cursor at write time).
    order: AtomicU64,
    /// Free `u64` payload (variant index, case id, …).
    detail: AtomicU64,
    name: [AtomicU64; NAME_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            order: AtomicU64::new(0),
            detail: AtomicU64::new(0),
            name: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct Lane {
    /// The span collector's dense thread id, for cross-referencing
    /// dumps with trace lanes and `thread_labels()`.
    tid: u64,
    /// Events written so far; the next write goes to
    /// `slots[cursor % RING_CAPACITY]`.
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl Lane {
    fn write(&self, kind: EventKind, name: &str, detail: u64) {
        let cur = self.cursor.load(Ordering::Relaxed);
        let slot = &self.slots[(cur as usize) & (RING_CAPACITY - 1)];
        let len = name.len().min(NAME_BYTES);
        let mut words = [0u64; NAME_WORDS];
        for (i, &b) in name.as_bytes()[..len].iter().enumerate() {
            words[i / 8] |= u64::from(b) << ((i % 8) * 8);
        }
        let seq0 = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq0 | 1, Ordering::Release);
        slot.meta.store(kind.code() | ((len as u64) << 8), Ordering::Relaxed);
        slot.order.store(cur, Ordering::Relaxed);
        slot.detail.store(detail, Ordering::Relaxed);
        for (w, v) in slot.name.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        // Advance the cursor before the closing `seq` store: a reader
        // whose Acquire load of `seq` sees this record then also sees
        // `cursor > order` (dumps read `cursor` after the snapshot).
        self.cursor.store(cur + 1, Ordering::Release);
        slot.seq.store((seq0 | 1).wrapping_add(1), Ordering::Release);
    }

    fn read_slot(&self, index: usize) -> Option<FlightEvent> {
        let slot = &self.slots[index];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None; // never written, or mid-write
        }
        let meta = slot.meta.load(Ordering::Relaxed);
        let order = slot.order.load(Ordering::Relaxed);
        let detail = slot.detail.load(Ordering::Relaxed);
        let mut words = [0u64; NAME_WORDS];
        for (w, v) in words.iter_mut().zip(slot.name.iter()) {
            *w = v.load(Ordering::Relaxed);
        }
        if slot.seq.load(Ordering::Acquire) != s1 {
            return None; // overwritten while reading
        }
        let kind = EventKind::from_code(meta & 0xFF)?;
        let len = ((meta >> 8) & 0xFF) as usize;
        if len > NAME_BYTES {
            return None;
        }
        let mut bytes = [0u8; NAME_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (words[i / 8] >> ((i % 8) * 8)) as u8;
        }
        let name = String::from_utf8_lossy(&bytes[..len]).into_owned();
        Some(FlightEvent { order, kind, name, detail })
    }

    fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> =
            (0..RING_CAPACITY).filter_map(|i| self.read_slot(i)).collect();
        events.sort_by_key(|e| e.order);
        events
    }

    /// Snapshot, then read `cursor`: every recovered event's `order`
    /// is below the `written` count this returns (see [`Lane::write`]).
    fn dump(&self, labels: &[(u64, String)]) -> LaneDump {
        let events = self.snapshot();
        LaneDump {
            tid: self.tid,
            label: labels.iter().find(|(t, _)| *t == self.tid).map(|(_, l)| l.clone()),
            written: self.cursor.load(Ordering::Acquire),
            events,
        }
    }
}

/// One recovered event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Lane-local event number (monotone per thread; gaps mean the
    /// ring wrapped past the slot while it was being dumped).
    pub order: u64,
    /// Open, close or mark.
    pub kind: EventKind,
    /// Event name, truncated to [`NAME_BYTES`] bytes.
    pub name: String,
    /// Free payload (variant index, case id, 0 when unused).
    pub detail: u64,
}

/// Everything recovered from one thread's ring.
#[derive(Debug, Clone)]
pub struct LaneDump {
    /// The span collector's dense thread id for this lane.
    pub tid: u64,
    /// Label from [`crate::set_thread_label`], when one was registered.
    pub label: Option<String>,
    /// Total events ever written to this lane.
    pub written: u64,
    /// The recovered tail, in write order.
    pub events: Vec<FlightEvent>,
}

fn lane_for_current_thread() -> Option<Arc<Lane>> {
    MY_LANE
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.is_none() {
                let lane = Arc::new(Lane {
                    tid: crate::current_thread_id(),
                    cursor: AtomicU64::new(0),
                    slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
                });
                if let Ok(mut reg) = LANES.lock() {
                    reg.lanes.push(Arc::clone(&lane));
                }
                *slot = Some(LaneHandle(lane));
            }
            slot.as_ref().map(|h| Arc::clone(&h.0))
        })
        .ok()
        .flatten()
}

#[inline]
fn record(kind: EventKind, name: &str, detail: u64) {
    if !RECORDER_ON.load(Ordering::Relaxed) {
        return;
    }
    if let Some(lane) = lane_for_current_thread() {
        lane.write(kind, name, detail);
    }
}

/// Span sites call this on open (always, traced or not).
#[inline]
pub(crate) fn record_open(name: &str) {
    record(EventKind::Open, name, 0);
}

/// Traced span guards call this on drop.
#[inline]
pub(crate) fn record_close(name: &str) {
    record(EventKind::Close, name, 0);
}

/// Log a point event with a numeric payload. This is the hot-path
/// breadcrumb API: no allocation, no formatting — hand it a static
/// name and an index and it costs a ring write.
#[inline]
pub fn mark(name: &str, detail: u64) {
    record(EventKind::Mark, name, detail);
}

/// Turn the recorder off/on. Intended for overhead measurements and
/// the `TYTRA_FLIGHT_RECORDER=0` environment override only.
pub fn set_enabled(on: bool) {
    RECORDER_ON.store(on, Ordering::Relaxed);
}

/// Whether the recorder is on (it is, unless something turned it off).
pub fn enabled() -> bool {
    RECORDER_ON.load(Ordering::Relaxed)
}

/// Snapshot every lane's retained tail. Safe to call from any thread at
/// any time, including from a panic hook while other threads still
/// write: slots caught mid-update are skipped, never torn.
pub fn dump() -> Vec<LaneDump> {
    let lanes: Vec<Arc<Lane>> = match LANES.lock() {
        Ok(reg) => reg.lanes.clone(),
        Err(_) => return Vec::new(),
    };
    let labels = crate::thread_labels();
    lanes.iter().map(|lane| lane.dump(&labels)).collect()
}

/// [`dump`], restricted to the calling thread's lane. `None` if this
/// thread never recorded anything.
pub fn dump_current_thread() -> Option<LaneDump> {
    let lane =
        MY_LANE.try_with(|cell| cell.borrow().as_ref().map(|h| Arc::clone(&h.0))).ok().flatten()?;
    Some(lane.dump(&crate::thread_labels()))
}

/// Render lane dumps as the post-mortem text format: one header line
/// per lane, one `#order kind name detail` line per event.
pub fn render_dump(dumps: &[LaneDump]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("== flight recorder ==\n");
    for lane in dumps {
        let label = lane.label.as_deref().map(|l| format!(" ({l})")).unwrap_or_default();
        let _ = writeln!(
            out,
            "lane {}{label}: {} event(s) retained of {} written",
            lane.tid,
            lane.events.len(),
            lane.written
        );
        for e in &lane.events {
            let _ = write!(out, "  #{:<8} {} {}", e.order, e.kind.label(), e.name);
            if e.detail != 0 {
                let _ = write!(out, "  detail={}", e.detail);
            }
            out.push('\n');
        }
    }
    out
}

static HOOK_INSTALLED: Once = Once::new();

/// Install a process panic hook that prints the flight-recorder dump to
/// stderr (and to the file named by `TYTRA_FLIGHT_DUMP`, when set)
/// after the previous hook has reported the panic itself. Idempotent;
/// chains whatever hook was installed before.
pub fn install_panic_hook() {
    HOOK_INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let rendered = render_dump(&dump());
            eprintln!("{rendered}");
            if let Ok(path) = std::env::var("TYTRA_FLIGHT_DUMP") {
                if !path.is_empty() {
                    let _ = std::fs::write(&path, &rendered);
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_land_in_the_current_lane_in_order() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let (tid, dump) = std::thread::spawn(|| {
            mark("rec.alpha", 1);
            mark("rec.beta", 2);
            mark("rec.gamma", 0);
            (crate::current_thread_id(), dump_current_thread().expect("lane exists"))
        })
        .join()
        .unwrap();
        assert_eq!(dump.tid, tid);
        assert_eq!(dump.written, 3);
        let names: Vec<&str> = dump.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["rec.alpha", "rec.beta", "rec.gamma"]);
        assert_eq!(dump.events[0].detail, 1);
        assert_eq!(dump.events[2].detail, 0);
        assert!(dump.events.windows(2).all(|w| w[0].order < w[1].order));
        assert!(dump.events.iter().all(|e| e.kind == EventKind::Mark));
    }

    #[test]
    fn the_ring_keeps_only_the_tail() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let dump = std::thread::spawn(|| {
            for i in 0..(RING_CAPACITY as u64 * 3 + 7) {
                mark("rec.wrap", i);
            }
            dump_current_thread().expect("lane exists")
        })
        .join()
        .unwrap();
        let total = RING_CAPACITY as u64 * 3 + 7;
        assert_eq!(dump.written, total);
        assert_eq!(dump.events.len(), RING_CAPACITY);
        // The retained window is exactly the last RING_CAPACITY events.
        assert_eq!(dump.events.first().unwrap().order, total - RING_CAPACITY as u64);
        assert_eq!(dump.events.last().unwrap().order, total - 1);
        assert!(dump.events.iter().all(|e| e.detail == e.order));
    }

    #[test]
    fn long_names_truncate_and_dump_renders() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let rendered = std::thread::spawn(|| {
            mark("this.name.is.much.longer.than.the.slot", 9);
            let d = dump_current_thread().unwrap();
            let tail = d.events.last().unwrap().clone();
            assert_eq!(tail.name.len(), NAME_BYTES);
            assert_eq!(tail.name, "this.name.is.much.longer");
            render_dump(&[d])
        })
        .join()
        .unwrap();
        assert!(rendered.starts_with("== flight recorder ==\n"), "{rendered}");
        assert!(rendered.contains("detail=9"), "{rendered}");
    }

    #[test]
    fn disabling_stops_recording() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        std::thread::spawn(|| {
            mark("rec.before", 0);
            set_enabled(false);
            mark("rec.hidden", 0);
            set_enabled(true);
            mark("rec.after", 0);
            let d = dump_current_thread().unwrap();
            let names: Vec<&str> = d.events.iter().map(|e| e.name.as_str()).collect();
            assert!(names.contains(&"rec.before"));
            assert!(names.contains(&"rec.after"));
            assert!(!names.contains(&"rec.hidden"), "{names:?}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn global_dump_sees_every_thread_lane() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        let tids: Vec<u64> = (0..3)
            .map(|w| {
                std::thread::spawn(move || {
                    mark("rec.global", w);
                    crate::current_thread_id()
                })
                .join()
                .unwrap()
            })
            .collect();
        let dumps = dump();
        for tid in tids {
            let lane = dumps.iter().find(|d| d.tid == tid).expect("lane dumped");
            assert!(lane.events.iter().any(|e| e.name == "rec.global"));
        }
    }
}
