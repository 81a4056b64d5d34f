//! Flight-recorder lane retention: a process that keeps spawning
//! short-lived threads (search workers, serve connections) retains the
//! lanes of its live threads plus only the newest
//! [`recorder::RETIRED_LANES`] exited ones.
//!
//! This file is its own test binary with a single test on purpose: no
//! other thread retires lanes concurrently, so the bound and the
//! retained set are exact.

use std::sync::mpsc;
use tytra_trace::recorder;

#[test]
fn exited_threads_keep_only_the_newest_retired_lanes() {
    // One long-lived thread (a serve worker, say) stays up throughout.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let (tid_tx, tid_rx) = mpsc::channel();
    let live = std::thread::spawn(move || {
        recorder::mark("rec.live", 7);
        tid_tx.send(recorder::dump_current_thread().expect("lane exists").tid).unwrap();
        stop_rx.recv().unwrap();
    });
    let live_tid = tid_rx.recv().unwrap();

    // Short-lived threads come and go one at a time, never concurrently;
    // the test thread itself never records.
    const CHURN: u64 = 200;
    let tids: Vec<u64> = (0..CHURN)
        .map(|i| {
            std::thread::spawn(move || {
                recorder::mark("rec.churn", i);
                recorder::dump_current_thread().expect("lane exists").tid
            })
            .join()
            .unwrap()
        })
        .collect();

    let dumps = recorder::dump();
    assert_eq!(dumps.len(), 1 + recorder::RETIRED_LANES, "live + retired lanes after churn");
    // Registration order: the live lane first, then exactly the newest
    // retired lanes, each with its events intact.
    let kept: Vec<u64> = dumps.iter().map(|d| d.tid).collect();
    assert_eq!(kept[0], live_tid);
    assert_eq!(kept[1..], tids[tids.len() - recorder::RETIRED_LANES..]);
    assert!(dumps[0].events.iter().any(|e| e.name == "rec.live" && e.detail == 7));
    for (lane, i) in dumps[1..].iter().zip(CHURN - recorder::RETIRED_LANES as u64..) {
        assert_eq!(lane.written, 1);
        assert_eq!(lane.events.len(), 1);
        assert_eq!((lane.events[0].name.as_str(), lane.events[0].detail), ("rec.churn", i));
    }

    stop_tx.send(()).unwrap();
    live.join().unwrap();
    // The live thread's exit retires its lane too: the bound holds.
    assert_eq!(recorder::dump().len(), recorder::RETIRED_LANES);
}
