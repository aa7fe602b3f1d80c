//! An idle service burns no CPU: its dispatchers park until a request
//! rings their doorbell, and the one that spins after a batch stops
//! when its window ends.
//!
//! A test binary of its own, so that no other test's threads run in
//! this process while it measures; its tests take one lock so they do
//! not run at once. Each sums the scheduler's `utime + stime` of the
//! `ferrotcam-serve-*` dispatcher threads from `/proc/self/task/*/stat`
//! over one second of idleness. A dispatcher that sleep-polled every
//! 20 µs spent about 160 ms per second there on a 2-core host; a parked
//! one spends nothing.

#![cfg(target_os = "linux")]

use ferrotcam::{PackedQuery, TernaryWord};
use ferrotcam_serve::{
    Request, RequestKind, Route, ServiceConfig, ServiceMetrics, ShardedTcam, TcamService,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held by each test for its whole run: both measure every dispatcher
/// thread of the process.
static SERIAL: Mutex<()> = Mutex::new(());

/// The dispatcher threads found and their `utime + stime` summed, in
/// clock ticks. Thread names are cut to 15 bytes in `comm`.
fn dispatcher_ticks() -> (usize, u64) {
    let (mut threads, mut ticks) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let Ok(stat) = std::fs::read_to_string(task.expect("task entry").path().join("stat"))
        else {
            continue; // the thread exited while we listed it
        };
        // `pid (comm) state ...`: comm may hold spaces, so split at
        // the last ')'. utime and stime are fields 14 and 15, i.e.
        // the 12th and 13th after the closing parenthesis.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with("ferrotcam-serv") {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let field = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
        threads += 1;
        ticks += field(11) + field(12);
    }
    (threads, ticks)
}

/// [`dispatcher_ticks`] once no more than `expected` such threads are
/// listed, or after 2 s. A thread `join` has returned for can stay in
/// `/proc/self/task`, still running (state `R`), for a moment: a batch's
/// `par_map` worker, which inherits its dispatcher's name, or a drained
/// service's dispatcher.
fn settled_dispatcher_ticks(expected: usize) -> (usize, u64) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let (threads, ticks) = dispatcher_ticks();
        if threads <= expected || Instant::now() >= deadline {
            return (threads, ticks);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A 2-shard service over 64 8-bit words.
fn service() -> TcamService {
    let mut table = ShardedTcam::new(8, 2);
    for i in 0..64u64 {
        table.store(TernaryWord::from_u64(i, 8));
    }
    TcamService::start(table, &ServiceConfig::default())
}

/// Measure the dispatchers' CPU over one idle second, drain, and
/// return the milliseconds used with the final metrics.
fn idle_second(svc: TcamService) -> (u64, ServiceMetrics) {
    let (threads, before) = settled_dispatcher_ticks(2);
    assert_eq!(threads, 2, "one dispatcher thread per shard");
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = dispatcher_ticks();
    let m = svc.drain();
    // USER_HZ is 100 on every Linux ABI: one tick is 10 ms.
    ((after - before) * 10, m)
}

#[test]
fn idle_service_dispatchers_use_no_cpu() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let svc = service();
    // Settle: both dispatchers start and park.
    std::thread::sleep(Duration::from_millis(200));

    let (cpu_ms, m) = idle_second(svc);
    assert!(
        cpu_ms < 20,
        "idle dispatchers used {cpu_ms} ms of CPU over 1 s"
    );
    // The drain woke both parked dispatchers, which counts their parks.
    assert!(m.dispatcher_parks >= 2, "both dispatchers parked: {m:?}");
}

#[test]
fn dispatchers_go_quiet_after_a_burst() {
    const BURST: u64 = 4000;
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let svc = service();
    let client = svc.client();
    let query = |v: u64| {
        let bits: Vec<bool> = (0..8).rev().map(|b| (v >> b) & 1 == 1).collect();
        PackedQuery::from_bits(&bits)
    };
    // Send in waves no deeper than the rings, letting each wave
    // complete before the next, so the burst is accepted whole. A
    // `send` always queues; an idle fan-out `submit` would run on this
    // thread and leave the dispatchers out of the burst.
    for wave in 0..BURST / 256 + 1 {
        let end = ((wave + 1) * 256).min(BURST);
        for i in wave * 256..end {
            let req = Request::search(RequestKind::Exact, query(i % 64), Route::FanOut);
            client.send(0, req).expect("accepted");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.metrics().completed < end {
            assert!(Instant::now() < deadline, "wave {wave} never completed");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    // No settling pause: the spinner's window must end on its own.
    let (cpu_ms, m) = idle_second(svc);
    assert!(
        cpu_ms < 20,
        "dispatchers used {cpu_ms} ms of CPU over the 1 s after a burst: {m:?}"
    );
    assert_eq!(m.completed, BURST);
    assert_eq!(m.matches, BURST, "every key matches its one row");
    assert_eq!(m.caller_runs, 0);
    assert!(m.batch.batches > 0, "the dispatchers ran the burst");
}
