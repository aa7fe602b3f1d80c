//! An idle service burns no CPU: its dispatchers park until a request
//! rings their doorbell.
//!
//! A test binary of its own, so that no other test's threads run in
//! this process while it measures. It sums the scheduler's `utime +
//! stime` of the `ferrotcam-serve-*` dispatcher threads from
//! `/proc/self/task/*/stat` over one second of idleness. A dispatcher
//! that sleep-polled every 20 µs spent about 160 ms per second there on
//! a 2-core host; a parked one spends nothing.

#[cfg(target_os = "linux")]
#[test]
fn idle_service_dispatchers_use_no_cpu() {
    use ferrotcam::TernaryWord;
    use ferrotcam_serve::{ServiceConfig, ShardedTcam, TcamService};
    use std::time::Duration;

    /// The dispatcher threads found and their `utime + stime` summed,
    /// in clock ticks. Thread names are cut to 15 bytes in `comm`.
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

    let mut table = ShardedTcam::new(8, 2);
    for i in 0..64u64 {
        table.store(TernaryWord::from_u64(i, 8));
    }
    let svc = TcamService::start(table, &ServiceConfig::default());
    // Settle: both dispatchers start and park.
    std::thread::sleep(Duration::from_millis(200));

    let (threads, before) = dispatcher_ticks();
    assert_eq!(threads, 2, "one dispatcher thread per shard");
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = dispatcher_ticks();
    let m = svc.drain();

    // USER_HZ is 100 on every Linux ABI: one tick is 10 ms.
    let cpu_ms = (after - before) * 10;
    assert!(
        cpu_ms < 20,
        "idle dispatchers used {cpu_ms} ms of CPU over 1 s"
    );
    // The drain woke both parked dispatchers, which counts their parks.
    assert!(m.dispatcher_parks >= 2, "both dispatchers parked: {m:?}");
}
