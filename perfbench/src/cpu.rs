//! CPU time from the kernel's scheduler statistics. They count only the
//! time a thread ran, so unlike wall time they leave out waiting for a
//! wake-up or for the host to hand a virtual CPU back.

use std::path::Path;

fn run_ns(schedstat: impl AsRef<Path>) -> Option<u64> {
    std::fs::read_to_string(schedstat)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds the calling thread has run.
pub fn thread_ns() -> Option<u64> {
    run_ns("/proc/thread-self/schedstat")
}

/// The calling thread's id.
pub fn thread_id() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// Nanoseconds the process's threads, except `skip`, have run.
pub fn process_ns(skip: Option<u64>) -> Option<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
        if Some(tid) != skip {
            // A thread that exits between the listing and the read ran
            // before the window this total opens.
            total += run_ns(entry.path().join("schedstat")).unwrap_or(0);
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_thread_accrues_cpu_time_and_a_sleeping_one_does_not() {
        let before = thread_ns().expect("schedstat");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = thread_ns().unwrap() - before;
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_ns().unwrap() - before - busy;
        assert!(busy >= 10_000_000, "busy {busy} ns");
        assert!(slept < 10_000_000, "slept {slept} ns");
        let me = thread_id().expect("thread id");
        assert!(process_ns(Some(me)).unwrap() < process_ns(None).unwrap());
    }
}
