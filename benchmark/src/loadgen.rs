//! Open- and closed-loop request scheduling.
//!
//! An open loop sends on a fixed schedule whatever the system does, as
//! independent users would; each request is timed from when it was *due*,
//! so a stall is charged to every request it delays and not only to the one
//! that hit it. How late the generator itself ran is kept beside the
//! latencies (`loadgen.lateness_us_p99`). A closed loop sends the next
//! request when the previous one completes.

use std::time::{Duration, Instant};

/// Time source of a schedule; tests substitute a fake.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return no earlier than `deadline_ns`.
    fn sleep_until(&self, deadline_ns: u64);
}

/// Wall clock counted from a shared origin.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    pub origin: Instant,
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, deadline_ns: u64) {
        // Sleep to just short of the deadline and spin the rest: a plain
        // sleep overshoots by a scheduler quantum, which would sit on top of
        // every latency measured from the due time. The spin is kept short —
        // on a two-core host its cycles come out of the daemon under test.
        const SPIN_NS: u64 = 150_000;
        let now = self.now_ns();
        if deadline_ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now - SPIN_NS));
        }
        while self.now_ns() < deadline_ns {
            std::hint::spin_loop();
        }
    }
}

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    /// What the user of an open loop waited: due time to completion.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator sent it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }

    /// Send to completion, what a closed loop's caller waited.
    pub fn service_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }
}

/// Issue `count` requests, request `i` due at `start_ns + i * period_ns`.
/// `request` blocks until its reply has arrived; a request that becomes due
/// while an earlier one is still outstanding is sent as soon as that one
/// completes, and is late by that much.
pub fn open_loop<E>(
    clock: &impl Clock,
    start_ns: u64,
    period_ns: u64,
    count: usize,
    mut request: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Sample>, E> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let due_ns = start_ns + i as u64 * period_ns;
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns();
        request(i)?;
        samples.push(Sample { due_ns, sent_ns, done_ns: clock.now_ns() });
    }
    Ok(samples)
}

/// Issue `count` requests back to back.
pub fn closed_loop<E>(
    clock: &impl Clock,
    count: usize,
    mut request: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Sample>, E> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let sent_ns = clock.now_ns();
        request(i)?;
        samples.push(Sample { due_ns: sent_ns, sent_ns, done_ns: clock.now_ns() });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone sleeps on it or a request
    /// "takes" time.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, deadline_ns: u64) {
            self.0.set(self.0.get().max(deadline_ns));
        }
    }

    fn p99(mut values: Vec<u64>) -> u64 {
        values.sort_unstable();
        values[(values.len() * 99).div_ceil(100) - 1]
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let clock = FakeClock(Cell::new(0));
        // Every reply takes 300 ns on a 1000 ns schedule: never late.
        let samples = open_loop(&clock, 5_000, 1_000, 4, |_| {
            clock.0.set(clock.0.get() + 300);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(samples[0], Sample { due_ns: 5_000, sent_ns: 5_000, done_ns: 5_300 });
        assert_eq!(samples[3].due_ns, 8_000);
        assert!(samples.iter().all(|s| s.latency_ns() == 300 && s.lateness_ns() == 0));
    }

    #[test]
    fn a_stalled_reply_is_charged_to_the_requests_it_delays() {
        let clock = FakeClock(Cell::new(0));
        // Request 2 stalls for 3500 ns; the others take 100 ns.
        let samples = open_loop(&clock, 0, 1_000, 8, |i| {
            clock.0.set(clock.0.get() + if i == 2 { 3_500 } else { 100 });
            Ok::<(), ()>(())
        })
        .unwrap();
        let latency: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
        let lateness: Vec<u64> = samples.iter().map(Sample::lateness_ns).collect();
        // Due at 2000, done at 5500. Requests 3, 4 and 5 were due at 3000,
        // 4000, 5000 and leave at 5500, 5600, 5700: late, and slow as seen
        // from their due times, though each was served in 100 ns.
        assert_eq!(latency, vec![100, 100, 3_500, 2_600, 1_700, 800, 100, 100]);
        assert_eq!(lateness, vec![0, 0, 0, 2_500, 1_600, 700, 0, 0]);
        assert!(samples.iter().skip(3).all(|s| s.service_ns() == 100));
        assert_eq!(p99(lateness), 2_500);

        // A closed loop sending the same requests hides the stall from all
        // but the request that hit it.
        let clock = FakeClock(Cell::new(0));
        let closed = closed_loop(&clock, 8, |i| {
            clock.0.set(clock.0.get() + if i == 2 { 3_500 } else { 100 });
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(closed.iter().filter(|s| s.latency_ns() > 100).count(), 1);
    }

    #[test]
    fn errors_stop_the_schedule() {
        let clock = FakeClock(Cell::new(0));
        let result = open_loop(&clock, 0, 10, 5, |i| if i == 3 { Err("boom") } else { Ok(()) });
        assert_eq!(result, Err("boom"));
    }
}
