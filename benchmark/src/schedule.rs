//! The open-loop arrival schedule.
//!
//! Event `i` is due at `i / rate` after the schedule starts, whatever the
//! engine does: a stalled engine receives its load regardless, and every
//! latency is taken from the due time, so a stall is charged to each event it
//! delayed.  How late the generator itself ran is reported beside the
//! latencies — a late generator means the numbers describe the generator.

/// Time source of the pacing loop, abstract so the accounting can be tested
/// against a clock that jumps.
pub trait Clock {
    /// Nanoseconds since the schedule started.
    fn now_ns(&self) -> u64;
    /// Called while the next event is not yet due, `remaining_ns` early.
    fn idle(&self, remaining_ns: u64);
}

/// Sends between two clock readings while the generator is behind schedule.
const CLOCK_EVERY: usize = 32;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: f64,
}

impl Schedule {
    /// `rate` events per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "an arrival rate must be positive");
        Schedule {
            period_ns: 1e9 / rate,
        }
    }

    /// When event `idx` is due, ns after the schedule starts.  Computed from
    /// the index, not accumulated, so rounding never drifts the rate.
    pub fn due_ns(&self, idx: usize) -> u64 {
        (idx as f64 * self.period_ns) as u64
    }

    /// Send `events` events on schedule: wait for each one's due time, then
    /// call `send(idx)` (which may block — the next events are then late, and
    /// are sent back to back until the schedule is caught up).  Returns how
    /// late each send started, in ns.
    ///
    /// While it is behind, the loop sends from its last clock reading and
    /// looks again only every [`CLOCK_EVERY`] sends: a generator that spends
    /// its time reading the clock cannot catch up.  Inside such a burst a
    /// lateness is understated by at most the burst so far (tens of µs).
    pub fn run(&self, clock: &impl Clock, events: usize, mut send: impl FnMut(usize)) -> Vec<u64> {
        let mut late_ns = Vec::with_capacity(events);
        let mut now = clock.now_ns();
        for idx in 0..events {
            let due = self.due_ns(idx);
            if now < due || idx % CLOCK_EVERY == 0 {
                now = clock.now_ns();
                while now < due {
                    clock.idle(due - now);
                    now = clock.now_ns();
                }
            }
            late_ns.push(now - due);
            send(idx);
        }
        late_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances only when told to: 1 µs per idle call.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn idle(&self, _remaining_ns: u64) {
            self.0.set(self.0.get() + 1_000);
        }
    }

    #[test]
    fn due_times_follow_the_rate_without_drift() {
        let s = Schedule::new(200_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 5_000);
        assert_eq!(s.due_ns(200_000), 1_000_000_000);
        assert_eq!(s.due_ns(1_000_000), 5_000_000_000);
        // A rate whose period is not a whole number of ns.
        let s = Schedule::new(70_000.0);
        assert_eq!(s.due_ns(70_000), 1_000_000_000);
        assert_eq!(s.due_ns(7_000_000), 100_000_000_000);
    }

    #[test]
    fn an_on_time_generator_is_at_most_one_tick_late() {
        let clock = FakeClock(Cell::new(0));
        let mut sent = Vec::new();
        let late = Schedule::new(100_000.0).run(&clock, 50, |idx| sent.push(idx));
        assert_eq!(sent, (0..50).collect::<Vec<_>>());
        assert!(late.iter().all(|&ns| ns < 1_000), "{late:?}");
    }

    #[test]
    fn a_blocking_send_makes_later_events_late_from_their_own_due_time() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule::new(100_000.0); // one event per 10 µs
        let late = schedule.run(&clock, 10, |idx| {
            if idx == 2 {
                // Event 2's send blocks for 35 µs (backpressure).
                clock.0.set(clock.0.get() + 35_000);
            }
        });
        assert_eq!(late[2], 0, "the blocked send itself started on time");
        // Event 3 was due at 30 µs but could only start at 20 + 35 = 55 µs;
        // 4 and 5 follow back to back, each late against its own due time.
        assert_eq!(late[3], 25_000);
        assert_eq!(late[4], 15_000);
        assert_eq!(late[5], 5_000);
        assert_eq!(late[6], 0, "caught up");
        assert_eq!(&late[7..], &[0, 0, 0]);
    }
}
