//! A reusable cyclic barrier whose rounds carry their own work.
//!
//! TStream synchronises executors twice around state-access mode (Section
//! IV-B.2): once after `TXN_START`, so state access only begins once every
//! executor has finished registering its postponed transactions, and once
//! before compute mode resumes, so post-processing only sees fully processed
//! state.  The paper uses Java's `CyclicBarrier(parties, barrierAction)`;
//! this is the Rust equivalent.  [`CyclicBarrier::wait`] takes the round's
//! action: the last party to arrive runs it, and nobody leaves the round
//! before it has finished, so single-threaded work between two phases (a
//! freeze, a replay, a checkpoint) costs no round of its own.  `wait` also
//! reports how long the caller blocked, so the *Sync* component of the time
//! breakdown can be attributed precisely.

use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use tstream_obs::clock;

/// A reusable barrier for a fixed number of participants.
#[derive(Debug)]
pub struct CyclicBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    cond: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    /// Number of parties still missing in the current generation.
    waiting: usize,
    /// Generation counter; bumping it releases the current waiters.
    generation: u64,
    /// Set by [`CyclicBarrier::poison`]; every current and future waiter
    /// panics instead of blocking forever on a party that will never arrive.
    poisoned: bool,
}

impl CyclicBarrier {
    /// Creates a barrier for `parties` participants (at least one).
    pub fn new(parties: usize) -> Self {
        let parties = parties.max(1);
        CyclicBarrier {
            parties,
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Wait until all parties have arrived.  The last arriver runs `action`
    /// (the other parties' actions are dropped unrun) before the round
    /// releases, so everything the action wrote is visible to every party
    /// when `wait` returns.  Returns the time spent blocked, charged to the
    /// *Sync* breakdown component; the last arriver's own action is not
    /// part of it.
    ///
    /// # Panics
    ///
    /// Panics if the barrier has been [`CyclicBarrier::poison`]ed — a party
    /// died, so waiting for it would block forever.  A panicking `action`
    /// propagates to its caller with the round unreleased; like any party
    /// that dies, the caller must poison the barrier so the parties blocked
    /// on the round panic instead of waiting forever.  Leaving that to the
    /// caller lets it record the action's panic as the root cause before
    /// the siblings' poison panics.
    pub fn wait(&self, action: impl FnOnce()) -> Duration {
        let start = clock::now();
        let mut state = self.state.lock();
        assert!(
            !state.poisoned,
            "cyclic barrier poisoned: a participant panicked"
        );
        state.waiting += 1;
        if state.waiting == self.parties {
            // Last arriver: every other party is blocked in this round, so
            // the action runs alone without holding the lock; bumping the
            // generation afterwards releases everybody into the next round.
            state.waiting = 0;
            drop(state);
            let waited = start.elapsed();
            action();
            let mut state = self.state.lock();
            state.generation = state.generation.wrapping_add(1);
            drop(state);
            self.cond.notify_all();
            waited
        } else {
            let generation = state.generation;
            while state.generation == generation {
                self.cond.wait(&mut state);
                assert!(
                    !state.poisoned,
                    "cyclic barrier poisoned: a participant panicked"
                );
            }
            drop(state);
            start.elapsed()
        }
    }

    /// Poison the barrier: wake every current waiter and make it (and every
    /// future [`CyclicBarrier::wait`]) panic.  Called when a participant dies
    /// mid-batch — the surviving parties would otherwise block forever on an
    /// arrival that can never happen.
    pub fn poison(&self) {
        let mut state = self.state.lock();
        state.poisoned = true;
        drop(state);
        self.cond.notify_all();
    }

    /// Whether the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned
    }
}

#[cfg(test)]
mod tests {
    // These tests probe real timing (blocked-thread interleavings), so
    // they sleep deliberately; the workspace-wide sleep ban targets
    // production code.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_party_never_blocks() {
        let b = CyclicBarrier::new(1);
        let mut ran = false;
        let waited = b.wait(|| ran = true);
        assert!(ran);
        assert!(waited < Duration::from_millis(50));
    }

    /// Exactly one party — the leader, the last to arrive — runs the
    /// round's action, and every party leaves only after it has run.
    #[test]
    fn all_threads_released_together_and_exactly_one_leader() {
        let parties = 8;
        let barrier = Arc::new(CyclicBarrier::new(parties));
        let actions = Arc::new(AtomicUsize::new(0));
        let passed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..parties {
            let barrier = barrier.clone();
            let actions = actions.clone();
            let passed = passed.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait(|| {
                    // Give a premature release a chance to show.
                    std::thread::sleep(Duration::from_millis(5));
                    actions.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(actions.load(Ordering::SeqCst), 1);
                passed.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(actions.load(Ordering::SeqCst), 1);
        assert_eq!(passed.load(Ordering::SeqCst), parties);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let parties = 4;
        let rounds = 50;
        let barrier = Arc::new(CyclicBarrier::new(parties));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..parties {
            let barrier = barrier.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..rounds {
                    // Every thread must observe the full count of the
                    // previous round before anyone proceeds.
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(|| {});
                    assert!(counter.load(Ordering::SeqCst) >= (round + 1) * parties);
                    barrier.wait(|| {});
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), parties * rounds);
    }

    #[test]
    fn zero_parties_clamped_to_one() {
        let b = CyclicBarrier::new(0);
        assert_eq!(b.parties(), 1);
        b.wait(|| {});
    }

    /// Regression test for the persistent executor pool: a pool reuses one
    /// barrier for the lifetime of a session, and an executor that finishes a
    /// batch early re-enters `wait` while slower ones may not yet have woken
    /// from the previous generation.  The generation counter must keep the
    /// two rounds apart — a fast re-entrant waiter must never be released by
    /// the notification of the round it already passed.
    #[test]
    fn immediate_reentry_joins_the_next_generation_not_the_previous() {
        let parties = 2;
        let rounds = 2_000;
        let barrier = Arc::new(CyclicBarrier::new(parties));
        let rounds_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for spin in [false, true] {
            let barrier = barrier.clone();
            let rounds_seen = rounds_seen.clone();
            handles.push(std::thread::spawn(move || {
                let mut leads = 0usize;
                for _ in 0..rounds {
                    barrier.wait(|| {
                        leads += 1;
                        rounds_seen.fetch_add(1, Ordering::SeqCst);
                    });
                    // One thread re-enters immediately; the other yields so
                    // their arrival orders interleave across generations.
                    if !spin {
                        std::thread::yield_now();
                    }
                }
                leads
            }));
        }
        let total_leads: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_leads, rounds, "exactly one action per generation");
        assert_eq!(rounds_seen.load(Ordering::SeqCst), rounds);
    }

    /// The generation counter wraps with `wrapping_add`; a barrier sitting at
    /// `u64::MAX` generations must release the wrap-around round normally.
    #[test]
    fn generation_counter_wraparound_is_harmless() {
        let barrier = Arc::new(CyclicBarrier::new(3));
        barrier.state.lock().generation = u64::MAX;
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait(|| {});
                barrier.wait(|| {});
            }));
        }
        barrier.wait(|| {});
        barrier.wait(|| {});
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(barrier.state.lock().generation, 1, "MAX -> 0 -> 1");
    }

    /// Poisoning releases blocked waiters (as a panic) instead of leaving
    /// them stranded, and rejects late arrivals.
    #[test]
    fn poison_wakes_waiters_and_rejects_late_arrivals() {
        let barrier = Arc::new(CyclicBarrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| barrier.wait(|| {}))).is_err()
            }));
        }
        // Give both waiters time to block, then poison instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!barrier.is_poisoned());
        barrier.poison();
        for h in handles {
            assert!(h.join().unwrap(), "blocked waiters must panic, not hang");
        }
        assert!(barrier.is_poisoned());
        let late = catch_unwind(AssertUnwindSafe(|| barrier.wait(|| {})));
        assert!(late.is_err(), "late arrivals must panic too");
    }

    /// A panicking action reaches its caller, which poisons the barrier as
    /// the executor runtime does: the parties blocked on the unreleased
    /// round panic instead of waiting forever.
    #[test]
    fn panicking_action_reaches_its_caller_and_poison_frees_the_round() {
        let parties = 3;
        let barrier = Arc::new(CyclicBarrier::new(parties));
        let handles: Vec<_> = (0..parties)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let wait = catch_unwind(AssertUnwindSafe(|| {
                        barrier.wait(|| panic!("deliberate action panic"))
                    }));
                    if wait.is_err() {
                        barrier.poison();
                    }
                    wait.is_err()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "every party must panic, none hang");
        }
        assert!(barrier.is_poisoned());
    }

    /// Batch-shaped reuse: each round's action publishes the round's phase.
    /// Under uneven per-round delays, every party must see exactly that phase
    /// when the round releases it — the failure mode a lost or
    /// double-counted generation, or a release before the action, would
    /// produce.
    #[test]
    fn repeated_waits_keep_all_parties_in_lockstep_phases() {
        let parties = 4;
        let rounds = 300;
        let barrier = Arc::new(CyclicBarrier::new(parties));
        let phase = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..parties {
            let barrier = barrier.clone();
            let phase = phase.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..rounds {
                    if t % 2 == 0 {
                        std::thread::yield_now();
                    }
                    barrier.wait(|| phase.store(round + 1, Ordering::SeqCst));
                    // After round N the phase is exactly N + 1: its action
                    // ran before the release, and round N + 1's action cannot
                    // run before this thread arrives there.
                    assert_eq!(phase.load(Ordering::SeqCst), round + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
