//! Model of `tstream_stream::CyclicBarrier`: generation-counted reusable
//! barrier whose last arriver runs the round's action before the release,
//! with poison, plus three deliberately buggy variants the checker must
//! catch.

use crate::sync::{Condvar, Mutex};

/// Which variant of the barrier protocol to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierVariant {
    /// The shipped protocol: a generation counter separates rounds, and
    /// waiters re-check the poison flag every time they wake.
    Correct,
    /// The classic broken barrier: waiters block on `waiting != 0` with no
    /// generation counter.  A party that laps the barrier and re-arrives
    /// before a slow waiter wakes re-raises `waiting`, sending the slow
    /// waiter back to sleep on a round that already completed — deadlock.
    NoGeneration,
    /// The poison-ordering bug: `wait` checks the poison flag only on
    /// entry, not after waking.  A poison delivered *while* a party is
    /// blocked wakes it, it sees an unchanged generation, and it goes back
    /// to sleep forever — the exact lost-wakeup the production code's
    /// post-wake re-check (`barrier.rs`) exists to prevent.
    PoisonCheckOnEntryOnly,
    /// The action-ordering bug: the last arriver bumps the generation and
    /// notifies, *then* runs the action.  A released party can read the
    /// phase the action publishes before it is written — the round no
    /// longer carries its work.
    ReleaseBeforeAction,
}

#[derive(Debug)]
struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

/// A model cyclic barrier (see [`BarrierVariant`] for the protocol knobs).
#[derive(Debug)]
pub struct ModelBarrier {
    parties: usize,
    variant: BarrierVariant,
    state: Mutex<BarrierState>,
    cond: Condvar,
}

impl ModelBarrier {
    /// A barrier for `parties` participants running `variant`.
    pub fn new(parties: usize, variant: BarrierVariant) -> Self {
        Self::with_generation(parties, variant, 0)
    }

    /// Like [`ModelBarrier::new`] but starting at an arbitrary generation —
    /// used to model the `u64::MAX` wraparound round.
    pub fn with_generation(parties: usize, variant: BarrierVariant, generation: u64) -> Self {
        ModelBarrier {
            parties: parties.max(1),
            variant,
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation,
                poisoned: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Wait for all parties; the last arriver runs `action` before the
    /// round releases.  Mirrors the production `CyclicBarrier::wait` minus
    /// the timing attribution.
    ///
    /// # Panics
    ///
    /// Panics when the barrier is poisoned (in the variants that check), and
    /// when `action` panics — with the round unreleased, for the caller to
    /// poison.
    pub fn wait(&self, action: impl FnOnce()) {
        let mut state = self.state.lock();
        assert!(!state.poisoned, "cyclic barrier poisoned");
        state.waiting += 1;
        if state.waiting == self.parties {
            state.waiting = 0;
            if self.variant == BarrierVariant::ReleaseBeforeAction {
                state.generation = state.generation.wrapping_add(1);
                drop(state);
                self.cond.notify_all();
                action();
                return;
            }
            drop(state);
            action();
            let mut state = self.state.lock();
            state.generation = state.generation.wrapping_add(1);
            drop(state);
            self.cond.notify_all();
        } else if self.variant == BarrierVariant::NoGeneration {
            // Broken: "the round is over when nobody is waiting" confuses
            // this round's completion with the next round's arrivals.
            while state.waiting != 0 {
                self.cond.wait(&mut state);
                if self.variant != BarrierVariant::PoisonCheckOnEntryOnly {
                    assert!(!state.poisoned, "cyclic barrier poisoned");
                }
            }
        } else {
            let generation = state.generation;
            while state.generation == generation {
                self.cond.wait(&mut state);
                if self.variant != BarrierVariant::PoisonCheckOnEntryOnly {
                    assert!(!state.poisoned, "cyclic barrier poisoned");
                }
            }
        }
    }

    /// Poison the barrier: wake every waiter and make every current and
    /// future `wait` panic instead of blocking on a dead participant.
    pub fn poison(&self) {
        let mut state = self.state.lock();
        state.poisoned = true;
        drop(state);
        self.cond.notify_all();
    }

    /// Whether the barrier is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned
    }
}

/// Scenario: `parties` threads cross the barrier `rounds` times, each round's
/// action publishing the round's phase — every thread observes exactly that
/// phase as soon as the round releases it, and exactly one action runs per
/// generation.
///
/// With [`BarrierVariant::NoGeneration`] the checker finds the re-entrancy
/// deadlock, with [`BarrierVariant::ReleaseBeforeAction`] a party that reads
/// the phase before the action wrote it; the correct variant passes
/// exhaustively.
pub fn lockstep_scenario(parties: usize, rounds: usize, variant: BarrierVariant) {
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let barrier = Arc::new(ModelBarrier::new(parties, variant));
    let phase = Arc::new(AtomicUsize::new(0));
    let actions = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..parties.saturating_sub(1))
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let phase = Arc::clone(&phase);
            let actions = Arc::clone(&actions);
            crate::thread::spawn(move || run_party(&barrier, &phase, &actions, rounds))
        })
        .collect();
    run_party(&barrier, &phase, &actions, rounds);
    for h in handles {
        h.join();
    }
    assert_eq!(
        actions.load(Ordering::SeqCst),
        rounds,
        "exactly one action per generation"
    );
    assert_eq!(phase.load(Ordering::SeqCst), rounds, "all rounds completed");
}

fn run_party(
    barrier: &ModelBarrier,
    phase: &crate::sync::atomic::AtomicUsize,
    actions: &crate::sync::atomic::AtomicUsize,
    rounds: usize,
) {
    use crate::sync::atomic::Ordering;
    for round in 0..rounds {
        barrier.wait(|| {
            actions.fetch_add(1, Ordering::SeqCst);
            phase.store(round + 1, Ordering::SeqCst);
        });
        // Round `round + 1`'s action cannot run before this party arrives
        // there, so anything but the round's own phase is a bug.
        assert_eq!(
            phase.load(Ordering::SeqCst),
            round + 1,
            "round {round}'s action must be visible as soon as the round releases"
        );
    }
}

/// Scenario: the generation counter sits at `u64::MAX` and must release the
/// wraparound round like any other.
pub fn wraparound_scenario(variant: BarrierVariant) {
    use std::sync::Arc;

    let barrier = Arc::new(ModelBarrier::with_generation(2, variant, u64::MAX));
    let b2 = Arc::clone(&barrier);
    let t = crate::thread::spawn(move || {
        b2.wait(|| {});
        b2.wait(|| {});
    });
    barrier.wait(|| {});
    barrier.wait(|| {});
    t.join();
}

/// Scenario: one party dies instead of arriving and poisons the barrier
/// while the other is (or is about to be) blocked.  Every schedule must end
/// with the waiter *waking and panicking* — in the
/// [`BarrierVariant::PoisonCheckOnEntryOnly`] variant the wake is lost and
/// the checker reports the deadlock.
pub fn poison_scenario(variant: BarrierVariant) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    let barrier = Arc::new(ModelBarrier::new(2, variant));
    let b2 = Arc::clone(&barrier);
    let waiter =
        crate::thread::spawn(move || catch_unwind(AssertUnwindSafe(|| b2.wait(|| {}))).is_err());
    barrier.poison();
    assert!(
        waiter.join(),
        "a blocked waiter must observe the poison as a panic, not hang"
    );
    assert!(barrier.is_poisoned());
    let late = catch_unwind(AssertUnwindSafe(|| barrier.wait(|| {})));
    assert!(late.is_err(), "late arrivals must panic too");
}

/// Scenario: the round's action panics.  Whichever party arrives last runs
/// it, so both pass a panicking action, and each poisons the barrier when
/// its `wait` panics — what the executor runtime does for a dying party.
/// Every schedule must end with both parties panicking — the action's
/// caller with its own panic, the blocked party woken by the poison — and
/// none hanging.
pub fn action_panic_scenario(variant: BarrierVariant) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    let barrier = Arc::new(ModelBarrier::new(2, variant));
    let b2 = Arc::clone(&barrier);
    let party = move |barrier: &ModelBarrier| {
        let wait = catch_unwind(AssertUnwindSafe(|| {
            barrier.wait(|| panic!("deliberate action panic"));
        }));
        if wait.is_err() {
            barrier.poison();
        }
        wait.is_err()
    };
    let other = crate::thread::spawn(move || party(&b2));
    assert!(party(&barrier), "this party must panic, not hang");
    assert!(other.join(), "the other party must panic, not hang");
    assert!(barrier.is_poisoned());
}
