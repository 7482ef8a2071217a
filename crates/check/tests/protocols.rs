//! Model-checking the runtime's real synchronization protocols.
//!
//! Each protocol comes in a correct variant, which must pass **exhaustive**
//! exploration at preemption bound 2 (`report.complete` is asserted, so a
//! silently truncated search fails the test), and deliberately buggy
//! variants, which the checker must catch within the same bound.  The buggy
//! variants live only inside the model enums — nothing in the production
//! tree carries them — and each one is a single careless edit away from the
//! shipped code, which is exactly the regression class this suite pins.

use tstream_check::models::backpressure::{producer_consumer_scenario, QueueVariant};
use tstream_check::models::barrier::{
    action_panic_scenario, lockstep_scenario, poison_scenario, wraparound_scenario, BarrierVariant,
};
use tstream_check::models::groupcommit::{group_commit_scenario, GroupCommitVariant};
use tstream_check::models::injector::{handoff_scenario, InjectorVariant};
use tstream_check::models::ship::{shipping_scenario, ShipVariant};
use tstream_check::models::wal::{seal_failure_scenario, WalVariant};
use tstream_check::Model;

// ---------------------------------------------------------------------------
// CyclicBarrier (crates/stream/src/barrier.rs)
// ---------------------------------------------------------------------------

#[test]
fn barrier_lockstep_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| lockstep_scenario(2, 2, BarrierVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn barrier_generation_wraparound_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| wraparound_scenario(BarrierVariant::Correct));
    assert!(report.complete);
}

#[test]
fn barrier_poison_wakes_blocked_waiters_in_every_schedule() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| poison_scenario(BarrierVariant::Correct));
    assert!(report.complete);
}

#[test]
fn barrier_panicking_action_poisons_and_wakes_the_waiter_in_every_schedule() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| action_panic_scenario(BarrierVariant::Correct));
    assert!(report.complete);
}

/// The round must carry its work: a barrier that releases the parties
/// before its action has run lets one read the phase the action has not
/// published yet.
#[test]
fn barrier_releasing_before_the_action_is_caught() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| lockstep_scenario(2, 2, BarrierVariant::ReleaseBeforeAction))
        .expect_err("a release before the action must expose an unpublished phase");
    assert!(
        violation
            .message
            .contains("visible as soon as the round releases"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn barrier_without_generation_counter_deadlocks() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| lockstep_scenario(2, 2, BarrierVariant::NoGeneration))
        .expect_err("the generation-less barrier must wedge a lapped waiter");
    assert!(
        violation.message.contains("deadlock"),
        "unexpected violation: {violation}"
    );
}

/// The poison-ordering bug the production code's post-wake re-check exists
/// to prevent, reintroduced in the model variant: a waiter that checks the
/// poison flag only on entry sleeps through the poison broadcast.
#[test]
fn barrier_poison_check_on_entry_only_loses_the_wakeup() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| poison_scenario(BarrierVariant::PoisonCheckOnEntryOnly))
        .expect_err("the entry-only poison check must lose a wakeup");
    assert!(
        violation.message.contains("deadlock"),
        "unexpected violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// ExecutorPool injector hand-off (crates/core/src/runtime.rs)
// ---------------------------------------------------------------------------

#[test]
fn injector_handoff_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| handoff_scenario(2, 2, InjectorVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn injector_without_single_injector_role_breaks_batch_atomicity() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| handoff_scenario(2, 2, InjectorVariant::NoInjectorRole))
        .expect_err("concurrent injectors must interleave two batches");
    assert!(
        violation.message.contains("not atomic"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn injector_pump_without_progress_notify_wedges_a_stager() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| handoff_scenario(2, 2, InjectorVariant::PumpWithoutProgressNotify))
        .expect_err("a pump that never signals progress must strand a stager");
    assert!(
        violation.message.contains("deadlock"),
        "unexpected violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// Per-session backpressure queue
// ---------------------------------------------------------------------------

#[test]
fn backpressure_queue_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| producer_consumer_scenario(2, 2, QueueVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn backpressure_if_instead_of_while_overfills_the_queue() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| producer_consumer_scenario(2, 2, QueueVariant::IfInsteadOfWhile))
        .expect_err("a woken producer that skips the re-check must overfill");
    assert!(
        violation.message.contains("backpressure bound violated"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn backpressure_pop_without_notify_strands_a_producer() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| producer_consumer_scenario(2, 2, QueueVariant::PopWithoutNotify))
        .expect_err("a pop that never signals not_full must strand a producer");
    assert!(
        violation.message.contains("deadlock"),
        "unexpected violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// WAL seal/poison + checkpoint-after-seal gate (crates/recovery)
// ---------------------------------------------------------------------------

#[test]
fn wal_seal_poison_checkpoint_gate_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| seal_failure_scenario(WalVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn wal_publish_before_seal_completes_raises_the_recovery_floor() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| seal_failure_scenario(WalVariant::PublishBeforeSealCompletes))
        .expect_err("a checkpoint racing the early publish must catch it");
    assert!(
        violation
            .message
            .contains("recovery floor raised past an unsealed tail"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn wal_seal_failure_without_poison_accepts_appends_past_the_torn_tail() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| seal_failure_scenario(WalVariant::SealFailureWithoutPoison))
        .expect_err("an unpoisoned writer must accept the forbidden append");
    assert!(
        violation.message.contains("the writer must be poisoned"),
        "unexpected violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// WAL group-commit ack pipeline (crates/recovery/src/coordinator.rs)
// ---------------------------------------------------------------------------

#[test]
fn group_commit_ack_pipeline_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| group_commit_scenario(GroupCommitVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn group_commit_ack_on_submit_loses_events_to_a_crash() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| group_commit_scenario(GroupCommitVariant::AckOnSubmit))
        .expect_err("a probe racing the early ack must catch it");
    assert!(
        violation
            .message
            .contains("an ack preceded the covering group sync"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn group_commit_without_backpressure_overlaps_segment_writes() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| group_commit_scenario(GroupCommitVariant::SubmitWithoutDrain))
        .expect_err("two windows in flight must trip the overlap guard");
    assert!(
        violation.message.contains("windows in flight at once"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn group_commit_seal_without_drain_buries_frames_behind_the_marker() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| group_commit_scenario(GroupCommitVariant::SealWithoutDrain))
        .expect_err("an undrained seal must let a frame land behind the marker");
    assert!(
        violation.message.contains("behind the marker"),
        "unexpected violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// Replication shipping handoff (crates/replica)
// ---------------------------------------------------------------------------

#[test]
fn shipping_handoff_passes_exhaustively() {
    let report = Model::new()
        .preemption_bound(2)
        .check(|| shipping_scenario(ShipVariant::Correct));
    assert!(report.complete);
    assert!(report.schedules > 10, "the scenario must actually branch");
}

#[test]
fn shipping_ack_before_apply_releases_retention_too_early() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| shipping_scenario(ShipVariant::AckBeforeApply))
        .expect_err("a probe racing the early ack must catch it");
    assert!(
        violation
            .message
            .contains("epoch acked before the standby applied it"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn shipping_truncation_that_ignores_acks_strands_a_lagging_standby() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| shipping_scenario(ShipVariant::TruncateIgnoresAcks))
        .expect_err("an unclamped truncation must be caught while acks lag");
    assert!(
        violation
            .message
            .contains("truncated a sealed segment the standby has not acknowledged"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn shipping_promote_without_drain_shadows_sealed_history() {
    let violation = Model::new()
        .preemption_bound(2)
        .try_check(|| shipping_scenario(ShipVariant::PromoteWithoutDrain))
        .expect_err("an undrained promote must leave shipped epochs unapplied");
    assert!(
        violation
            .message
            .contains("promote left shipped epochs unapplied"),
        "unexpected violation: {violation}"
    );
}
