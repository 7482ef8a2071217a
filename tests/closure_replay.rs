//! Differential tests of the replay after a multi-write abort.
//!
//! When a transaction with several operations aborts during chain
//! evaluation, writes it already applied in other chains — and everything
//! that read them — must be redone (Section IV-F).  The engine replays only
//! the abort's closure.  These tests run scripted batches through TStream on
//! 1 and 2 executors over 1 and 4 shards and compare the final state, every
//! event's abort flag and every result slot against an oracle that runs each
//! transaction through the serial body, in timestamp order, on a fresh
//! pre-batch store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use tstream_apps::workload::Rng;
use tstream_core::{Engine, EngineConfig, Scheme};
use tstream_state::{StateError, StateStore, TableBuilder, Value};
use tstream_stream::metrics::Breakdown;
use tstream_stream::operator::{ReadWriteSet, StateRef};
use tstream_txn::exec::{execute_transaction_body, ValueMode};
use tstream_txn::{Application, EventBlotter, ExecEnv, PostAction, TxnBuilder};

/// Keys of the one table; few, so transactions collide.
const KEYS: u64 = 24;
/// Initial value of every key.
const INITIAL: i64 = 10;
/// `Add` and `Transfer` reject a balance outside `0..=CAP`.
const CAP: i64 = 20;

/// One operation of a scripted transaction.
#[derive(Debug, Clone)]
enum Step {
    /// `WRITE(key, v)` of a constant: a blind write.
    Set(u64, i64),
    /// `READ_MODIFY(key)`: add `delta`; rejected outside `0..=CAP`.
    Add(u64, i64),
    /// `READ(key)`.
    Read(u64),
    /// SL-style transfer: credit `dst` when the dependency `src` holds at
    /// least `amount` (issued first, so every scheme checks the
    /// pre-transaction balance), then debit `src`.
    Transfer { src: u64, dst: u64, amount: i64 },
    /// Credit `dst` when the dependency `src` holds at least `amount`;
    /// `src` is only read, never written by this transaction.
    Credit { src: u64, dst: u64, amount: i64 },
    /// A `WRITE` whose check always fails: the poison.
    Fail(u64),
}

/// One event: its position in the input and its transaction.
#[derive(Debug, Clone)]
struct Script {
    id: usize,
    steps: Vec<Step>,
}

/// An event's outcome: abort flag and every result slot.
type Outcome = (bool, Vec<Option<Value>>);

fn outcome(blotter: &EventBlotter) -> Outcome {
    (
        blotter.is_aborted(),
        (0..blotter.slots()).map(|i| blotter.result(i)).collect(),
    )
}

/// Runs scripts and keeps every event's outcome by id.
#[derive(Default)]
struct Scripted {
    outcomes: Mutex<HashMap<usize, Outcome>>,
}

fn bounded(value: i64) -> Result<Value, StateError> {
    if (0..=CAP).contains(&value) {
        Ok(Value::Long(value))
    } else {
        Err(StateError::ConsistencyViolation("out of bounds".into()))
    }
}

impl Application for Scripted {
    type Payload = Script;

    fn name(&self) -> &'static str {
        "scripted"
    }

    fn read_write_set(&self, script: &Script) -> ReadWriteSet {
        let state = |key| StateRef::new(0, key);
        script
            .steps
            .iter()
            .fold(ReadWriteSet::new(), |set, step| match *step {
                Step::Set(key, _) | Step::Fail(key) => set.write(state(key)),
                Step::Add(key, _) => set.read(state(key)).write(state(key)),
                Step::Read(key) => set.read(state(key)),
                Step::Transfer { src, dst, .. } => {
                    set.read(state(src)).write(state(src)).write(state(dst))
                }
                Step::Credit { src, dst, .. } => set.read(state(src)).write(state(dst)),
            })
    }

    fn state_access(&self, script: &Script, txn: &mut TxnBuilder) {
        let credit = |txn: &mut TxnBuilder, src: u64, dst: u64, amount: i64| {
            txn.write_with(0, dst, Some(StateRef::new(0, src)), move |ctx| {
                if ctx.dependency.expect("credit source").as_long()? < amount {
                    return Err(StateError::ConsistencyViolation("insufficient".into()));
                }
                bounded(ctx.current.as_long()? + amount)
            });
        };
        for step in &script.steps {
            match *step {
                Step::Set(key, value) => {
                    txn.write_value(0, key, Value::Long(value));
                }
                Step::Add(key, delta) => {
                    txn.read_modify(0, key, None, move |ctx| {
                        bounded(ctx.current.as_long()? + delta)
                    });
                }
                Step::Read(key) => {
                    txn.read(0, key);
                }
                Step::Transfer { src, dst, amount } => {
                    credit(txn, src, dst, amount);
                    txn.read_modify(0, src, None, move |ctx| {
                        bounded(ctx.current.as_long()? - amount)
                    });
                }
                Step::Credit { src, dst, amount } => credit(txn, src, dst, amount),
                Step::Fail(key) => {
                    txn.write_with(0, key, None, |_| {
                        Err(StateError::ConsistencyViolation("poisoned".into()))
                    });
                }
            }
        }
    }

    fn post_process(&self, script: &Script, blotter: &EventBlotter) -> PostAction {
        self.outcomes.lock().insert(script.id, outcome(blotter));
        PostAction::Emit
    }
}

fn fresh_store() -> Arc<StateStore> {
    let table = TableBuilder::new("t")
        .extend((0..KEYS).map(|k| (k, Value::Long(INITIAL))))
        .build()
        .unwrap();
    StateStore::new(vec![table]).unwrap()
}

/// Final state and every event's outcome.
#[derive(Debug, PartialEq)]
struct Run {
    state: Vec<(String, u64, Value)>,
    outcomes: Vec<Outcome>,
}

/// The oracle: every transaction through the serial body, in order.
fn serial(scripts: &[Script]) -> Run {
    let store = fresh_store();
    let app = Scripted::default();
    let outcomes = scripts
        .iter()
        .enumerate()
        .map(|(ts, script)| {
            let mut builder = TxnBuilder::new(ts as u64);
            app.state_access(script, &mut builder);
            let (txn, blotter) = builder.build();
            let _ = execute_transaction_body(
                &txn.ops,
                &store,
                &ExecEnv::single(),
                ValueMode::Committed,
                &mut Breakdown::new(),
            );
            outcome(&blotter)
        })
        .collect();
    Run {
        state: store.snapshot(),
        outcomes,
    }
}

/// TStream over `executors` and `shards`, `batch` events per punctuation.
/// Returns the run and the number of replays it took.
fn tstream(scripts: &[Script], executors: usize, shards: usize, batch: usize) -> (Run, u64) {
    let app = Arc::new(Scripted::default());
    let store = fresh_store();
    let engine = Engine::new(
        EngineConfig::with_executors(executors)
            .punctuation(batch)
            .shards(shards),
    );
    let report = engine.run(&app, &store, scripts.to_vec(), &Scheme::TStream);
    assert_eq!(report.events, scripts.len() as u64);
    let mut outcomes = app.outcomes.lock();
    let run = Run {
        state: store.snapshot(),
        outcomes: (0..scripts.len())
            .map(|id| outcomes.remove(&id).expect("every event is post-processed"))
            .collect(),
    };
    (run, engine.metrics_snapshot().exec_serial_replays)
}

/// Every configuration agrees with the oracle; returns the fewest replays
/// any of them took.
fn assert_matches_serial(scripts: &[Script], batch: usize) -> u64 {
    let expected = serial(scripts);
    let mut fewest = u64::MAX;
    for executors in [1, 2] {
        for shards in [1, 4] {
            let (run, replays) = tstream(scripts, executors, shards, batch);
            assert_eq!(
                run, expected,
                "{executors} executors, {shards} shards, scripts {scripts:#?}"
            );
            fewest = fewest.min(replays);
        }
    }
    fewest
}

fn scripts(transactions: Vec<Vec<Step>>) -> Vec<Script> {
    transactions
        .into_iter()
        .enumerate()
        .map(|(id, steps)| Script { id, steps })
        .collect()
}

#[test]
fn a_cascade_through_an_aborted_write_is_undone() {
    // ts 0 adds 10 to key 1 and is then poisoned on key 5: chain evaluation
    // may already have applied the add.  ts 1 adds 5 to key 1 — 15 in the
    // serial schedule, but 25 (over the cap, rejected) against the aborted
    // write — and ts 2 reads what ts 1 left.
    let scripts = scripts(vec![
        vec![Step::Add(1, 10), Step::Fail(5)],
        vec![Step::Add(1, 5)],
        vec![Step::Read(1), Step::Set(2, 3)],
        vec![Step::Add(5, 1)],
    ]);
    let expected = serial(&scripts);
    assert!(expected.outcomes[0].0 && !expected.outcomes[1].0);
    assert!(assert_matches_serial(&scripts, scripts.len()) > 0);
}

#[test]
fn a_dirty_reader_of_a_clean_state_that_is_written_later() {
    // ts 1 transfers out of key 3 into key 2, which the aborted ts 0 wrote:
    // ts 1 is dirty, and so key 3 is too.  ts 2 overwrites key 3 blindly,
    // ts 3 adds to it, ts 4 reads it back.
    let scripts = scripts(vec![
        vec![Step::Add(2, 5), Step::Fail(6)],
        vec![Step::Transfer {
            src: 3,
            dst: 2,
            amount: 4,
        }],
        vec![Step::Set(3, 7), Step::Add(8, 1)],
        vec![Step::Add(3, 2)],
        vec![Step::Read(3), Step::Read(2)],
    ]);
    assert!(assert_matches_serial(&scripts, scripts.len()) > 0);
}

#[test]
fn a_dirty_transaction_that_only_depends_on_a_state_written_later() {
    // ts 1 credits key 2, which the aborted ts 0 wrote, out of key 3 without
    // writing key 3: ts 1 is dirty only through its target.  ts 2 then sets
    // key 3 below the credit in a clean transaction.  Re-executed, ts 1 must
    // still see key 3 as it was at ts 1 (10, enough), not ts 2's 0.
    let scripts = scripts(vec![
        vec![Step::Add(2, 5), Step::Fail(6)],
        vec![Step::Credit {
            src: 3,
            dst: 2,
            amount: 4,
        }],
        vec![Step::Set(3, 0)],
        vec![Step::Read(2), Step::Read(3)],
    ]);
    let expected = serial(&scripts);
    assert!(!expected.outcomes[1].0, "the credit commits serially");
    assert!(assert_matches_serial(&scripts, scripts.len()) > 0);
}

#[test]
fn a_blind_write_after_a_dirty_write_on_the_same_key() {
    // The poisoned ts 0 sets key 4 before its failure on key 7 is found;
    // ts 1 sets key 4 again in a clean transaction, ts 2 and ts 3 read it.
    let scripts = scripts(vec![
        vec![Step::Set(4, 19), Step::Fail(7)],
        vec![Step::Set(4, 3), Step::Set(9, 1)],
        vec![Step::Read(4)],
        vec![Step::Add(4, 1), Step::Read(9)],
    ]);
    assert!(assert_matches_serial(&scripts, scripts.len()) > 0);
}

#[test]
fn an_abort_storm_rejects_everything_and_changes_nothing() {
    let scripts = scripts(
        (0..30u64)
            .map(|i| {
                vec![
                    Step::Add(i % 5, 1),
                    Step::Set(5 + i % 3, 0),
                    Step::Fail(10 + i % 4),
                ]
            })
            .collect(),
    );
    let expected = serial(&scripts);
    assert!(expected.outcomes.iter().all(|(aborted, _)| *aborted));
    assert_eq!(expected.state, serial(&[]).state);
    assert!(assert_matches_serial(&scripts, 10) > 0);
}

/// A random batch stream: every step kind, on distinct keys per
/// transaction, and exactly `aborts` poisoned multi-operation transactions
/// per batch.
fn random_scripts(seed: u64, batches: usize, batch: usize, aborts: usize) -> Vec<Script> {
    let mut rng = Rng::new(seed);
    let mut transactions = Vec::with_capacity(batches * batch);
    for _ in 0..batches {
        let mut poisoned = vec![false; batch];
        for _ in 0..aborts {
            poisoned[rng.next_below(batch as u64) as usize] = true;
        }
        for &poison in &poisoned {
            let mut keys: Vec<u64> = Vec::new();
            let mut key = |rng: &mut Rng| loop {
                let key = rng.next_below(KEYS);
                if !keys.contains(&key) {
                    keys.push(key);
                    return key;
                }
            };
            let len = 1 + rng.next_below(3) as usize;
            let mut steps: Vec<Step> = (0..len)
                .map(|_| match rng.next_below(11) {
                    0..=2 => Step::Set(key(&mut rng), rng.next_below(CAP as u64 + 1) as i64),
                    3..=5 => Step::Add(key(&mut rng), rng.next_below(13) as i64 - 6),
                    6..=7 => Step::Read(key(&mut rng)),
                    8 => Step::Credit {
                        src: key(&mut rng),
                        dst: key(&mut rng),
                        amount: 1 + rng.next_below(6) as i64,
                    },
                    _ => Step::Transfer {
                        src: key(&mut rng),
                        dst: key(&mut rng),
                        amount: 1 + rng.next_below(6) as i64,
                    },
                })
                .collect();
            if poison {
                let at = rng.next_below(steps.len() as u64 + 1) as usize;
                steps.insert(at, Step::Fail(key(&mut rng)));
            }
            transactions.push(steps);
        }
    }
    scripts(transactions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random batches with 0-3 multi-write aborts each agree with the
    /// oracle on every configuration.
    #[test]
    fn random_batches_replay_to_the_serial_schedule(seed in any::<u64>(), aborts in 0usize..4) {
        const BATCH: usize = 40;
        let scripts = random_scripts(seed, 3, BATCH, aborts);
        let replays = assert_matches_serial(&scripts, BATCH);
        if aborts > 0 {
            prop_assert!(replays > 0);
        }
    }
}
