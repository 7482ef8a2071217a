//! Toll Processing (TP), Sections II-A and VI-A / Figure 2(b).
//!
//! The simplified toll-processing query from the Linear Road benchmark, in
//! its concurrent-state-access formulation: road congestion state (average
//! speed and the set of unique vehicles per road segment) is kept in two
//! shared tables that all executors of the fused operator access directly.
//!
//! Each traffic report fans out into three logical operators which the fused
//! operator dispatches with a switch-case (Section V):
//!
//! * **Road Speed (RS)** — update the running average speed of the segment
//!   (transaction length 1);
//! * **Vehicle Cnt (VC)** — add the vehicle to the segment's unique-vehicle
//!   set (length 1);
//! * **Toll Notification (TN)** — read both tables for the segment and
//!   compute the toll in post-processing (length 2, always two "partitions").
//!
//! The paper's TP dataset accesses 100 distinct road segments with a Zipf
//! skew of 0.2; we generate a synthetic trace with the same properties (see
//! DESIGN.md, substitutions).

use std::sync::Arc;

use tstream_core::prelude::*;
use tstream_state::{StateError, StateStore, TableBuilder};
use tstream_txn::TxnBuilder as Txn;

use crate::workload::{Rng, WorkloadSpec, Zipf};

/// Table index of the average road speed table.
pub const SPEED_TABLE: u32 = 0;
/// Table index of the unique-vehicle-count table.
pub const COUNT_TABLE: u32 = 1;

/// Number of road segments in the paper's dataset.
pub const SEGMENTS: u64 = 100;

/// Default Zipf skew of the TP trace (the paper uses 0.2).
pub const TP_SKEW: f64 = 0.2;

/// Which operator of the fused TP operator an event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpKind {
    /// Road Speed update.
    RoadSpeed,
    /// Vehicle count update.
    VehicleCnt,
    /// Toll notification (reads both tables).
    TollNotification,
}

/// One parsed traffic report.
#[derive(Debug, Clone)]
pub struct TpEvent {
    /// Operator the fused operator dispatches this event to.
    pub kind: TpKind,
    /// Road segment the vehicle reports from.
    pub segment: u64,
    /// Vehicle identifier.
    pub vehicle: u64,
    /// Reported speed.
    pub speed: f64,
}

/// The Toll Processing application (fused RS + VC + TN operator).
#[derive(Debug, Clone, Default)]
pub struct TollProcessing;

impl Application for TollProcessing {
    type Payload = TpEvent;

    fn name(&self) -> &'static str {
        "TP"
    }

    fn read_write_set(&self, e: &TpEvent) -> ReadWriteSet {
        let mut set = ReadWriteSet::new();
        match e.kind {
            TpKind::RoadSpeed => set.push(StateRef::new(SPEED_TABLE, e.segment), AccessMode::Write),
            TpKind::VehicleCnt => {
                set.push(StateRef::new(COUNT_TABLE, e.segment), AccessMode::Write)
            }
            TpKind::TollNotification => {
                set.push(StateRef::new(SPEED_TABLE, e.segment), AccessMode::Read);
                set.push(StateRef::new(COUNT_TABLE, e.segment), AccessMode::Read);
            }
        }
        set
    }

    fn state_access(&self, e: &TpEvent, txn: &mut Txn) {
        match e.kind {
            TpKind::RoadSpeed => {
                // Algorithm 2: running average of the segment speed.
                let speed = e.speed;
                txn.read_modify(SPEED_TABLE, e.segment, None, move |ctx| {
                    let avg = (ctx.current.as_double()? + speed) / 2.0;
                    if avg < 0.0 {
                        Err(StateError::ConsistencyViolation(
                            "road speed cannot be negative".into(),
                        ))
                    } else {
                        Ok(Value::Double(avg))
                    }
                });
            }
            TpKind::VehicleCnt => {
                // Algorithm 3: insert the vehicle id into the segment's set;
                // the result is the number of unique vehicles.
                let vehicle = e.vehicle;
                txn.read_modify(COUNT_TABLE, e.segment, None, move |ctx| {
                    let mut set = ctx.current.as_set()?.clone();
                    set.insert(vehicle);
                    Ok(Value::Set(set))
                });
            }
            TpKind::TollNotification => {
                // Algorithm 4: read both congestion tables.
                txn.read(SPEED_TABLE, e.segment);
                txn.read(COUNT_TABLE, e.segment);
            }
        }
    }

    fn post_process(&self, e: &TpEvent, blotter: &EventBlotter) -> PostAction {
        if blotter.is_aborted() {
            return PostAction::Silent;
        }
        if e.kind == TpKind::TollNotification {
            // Toll formula (in the spirit of Linear Road): charge when the
            // segment is congested (slow traffic, many unique vehicles).
            let speed = blotter.result_double(0);
            let vehicles = blotter
                .with_result(1, |v| v.as_set().map_or(0, |s| s.len() as i64))
                .unwrap_or(0);
            let toll = if speed < 40.0 && vehicles > 5 {
                2 * (vehicles - 5) * (vehicles - 5)
            } else {
                0
            };
            std::hint::black_box(toll);
        }
        PostAction::Emit
    }
}

/// Build the speed and vehicle-count tables for `segments` road segments,
/// split over `shards` physical shards.  Key-only routing keeps a segment's
/// speed and vehicle-count records on the same shard, so a traffic report's
/// two-table transaction stays shard-local.
pub fn build_store_with_segments_sharded(segments: u64, shards: u32) -> Arc<StateStore> {
    let speed = TableBuilder::new("road_speed")
        .extend((0..segments).map(|k| (k, Value::Double(60.0))))
        .build_sharded(shards)
        .expect("TP speed table");
    let count = TableBuilder::new("vehicle_cnt")
        .extend((0..segments).map(|k| (k, Value::Set(Default::default()))))
        .build_sharded(shards)
        .expect("TP count table");
    StateStore::with_shards(vec![speed, count], shards).expect("TP store")
}

/// Build the speed and vehicle-count tables for `segments` road segments.
pub fn build_store_with_segments(segments: u64) -> Arc<StateStore> {
    build_store_with_segments_sharded(segments, 1)
}

/// Build the default 100-segment store over `spec.shards` shards.
pub fn build_store(spec: &WorkloadSpec) -> Arc<StateStore> {
    build_store_with_segments_sharded(SEGMENTS, spec.shards)
}

/// Generate the synthetic TP trace: each traffic report produces one RS, one
/// VC and one TN event (so the three operator types are evenly mixed), over
/// 100 segments with Zipf(0.2) skew.
pub fn generate(spec: &WorkloadSpec) -> Vec<TpEvent> {
    let mut rng = Rng::new(spec.seed ^ 0x7979);
    let zipf = Zipf::new(
        SEGMENTS as usize,
        if spec.skew == 0.6 { TP_SKEW } else { spec.skew },
    );
    let mut events = Vec::with_capacity(spec.events);
    let mut report = 0u64;
    while events.len() < spec.events {
        let segment = zipf.sample(&mut rng);
        let vehicle = rng.next_below(100_000);
        let speed = 20.0 + rng.next_f64() * 80.0;
        for kind in [
            TpKind::RoadSpeed,
            TpKind::VehicleCnt,
            TpKind::TollNotification,
        ] {
            if events.len() == spec.events {
                break;
            }
            events.push(TpEvent {
                kind,
                segment,
                vehicle,
                speed,
            });
        }
        report += 1;
    }
    let _ = report;
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream_core::{Engine, EngineConfig, Scheme};
    use tstream_state::TableId;

    #[test]
    fn generator_covers_all_three_operators() {
        let spec = WorkloadSpec::default().events(3_000);
        let events = generate(&spec);
        assert_eq!(events.len(), 3_000);
        let rs = events
            .iter()
            .filter(|e| e.kind == TpKind::RoadSpeed)
            .count();
        let vc = events
            .iter()
            .filter(|e| e.kind == TpKind::VehicleCnt)
            .count();
        let tn = events
            .iter()
            .filter(|e| e.kind == TpKind::TollNotification)
            .count();
        assert_eq!(rs, 1_000);
        assert_eq!(vc, 1_000);
        assert_eq!(tn, 1_000);
        assert!(events.iter().all(|e| e.segment < SEGMENTS));
    }

    #[test]
    fn speeds_stay_positive_and_sets_accumulate() {
        let spec = WorkloadSpec::default().events(900);
        let store = build_store(&spec);
        let app = Arc::new(TollProcessing);
        let engine = Engine::new(EngineConfig::with_executors(4).punctuation(150));
        let report = engine.run(&app, &store, generate(&spec), &Scheme::TStream);
        assert_eq!(report.rejected, 0, "speeds are always positive");

        let speed_table = store.table(TableId(SPEED_TABLE));
        for (_, record) in speed_table.iter() {
            let v = record.read_committed().as_double().unwrap();
            assert!(v > 0.0 && v <= 100.0, "average speed {v} out of range");
        }
        let count_table = store.table(TableId(COUNT_TABLE));
        let total_vehicles: usize = count_table
            .iter()
            .map(|(_, r)| r.read_committed().as_set().unwrap().len())
            .sum();
        assert!(total_vehicles > 0);
    }

    #[test]
    fn all_schemes_agree_on_final_congestion_state() {
        let spec = WorkloadSpec::default().events(600);
        let events = generate(&spec);
        let app = Arc::new(TollProcessing);

        let reference_store = build_store(&spec);
        let _ = Engine::new(EngineConfig::with_executors(1).punctuation(100)).run(
            &app,
            &reference_store,
            events.clone(),
            &Scheme::Eager(Arc::new(LockScheme::new())),
        );
        let expected = reference_store.snapshot();

        for scheme in [
            Scheme::TStream,
            Scheme::Eager(Arc::new(MvlkScheme::new())),
            Scheme::Eager(Arc::new(PatScheme::new(4))),
        ] {
            let store = build_store(&spec);
            let engine = Engine::new(EngineConfig::with_executors(6).punctuation(100));
            let report = engine.run(&app, &store, events.clone(), &scheme);
            assert_eq!(store.snapshot(), expected, "{} diverged", report.scheme);
        }
    }

    #[test]
    fn toll_notification_reads_both_tables() {
        let app = TollProcessing;
        let e = TpEvent {
            kind: TpKind::TollNotification,
            segment: 7,
            vehicle: 1,
            speed: 50.0,
        };
        let set = app.read_write_set(&e);
        assert_eq!(set.read_set().len(), 2);
        assert!(set.write_set().is_empty());
    }
}
