//! The seven workloads: what each feeds the engine, how the engine is
//! configured for it, and why it exists.  Names are stable identifiers —
//! every later performance claim names one of them.

use tstream::apps::gs::GsEvent;
use tstream::apps::workload::{Rng, WorkloadSpec};
use tstream::core::{
    ChainPlacement, DependencyResolution, EngineConfig, EventRouting, FsyncPolicy, ObsConfig,
};
use tstream::txn::NumaModel;

/// Events per punctuation batch, for every workload (the paper's default).
pub const PUNCTUATION: usize = 500;

/// Run length the per-workload sizes below are written for: two closed
/// repetitions of ≈ 2.3 s each at seed speed, 1 s of open ramp, 4 s of open
/// measurement.  `--seconds s` scales event counts and open-phase durations
/// by `s / 10`.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// Durable sessions checkpoint every this many batches.
pub const CHECKPOINT_EVERY: usize = 64;

/// Which application a workload drives, with its generator knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppKind {
    /// Grep-and-Sum.
    Gs {
        keys: u64,
        skew: f64,
        read_ratio: f64,
        txn_len: usize,
        /// Share of write transactions given one negative (rejected) write.
        poison: f64,
    },
    /// Streaming Ledger, stock input.
    Sl,
    /// Toll Processing, stock input.
    Tp,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: the layer it stresses and the workload it is paired with.
    pub why: &'static str,
    pub app: AppKind,
    /// Events of one closed repetition at [`REFERENCE_SECONDS`] (≈ 2.3 s at
    /// seed speed on the host the benchmark was defined on).
    pub closed_events: usize,
    /// Open-phase arrival rate, events per second: a frozen constant at
    /// 45-50 % of the seed's closed-loop throughput on the 2-core host the
    /// benchmark was defined on (README records both numbers).
    pub open_rate: f64,
    pub executors: usize,
    pub shards: u32,
    /// Whether sessions run through `.durable(dir)`.
    pub durable: bool,
}

const GS_STOCK: AppKind = AppKind::Gs {
    keys: 10_000,
    skew: 0.6,
    read_ratio: 0.5,
    txn_len: 10,
    poison: 0.0,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sl_dep",
        why: "SL transfers: cross-chain dependencies, so temporary versions and the cooperative scheduler dominate; pairs with gs_sparse",
        app: AppKind::Sl,
        closed_events: 1_200_000,
        open_rate: 240_000.0,
        executors: 1,
        shards: 1,
        durable: false,
    },
    Workload {
        name: "gs_rw",
        why: "GS stock, 10 ops/event, reads beside writes without dependencies: app compute and transaction build dominate; pairs with tp_hot",
        app: GS_STOCK,
        closed_events: 375_000,
        open_rate: 75_000.0,
        executors: 1,
        shards: 1,
        durable: false,
    },
    Workload {
        name: "gs_sparse",
        why: "GS 1 op/event over 500k uniform keys: most batches conflict-free, the only workload on the fast path; cache-miss and ingest bound",
        app: AppKind::Gs {
            keys: 500_000,
            skew: 0.0,
            read_ratio: 0.5,
            txn_len: 1,
            poison: 0.0,
        },
        closed_events: 2_000_000,
        open_rate: 400_000.0,
        executors: 1,
        shards: 1,
        durable: false,
    },
    Workload {
        name: "gs_abort",
        why: "GS write-only with 0.1% poisoned transactions: a third of batches roll back and replay serially, the only workload on the abort path; pairs with gs_rw",
        app: AppKind::Gs {
            keys: 10_000,
            skew: 0.6,
            read_ratio: 0.0,
            txn_len: 10,
            poison: 0.001,
        },
        closed_events: 250_000,
        open_rate: 50_000.0,
        executors: 1,
        shards: 1,
        durable: false,
    },
    Workload {
        name: "tp_hot",
        why: "TP over 100 hot segments: long chains and set values that grow with the run, so value clone and size dominate; pairs with sl_dep",
        app: AppKind::Tp,
        closed_events: 1_000_000,
        open_rate: 170_000.0,
        executors: 1,
        shards: 1,
        durable: false,
    },
    Workload {
        name: "sl_durable",
        why: "sl_dep input through a durable session: WAL append, group commit, seal, checkpoint and the writer thread on the path; minus sl_dep it is the durability tax",
        app: AppKind::Sl,
        closed_events: 1_000_000,
        open_rate: 180_000.0,
        executors: 1,
        shards: 1,
        durable: true,
    },
    Workload {
        name: "sl_exec2",
        why: "sl_dep input on 2 executors and 2 shards, the only multi-executor workload: barriers, chain claiming, cross-executor waits; pairs with sl_dep",
        app: AppKind::Sl,
        closed_events: 700_000,
        open_rate: 135_000.0,
        executors: 2,
        shards: 2,
        durable: false,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generator spec for `events` events from `seed`.
    pub fn spec(&self, seed: u64, events: usize) -> WorkloadSpec {
        let spec = WorkloadSpec::default()
            .events(events)
            .shards(self.shards)
            .seed(seed);
        match self.app {
            AppKind::Gs {
                keys,
                skew,
                read_ratio,
                txn_len,
                ..
            } => spec
                .keys(keys)
                .skew(skew)
                .read_ratio(read_ratio)
                .txn_len(txn_len),
            AppKind::Sl | AppKind::Tp => spec,
        }
    }

    /// The engine configuration of this workload.  Every field the engine
    /// has today is set here, none is left to `Default`: a later change of a
    /// default must not silently change what the benchmark measures.
    pub fn engine_config(&self, obs: ObsConfig) -> EngineConfig {
        EngineConfig::with_executors(self.executors)
            .punctuation(PUNCTUATION)
            .shards(self.shards as usize)
            .event_routing(EventRouting::RoundRobin)
            .numa(NumaModel::disabled())
            .placement(ChainPlacement::SharedNothing)
            .work_stealing(false)
            .resolution(DependencyResolution::FineGrained)
            .pipeline_depth(4)
            .fsync(FsyncPolicy::OnSeal)
            .checkpoint_every(CHECKPOINT_EVERY)
            .group_window(128, 32 * 1024)
            .observability(obs)
    }
}

/// Event counts and durations of one run, derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Closed-phase events (a whole number of batches).
    pub closed_events: usize,
    /// Open-phase events discarded as ramp-up (a whole number of batches).
    pub ramp_events: usize,
    /// Open-phase events in total, ramp included (a whole number of batches).
    pub open_events: usize,
}

impl Scale {
    /// Sizes for a run of `seconds`: a tenth of it open ramp, four tenths
    /// open measurement, the rest the two closed repetitions at seed speed.
    /// `smoke` divides by 100 for the test suite.
    pub fn new(w: &Workload, seconds: f64, smoke: bool) -> Scale {
        let factor = seconds / REFERENCE_SECONDS / if smoke { 100.0 } else { 1.0 };
        let batches = |events: f64| ((events / PUNCTUATION as f64).round() as usize).max(2);
        let ramp = batches(w.open_rate * REFERENCE_SECONDS * 0.1 * factor);
        let measured = batches(w.open_rate * REFERENCE_SECONDS * 0.4 * factor);
        // The open phase reuses a prefix of the closed phase's input.
        let closed = batches(w.closed_events as f64 * factor).max(ramp + measured);
        Scale {
            closed_events: closed * PUNCTUATION,
            ramp_events: ramp * PUNCTUATION,
            open_events: (ramp + measured) * PUNCTUATION,
        }
    }
}

/// Give a seeded `fraction` of GS write transactions one negative write,
/// which the application rejects (the `ablation_abort_overhead` poison).
/// Returns how many were poisoned.
pub fn poison(events: &mut [GsEvent], fraction: f64, seed: u64) -> usize {
    let mut rng = Rng::new(seed ^ 0xFEED);
    let mut poisoned = 0;
    for event in events.iter_mut() {
        if let Some(writes) = &mut event.writes {
            if rng.chance(fraction) {
                let slot = rng.next_below(writes.len() as u64) as usize;
                writes[slot] = -1;
                poisoned += 1;
            }
        }
    }
    poisoned
}

#[cfg(test)]
mod tests {
    use super::*;
    use tstream::apps::gs;

    #[test]
    fn scale_is_whole_batches_and_open_fits_in_closed() {
        for w in &WORKLOADS {
            for (seconds, smoke) in [(10.0, false), (1.0, false), (10.0, true), (60.0, false)] {
                let s = Scale::new(w, seconds, smoke);
                assert_eq!(s.closed_events % PUNCTUATION, 0);
                assert_eq!(s.open_events % PUNCTUATION, 0);
                assert_eq!(s.ramp_events % PUNCTUATION, 0);
                assert!(s.ramp_events < s.open_events);
                assert!(s.open_events <= s.closed_events, "{}", w.name);
            }
            let s = Scale::new(w, REFERENCE_SECONDS, false);
            assert_eq!(s.closed_events, w.closed_events, "{}", w.name);
        }
    }

    #[test]
    fn poison_is_deterministic_and_near_its_fraction() {
        let w = Workload::by_name("gs_abort").unwrap();
        let AppKind::Gs {
            poison: fraction, ..
        } = w.app
        else {
            panic!("gs_abort is a GS workload");
        };
        let spec = w.spec(7, 100_000);
        let mut a = gs::generate(&spec);
        let mut b = gs::generate(&spec);
        let (pa, pb) = (poison(&mut a, fraction, 7), poison(&mut b, fraction, 7));
        assert_eq!(pa, pb, "same seed, same poisoned count");
        assert!((50..200).contains(&pa), "0.1% of 100k writes, got {pa}");
        let negative = |events: &[GsEvent]| -> Vec<usize> {
            events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.writes.as_ref().is_some_and(|w| w.contains(&-1)))
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(
            negative(&a),
            negative(&b),
            "same seed, same poisoned events"
        );
        assert_eq!(negative(&a).len(), pa);
        let mut c = gs::generate(&w.spec(8, 100_000));
        poison(&mut c, fraction, 8);
        assert_ne!(negative(&a), negative(&c), "another seed, other events");
    }
}
