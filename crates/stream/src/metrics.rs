//! Per-transaction time breakdown.
//!
//! Figures 1 and 9 of the paper attribute transaction-processing time to five
//! components.  Every scheme implementation charges its work to the same four
//! timed buckets so the breakdown harness can compare them directly:
//!
//! * **Useful** — time spent actually reading / writing state values;
//! * **Sync** — time blocked waiting to be *allowed* to proceed: spinning on
//!   lockAhead / partition / `lwm` counters in the prior schemes, or waiting
//!   on the mode-switching barriers in TStream;
//! * **Lock** — time spent inserting/acquiring record locks once permitted;
//! * **Others** — everything else (index lookup, decomposition bookkeeping,
//!   context switching, ...).
//!
//! The fifth, **RMA** (remote memory access), is not timed: this host is one
//! memory image, so the NUMA model *counts* the accesses to states or chains
//! owned by another synthetic socket ([`Breakdown::remote_accesses`]) and
//! the figures price each one at the paper's measured remote latency gap.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// The four timed breakdown components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Actual state access work.
    Useful,
    /// Waiting to be permitted to proceed (counters, barriers).
    Sync,
    /// Inserting / acquiring record locks.
    Lock,
    /// Everything else.
    Others,
}

impl Component {
    /// All components in presentation order (matches the paper's legend).
    pub const ALL: [Component; 4] = [
        Component::Others,
        Component::Sync,
        Component::Lock,
        Component::Useful,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Component::Useful => "Useful",
            Component::Sync => "Sync",
            Component::Lock => "Lock",
            Component::Others => "Others",
        }
    }
}

/// Accumulated per-component durations, plus the count of modelled remote
/// accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Time spent accessing state values.
    pub useful: Duration,
    /// Time spent blocked on synchronisation.
    pub sync: Duration,
    /// Time spent inserting locks.
    pub lock: Duration,
    /// Everything else.
    pub others: Duration,
    /// State accesses and chain inserts the NUMA model counts as remote
    /// (always 0 with the model off or on a single synthetic socket).
    pub remote_accesses: u64,
}

impl Breakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `d` to component `c`.
    pub fn charge(&mut self, c: Component, d: Duration) {
        match c {
            Component::Useful => self.useful += d,
            Component::Sync => self.sync += d,
            Component::Lock => self.lock += d,
            Component::Others => self.others += d,
        }
    }

    /// Read a component.
    pub fn get(&self, c: Component) -> Duration {
        match c {
            Component::Useful => self.useful,
            Component::Sync => self.sync,
            Component::Lock => self.lock,
            Component::Others => self.others,
        }
    }

    /// Sum of all timed components.
    pub fn total(&self) -> Duration {
        self.useful + self.sync + self.lock + self.others
    }

    /// Fraction (0‥1) of the total attributed to component `c`; 0 when the
    /// breakdown is empty.
    pub fn fraction(&self, c: Component) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.get(c).as_secs_f64() / total
        }
    }

    /// Normalised fractions for every component, in [`Component::ALL`] order.
    pub fn fractions(&self) -> [(Component, f64); 4] {
        Component::ALL.map(|c| (c, self.fraction(c)))
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.useful += rhs.useful;
        self.sync += rhs.sync;
        self.lock += rhs.lock;
        self.others += rhs.others;
        self.remote_accesses += rhs.remote_accesses;
    }
}

/// A scoped timer charging elapsed time to a breakdown component.
#[derive(Debug)]
pub struct ComponentTimer {
    started: Instant,
}

impl ComponentTimer {
    /// Start timing.
    pub fn start() -> Self {
        ComponentTimer {
            started: Instant::now(),
        }
    }

    /// Stop and charge the elapsed time to `component` of `breakdown`.
    pub fn stop(self, breakdown: &mut Breakdown, component: Component) -> Duration {
        let elapsed = self.started.elapsed();
        breakdown.charge(component, elapsed);
        elapsed
    }

    /// Elapsed time so far without charging it anywhere.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Convenience: run `f`, charging its duration to `component`.
pub fn timed<R>(breakdown: &mut Breakdown, component: Component, f: impl FnOnce() -> R) -> R {
    let t = ComponentTimer::start();
    let r = f();
    t.stop(breakdown, component);
    r
}

#[cfg(test)]
mod tests {
    // These tests probe real timing (blocked-thread interleavings), so
    // they sleep deliberately; the workspace-wide sleep ban targets
    // production code.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut b = Breakdown::new();
        b.charge(Component::Useful, Duration::from_millis(10));
        b.charge(Component::Sync, Duration::from_millis(30));
        b.charge(Component::Sync, Duration::from_millis(10));
        assert_eq!(b.useful, Duration::from_millis(10));
        assert_eq!(b.sync, Duration::from_millis(40));
        assert_eq!(b.total(), Duration::from_millis(50));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = Breakdown::new();
        for (i, c) in Component::ALL.iter().enumerate() {
            b.charge(*c, Duration::from_millis((i as u64 + 1) * 10));
        }
        let sum: f64 = b.fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = Breakdown::new();
        assert_eq!(b.fraction(Component::Useful), 0.0);
        assert_eq!(b.total(), Duration::ZERO);
    }

    #[test]
    fn add_assign_merges_breakdowns() {
        let mut a = Breakdown::new();
        a.charge(Component::Lock, Duration::from_millis(5));
        let mut b = Breakdown::new();
        b.charge(Component::Lock, Duration::from_millis(7));
        b.remote_accesses = 3;
        a += b;
        assert_eq!(a.lock, Duration::from_millis(12));
        assert_eq!(a.remote_accesses, 3);
    }

    #[test]
    fn timed_helper_charges_something() {
        let mut b = Breakdown::new();
        let result = timed(&mut b, Component::Others, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(result, 42);
        assert!(b.others >= Duration::from_millis(1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Component::Useful.label(), "Useful");
        assert_eq!(Component::Others.label(), "Others");
        assert_eq!(Component::ALL.len(), 4);
    }
}
