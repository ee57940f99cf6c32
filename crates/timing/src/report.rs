//! [`TimingReport`] / [`ModelTimingReport`]: the replay simulator's
//! cycle-accurate per-layer and per-model results.
//!
//! Every cycle of a replayed layer is accounted for exactly once:
//!
//! ```text
//! total = compute + stream_stall + sum(exposed_stall per DataClass)
//! ```
//!
//! which is asserted by [`TimingReport::is_consistent`] and by the replay
//! engine's own tests. The exposed-stall breakdown is the simulator's main
//! product: the analytic evaluator folds all overlap into one
//! `overlap_fraction`, while the replay shows *which class's* prefetch,
//! realignment, or spill was late.

// lint:allow-file(index, class columns are indexed by positions found in DataClass::ALL)

use smart_systolic::trace::DataClass;
use smart_units::{Frequency, Time};

/// Cycle-level result of replaying one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingReport {
    /// Layer name.
    pub name: String,
    /// (SHIFT, RANDOM, DRAM) bytes of the replayed schedule's placement,
    /// as [`smart_compiler::schedule::Schedule::bytes_by_location`] counts
    /// them: the compiler's allocation decision, kept with its replay.
    pub placement_bytes: (u64, u64, u64),
    /// End-to-end replay length in accelerator cycles.
    pub total_cycles: u64,
    /// Matrix-unit busy cycles (identical to the analytic
    /// `LayerMapping::compute_cycles`).
    pub compute_cycles: u64,
    /// Cycles the matrix unit waited on SHIFT staging-array streaming
    /// bandwidth.
    pub stream_stall_cycles: u64,
    /// Exposed (non-overlapped) stall cycles by data class, in
    /// [`DataClass::ALL`] order: prefetches that arrived late, realignment
    /// accesses that gated the next iteration, and PSum spill / DRAM
    /// overflow round trips that outlived their iteration.
    pub exposed_stall_cycles: [u64; 4],
    /// Total RANDOM/DRAM channel cycles spent on prefetch loads (the work,
    /// whether hidden or exposed).
    pub prefetch_work_cycles: u64,
    /// The part of [`Self::prefetch_work_cycles`] that showed up as
    /// compute stall (late arrivals).
    pub prefetch_stall_cycles: u64,
    /// Cycles the shared RANDOM array was busy (loads + realignments +
    /// spills).
    pub random_busy_cycles: u64,
}

impl TimingReport {
    /// Exposed stall cycles of one class.
    #[must_use]
    pub fn exposed_of(&self, class: DataClass) -> u64 {
        let idx = DataClass::ALL
            .iter()
            .position(|&c| c == class)
            // lint:allow(panic_freedom, DataClass::ALL enumerates every variant)
            .expect("class in ALL");
        self.exposed_stall_cycles[idx]
    }

    /// Total exposed stall cycles across classes.
    #[must_use]
    pub fn exposed_total(&self) -> u64 {
        self.exposed_stall_cycles.iter().sum()
    }

    /// Prefetch cycles hidden behind compute.
    #[must_use]
    pub fn prefetch_hidden_cycles(&self) -> u64 {
        self.prefetch_work_cycles
            .saturating_sub(self.prefetch_stall_cycles)
    }

    /// Fraction of prefetch work hidden behind compute; `0.0` for a layer
    /// with no prefetch traffic (never NaN).
    #[must_use]
    pub fn prefetch_hidden_fraction(&self) -> f64 {
        if self.prefetch_work_cycles == 0 {
            0.0
        } else {
            self.prefetch_hidden_cycles() as f64 / self.prefetch_work_cycles as f64
        }
    }

    /// RANDOM-array occupancy over the layer; `0.0` for an empty replay
    /// (never NaN). Clamped to `1.0`: the demand-priority channel is
    /// optimistic for demand (see `replay`), which can double-book a few
    /// percent of slots under saturation.
    #[must_use]
    pub fn random_occupancy(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            (self.random_busy_cycles as f64 / self.total_cycles as f64).min(1.0)
        }
    }

    /// Wall-clock replay length at `clock`.
    #[must_use]
    pub fn total_time(&self, clock: Frequency) -> Time {
        clock.period() * self.total_cycles as f64
    }

    /// The cycle-accounting identity holds: every cycle is compute, a
    /// streaming stall, or an exposed stall — nothing double-counted.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.compute_cycles + self.stream_stall_cycles + self.exposed_total() == self.total_cycles
    }
}

/// Replay of a whole model: one [`TimingReport`] per layer plus the clock
/// they were simulated at.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTimingReport {
    /// Scheme name (display).
    pub scheme: &'static str,
    /// Model name.
    pub model: String,
    /// Accelerator clock the cycle counts convert to time with.
    pub clock: Frequency,
    /// Per-layer replays, in model order.
    pub layers: Vec<TimingReport>,
}

impl ModelTimingReport {
    /// Total replay cycles across layers.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.total_cycles).sum()
    }

    /// End-to-end replay time.
    #[must_use]
    pub fn total_time(&self) -> Time {
        self.clock.period() * self.total_cycles() as f64
    }

    /// Summed exposed stall cycles of one class across layers.
    #[must_use]
    pub fn exposed_of(&self, class: DataClass) -> u64 {
        self.layers.iter().map(|l| l.exposed_of(class)).sum()
    }

    /// Summed exposed stall cycles across all classes and layers.
    #[must_use]
    pub fn exposed_total(&self) -> u64 {
        self.layers.iter().map(TimingReport::exposed_total).sum()
    }

    /// Summed streaming stalls across layers.
    #[must_use]
    pub fn stream_stall_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.stream_stall_cycles).sum()
    }

    /// Whole-model RANDOM occupancy; `0.0` for an empty model. Clamped
    /// like [`TimingReport::random_occupancy`].
    #[must_use]
    pub fn random_occupancy(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            (self
                .layers
                .iter()
                .map(|l| l.random_busy_cycles)
                .sum::<u64>() as f64
                / total as f64)
                .min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TimingReport {
        TimingReport {
            name: "t".to_owned(),
            placement_bytes: (1024, 2048, 512),
            total_cycles: 130,
            compute_cycles: 100,
            stream_stall_cycles: 10,
            exposed_stall_cycles: [5, 10, 0, 5],
            prefetch_work_cycles: 40,
            prefetch_stall_cycles: 15,
            random_busy_cycles: 65,
        }
    }

    #[test]
    fn accounting_identity() {
        let r = report();
        assert!(r.is_consistent());
        assert_eq!(r.exposed_total(), 20);
        assert_eq!(r.exposed_of(DataClass::Input), 10);
        assert_eq!(r.exposed_of(DataClass::Weight), 5);
    }

    #[test]
    fn hidden_fraction_and_occupancy_guarded() {
        let r = report();
        assert_eq!(r.prefetch_hidden_cycles(), 25);
        assert!((r.prefetch_hidden_fraction() - 25.0 / 40.0).abs() < 1e-12);
        assert!((r.random_occupancy() - 0.5).abs() < 1e-12);

        let empty = TimingReport {
            name: "empty".to_owned(),
            placement_bytes: (0, 0, 0),
            total_cycles: 0,
            compute_cycles: 0,
            stream_stall_cycles: 0,
            exposed_stall_cycles: [0; 4],
            prefetch_work_cycles: 0,
            prefetch_stall_cycles: 0,
            random_busy_cycles: 0,
        };
        assert_eq!(empty.prefetch_hidden_fraction(), 0.0);
        assert_eq!(empty.random_occupancy(), 0.0);
        assert!(empty.prefetch_hidden_fraction().is_finite());
    }

    #[test]
    fn model_report_aggregates() {
        let m = ModelTimingReport {
            scheme: "SMART",
            model: "toy".to_owned(),
            clock: Frequency::from_ghz(52.6),
            layers: vec![report(), report()],
        };
        assert_eq!(m.total_cycles(), 260);
        assert_eq!(m.exposed_total(), 40);
        assert_eq!(m.stream_stall_cycles(), 20);
        assert!((m.random_occupancy() - 0.5).abs() < 1e-12);
        let expect = 260.0 / 52.6e9;
        assert!((m.total_time().as_s() - expect).abs() < 1e-18);
    }

    #[test]
    fn empty_model_occupancy_guarded() {
        let m = ModelTimingReport {
            scheme: "SMART",
            model: "none".to_owned(),
            clock: Frequency::from_ghz(1.0),
            layers: Vec::new(),
        };
        assert_eq!(m.random_occupancy(), 0.0);
        assert_eq!(m.total_cycles(), 0);
    }
}
