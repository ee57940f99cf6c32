//! [`MetricsRegistry`] / [`MetricsSnapshot`]: named counters and gauges
//! with deterministic ordering.
//!
//! Every subsystem keeps its work in a record that one macro,
//! `smart_units::work_record!`, declares (the memo caches' `MemoStats`,
//! the transient engine's `TransientWork`, the solver context's
//! `SolverContextStats`), each field named as its metric. This module is
//! the unification point for reporting them: each record's counters and
//! gauges are poured into one registry under its dotted prefix
//! (`eval_cache.hits`, `josim.trials`, `ilp.pivots`), and one
//! [`MetricsSnapshot`] renders them all — as aligned text for stderr or
//! as CSV. `BTreeMap` storage makes every dump deterministically
//! ordered.
//!
//! *Counters* are monotonic event tallies (hits, misses, pivots);
//! *gauges* are point-in-time levels (entries stored, bases loaded).
//! The split matters for consumers diffing two snapshots: counter
//! deltas are meaningful, gauge deltas are not.

use crate::lock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A thread-safe registry of named monotonic counters and gauges.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (created at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let mut counters = lock(&self.counters);
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        lock(&self.gauges).insert(name.to_owned(), value);
    }

    /// A point-in-time copy of every counter and gauge.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters).clone(),
            gauges: lock(&self.gauges).clone(),
        }
    }
}

/// A deterministic, name-ordered copy of a registry's contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, name-ordered.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges, name-ordered.
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 when absent (absent and never-incremented
    /// are the same thing for a monotonic counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name`, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Sum of every counter whose name starts with `prefix` — the
    /// convenient roll-up for dotted families (`eval_cache.`).
    #[must_use]
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Aligned `name value` lines, counters first then gauges, each block
    /// name-ordered. The canonical `--metrics` stderr dump.
    #[must_use]
    pub fn to_text(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (kind, map) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, value) in map {
                out.push_str(&format!("{kind:<7} {name:<width$} {value}\n"));
            }
        }
        out
    }

    /// `kind,name,value` CSV lines with a header, same order as
    /// [`MetricsSnapshot::to_text`].
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (kind, map) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, value) in map {
                out.push_str(&format!("{kind},{name},{value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.add("cache.hits", 2);
        reg.add("cache.hits", 3);
        reg.set_gauge("cache.entries", 7);
        reg.set_gauge("cache.entries", 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.hits"), 5);
        assert_eq!(snap.counter("cache.misses"), 0);
        assert_eq!(snap.gauge("cache.entries"), Some(4));
        assert_eq!(snap.gauge("cache.ghost"), None);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let reg = MetricsRegistry::new();
        reg.add("c", u64::MAX - 1);
        reg.add("c", 5);
        assert_eq!(reg.snapshot().counter("c"), u64::MAX);
    }

    #[test]
    fn family_rollup_sums_the_prefix() {
        let reg = MetricsRegistry::new();
        reg.add("eval_cache.hits", 2);
        reg.add("eval_cache.coalesced", 1);
        reg.add("timing_cache.hits", 9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_family("eval_cache."), 3);
        assert_eq!(snap.counter_family("nope."), 0);
    }

    #[test]
    fn dumps_are_name_ordered_and_stable() {
        let reg = MetricsRegistry::new();
        reg.add("b.second", 2);
        reg.add("a.first", 1);
        reg.set_gauge("z.gauge", 3);
        let snap = reg.snapshot();
        let text = snap.to_text();
        let a = text.find("a.first").expect("a.first listed");
        let b = text.find("b.second").expect("b.second listed");
        let z = text.find("z.gauge").expect("z.gauge listed");
        assert!(a < b && b < z, "{text}");
        assert_eq!(
            snap.to_csv(),
            "kind,name,value\ncounter,a.first,1\ncounter,b.second,2\ngauge,z.gauge,3\n"
        );
        // Two snapshots of the same registry render identically.
        assert_eq!(text, reg.snapshot().to_text());
    }

    #[test]
    fn empty_snapshot_renders_headers_only() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.to_text(), "");
        assert_eq!(snap.to_csv(), "kind,name,value\n");
    }
}
