//! The typed experiment registry: one [`ExperimentDescriptor`] per
//! table/figure/study, the single source of truth every front end
//! derives from.
//!
//! The old `&[(&str, Experiment)]` pair table knew nothing but names;
//! the descriptors add the paper artifact each experiment reproduces
//! (`figure`) and a coarse [`Group`] tag, so `--list` can print an
//! annotated catalogue and `--filter` can select whole families
//! (`--filter timing`, `--filter serving_`) instead of spelling out
//! names. [`crate::run_experiment`], [`crate::experiment_names`],
//! [`crate::all_experiments`], and the `all_experiments` driver (which
//! runs any subset by name) resolve through this table, so a new entry
//! cannot drift between them.

use crate::Experiment;

/// Coarse family tag of an experiment, the unit `--filter` selects by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// Main-paper figures and tables (Figs. 2-25, Tables 1-4).
    Paper,
    /// Compiler/geometry ablations beyond the paper.
    Ablation,
    /// Transient circuit characterizations (JoSIM-style).
    Circuit,
    /// Cycle-level replay studies.
    Timing,
    /// Design-space Pareto searches.
    Search,
    /// Multi-tenant serving simulations.
    Serving,
}

impl Group {
    /// The tag `--filter` matches and `--list` prints.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::Ablation => "ablation",
            Self::Circuit => "circuit",
            Self::Timing => "timing",
            Self::Search => "search",
            Self::Serving => "serving",
        }
    }
}

/// One entry of the experiment catalogue.
#[derive(Clone, Copy)]
pub struct ExperimentDescriptor {
    /// Dispatch name (`fig18`, `serving_saturation`, …).
    pub name: &'static str,
    /// The paper artifact reproduced, or `"-"` for studies beyond the
    /// paper.
    pub figure: &'static str,
    /// Family tag.
    pub group: Group,
    /// The builder.
    pub run: Experiment,
}

impl std::fmt::Debug for ExperimentDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentDescriptor")
            .field("name", &self.name)
            .field("figure", &self.figure)
            .field("group", &self.group)
            .finish_non_exhaustive()
    }
}

impl ExperimentDescriptor {
    /// Whether `filter` selects this experiment: exact or substring name
    /// match, or an exact group-tag match (`timing` picks every
    /// [`Group::Timing`] entry *and* anything with `timing` in its name).
    #[must_use]
    pub fn matches(&self, filter: &str) -> bool {
        self.group.tag() == filter || self.name.contains(filter)
    }
}

macro_rules! registry {
    ($(($name:literal, $figure:literal, $group:ident, $run:path),)*) => {
        /// Every experiment, in paper order followed by the
        /// beyond-the-paper studies.
        pub const REGISTRY: &[ExperimentDescriptor] = &[
            $(ExperimentDescriptor {
                name: $name,
                figure: $figure,
                group: Group::$group,
                run: $run,
            },)*
        ];
    };
}

registry![
    ("fig02", "Fig. 2", Paper, crate::fig02_wires),
    ("table1", "Table 1", Paper, crate::table1_memories),
    ("table2", "Table 2", Paper, crate::table2_components),
    ("fig05", "Fig. 5", Paper, crate::fig05_homogeneous),
    ("fig06", "Fig. 6", Paper, crate::fig06_trace),
    ("fig07", "Fig. 7", Paper, crate::fig07_hetero),
    ("fig09", "Fig. 9", Paper, crate::fig09_htree_breakdown),
    ("fig12", "Fig. 12", Paper, crate::fig12_subbank_validation),
    ("fig13", "Fig. 13", Paper, crate::fig13_josim_validation),
    ("fig14", "Fig. 14", Paper, crate::fig14_design_space),
    ("fig16", "Fig. 16", Paper, crate::fig16_access_energy),
    ("fig17", "Fig. 17", Paper, crate::fig17_area),
    ("fig18", "Fig. 18", Paper, crate::fig18_single_speedup),
    ("fig19", "Fig. 19", Paper, crate::fig19_batch_speedup),
    ("fig20", "Fig. 20", Paper, crate::fig20_single_energy),
    ("fig21", "Fig. 21", Paper, crate::fig21_batch_energy),
    ("fig22", "Fig. 22", Paper, crate::fig22_shift_capacity),
    ("fig23", "Fig. 23", Paper, crate::fig23_random_capacity),
    ("fig24", "Fig. 24", Paper, crate::fig24_prefetch),
    ("fig25", "Fig. 25", Paper, crate::fig25_write_latency),
    ("table4", "Table 4", Paper, crate::table4_configs),
    (
        "ablation_ilp_vs_greedy",
        "-",
        Ablation,
        crate::ablation_ilp_vs_greedy
    ),
    (
        "ablation_lane_length",
        "-",
        Ablation,
        crate::ablation_lane_length
    ),
    ("josim_jtl", "-", Circuit, crate::josim_jtl_characterization),
    (
        "josim_fanout",
        "-",
        Circuit,
        crate::josim_fanout_characterization
    ),
    ("josim_ptl", "-", Circuit, crate::josim_ptl_characterization),
    (
        "timing_stall_breakdown",
        "-",
        Timing,
        crate::timing_stall_breakdown
    ),
    (
        "timing_buffer_depth",
        "-",
        Timing,
        crate::timing_buffer_depth
    ),
    (
        "timing_random_bandwidth",
        "-",
        Timing,
        crate::timing_random_bandwidth
    ),
    ("search_frontier", "-", Search, crate::search_frontier),
    (
        "search_warm_vs_cold",
        "-",
        Search,
        crate::search_warm_vs_cold
    ),
    (
        "search_frontier_gap",
        "-",
        Search,
        crate::search_frontier_gap
    ),
    (
        "serving_saturation",
        "-",
        Serving,
        crate::serving_saturation
    ),
    (
        "serving_batch_tail",
        "-",
        Serving,
        crate::serving_batch_tail
    ),
    (
        "serving_tenant_mix",
        "-",
        Serving,
        crate::serving_tenant_mix
    ),
];

/// Looks an experiment up by exact name.
#[must_use]
pub fn find(name: &str) -> Option<&'static ExperimentDescriptor> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// The experiments a set of `--filter` values selects (any-of semantics),
/// in registry order. No filters selects everything.
#[must_use]
pub fn filtered(filters: &[String]) -> Vec<&'static ExperimentDescriptor> {
    REGISTRY
        .iter()
        .filter(|d| filters.is_empty() || filters.iter().any(|f| d.matches(f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_the_registry() {
        assert_eq!(REGISTRY.len(), 35);
        let count = |g: Group| REGISTRY.iter().filter(|d| d.group == g).count();
        assert_eq!(count(Group::Paper), 21);
        assert_eq!(count(Group::Ablation), 2);
        assert_eq!(count(Group::Circuit), 3);
        assert_eq!(count(Group::Timing), 3);
        assert_eq!(count(Group::Search), 3);
        assert_eq!(count(Group::Serving), 3);
    }

    #[test]
    fn filters_select_families_and_names() {
        let timing = filtered(&["timing".to_owned()]);
        assert_eq!(timing.len(), 3);
        assert!(timing.iter().all(|d| d.group == Group::Timing));

        let serving = filtered(&["serving_".to_owned()]);
        assert_eq!(serving.len(), 3);

        let one = filtered(&["fig18".to_owned()]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].figure, "Fig. 18");

        let multi = filtered(&["search".to_owned(), "fig02".to_owned()]);
        assert_eq!(multi.len(), 4);

        assert_eq!(filtered(&[]).len(), REGISTRY.len());
        assert!(filtered(&["no_such_thing".to_owned()]).is_empty());
    }

    #[test]
    fn find_resolves_exact_names_only() {
        assert!(find("fig18").is_some());
        assert!(find("serving_saturation").is_some());
        assert!(find("fig1").is_none());
    }
}
