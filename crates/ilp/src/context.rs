//! [`SolverContext`]: cross-solve warm-start state.
//!
//! Every [`crate::solver::Solver::solve`] goes through a context. Sweep-style
//! workloads (the ILP ablation's default-vs-contested capacity runs, the
//! timing prepasses, the design-space search) share one and solve long
//! runs of LPs that share a constraint *structure* and differ only in
//! right-hand sides. A [`SolverContext`] remembers the optimal root basis
//! of every structure it has seen (keyed by a fingerprint over the
//! matrix, variables, and objective, *excluding* right-hand sides), so the
//! next solve of an adjacent point starts from a dual-feasible basis and
//! typically reoptimizes in a handful of dual simplex pivots instead of a
//! full cold solve. Sweeps that change bounds or objective coefficients
//! produce different fingerprints and simply solve cold — reuse never
//! risks a stale basis.
//!
//! Alongside the basis store sits an exact-match **solution memo**: full
//! MIP solutions keyed by a 128-bit content hash over the *complete*
//! problem (matrix, bounds, objective, right-hand sides), the incumbent
//! seed, and the solver configuration. The branch & bound search is
//! deterministic, so an identical solve replays the stored
//! [`MipSolution`] verbatim — same objective, values, node count, and
//! optimality flag — and skips the search entirely. This is what makes a
//! warm `--cache-dir` rerun of the ILP ablation near-free: the root-basis
//! warm start only shortcuts the root relaxation, while the memo
//! shortcuts the whole tree.
//!
//! The context is `Sync`: one instance can be shared across the experiment
//! runner's worker threads (the map is mutex-guarded, the counters are
//! atomic), matching how `smart_report::parallel_map` fans sweep points
//! out.

use crate::problem::Problem;
use crate::revised::{Basis, Status};
use crate::solver::MipSolution;
use smart_trace::Tracer;
use smart_units::codec::content_hash;
use smart_units::codec::{ByteReader, ByteWriter, Store};
use smart_units::sync::lock;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how much reuse a [`SolverContext`] delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverContextStats {
    /// Solves that found a stored basis for their problem structure.
    pub warm_attempts: u64,
    /// Warm attempts that actually reoptimized from the stored basis
    /// (no cold fallback).
    pub warm_hits: u64,
    /// Solves that started cold (no stored basis, or fallback).
    pub cold_solves: u64,
    /// Distinct problem structures with a stored basis.
    pub stored_bases: usize,
    /// Solves answered verbatim from the exact-match solution memo
    /// (branch & bound skipped entirely).
    pub solution_hits: u64,
    /// Distinct exact problems with a memoized solution.
    pub stored_solutions: usize,
    /// Simplex pivots across every solve (both phases, all nodes).
    pub pivots: u64,
    /// Basis-inverse refactorizations across every solve.
    pub refactorizations: u64,
    /// Branch & bound nodes explored across every solve.
    pub nodes: u64,
}

/// Shared warm-start state, solution memo and work counters: the one
/// argument every [`crate::solver::Solver::solve`] takes. Production
/// callers thread one context per run through
/// `smart_compiler::formulation::compile_layer_ctx` (the timing cache
/// owns it); a one-off solve passes `&SolverContext::new()`.
#[derive(Debug, Default)]
pub struct SolverContext {
    // Key-ordered maps: the persisted store serializes them in iteration
    // order, so the bytes are deterministic without a sort pass.
    bases: Mutex<BTreeMap<u64, Arc<Basis>>>,
    solutions: Mutex<BTreeMap<u128, Arc<MipSolution>>>,
    warm_attempts: AtomicU64,
    warm_hits: AtomicU64,
    cold_solves: AtomicU64,
    solution_hits: AtomicU64,
    pivots: AtomicU64,
    refactorizations: AtomicU64,
    nodes: AtomicU64,
    /// Span sink for per-node solver instrumentation; disabled (free)
    /// unless a driver installs an enabled tracer.
    tracer: Mutex<Tracer>,
}

impl SolverContext {
    /// An empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> SolverContextStats {
        SolverContextStats {
            warm_attempts: self.warm_attempts.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            cold_solves: self.cold_solves.load(Ordering::Relaxed),
            stored_bases: lock(&self.bases).len(),
            solution_hits: self.solution_hits.load(Ordering::Relaxed),
            stored_solutions: lock(&self.solutions).len(),
            pivots: self.pivots.load(Ordering::Relaxed),
            refactorizations: self.refactorizations.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
        }
    }

    /// Installs a span sink: every subsequent solve through this context
    /// records its branch & bound nodes as pivot-time spans on a
    /// per-problem lane. The default sink is disabled and free.
    pub fn set_tracer(&self, tracer: Tracer) {
        *lock(&self.tracer) = tracer;
    }

    /// The installed span sink (cheap clone of a shared buffer handle).
    #[must_use]
    pub fn tracer(&self) -> Tracer {
        lock(&self.tracer).clone()
    }

    /// Folds one finished search's work counters into the context.
    pub(crate) fn note_search(&self, pivots: u64, refactorizations: u64, nodes: u64) {
        self.pivots.fetch_add(pivots, Ordering::Relaxed);
        self.refactorizations
            .fetch_add(refactorizations, Ordering::Relaxed);
        self.nodes.fetch_add(nodes, Ordering::Relaxed);
    }

    pub(crate) fn lookup(&self, fp: u64) -> Option<Arc<Basis>> {
        let found = lock(&self.bases).get(&fp).cloned();
        if found.is_some() {
            self.warm_attempts.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    pub(crate) fn store(&self, fp: u64, basis: Arc<Basis>) {
        lock(&self.bases).insert(fp, basis);
    }

    pub(crate) fn note_warm_hit(&self) {
        self.warm_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_cold(&self) {
        self.cold_solves.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn solution_lookup(&self, key: u128) -> Option<Arc<MipSolution>> {
        let found = lock(&self.solutions).get(&key).cloned();
        if found.is_some() {
            self.solution_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    pub(crate) fn solution_store(&self, key: u128, solution: Arc<MipSolution>) {
        lock(&self.solutions).insert(key, solution);
    }

    /// Serializes every stored basis and memoized solution into a store
    /// payload (maps are key-ordered, so the bytes are deterministic).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let bases = lock(&self.bases);
        let mut w = ByteWriter::new();
        w.u64(bases.len() as u64);
        for (fp, basis) in bases.iter() {
            w.u64(*fp);
            w.u64(basis.basic.len() as u64);
            for &col in &basis.basic {
                w.u64(col as u64);
            }
            w.u64(basis.status.len() as u64);
            for &s in &basis.status {
                w.u8(match s {
                    Status::Basic => 0,
                    Status::Lower => 1,
                    Status::Upper => 2,
                });
            }
        }
        let solutions = lock(&self.solutions);
        w.u64(solutions.len() as u64);
        for (key, sol) in solutions.iter() {
            w.u128(*key);
            w.f64(sol.objective);
            w.u64(sol.values.len() as u64);
            for &v in &sol.values {
                w.f64(v);
            }
            w.u64(sol.nodes as u64);
            w.u8(u8::from(sol.proven_optimal));
        }
        w.into_bytes()
    }

    /// Replaces the stored bases and memoized solutions with the
    /// payload's; `0` on any malformed byte (and the store is left
    /// unchanged — the fall-back-to-cold path). A reloaded basis is only
    /// ever *attempted*: the simplex refactorizes and falls back to a cold
    /// solve if it does not fit its problem. A reloaded solution is keyed
    /// by a content hash of the complete problem plus solver
    /// configuration, so a stale file simply never matches.
    ///
    /// Returns the total number of entries (bases plus solutions) now
    /// stored.
    pub fn load_bytes(&self, payload: &[u8]) -> usize {
        let mut r = ByteReader::new(payload);
        let Some(n) = r.u64().and_then(|n| usize::try_from(n).ok()) else {
            return 0;
        };
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let Some(fp) = r.u64() else { return 0 };
            let Some(basic) = r.u64_vec() else { return 0 };
            let basic: Vec<usize> = basic.iter().map(|&c| c as usize).collect();
            let Some(len) = r.u64().and_then(|n| usize::try_from(n).ok()) else {
                return 0;
            };
            if len > payload.len() {
                return 0;
            }
            let mut status = Vec::with_capacity(len);
            for _ in 0..len {
                status.push(match r.u8() {
                    Some(0) => Status::Basic,
                    Some(1) => Status::Lower,
                    Some(2) => Status::Upper,
                    _ => return 0,
                });
            }
            entries.insert(fp, Arc::new(Basis { basic, status }));
        }
        let Some(n_sol) = r.u64().and_then(|n| usize::try_from(n).ok()) else {
            return 0;
        };
        let mut sol_entries = BTreeMap::new();
        for _ in 0..n_sol {
            let Some(key) = r.u128() else { return 0 };
            let Some(objective) = r.f64() else { return 0 };
            let Some(len) = r.u64().and_then(|n| usize::try_from(n).ok()) else {
                return 0;
            };
            if len > payload.len() {
                return 0;
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                let Some(v) = r.f64() else { return 0 };
                values.push(v);
            }
            let Some(nodes) = r.u64().and_then(|n| usize::try_from(n).ok()) else {
                return 0;
            };
            let proven_optimal = match r.u8() {
                Some(0) => false,
                Some(1) => true,
                _ => return 0,
            };
            sol_entries.insert(
                key,
                Arc::new(MipSolution {
                    objective,
                    values,
                    nodes,
                    proven_optimal,
                }),
            );
        }
        if !r.is_empty() {
            return 0;
        }
        let mut bases = lock(&self.bases);
        let mut solutions = lock(&self.solutions);
        *bases = entries;
        *solutions = sol_entries;
        bases.len() + solutions.len()
    }

    /// Saves the basis store to `dir/`[`BASIS_FILE_NAME`] (atomically).
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::Store`] on any underlying filesystem
    /// failure.
    pub fn save_to(&self, dir: &Path) -> smart_units::Result<()> {
        Store::write_file(
            &dir.join(BASIS_FILE_NAME),
            BASIS_TAG,
            BASIS_VERSION,
            self.to_bytes(),
        )?;
        Ok(())
    }

    /// Loads `dir/`[`BASIS_FILE_NAME`] into this context; returns how many
    /// entries (bases plus memoized solutions) are now stored. A missing,
    /// corrupted, truncated, or version-mismatched file loads zero —
    /// solves start cold.
    pub fn load_from(&self, dir: &Path) -> usize {
        let Some(payload) = Store::read_file(&dir.join(BASIS_FILE_NAME), BASIS_TAG, BASIS_VERSION)
        else {
            return 0;
        };
        self.load_bytes(&payload)
    }
}

/// Store tag of the warm-start basis file.
const BASIS_TAG: &str = "smart-ilp-bases";

/// Bump when the serialized basis/solution layout changes.
const BASIS_VERSION: u32 = 2;

/// File name of the basis store inside a `--cache-dir`.
pub const BASIS_FILE_NAME: &str = "ilp-bases.bin";

/// Fingerprint of a problem's warm-start-compatible structure: sense,
/// variables (bounds, integrality, objective), and constraint matrix
/// (relation + terms) — everything *except* the right-hand sides, which a
/// stored basis stays dual-feasible across.
#[must_use]
pub(crate) fn fingerprint(p: &Problem) -> u64 {
    let mut h = DefaultHasher::new();
    (p.num_vars() as u64).hash(&mut h);
    (p.num_constraints() as u64).hash(&mut h);
    matches!(p.sense, crate::problem::Sense::Maximize).hash(&mut h);
    for v in &p.variables {
        v.lower.to_bits().hash(&mut h);
        v.upper.to_bits().hash(&mut h);
        v.integer.hash(&mut h);
        v.objective.to_bits().hash(&mut h);
    }
    for c in &p.constraints {
        (c.relation as u8).hash(&mut h);
        (c.terms.len() as u64).hash(&mut h);
        for &(v, k) in &c.terms {
            (v.index() as u64).hash(&mut h);
            k.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Hashable view of everything that determines a deterministic solve's
/// outcome: the complete problem (including right-hand sides, which the
/// structural [`fingerprint`] deliberately skips), the incumbent seed, and
/// the solver configuration. Variable names are excluded — they never
/// influence the search.
struct SolveKey<'a> {
    problem: &'a Problem,
    seed: Option<&'a [f64]>,
    node_limit: usize,
    warm_start: bool,
}

impl Hash for SolveKey<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let p = self.problem;
        (p.num_vars() as u64).hash(h);
        (p.num_constraints() as u64).hash(h);
        matches!(p.sense, crate::problem::Sense::Maximize).hash(h);
        for v in &p.variables {
            v.lower.to_bits().hash(h);
            v.upper.to_bits().hash(h);
            v.integer.hash(h);
            v.objective.to_bits().hash(h);
        }
        for c in &p.constraints {
            (c.relation as u8).hash(h);
            c.rhs.to_bits().hash(h);
            (c.terms.len() as u64).hash(h);
            for &(v, k) in &c.terms {
                (v.index() as u64).hash(h);
                k.to_bits().hash(h);
            }
        }
        match self.seed {
            None => 0u8.hash(h),
            Some(vals) => {
                1u8.hash(h);
                (vals.len() as u64).hash(h);
                for v in vals {
                    v.to_bits().hash(h);
                }
            }
        }
        (self.node_limit as u64).hash(h);
        self.warm_start.hash(h);
    }
}

/// 128-bit exact-solve key for the solution memo (see [`SolveKey`]).
#[must_use]
pub(crate) fn solution_key(
    problem: &Problem,
    seed: Option<&[f64]>,
    node_limit: usize,
    warm_start: bool,
) -> u128 {
    content_hash(&SolveKey {
        problem,
        seed,
        node_limit,
        warm_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense};

    fn knapsack(rhs: f64, weight: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        p.set_objective(a, 3.0);
        p.set_objective(b, 2.0);
        p.add_constraint(&[(a, weight), (b, 1.0)], Relation::Le, rhs);
        p
    }

    #[test]
    fn fingerprint_ignores_rhs_but_not_matrix() {
        let base = fingerprint(&knapsack(2.0, 1.0));
        assert_eq!(base, fingerprint(&knapsack(5.0, 1.0)), "rhs-only change");
        assert_ne!(base, fingerprint(&knapsack(2.0, 4.0)), "matrix change");
    }

    #[test]
    fn basis_store_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("smart-ilp-bases-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ctx = SolverContext::new();
        assert_eq!(ctx.load_from(&dir), 0, "missing file loads cold");
        ctx.store(
            11,
            Arc::new(Basis {
                basic: vec![0, 3],
                status: vec![Status::Basic, Status::Lower, Status::Upper, Status::Basic],
            }),
        );
        ctx.store(
            5,
            Arc::new(Basis {
                basic: vec![1],
                status: vec![Status::Lower, Status::Basic],
            }),
        );
        ctx.solution_store(
            0xdead_beef_u128 << 64 | 7,
            Arc::new(MipSolution {
                objective: 42.5,
                values: vec![1.0, 0.0, 3.0],
                nodes: 17,
                proven_optimal: true,
            }),
        );
        assert_eq!(ctx.to_bytes(), ctx.to_bytes(), "deterministic bytes");
        ctx.save_to(&dir).expect("saves");

        let warm = SolverContext::new();
        assert_eq!(warm.load_from(&dir), 3, "2 bases + 1 solution");
        let reloaded = warm.lookup(11).expect("stored basis");
        assert_eq!(reloaded.basic, vec![0, 3]);
        assert_eq!(
            reloaded.status,
            vec![Status::Basic, Status::Lower, Status::Upper, Status::Basic]
        );
        let sol = warm
            .solution_lookup(0xdead_beef_u128 << 64 | 7)
            .expect("stored solution");
        assert_eq!(sol.objective, 42.5);
        assert_eq!(sol.values, vec![1.0, 0.0, 3.0]);
        assert_eq!(sol.nodes, 17);
        assert!(sol.proven_optimal);
        assert_eq!(warm.stats().solution_hits, 1);

        // Truncation and bit corruption fall back to cold.
        let path = dir.join(BASIS_FILE_NAME);
        let good = std::fs::read(&path).expect("reads");
        std::fs::write(&path, &good[..good.len() / 2]).expect("writes");
        assert_eq!(SolverContext::new().load_from(&dir), 0);
        let mut bad = good;
        let mid = bad.len() / 2;
        bad[mid] ^= 0x04;
        std::fs::write(&path, &bad).expect("writes");
        assert_eq!(SolverContext::new().load_from(&dir), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let ctx = SolverContext::new();
        let err = ctx
            .save_to(Path::new("/proc/definitely/not/writable"))
            .expect_err("must fail, not panic");
        assert!(
            matches!(err, smart_units::SmartError::Store { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn stats_track_storage() {
        let ctx = SolverContext::new();
        assert_eq!(ctx.stats(), SolverContextStats::default());
        let basis = Arc::new(crate::revised::Basis {
            basic: vec![2],
            status: vec![
                crate::revised::Status::Lower,
                crate::revised::Status::Lower,
                crate::revised::Status::Basic,
            ],
        });
        ctx.store(7, basis);
        assert_eq!(ctx.stats().stored_bases, 1);
        assert!(ctx.lookup(7).is_some());
        assert!(ctx.lookup(8).is_none());
        assert_eq!(ctx.stats().warm_attempts, 1);
    }
}
