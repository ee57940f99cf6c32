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
//! Alongside the basis store sits a **solution memo**: full MIP solutions
//! keyed by a 128-bit content hash over what the search sees — the
//! variables and objective, every row that can bind (relation, terms and
//! right-hand side), the validated incumbent seed, and the solver
//! configuration. A row that can never bind inside the variable bounds is
//! left out of the key exactly as the presolve leaves it out of the LP
//! (one predicate, `revised::never_binds`, decides both): it cannot change
//! the feasible set, so problems that differ only in such rows (design
//! points whose RANDOM bank count or capacity no allocation can exhaust,
//! say) share one answer. The branch & bound search is deterministic, so
//! such a solve replays the stored [`MipSolution`] — same objective,
//! values, and optimality flag, and the node count of the search it
//! replays — and skips the search entirely. This is what makes a warm
//! `--cache-dir` rerun of the ILP ablation near-free: the root-basis warm
//! start only shortcuts the root relaxation, while the memo shortcuts the
//! whole tree. Both keys come from the problem structure's digests
//! (computed once per structure, see [`crate::problem`]): the basis key is
//! the structure fingerprint, and the solution key hashes the variable
//! digest and each kept row's digest and right-hand side in one pass.
//!
//! A third, in-memory table holds caller-built problem structures
//! ([`SolverContext::structure`]): the compiler builds each layer's
//! allocation ILP once per context and instantiates it per design point.
//!
//! The context is `Sync`: one instance can be shared across the experiment
//! runner's worker threads (the map is mutex-guarded, the counters are
//! atomic), matching how `smart_report::parallel_map` fans sweep points
//! out.

use crate::problem::Problem;
use crate::revised::{never_binds, Basis, Status};
use crate::solver::MipSolution;
use smart_trace::Tracer;
use smart_units::codec::{content_hash, ByteReader, ByteWriter, Store};
use smart_units::sync::lock;
use std::any::Any;
use std::collections::BTreeMap;
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
    /// Constraint rows of every searched problem (memo hits excluded).
    pub rows: u64,
    /// LP rows the presolve kept of those `rows`; the rest could never
    /// bind and were dropped.
    pub rows_kept: u64,
    /// Columns (variables) of every searched problem.
    pub cols: u64,
    /// Nonzero constraint coefficients of every searched problem.
    pub nonzeros: u64,
    /// Problem structures in the in-memory table
    /// ([`SolverContext::structure`]).
    pub structures: usize,
}

/// The work one branch & bound search performed, folded into the
/// context's counters by [`SolverContext::note_search`].
#[derive(Debug, Default)]
pub(crate) struct SearchWork {
    pub pivots: u64,
    pub refactorizations: u64,
    pub nodes: usize,
    /// Constraint rows of the searched problem.
    pub rows: usize,
    /// LP rows its presolved form kept.
    pub rows_kept: usize,
    /// Columns of the searched problem.
    pub cols: usize,
    /// Nonzero constraint coefficients of the searched problem.
    pub nonzeros: usize,
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
    /// Caller-built structures by key; never persisted.
    structures: Mutex<BTreeMap<u128, Arc<dyn Any + Send + Sync>>>,
    warm_attempts: AtomicU64,
    warm_hits: AtomicU64,
    cold_solves: AtomicU64,
    solution_hits: AtomicU64,
    pivots: AtomicU64,
    refactorizations: AtomicU64,
    nodes: AtomicU64,
    rows: AtomicU64,
    rows_kept: AtomicU64,
    cols: AtomicU64,
    nonzeros: AtomicU64,
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
            rows: self.rows.load(Ordering::Relaxed),
            rows_kept: self.rows_kept.load(Ordering::Relaxed),
            cols: self.cols.load(Ordering::Relaxed),
            nonzeros: self.nonzeros.load(Ordering::Relaxed),
            structures: lock(&self.structures).len(),
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
    pub(crate) fn note_search(&self, work: &SearchWork) {
        self.pivots.fetch_add(work.pivots, Ordering::Relaxed);
        self.refactorizations
            .fetch_add(work.refactorizations, Ordering::Relaxed);
        self.nodes.fetch_add(work.nodes as u64, Ordering::Relaxed);
        self.rows.fetch_add(work.rows as u64, Ordering::Relaxed);
        self.rows_kept
            .fetch_add(work.rows_kept as u64, Ordering::Relaxed);
        self.cols.fetch_add(work.cols as u64, Ordering::Relaxed);
        self.nonzeros
            .fetch_add(work.nonzeros as u64, Ordering::Relaxed);
    }

    /// The structure `build` returns, built on the first request for `key`
    /// and shared by every later one. For callers that solve one problem
    /// structure at many right-hand sides: the compiler keys each layer's
    /// allocation ILP by everything its rows depend on, and instantiates
    /// the stored one per design point. `key` must determine what `build`
    /// returns. The table lives in memory only: it is never persisted and
    /// is dropped with the context.
    pub fn structure<T: Any + Send + Sync>(&self, key: u128, build: impl FnOnce() -> T) -> Arc<T> {
        let stored = |table: &BTreeMap<u128, Arc<dyn Any + Send + Sync>>| {
            table
                .get(&key)
                .and_then(|s| Arc::clone(s).downcast::<T>().ok())
        };
        if let Some(found) = stored(&lock(&self.structures)) {
            return found;
        }
        // Built outside the lock, so workers building other structures
        // never wait. Of two racing builds of one key the first stored
        // wins; both are equal.
        let built = Arc::new(build());
        let mut table = lock(&self.structures);
        if let Some(found) = stored(&table) {
            return found;
        }
        table.insert(key, Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        built
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

    /// The memoized solution under `key` if `accept` takes it, counted as
    /// a solution hit.
    pub(crate) fn solution_lookup(
        &self,
        key: u128,
        accept: impl FnOnce(&MipSolution) -> bool,
    ) -> Option<Arc<MipSolution>> {
        let found = lock(&self.solutions)
            .get(&key)
            .cloned()
            .filter(|s| accept(s));
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
    /// by a content hash of the problem its search saw plus the solver
    /// configuration, so a stale entry simply never matches; a file
    /// written under another key definition carries another store version
    /// and loads nothing.
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

/// Bump when the serialized basis/solution layout or the meaning of a
/// stored key changes (3: solution keys leave out never-binding rows;
/// 4: both keys are hashed from the structure digests).
const BASIS_VERSION: u32 = 4;

/// File name of the basis store inside a `--cache-dir`.
pub const BASIS_FILE_NAME: &str = "ilp-bases.bin";

/// 128-bit solve key for the solution memo: everything that determines a
/// deterministic solve's outcome. One pass over the structure's digests
/// lays out the variable digest, the number of rows the search can see and
/// the digest and right-hand side of each of them, then the validated
/// incumbent seed (`None` when there is none or it was rejected) and the
/// solver configuration; the key is the content hash of that sequence.
/// Rows that [`never_binds`] holds are left out: they hold everywhere
/// inside the variable bounds, so they change neither the feasible set nor
/// the presolved LP, and a problem that differs from an earlier one only in
/// such rows replays the earlier search. Variable names are left out too:
/// they never influence the search.
#[must_use]
pub(crate) fn solution_key(
    problem: &Problem,
    seed: Option<&[f64]>,
    node_limit: usize,
    warm_start: bool,
) -> u128 {
    let halves = |x: u128| [(x >> 64) as u64, x as u64];
    let digests = problem.digests();
    let seed_len = seed.map_or(0, <[f64]>::len);
    let mut words = Vec::with_capacity(3 * digests.rows.len() + seed_len + 7);
    words.extend(halves(digests.variables));
    for (i, row) in digests.rows.iter().enumerate() {
        if !never_binds(problem, i) {
            words.extend(halves(row.hash));
            words.push(problem.constraint(i).rhs.to_bits());
        }
    }
    words.insert(2, (words.len() as u64 - 2) / 3);
    match seed {
        None => words.push(0),
        Some(vals) => {
            words.extend([1, vals.len() as u64]);
            words.extend(vals.iter().map(|v| v.to_bits()));
        }
    }
    words.extend([node_limit as u64, u64::from(warm_start)]);
    content_hash(&words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense, VarId};
    use crate::revised::StandardForm;
    use crate::solver::Solver;

    fn knapsack(rhs: f64, weight: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary("a");
        let b = p.binary("b");
        p.set_objective(a, 3.0);
        p.set_objective(b, 2.0);
        p.add_constraint(&[(a, weight), (b, 1.0)], Relation::Le, rhs);
        p
    }

    fn fingerprint(p: &Problem) -> u64 {
        p.digests().fingerprint
    }

    #[test]
    fn rhs_changes_share_the_digests() {
        let p = knapsack(2.0, 1.0);
        let mut looser = p.clone();
        looser.set_rhs(0, 5.0);
        assert!(std::ptr::eq(p.digests(), looser.digests()));
        assert_ne!(p, looser);
        looser.set_rhs(0, 2.0);
        assert_eq!(p, looser);
    }

    #[test]
    fn mutating_a_problem_after_its_digests_exist_changes_both_keys() {
        let keys = |q: &Problem| (fingerprint(q), solution_key(q, None, 100, true));
        let p = knapsack(2.0, 1.0);
        let base = keys(&p);
        let mut with_var = p.clone();
        with_var.binary("c");
        let mut with_objective = p.clone();
        with_objective.set_objective(VarId(0), 4.0);
        let mut with_row = p.clone();
        with_row.add_constraint(&[(VarId(0), 2.0)], Relation::Le, 1.0);
        for (what, q) in [
            ("new variable", with_var),
            ("set_objective", with_objective),
            ("add_constraint", with_row),
        ] {
            let (fp, key) = keys(&q);
            assert_ne!(fp, base.0, "{what}: fingerprint");
            assert_ne!(key, base.1, "{what}: solution key");
        }
        assert_eq!(keys(&p), base, "the original keeps its digests");
    }

    #[test]
    fn a_stored_solution_of_the_wrong_length_is_searched_again() {
        // A store file whose memoized solution for a 3-variable knapsack
        // holds one value: it passes the store's length checks and loads,
        // but replaying it made `MipSolution::value` index past its end.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = ["a", "b", "c"].iter().map(|n| p.binary(n)).collect();
        for (&v, c) in vars.iter().zip([10.0, 6.0, 4.0]) {
            p.set_objective(v, c);
        }
        p.add_constraint(
            &[(vars[0], 5.0), (vars[1], 4.0), (vars[2], 3.0)],
            Relation::Le,
            7.0,
        );
        let writer = SolverContext::new();
        let expected = Solver::new().solve(&p, &writer).expect("feasible");
        for sol in lock(&writer.solutions).values_mut() {
            Arc::make_mut(sol).values.truncate(1);
        }
        let ctx = SolverContext::new();
        assert_eq!(ctx.load_bytes(&writer.to_bytes()), 2, "basis + solution");
        let s = Solver::new().solve(&p, &ctx).expect("searches");
        assert_eq!(s, expected);
        assert_eq!(s.value(vars[2]), expected.value(vars[2]));
        let stats = ctx.stats();
        assert_eq!(stats.solution_hits, 0, "{stats:?}");
        assert_eq!(stats.warm_hits + stats.cold_solves, 1, "{stats:?}");
        // The search overwrote the entry, so the next solve replays it.
        assert_eq!(Solver::new().solve(&p, &ctx).expect("replays"), expected);
        assert_eq!(ctx.stats().solution_hits, 1);
    }

    #[test]
    fn structures_are_built_once_per_key_and_never_persisted() {
        let ctx = SolverContext::new();
        let mut builds = 0;
        for (key, weight) in [(1u128, 1.0), (2, 4.0), (1, 1.0), (2, 4.0)] {
            let p = ctx.structure(key, || {
                builds += 1;
                knapsack(2.0, weight)
            });
            assert_eq!(*p, knapsack(2.0, weight));
        }
        assert_eq!(builds, 2);
        assert_eq!(ctx.stats().structures, 2);
        let reloaded = SolverContext::new();
        reloaded.load_bytes(&ctx.to_bytes());
        assert_eq!(reloaded.stats().structures, 0);
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
            .solution_lookup(0xdead_beef_u128 << 64 | 7, |_| true)
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
    fn malformed_stored_bases_fall_back_cold_instead_of_panicking() {
        // Each basis passes the store's length checks. The first, on a
        // two-variable knapsack, made `Solver::solve` index past the
        // artificial columns ("the len is 0 but the index is 996").
        let one_row = knapsack(2.0, 1.0);
        let mut two_rows = one_row.clone();
        two_rows.add_constraint(&[(VarId(0), 2.0), (VarId(1), 1.0)], Relation::Le, 2.0);
        let (b, l) = (Status::Basic, Status::Lower);
        let cases = [
            (&one_row, vec![999], vec![l, l, b]),      // out of range
            (&two_rows, vec![2, 2], vec![l, l, b, l]), // repeated
            (&two_rows, vec![0, 3], vec![l, l, b, b]), // not marked basic
            (&two_rows, vec![2, 3], vec![b, l, b, b]), // a third basic column
        ];
        for (p, basic, status) in cases {
            let basis = Basis { basic, status };
            assert_eq!(StandardForm::build(p, None).restrict(&basis), None);
            let expected = Solver::new()
                .solve(p, &SolverContext::new())
                .expect("feasible");
            let writer = SolverContext::new();
            writer.store(fingerprint(p), Arc::new(basis));
            let ctx = SolverContext::new();
            assert_eq!(ctx.load_bytes(&writer.to_bytes()), 1, "the store loads");
            let s = Solver::new().solve(p, &ctx).expect("solves cold");
            assert_eq!(s, expected);
            let stats = ctx.stats();
            assert_eq!(
                (stats.warm_attempts, stats.warm_hits, stats.cold_solves),
                (1, 0, 1),
                "a rejected basis is a warm attempt that solves cold: {stats:?}"
            );
        }
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
