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
//! (one mask, `revised::binding_rows`, decides both): it cannot change
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
//! All three are [`smart_units::memo::Table`]s. The bases and solutions
//! persist through the tables' own store code, one file per record type
//! ([`Basis`] in `ilp-bases.bin`, [`MipSolution`] in `ilp-solutions.bin`),
//! so each file falls back cold on its own; the structures never persist.
//!
//! The context is `Sync`: one instance can be shared across the experiment
//! runner's worker threads (the tables and the counters are
//! mutex-guarded), matching how `smart_report::parallel_map` fans sweep
//! points out.

use crate::problem::Problem;
use crate::revised::{Basis, Status};
use crate::solver::MipSolution;
use smart_trace::Tracer;
use smart_units::codec::{ByteReader, ByteWriter, ContentHasher};
use smart_units::memo::{Persist, Table};
use smart_units::sync::lock;
use std::any::Any;
use std::hash::Hasher;
use std::path::Path;
use std::sync::{Arc, Mutex};

smart_units::work_record! {
    /// How much reuse a [`SolverContext`] delivered and how much work its
    /// searches did, plus the sizes of its tables, each field named as its
    /// `ilp.*` metric. Each search counts into a record of its own, added
    /// to the context's.
    pub struct SolverContextStats {
        counters {
            /// Solves that found a stored basis for their problem structure.
            warm_attempts,
            /// Warm attempts that actually reoptimized from the stored basis
            /// (no cold fallback).
            warm_hits,
            /// Solves that started cold (no stored basis, or fallback).
            cold_solves,
            /// Solves answered verbatim from the exact-match solution memo
            /// (branch & bound skipped entirely).
            solution_hits,
            /// Simplex pivots across every solve (both phases, all nodes).
            pivots,
            /// Primal simplex iterations that ended in a bound flip (no basis
            /// change), across every solve.
            bound_flips,
            /// Basis-inverse refactorizations across every solve.
            refactorizations,
            /// Branch & bound nodes explored across every solve.
            nodes,
            /// Constraint rows of every searched problem (memo hits excluded).
            rows,
            /// LP rows the presolve kept of those `rows`; the rest could never
            /// bind and were dropped.
            rows_kept,
            /// Columns (variables) of every searched problem.
            cols,
            /// Nonzero constraint coefficients of every searched problem.
            nonzeros,
            /// Integer columns whose bounds the presolve tightened, over every
            /// searched problem ([`crate::revised::StandardForm::tighten`]).
            cols_fixed,
            /// Rows whose right-hand side the presolve's gcd rounding moved,
            /// over every searched problem.
            rows_rounded,
            /// Searches that stopped at the node limit with open nodes (their
            /// solutions are not proven optimal).
            node_limited,
        }
        gauges {
            /// Distinct problem structures with a stored basis.
            stored_bases,
            /// Distinct exact problems with a memoized solution.
            stored_solutions,
            /// Problem structures in the in-memory table
            /// ([`SolverContext::structure`]).
            structures,
        }
    }
}

/// Shared warm-start state, solution memo and work counters: the one
/// argument every [`crate::solver::Solver::solve`] takes. Production
/// callers thread one context per run through
/// `smart_compiler::formulation::compile_layer_ctx` (the timing cache
/// owns it); a one-off solve passes `&SolverContext::new()`.
#[derive(Debug, Default)]
pub struct SolverContext {
    /// Root bases by structure fingerprint.
    bases: Table<Basis>,
    /// Searched solutions by [`solution_key`].
    solutions: Table<MipSolution>,
    /// Caller-built structures by key; never persisted.
    structures: Table<dyn Any + Send + Sync>,
    /// Running counter totals; the gauges stay zero here and are read
    /// from the tables by [`SolverContext::stats`].
    stats: Mutex<SolverContextStats>,
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

    /// Current counters, with the tables' sizes as the gauges.
    #[must_use]
    pub fn stats(&self) -> SolverContextStats {
        SolverContextStats {
            stored_bases: self.bases.len(),
            stored_solutions: self.solutions.len(),
            structures: self.structures.len(),
            ..*lock(&self.stats)
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

    /// Adds one finished search's work record to the context's counters.
    pub(crate) fn note_search(&self, work: SolverContextStats) {
        *lock(&self.stats) += work;
    }

    /// The structure `build` returns, built on the first request for `key`
    /// and shared by every later one. For callers that solve one problem
    /// structure at many right-hand sides: the compiler keys each layer's
    /// allocation ILP by everything its rows depend on, and instantiates
    /// the stored one per design point. `key` must determine what `build`
    /// returns. The table lives in memory only: it is never persisted and
    /// is dropped with the context.
    pub fn structure<T: Any + Send + Sync>(&self, key: u128, build: impl FnOnce() -> T) -> Arc<T> {
        if let Some(found) = self.structures.get(key).and_then(|s| s.downcast().ok()) {
            return found;
        }
        // Built outside the table's lock, so workers building other
        // structures never wait. Two racing builds of one key are equal.
        let built = Arc::new(build());
        self.structures.insert(key, Arc::clone(&built) as _);
        built
    }

    pub(crate) fn lookup(&self, fp: u64) -> Option<Arc<Basis>> {
        let found = self.bases.get(u128::from(fp));
        lock(&self.stats).warm_attempts += u64::from(found.is_some());
        found
    }

    pub(crate) fn store(&self, fp: u64, basis: Arc<Basis>) {
        self.bases.insert(u128::from(fp), basis);
    }

    /// The memoized solution under `key` if `accept` takes it, counted as
    /// a solution hit.
    pub(crate) fn solution_lookup(
        &self,
        key: u128,
        accept: impl FnOnce(&MipSolution) -> bool,
    ) -> Option<Arc<MipSolution>> {
        let found = self.solutions.get(key).filter(|s| accept(s));
        lock(&self.stats).solution_hits += u64::from(found.is_some());
        found
    }

    pub(crate) fn solution_store(&self, key: u128, solution: Arc<MipSolution>) {
        self.solutions.insert(key, solution);
    }

    /// Saves the stored bases to `dir/ilp-bases.bin` and the memoized
    /// solutions to `dir/ilp-solutions.bin` (each atomically). Both are
    /// attempted even if the first fails.
    ///
    /// # Errors
    ///
    /// The first [`smart_units::SmartError::Store`] of the two saves.
    pub fn save_to(&self, dir: &Path) -> smart_units::Result<()> {
        self.bases.save(dir).and(self.solutions.save(dir))
    }

    /// Loads both stores of [`SolverContext::save_to`] from `dir`; returns
    /// how many entries (bases plus memoized solutions) they hold. Each
    /// file loads on its own: a missing, corrupted, truncated or
    /// version-mismatched one loads zero and leaves its table unchanged.
    /// A reloaded basis is only ever *attempted*: the simplex refactorizes
    /// and falls back to a cold solve if it does not fit its problem. A
    /// reloaded solution is keyed by a content hash of the problem its
    /// search saw plus the solver configuration, so a stale entry simply
    /// never matches, and it replays only if it is a feasible point of
    /// the problem at hand.
    pub fn load_from(&self, dir: &Path) -> usize {
        self.bases.load(dir) + self.solutions.load(dir)
    }
}

/// A root basis in problem coordinates: its basic columns, then one status
/// byte per column.
impl Persist for Basis {
    const TAG: &'static str = "smart-ilp-bases";
    /// Bump when the record layout or the meaning of a stored key changes
    /// (3: solution keys leave out never-binding rows; 4: both keys are
    /// hashed from the structure digests; 5: bases and solutions are two
    /// stores, the bases keyed by the widened fingerprint).
    const VERSION: u32 = 5;
    const FILE_NAME: &'static str = "ilp-bases.bin";

    fn write(&self, w: &mut ByteWriter) {
        w.u64(self.basic.len() as u64);
        for &col in &self.basic {
            w.u64(col as u64);
        }
        w.u64(self.status.len() as u64);
        for &s in &self.status {
            w.u8(match s {
                Status::Basic => 0,
                Status::Lower => 1,
                Status::Upper => 2,
            });
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        let basic = r.u64_vec()?.into_iter().map(|c| usize::try_from(c).ok());
        let basic = basic.collect::<Option<_>>()?;
        let status = (0..r.u64()?)
            .map(|_| match r.u8()? {
                0 => Some(Status::Basic),
                1 => Some(Status::Lower),
                2 => Some(Status::Upper),
                _ => None,
            })
            .collect::<Option<_>>()?;
        Some(Self { basic, status })
    }
}

/// A searched solution: objective, values, node count, optimality flag.
impl Persist for MipSolution {
    const TAG: &'static str = "smart-ilp-solutions";
    /// Bump when the record layout changes or a search can return another
    /// solution for the same key (2: the integer presolve lets searches
    /// that stopped at the node limit finish, so a version-1 entry can hold
    /// a node-limited answer below the optimum a search now proves).
    const VERSION: u32 = 2;
    const FILE_NAME: &'static str = "ilp-solutions.bin";

    fn write(&self, w: &mut ByteWriter) {
        w.f64(self.objective);
        w.u64(self.values.len() as u64);
        for &v in &self.values {
            w.f64(v);
        }
        w.u64(self.nodes as u64);
        w.u8(u8::from(self.proven_optimal));
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(Self {
            objective: r.f64()?,
            values: r.u64_vec()?.into_iter().map(f64::from_bits).collect(),
            nodes: usize::try_from(r.u64()?).ok()?,
            proven_optimal: match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            },
        })
    }
}

/// 128-bit solve key for the solution memo: everything that determines a
/// deterministic solve's outcome. The variable digest, the solver
/// configuration and the validated incumbent seed (`None` when there is
/// none or it was rejected) go first, then the hash and right-hand side
/// of each row the search can see and, last, how many rows that was; the
/// words stream straight into one [`ContentHasher`].
/// `binding` is [`crate::revised::binding_rows`] of `problem`: rows that
/// never bind are left out. They hold everywhere inside the variable
/// bounds, so they change neither the feasible set nor the presolved LP,
/// and a problem that differs from an earlier one only in such rows
/// replays the earlier search.
#[must_use]
pub(crate) fn solution_key(
    problem: &Problem,
    binding: &[bool],
    seed: Option<&[f64]>,
    node_limit: usize,
    warm_start: bool,
) -> u128 {
    let mut h = ContentHasher::default();
    h.write_u128(problem.digests().variables);
    h.write_usize(node_limit);
    h.write_u64(u64::from(warm_start));
    match seed {
        None => h.write_u64(0),
        Some(vals) => {
            h.write_u64(1);
            h.write_usize(vals.len());
            for v in vals {
                h.write_u64(v.to_bits());
            }
        }
    }
    let mut rows = 0usize;
    for ((row, rhs), _) in problem
        .rows()
        .iter()
        .zip(problem.rhs())
        .zip(binding)
        .filter(|(_, &binds)| binds)
    {
        h.write_u128(row.hash);
        h.write_u64(rhs.to_bits());
        rows += 1;
    }
    h.write_usize(rows);
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Problem, Relation, Sense, VarId};
    use crate::revised::{binding_rows, StandardForm};
    use crate::solver::Solver;

    fn knapsack(rhs: f64, weight: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.binary();
        let b = p.binary();
        p.set_objective(a, 3.0);
        p.set_objective(b, 2.0);
        p.add_constraint(&[(a, weight), (b, 1.0)], Relation::Le, rhs);
        p
    }

    fn fingerprint(p: &Problem) -> u64 {
        p.digests().fingerprint
    }

    /// A fresh scratch directory per test.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smart-ilp-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// `writer`'s stores, saved and loaded into a fresh context; returns it
    /// with the number of entries loaded.
    fn reload(writer: &SolverContext, tag: &str) -> (SolverContext, usize) {
        let dir = temp_dir(tag);
        writer.save_to(&dir).expect("saves");
        let ctx = SolverContext::new();
        let loaded = ctx.load_from(&dir);
        std::fs::remove_dir_all(&dir).ok();
        (ctx, loaded)
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
        let keys = |q: &Problem| {
            let key = solution_key(q, &binding_rows(q), None, 100, true);
            (fingerprint(q), key)
        };
        let p = knapsack(2.0, 1.0);
        let base = keys(&p);
        let mut with_var = p.clone();
        with_var.binary();
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
        // A store whose memoized solution for a 3-variable knapsack holds
        // one value: it loads, but replaying it made `MipSolution::value`
        // index past its end. The solves carry a seed and a node limit, as
        // the compiler's do; both are part of the memo key.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..3).map(|_| p.binary()).collect();
        for (&v, c) in vars.iter().zip([10.0, 6.0, 4.0]) {
            p.set_objective(v, c);
        }
        p.add_constraint(
            &[(vars[0], 5.0), (vars[1], 4.0), (vars[2], 3.0)],
            Relation::Le,
            7.0,
        );
        let seed = vec![0.0, 0.0, 1.0];
        let solver = Solver::new()
            .with_node_limit(2_000)
            .with_incumbent(seed.clone());
        let writer = SolverContext::new();
        let expected = solver.solve(&p, &writer).expect("feasible");
        let key = solution_key(&p, &binding_rows(&p), Some(&seed), 2_000, true);
        let mut short = MipSolution::clone(&writer.solutions.get(key).expect("memoized"));
        short.values.truncate(1);
        writer.solution_store(key, Arc::new(short));
        let (ctx, loaded) = reload(&writer, "short-solution");
        assert_eq!(loaded, 2, "the store loads: basis + solution");
        let s = solver.solve(&p, &ctx).expect("searches");
        assert_eq!(s, expected, "equals a fresh solve");
        assert_eq!(s.value(vars[2]), expected.value(vars[2]));
        let stats = ctx.stats();
        assert_eq!(stats.solution_hits, 0, "{stats:?}");
        assert_eq!(stats.warm_hits + stats.cold_solves, 1, "{stats:?}");
        // The search overwrote the entry, so the next solve replays it.
        assert_eq!(solver.solve(&p, &ctx).expect("replays"), expected);
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
        let (reloaded, _) = reload(&ctx, "structures");
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
        let dir = temp_dir("bases");
        let ctx = SolverContext::new();
        assert_eq!(ctx.load_from(&dir), 0, "missing files load cold");
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

        // Truncation and bit corruption of one file load it cold; the
        // other file still loads.
        for (file, other) in [(Basis::FILE_NAME, 1), (MipSolution::FILE_NAME, 2)] {
            let path = dir.join(file);
            let good = std::fs::read(&path).expect("reads");
            std::fs::write(&path, &good[..good.len() / 2]).expect("writes");
            assert_eq!(SolverContext::new().load_from(&dir), other, "{file}");
            let mut bad = good.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x04;
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(SolverContext::new().load_from(&dir), other, "{file}");
            std::fs::write(&path, &good).expect("writes");
        }
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
            let (ctx, loaded) = reload(&writer, "malformed");
            assert_eq!(loaded, 1, "the store loads");
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

    /// A record whose fields hold `base + 1`, `base + 2`, ... in
    /// declaration order: every value distinct.
    fn numbered(base: u64) -> SolverContextStats {
        let n = |k: u64| base + k;
        SolverContextStats {
            warm_attempts: n(1),
            warm_hits: n(2),
            cold_solves: n(3),
            solution_hits: n(4),
            pivots: n(5),
            bound_flips: n(6),
            refactorizations: n(7),
            nodes: n(8),
            rows: n(9),
            rows_kept: n(10),
            cols: n(11),
            nonzeros: n(12),
            cols_fixed: n(13),
            rows_rounded: n(14),
            node_limited: n(15),
            stored_bases: n(16) as usize,
            stored_solutions: n(17) as usize,
            structures: n(18) as usize,
        }
    }

    #[test]
    fn one_declaration_lists_sums_and_subtracts_every_counter() {
        let (a, b) = (numbered(0), numbered(100));
        assert!(a.counters().map(|c| c.1).eq(1..=15), "declaration order");
        assert!(a.gauges().map(|g| g.1).eq(16..=18), "the table sizes");
        let mut sum = a;
        sum += b;
        let sums = a.counters().zip(b.counters()).map(|(x, y)| x.1 + y.1);
        assert!(sum.counters().map(|c| c.1).eq(sums), "{sum:?}");
        assert!(sum.gauges().eq(a.gauges()), "+= leaves the gauges: {sum:?}");
        assert_eq!(sum.since(&b), a);
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
