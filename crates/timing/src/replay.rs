//! The cycle-level replay engine: one layer's word streams, realignments,
//! spills, and compiler-scheduled prefetches replayed through the
//! heterogeneous SPM on integer accelerator cycles.
//!
//! The model is a deterministic event replay over the layer's iteration
//! DAG with three resources:
//!
//! * the **matrix unit**, busy `cycles_per_fold` per fold;
//! * the per-class **SHIFT staging arrays**, streaming one word per lane
//!   per SHIFT cycle — an iteration whose staging traffic outruns its
//!   compute shows up as `stream_stall_cycles`;
//! * the shared **RANDOM array channel**, a single arbitrated resource
//!   (bank parallelism is folded into its word rate, exactly as in
//!   `RandomArray::serve_stream`) that carries prefetch loads, fold-
//!   boundary realignment accesses, and PSum spill round trips. The
//!   arbitration is **demand-priority**: realignments, spills, and on-use
//!   streams are served first, and prefetch loads fill the issue slots
//!   left over (the internal `PriorityChannel`) — so a prefetch that
//!   contends with a demand burst arrives late and stalls compute, the
//!   effect the analytic evaluator's single `overlap_fraction` cannot
//!   express.
//!
//! DRAM overflow traffic (working set beyond the RANDOM capacity) moves on
//! its own channel at [`smart_core::config::DRAM_BANDWIDTH`], like the
//! analytic model's separate DRAM path.
//!
//! Every stall is attributed to a [`DataClass`]: the class of the
//! last-arriving prefetch, the class of the realignment that gated an
//! iteration, PSums for spill overruns, inputs for DRAM thrash.
//!
//! # Delta replay
//!
//! A sweep varies only [`TimingConfig`] knobs (buffer depth, RANDOM
//! bandwidth) while the layer's demand shares, schedules, and SHIFT
//! streaming are fixed per `(scheme, model)`. The replay is therefore
//! split in two:
//!
//! * [`LayerPrepass::build`] — the config-*independent* prepass: fold
//!   shares, per-iteration word demand, SHIFT service durations, spill and
//!   DRAM overflow shares, realignment counts, and the schedule's load and
//!   stream lists;
//! * [`LayerPrepass::replay`] — the cheap per-config finish pass, driven
//!   by a [`RandomCosts`] table of the (bandwidth-scaled) per-word RANDOM
//!   latency math.
//!
//! [`replay_layer`] is exactly the composition of the two, so a sweep that
//! reuses one prepass across configs is bit-identical to replaying each
//! point from scratch (the `prepass_replay_matches_full` test, plus the
//! `timing_delta_replay_equals_full_replay` property test at the workspace
//! root, pin this).

// lint:allow-file(index, replay indexes class and lane arrays sized by DataClass::ALL and the geometry)

use crate::config::TimingConfig;
use crate::report::TimingReport;
use crate::validate::LayerCompilation;
use smart_compiler::schedule::Location;
use smart_core::config::DRAM_BANDWIDTH;
use smart_core::eval::PSUM_SPILL_FACTOR;
use smart_spm::hetero::HeterogeneousSpm;
use smart_spm::service::SpmService;
use smart_systolic::trace::DataClass;
use smart_units::Frequency;

/// Precomputed per-word RANDOM-array latency math for one
/// `(scheme, clock, config)` point — the bandwidth-scaled read/write
/// latencies and the per-word issue interval that every load, stream,
/// spill, and realignment in the finish pass prices itself with, hoisted
/// out of the replay loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCosts {
    /// Accelerator clock period in seconds.
    period: f64,
    /// Scaled first-word read latency in seconds.
    rd_latency: f64,
    /// Scaled first-word write latency in seconds.
    wr_latency: f64,
    /// Scaled per-word issue interval (bank parallelism folded in).
    word_interval: f64,
    /// Cycles of one fold-boundary realignment access.
    pub realign_access: u64,
}

impl RandomCosts {
    /// The cost table for `spm`'s RANDOM array at `clock` under `cfg`'s
    /// bandwidth scale.
    #[must_use]
    pub fn new(spm: &HeterogeneousSpm, clock: Frequency, cfg: &TimingConfig) -> Self {
        let period = clock.period().as_s();
        let scale = cfg.random_time_scale();
        let random = &spm.random;
        let rd_latency = random.effective_read_latency().as_s() * scale;
        let wr_latency = random.write_latency.as_s() * scale;
        let word_interval = random.issue_interval.as_s() * scale / f64::from(random.banks);
        let realign_access = cycles_at(period, rd_latency);
        Self {
            period,
            rd_latency,
            wr_latency,
            word_interval,
            realign_access,
        }
    }

    /// Seconds to whole accelerator cycles (ceiling).
    #[must_use]
    pub fn cycles_of(&self, seconds: f64) -> u64 {
        cycles_at(self.period, seconds)
    }

    /// Cycles to read `words` words back-to-back (0 for an empty burst).
    #[must_use]
    pub fn read(&self, words: u64) -> u64 {
        if words == 0 {
            0
        } else {
            self.cycles_of(self.rd_latency + (words - 1) as f64 * self.word_interval)
        }
    }

    /// Cycles to write `words` words back-to-back (0 for an empty burst).
    #[must_use]
    pub fn write(&self, words: u64) -> u64 {
        if words == 0 {
            0
        } else {
            self.cycles_of(self.wr_latency + (words - 1) as f64 * self.word_interval)
        }
    }
}

/// Seconds to whole cycles at a clock `period`, as the replay has always
/// rounded (ceiling).
fn cycles_at(period: f64, seconds: f64) -> u64 {
    debug_assert!(seconds >= 0.0);
    (seconds / period).ceil() as u64
}

/// One prefetch load as the schedule recorded it, before the finish pass
/// buckets it by issue iteration (bucketing depends on the config's buffer
/// depth, so it cannot happen in the prepass). Kept in `dag.objects` order
/// so the finish pass reproduces `replay_layer`'s stable sort exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduledLoad {
    class: DataClass,
    fetch_iteration: u32,
    use_iteration: u32,
    words: u64,
}

/// The RANDOM channel under demand-priority arbitration.
///
/// Demand traffic (realignments, PSum spills, on-use streams) is served
/// work-conserving behind previous demand only; prefetch loads consume
/// the *gaps* between demand bursts, FIFO among themselves. The model is
/// optimistic for demand (a demand burst never waits on an in-flight
/// prefetch — banks preempt per access), which is exactly the
/// bank-conflict arbitration policy a prefetch engine would use.
struct PriorityChannel {
    /// Cursor behind which new demand queues.
    demand_free: u64,
    /// Demand busy intervals, non-overlapping, in start order.
    intervals: Vec<(u64, u64)>,
    /// Gap-time frontier for the prefetch FIFO.
    prefetch_frontier: u64,
    /// First interval the prefetch frontier has not yet passed.
    interval_idx: usize,
    /// Total busy cycles (demand + prefetch).
    busy: u64,
}

impl PriorityChannel {
    fn new() -> Self {
        Self {
            demand_free: 0,
            intervals: Vec::new(),
            prefetch_frontier: 0,
            interval_idx: 0,
            busy: 0,
        }
    }

    /// Serves a demand burst requested at `request`; returns completion.
    fn demand(&mut self, request: u64, work: u64) -> u64 {
        let start = request.max(self.demand_free);
        let done = start + work;
        if work > 0 {
            self.demand_free = done;
            self.busy += work;
            match self.intervals.last_mut() {
                Some(last) if last.1 >= start => last.1 = done,
                _ => self.intervals.push((start, done)),
            }
        }
        done
    }

    /// Serves a prefetch load issued at `issue` from leftover issue slots;
    /// returns completion.
    fn prefetch(&mut self, issue: u64, work: u64) -> u64 {
        let mut remaining = work;
        let mut t = issue.max(self.prefetch_frontier);
        self.busy += work;
        while remaining > 0 {
            while self
                .intervals
                .get(self.interval_idx)
                .is_some_and(|&(_, end)| end <= t)
            {
                self.interval_idx += 1;
            }
            match self.intervals.get(self.interval_idx) {
                Some(&(start, end)) if t >= start => {
                    t = end;
                    self.interval_idx += 1;
                }
                Some(&(start, end)) => {
                    let gap = (start - t).min(remaining);
                    t += gap;
                    remaining -= gap;
                    if remaining > 0 {
                        t = end;
                        self.interval_idx += 1;
                    }
                }
                None => {
                    t += remaining;
                    remaining = 0;
                }
            }
        }
        self.prefetch_frontier = t;
        t
    }
}

/// Splits `total` across iterations proportionally to each iteration's
/// fold share, exactly (prefix differences, so the shares sum to `total`).
fn proportional_shares(total: u64, folds_per_iter: &[u64], folds_total: u64) -> Vec<u64> {
    let mut shares = Vec::with_capacity(folds_per_iter.len());
    let mut cum = 0u64;
    let mut prev = 0u64;
    for &f in folds_per_iter {
        cum += f;
        // total <= ~2^40 words and cum <= folds_total <= ~2^24, so the
        // product fits u128 comfortably (and usually u64).
        let upto = (u128::from(total) * u128::from(cum) / u128::from(folds_total)) as u64;
        shares.push(upto - prev);
        prev = upto;
    }
    shares
}

/// The config-independent half of a layer replay: everything that depends
/// only on the compiled layer, the SPM geometry, and the clock — demand
/// word shares, SHIFT service durations, spill/DRAM overflow shares,
/// realignment counts, and the schedule's load and stream lists. Built
/// once per `(scheme, model)` layer and replayed per [`TimingConfig`] with
/// [`LayerPrepass::replay`]; a sweep amortizes the ILP compile *and* this
/// prepass across all its points.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPrepass {
    /// Layer name (copied into each report).
    name: String,
    /// (SHIFT, RANDOM, DRAM) bytes of the replayed schedule (copied into
    /// each report).
    placement_bytes: (u64, u64, u64),
    /// Iteration count of the DAG the schedule was compiled against.
    iterations: u32,
    /// Matrix-unit busy cycles per iteration.
    compute_per_iter: Vec<u64>,
    /// `max(compute, SHIFT in/out/weight service)` per iteration — the
    /// iteration's duration before exposed RANDOM/DRAM stalls.
    dur_per_iter: Vec<u64>,
    /// PSum spill round-trip words per iteration (zero when the PSum
    /// working set fits the output SHIFT array).
    spill_words: Vec<u64>,
    /// DRAM overflow bytes per iteration.
    dram_bytes: Vec<u64>,
    /// Fold-boundary realignment counts per class per iteration.
    realigns: Vec<(DataClass, Vec<u64>)>,
    /// Schedule prefetch loads in `dag.objects` order (bucketed per config
    /// by the finish pass, because the issue iteration depends on the
    /// buffer depth).
    loads: Vec<ScheduledLoad>,
    /// Unprefetchable (DRAM-placed) object streams, bucketed by use
    /// iteration and sorted by class — both config-independent.
    streams_by_iter: Vec<Vec<(DataClass, u64)>>,
}

impl LayerPrepass {
    /// Runs the config-independent prepass for the compiled layer `name`.
    ///
    /// # Panics
    ///
    /// Panics if the compilation's `dag`/`schedule` disagree on object
    /// count (they must come from the same compilation).
    #[must_use]
    pub fn build(
        name: &str,
        layer: &LayerCompilation,
        spm: &HeterogeneousSpm,
        clock: Frequency,
    ) -> Self {
        let LayerCompilation {
            mapping,
            demand,
            dag,
            schedule,
        } = layer;
        assert_eq!(
            dag.objects.len(),
            schedule.placements.len(),
            "schedule must belong to this DAG"
        );
        let period = clock.period().as_s();

        // --- Per-iteration static demand -------------------------------
        let iterations = dag.iterations as usize;
        let folds_total = mapping.folds().max(1);
        let base = folds_total / iterations as u64;
        let rem = (folds_total % iterations as u64) as usize;
        let folds_per_iter: Vec<u64> = (0..iterations).map(|n| base + u64::from(n < rem)).collect();

        let share = |total: u64| proportional_shares(total, &folds_per_iter, folds_total);
        let in_words = share(demand.reads_of(DataClass::Input));
        let out_words = share(demand.writes_of(DataClass::Output));
        let w_words = share(demand.reads_of(DataClass::Weight));

        // Each iteration runs at the slower of compute and SHIFT staging
        // streaming; both sides are config-independent, so the durations
        // are fixed here once.
        let compute_per_iter: Vec<u64> = folds_per_iter
            .iter()
            .map(|&f| f * mapping.cycles_per_fold)
            .collect();
        let dur_per_iter: Vec<u64> = (0..iterations)
            .map(|n| {
                let svc_in = cycles_at(
                    period,
                    spm.input_shift.serve_stream(in_words[n], false).time.as_s(),
                );
                let svc_out = cycles_at(
                    period,
                    spm.output_shift
                        .serve_stream(out_words[n], true)
                        .time
                        .as_s(),
                );
                let svc_w = cycles_at(
                    period,
                    spm.weight_shift.serve_stream(w_words[n], false).time.as_s(),
                );
                compute_per_iter[n].max(svc_in).max(svc_out).max(svc_w)
            })
            .collect();

        // PSum spill round trips (same working-set criterion as the
        // analytic `serve_hetero`).
        let psum_ws = mapping.live_output_bytes / mapping.m_folds.max(1);
        let psum_words = demand.reads_of(DataClass::Psum) + demand.writes_of(DataClass::Psum);
        let spill_total = if psum_ws > spm.output_shift.capacity_bytes() {
            (psum_words as f64 * PSUM_SPILL_FACTOR) as u64
        } else {
            0
        };
        let spill_words = share(spill_total);

        // DRAM overflow of the activation working set.
        let working_set = mapping.live_input_bytes + mapping.live_output_bytes;
        let dram_bytes = share(working_set.saturating_sub(spm.random.capacity_bytes));

        // Fold-boundary realignment accesses, one RANDOM access latency
        // each (priced per config by the finish pass).
        let realigns: Vec<(DataClass, Vec<u64>)> = demand
            .realignments
            .iter()
            .map(|r| (r.class, share(r.count)))
            .collect();

        // --- Prefetch loads and on-use streams from the schedule -------
        let mut loads = Vec::new();
        // Objects the schedule left in DRAM stream through the RANDOM
        // array *during* their use iteration instead (the evaluator's
        // no-thrashing assumption: per-layer loads never wait on raw DRAM
        // bandwidth, but an unprefetchable stream can still outlive its
        // iteration's compute).
        let mut streams_by_iter: Vec<Vec<(DataClass, u64)>> =
            (0..iterations).map(|_| Vec::new()).collect();
        for o in &dag.objects {
            if o.class == DataClass::Output {
                continue; // outputs drain asynchronously
            }
            let ls = &schedule.lifespans[o.id as usize];
            match schedule.location_of(o.id) {
                // SPM-resident objects load through the RANDOM array, as
                // early as the schedule allows and the double buffer
                // permits — the buffer-depth bucketing happens per config
                // in the finish pass.
                Location::Shift | Location::Random => {
                    loads.push(ScheduledLoad {
                        class: o.class,
                        fetch_iteration: ls.fetch_iteration,
                        use_iteration: ls.use_iteration,
                        words: o.bytes,
                    });
                }
                Location::Dram => {
                    streams_by_iter[ls.use_iteration.min(dag.iterations - 1) as usize]
                        .push((o.class, o.bytes));
                }
            }
        }
        for list in &mut streams_by_iter {
            list.sort_by_key(|&(class, _)| class as u32);
        }

        Self {
            name: name.to_owned(),
            placement_bytes: schedule.bytes_by_location(dag),
            iterations: dag.iterations,
            compute_per_iter,
            dur_per_iter,
            spill_words,
            dram_bytes,
            realigns,
            loads,
            streams_by_iter,
        }
    }

    /// The layer name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-config finish pass: replays this prepass under one
    /// [`TimingConfig`], bit-identical to [`replay_layer`] on the same
    /// inputs.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn replay(&self, costs: &RandomCosts, cfg: &TimingConfig) -> TimingReport {
        let iterations = self.iterations as usize;
        // Bucket the prefetch loads by issue iteration for this config's
        // buffer depth (a stable sort: ties keep `dag.objects` order).
        let depth = cfg.buffer_depth.max(1);
        let mut loads_by_iter: Vec<Vec<&ScheduledLoad>> = vec![Vec::new(); iterations];
        for l in &self.loads {
            let issue_at = l.fetch_iteration.max(l.use_iteration.saturating_sub(depth));
            loads_by_iter[issue_at.min(self.iterations - 1) as usize].push(l);
        }
        for list in &mut loads_by_iter {
            list.sort_by_key(|l| (l.use_iteration, l.class as u32));
        }

        // --- The replay ------------------------------------------------
        let mut prev_end = 0u64;
        let mut channel = PriorityChannel::new();
        let mut dram_free = 0u64;
        let mut prefetch_work = 0u64;
        let mut prefetch_stall = 0u64;
        let mut compute_cycles = 0u64;
        let mut stream_stall = 0u64;
        let mut exposed = [0u64; 4];
        // Completion times of in-flight loads, keyed by use iteration.
        let mut pending: Vec<(u32, DataClass, u64)> = Vec::new();
        // Realignment completion gate for the next iteration.
        let mut realign_gate: Option<(u64, DataClass)> = None;

        for n in 0..iterations {
            // 1. Launch this boundary's prefetches. They fill the RANDOM
            // channel's leftover issue slots, overlapping compute of this
            // and later iterations.
            for load in &loads_by_iter[n] {
                let cycles = costs.read(load.words);
                let done = channel.prefetch(prev_end, cycles);
                prefetch_work += cycles;
                pending.push((load.use_iteration, load.class, done));
            }

            // 2. Compute may start once its operands arrived and the
            // previous boundary's realignments finished.
            let mut start = prev_end;
            let mut stall_source: Option<(DataClass, bool)> = None;
            if let Some((done, class)) = realign_gate.take() {
                if done > start {
                    start = done;
                    stall_source = Some((class, false));
                }
            }
            for &(use_iter, class, done) in &pending {
                if use_iter == n as u32 && done > start {
                    start = done;
                    stall_source = Some((class, true));
                }
            }
            pending.retain(|&(use_iter, ..)| use_iter > n as u32);
            let stall = start - prev_end;
            if stall > 0 {
                // lint:allow(panic_freedom, a nonzero stall always records its source earlier in this loop)
                let (class, is_load) = stall_source.expect("a stall has a source");
                exposed[class_idx(class)] += stall;
                if is_load {
                    prefetch_stall += stall;
                }
            }

            // 3. The iteration runs at the slower of compute and staging
            // streaming (both precomputed by the prepass).
            let compute = self.compute_per_iter[n];
            compute_cycles += compute;
            let dur = self.dur_per_iter[n];
            stream_stall += dur - compute;
            let mut end = start + dur;

            // 4. Demand traffic of this iteration: unprefetchable (DRAM-
            // placed) object streams, PSum spill round trips, and DRAM
            // overflow must finish before the iteration retires.
            for &(class, words) in &self.streams_by_iter[n] {
                let done = channel.demand(start, costs.read(words));
                if done > end {
                    exposed[class_idx(class)] += done - end;
                    end = done;
                }
            }
            if self.spill_words[n] > 0 {
                let rd = costs.read(self.spill_words[n] / 2);
                let wr = costs.write(self.spill_words[n] - self.spill_words[n] / 2);
                let done = channel.demand(start, rd + wr);
                if done > end {
                    exposed[class_idx(DataClass::Psum)] += done - end;
                    end = done;
                }
            }
            if self.dram_bytes[n] > 0 {
                let cyc = costs.cycles_of(self.dram_bytes[n] as f64 / DRAM_BANDWIDTH);
                let s = start.max(dram_free);
                let done = s + cyc;
                dram_free = done;
                if done > end {
                    exposed[class_idx(DataClass::Input)] += done - end;
                    end = done;
                }
            }

            // 5. This iteration's fold-boundary realignments: the
            // alignment unit works ahead during compute, but the
            // repositioning must be done before the next iteration
            // consumes the arrays.
            for (class, counts) in &self.realigns {
                let work = counts[n] * costs.realign_access;
                if work == 0 {
                    continue;
                }
                let done = channel.demand(start, work);
                if realign_gate.is_none_or(|(t, _)| done > t) {
                    realign_gate = Some((done, *class));
                }
            }

            prev_end = end;
        }

        TimingReport {
            name: self.name.clone(),
            placement_bytes: self.placement_bytes,
            total_cycles: prev_end,
            compute_cycles,
            stream_stall_cycles: stream_stall,
            exposed_stall_cycles: exposed,
            prefetch_work_cycles: prefetch_work,
            prefetch_stall_cycles: prefetch_stall,
            random_busy_cycles: channel.busy,
        }
    }
}

/// Index of a class in [`DataClass::ALL`] (the exposed-stall array order).
fn class_idx(c: DataClass) -> usize {
    // lint:allow(panic_freedom, DataClass::ALL enumerates every variant)
    DataClass::ALL.iter().position(|&x| x == c).expect("class")
}

/// Replays one layer through the heterogeneous SPM under the compiler's
/// schedule. Cycle counts are in accelerator clock cycles at `clock`.
///
/// This is exactly [`LayerPrepass::build`] followed by
/// [`LayerPrepass::replay`]; sweeps that hold the layer fixed reuse the
/// prepass across configs instead of calling this per point.
///
/// # Panics
///
/// Panics if the compilation's `dag`/`schedule` disagree on object count
/// (they must come from the same compilation).
#[must_use]
pub fn replay_layer(
    name: &str,
    layer: &LayerCompilation,
    spm: &HeterogeneousSpm,
    clock: Frequency,
    cfg: &TimingConfig,
) -> TimingReport {
    let prepass = LayerPrepass::build(name, layer, spm, clock);
    prepass.replay(&RandomCosts::new(spm, clock, cfg), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::compile_scheme_layer;
    use smart_compiler::SolverContext;
    use smart_core::scheme::Scheme;
    use smart_systolic::layer::ConvLayer;
    use smart_systolic::mapping::{ArrayShape, LayerMapping};

    /// AlexNet's conv2 compiled for SMART, whose formulation parameters
    /// are `FormulationParams::smart_default()` on a 64x256 array.
    fn compile(cfg: &TimingConfig) -> LayerCompilation {
        let layer = ConvLayer::conv("conv2", 27, 27, 96, 256, 5, 1, 2);
        let ctx = SolverContext::new();
        compile_scheme_layer(&Scheme::smart(), &layer, cfg.max_iterations, &ctx).expect("hetero")
    }

    fn fixture(cfg: &TimingConfig) -> TimingReport {
        let spm = HeterogeneousSpm::smart_default();
        replay_layer("conv2", &compile(cfg), &spm, Frequency::from_ghz(52.6), cfg)
    }

    #[test]
    fn accounting_identity_holds() {
        let r = fixture(&TimingConfig::nominal());
        assert!(r.is_consistent(), "{r:?}");
        assert!(r.total_cycles >= r.compute_cycles);
    }

    #[test]
    fn compute_cycles_match_mapping() {
        let layer = ConvLayer::conv("conv2", 27, 27, 96, 256, 5, 1, 2);
        let mapping = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
        let r = fixture(&TimingConfig::nominal());
        assert_eq!(r.compute_cycles, mapping.compute_cycles());
    }

    #[test]
    fn constrained_bandwidth_never_faster() {
        let nominal = fixture(&TimingConfig::nominal());
        let slow = fixture(&TimingConfig::nominal().with_bandwidth_pct(10));
        assert!(slow.total_cycles >= nominal.total_cycles);
        assert!(slow.exposed_total() >= nominal.exposed_total());
    }

    #[test]
    fn deeper_buffer_never_slower() {
        let shallow = fixture(&TimingConfig::nominal().with_depth(1));
        let deep = fixture(&TimingConfig::nominal().with_depth(4));
        assert!(deep.total_cycles <= shallow.total_cycles);
    }

    #[test]
    fn replay_is_deterministic() {
        let a = fixture(&TimingConfig::nominal());
        let b = fixture(&TimingConfig::nominal());
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_grows_when_bandwidth_shrinks() {
        let nominal = fixture(&TimingConfig::nominal());
        let slow = fixture(&TimingConfig::nominal().with_bandwidth_pct(25));
        assert!(slow.random_busy_cycles > nominal.random_busy_cycles);
    }

    #[test]
    fn proportional_shares_are_exact() {
        let folds = [7u64, 7, 7, 7, 7, 3];
        let shares = proportional_shares(1_000_003, &folds, 38);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_003);
        assert_eq!(shares.len(), folds.len());
        // Rough proportionality.
        assert!(shares[0] > shares[5]);
    }

    #[test]
    fn prepass_replay_matches_full() {
        // One prepass, replayed across the whole config grid, must be
        // bit-identical to the monolithic replay at every point.
        let nominal = TimingConfig::nominal();
        let c = compile(&nominal);
        let spm = HeterogeneousSpm::smart_default();
        let clock = Frequency::from_ghz(52.6);
        let prepass = LayerPrepass::build("conv2", &c, &spm, clock);
        for depth in [1, 2, 3, 5] {
            for pct in [10, 25, 50, 100, 400] {
                let cfg = nominal.with_depth(depth).with_bandwidth_pct(pct);
                let delta = prepass.replay(&RandomCosts::new(&spm, clock, &cfg), &cfg);
                let full = replay_layer("conv2", &c, &spm, clock, &cfg);
                assert_eq!(delta, full, "depth {depth}, bandwidth {pct}%");
            }
        }
    }

    #[test]
    fn random_costs_scale_with_bandwidth() {
        let spm = HeterogeneousSpm::smart_default();
        let clock = Frequency::from_ghz(52.6);
        let nominal = RandomCosts::new(&spm, clock, &TimingConfig::nominal());
        let half = RandomCosts::new(&spm, clock, &TimingConfig::nominal().with_bandwidth_pct(50));
        assert_eq!(nominal.read(0), 0);
        assert_eq!(nominal.write(0), 0);
        assert!(half.read(1024) > nominal.read(1024));
        assert!(half.write(1024) > nominal.write(1024));
        assert!(half.realign_access >= nominal.realign_access);
        // Large bursts approach the pure word-rate ratio (2x here).
        let big = 1 << 20;
        let ratio = half.read(big) as f64 / nominal.read(big) as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }
}
