//! The queueing/dispatch simulator: time-multiplexing tenant replays on
//! one systolic array.
//!
//! [`simulate`] runs a deterministic event loop over a workload's arrival
//! stream.
//! One array serves all tenants; at every decision point the dispatcher
//! picks the *oldest waiting work* (the parked batch or queue head whose
//! oldest request arrived first — FCFS across tenants, tenant index
//! breaking ties). Three policy knobs shape the schedule:
//!
//! * **batch formation** ([`ServingConfig::batch_window`],
//!   [`ServingConfig::max_batch`]): a queue head matures when
//!   `max_batch` same-tenant requests are waiting or the head has waited
//!   `batch_window` cycles, whichever first. A mature head launches as
//!   one batch — compute replays per request, staging amortized (see
//!   [`TenantProfile::batched_layer_cycles`]);
//! * **preemption at layer boundaries** ([`ServingConfig::quantum_layers`]):
//!   with a quantum set, the dispatcher serves tenants round-robin
//!   (least recently served first, oldest request breaking ties) and
//!   parks the running batch at the next layer boundary whenever another
//!   tenant has work waiting — short-model tenants stop queueing behind
//!   whole long-model batches, at the price of extra re-staging. `0`
//!   disables preemption (run-to-completion, pure FCFS);
//! * **SPM context-switch cost**: whenever the array turns to a tenant
//!   other than the one whose data is resident, the layers still to run
//!   re-stage their SPM-resident bytes through the RANDOM channel first
//!   ([`TenantProfile::restage_cycles`]). An empty array (start of the
//!   simulation) is warm by the replay's own convention — the per-layer
//!   cycles already include first-use staging — so a zero-load request
//!   finishes in exactly its stand-alone replay latency.
//!
//! Cost per step: each tenant holds at most one batch, running or
//! parked, in a reusable per-tenant slot (the `Slot` doc proves one is
//! enough), so a dispatch decision looks at each tenant once. A run of
//! layers `a..e` at batch `b` costs `T[e] - T[a] + (b - 1)·(C[e] - C[a])`,
//! where `T` and `C` are prefix sums of the profile's per-layer total
//! and compute cycles built once per call, and a cold switch into layer
//! `l` re-stages the same kind of prefix table's tail. So a decision or
//! a run segment costs O(tenants) whatever the model depth, and
//! allocates nothing beyond the amortized growth of the queues and
//! latency samples. A test-only reference loop (a scan over a
//! `Vec` of parked batches, priced layer by layer through
//! [`TenantProfile::batched_layer_cycles`]) checks reports and traces
//! against this one on random non-uniform profiles.
//!
//! Memory per request: the loop reads arrivals from
//! [`Workload::arrivals`] one block of
//! [`ARRIVAL_BLOCK`](crate::workload::ARRIVAL_BLOCK) requests at a
//! time, counts each tenant's requests as it admits them, and keeps each
//! latency once, in its tenant's sample of the [`ServingReport`]. So a
//! run holds an 8 B sample per request, plus an 8 B queue slot per
//! request waiting at the deepest backlog, and one block of arrivals
//! whatever the request count.
//!
//! Determinism: the loop consumes the trace in order, draws no
//! randomness of its own, and never looks at wall-clock time, so one
//! `(workload, config)` pair yields one byte-identical [`ServingReport`]
//! regardless of machine or worker count.

// lint:allow-file(index, tenant indices are bounded by the per-tenant vectors built from the profiles, layer indices by each profile's layer count)

use std::collections::VecDeque;

use crate::profile::TenantProfile;
use crate::report::{ServingReport, TenantServingStats};
use crate::workload::{Arrivals, Request, Workload};
use smart_trace::{Lane, Tracer};

/// Dispatch-policy knobs of one serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Cycles a queue head waits for co-batching before it launches
    /// alone (`0` = launch immediately).
    pub batch_window: u64,
    /// Most requests of one tenant in a batch (`>= 1`).
    pub max_batch: u32,
    /// Layers run before the dispatcher reconsiders (`0` =
    /// run-to-completion, no preemption).
    pub quantum_layers: u32,
    /// Per-tenant SLO deadline (arrival to completion) in cycles, in
    /// workload tenant order. Empty = no SLO (every completion counts as
    /// goodput).
    pub slo_cycles: Vec<u64>,
}

impl ServingConfig {
    /// Plain FCFS: no batching, no preemption, no SLO.
    #[must_use]
    pub fn fcfs() -> Self {
        Self {
            batch_window: 0,
            max_batch: 1,
            quantum_layers: 0,
            slo_cycles: Vec::new(),
        }
    }

    /// This config with batching up to `max_batch` at `window` cycles.
    #[must_use]
    pub fn with_batching(mut self, max_batch: u32, window: u64) -> Self {
        self.max_batch = max_batch;
        self.batch_window = window;
        self
    }

    /// This config with layer-boundary preemption every `quantum` layers.
    #[must_use]
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        self.quantum_layers = quantum;
        self
    }

    /// This config with per-tenant SLO deadlines in cycles.
    #[must_use]
    pub fn with_slo(mut self, slo_cycles: Vec<u64>) -> Self {
        self.slo_cycles = slo_cycles;
        self
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self::fcfs()
    }
}

/// Prefix sums of one tenant's per-layer costs: entry `l` covers layers
/// `0..l`, so any run of consecutive layers prices in O(1).
struct LayerCosts {
    /// [`TenantProfile::layer_cycles`] prefix sums.
    total: Vec<u64>,
    /// [`TenantProfile::layer_compute`] prefix sums.
    compute: Vec<u64>,
    /// [`TenantProfile::restage_cycles`] prefix sums.
    restage: Vec<u64>,
}

impl LayerCosts {
    fn new(p: &TenantProfile) -> Self {
        let layers = p.layers();
        let prefix = |costs: &[u64]| {
            let mut sums = Vec::with_capacity(layers + 1);
            sums.push(0u64);
            for &c in &costs[..layers] {
                sums.push(sums[sums.len() - 1] + c);
            }
            sums
        };
        Self {
            total: prefix(&p.layer_cycles),
            compute: prefix(&p.layer_compute),
            restage: prefix(&p.restage_cycles),
        }
    }

    /// Cycles to run layers `a..e` for a batch of `b >= 1` requests: the
    /// sum of [`TenantProfile::batched_layer_cycles`] over those layers,
    /// i.e. every layer once plus `b - 1` more passes of their compute.
    fn run(&self, a: usize, e: usize, b: u64) -> u64 {
        self.total[e] - self.total[a] + (b - 1) * (self.compute[e] - self.compute[a])
    }

    /// Cycles to re-stage the resident bytes of layers `from..` after a
    /// cold switch.
    fn restage_from(&self, from: usize) -> u64 {
        self.restage[self.restage.len() - 1] - self.restage[from]
    }
}

/// The one batch a tenant can hold, running on the array or parked at a
/// layer boundary; empty `arrivals` means none.
///
/// One slot per tenant is exact. The dispatcher ranks work by
/// `(served, arrival, tenant)`, `served` being the round-robin stamp
/// (always `0` without a quantum), and a scan over every parked batch
/// and every queue head, parked batches winning ties, takes the least:
///
/// * ranks tie only within one tenant, since the rank includes the
///   tenant index;
/// * within a tenant, a parked batch's head arrived no later than
///   anything the tenant still has queued (a batch is drained from the
///   queue front), and an exact tie goes to the parked batch;
/// * so a tenant's queue head never wins while the tenant has a batch
///   parked, and a tenant never holds two batches;
/// * so "each tenant offers its parked batch, else its queue head; take
///   the least rank" selects exactly what that scan selects.
///
/// Batch-window waits do not look at parked batches: an immature best
/// head waits, even while another tenant has a batch parked.
#[derive(Debug, Default)]
struct Slot {
    /// Arrival cycles of the batched requests (head first); the buffer is
    /// reused from batch to batch.
    arrivals: Vec<u64>,
    /// Next layer to run.
    next_layer: usize,
}

/// The requests not yet admitted: one block of the arrival stream and a
/// cursor into it. The cursor never rests at the end of a block while
/// the stream has more, so [`Self::peek`] is `None` exactly when every
/// request has been admitted.
struct Pending {
    stream: Arrivals,
    block: Vec<Request>,
    next: usize,
}

impl Pending {
    fn new(mut stream: Arrivals) -> Self {
        let mut block = Vec::new();
        stream.next_block(&mut block);
        Self {
            stream,
            block,
            next: 0,
        }
    }

    /// The next request to arrive.
    fn peek(&self) -> Option<Request> {
        self.block.get(self.next).copied()
    }

    /// Moves past the request [`Self::peek`] returned.
    fn advance(&mut self) {
        self.next += 1;
        if self.next == self.block.len() {
            // An exhausted stream leaves the block empty, so the cursor
            // at 0 is at its end.
            self.stream.next_block(&mut self.block);
            self.next = 0;
        }
    }
}

/// Runs `workload`'s first `n` requests through the dispatch simulator
/// on the given per-tenant profiles (one per workload tenant, same
/// order, all replayed on the same scheme). The simulator drains: every
/// injected request completes and its latency is sampled.
///
/// # Panics
///
/// Panics when `profiles` and the workload's tenants disagree in length
/// or model, when profiles mix schemes or clocks, when
/// `cfg.max_batch == 0`, or when `cfg.slo_cycles` is non-empty with the
/// wrong length.
#[must_use]
pub fn simulate(
    profiles: &[TenantProfile],
    workload: &Workload,
    n: usize,
    cfg: &ServingConfig,
) -> ServingReport {
    simulate_traced(profiles, workload, n, cfg, &Tracer::disabled(), "")
}

/// [`simulate`], recording each request's lifecycle onto `tracer` —
/// one lane per tenant (named `"<lane_prefix>tenant <index> <name>"`),
/// carrying `arrive` instants, a `dispatch` instant per formed batch,
/// `restage` spans for cold switches, `run L<a>..L<b>` spans per
/// executed quantum, and `preempt` / `complete` instants. Timestamps
/// are simulated accelerator cycles, so the trace is as deterministic
/// as the report; a disabled tracer makes this exactly [`simulate`].
///
/// # Panics
///
/// As [`simulate`].
#[must_use]
pub fn simulate_traced(
    profiles: &[TenantProfile],
    workload: &Workload,
    n: usize,
    cfg: &ServingConfig,
    tracer: &Tracer,
    lane_prefix: &str,
) -> ServingReport {
    assert_eq!(
        profiles.len(),
        workload.tenants.len(),
        "one profile per tenant"
    );
    assert!(!profiles.is_empty(), "serving needs at least one tenant");
    assert!(cfg.max_batch >= 1, "a batch holds at least one request");
    assert!(
        cfg.slo_cycles.is_empty() || cfg.slo_cycles.len() == profiles.len(),
        "slo_cycles must be empty or one deadline per tenant"
    );
    for (p, t) in profiles.iter().zip(&workload.tenants) {
        assert_eq!(p.model, t.model, "profile/tenant model mismatch");
        assert_eq!(p.scheme, profiles[0].scheme, "profiles must share a scheme");
        assert_eq!(p.clock, profiles[0].clock, "profiles must share a clock");
    }
    let clock = profiles[0].clock;
    let mut pending = Pending::new(workload.arrivals(n, clock));
    let first_arrival = pending.peek().map_or(0, |r| r.arrival);
    let tenants = profiles.len();
    let max_batch = cfg.max_batch as usize;
    let quantum = cfg.quantum_layers as usize;

    // One trace lane per tenant. The exporter re-sorts each lane by
    // timestamp, so emitting `arrive` instants at admission time (after
    // later events) is fine. A disabled lane records nothing, but each
    // call still crosses into `smart-trace`, so the loop skips the calls
    // when tracing is off.
    let lanes: Vec<Lane> = profiles
        .iter()
        .enumerate()
        .map(|(t, p)| tracer.lane(&format!("{lane_prefix}tenant {t} {}", p.name)))
        .collect();
    let traced = tracer.is_enabled();
    let costs: Vec<LayerCosts> = profiles.iter().map(LayerCosts::new).collect();

    // Per-tenant admissions and latency samples; the simulator drains, so
    // each sample ends at its tenant's admitted count.
    let mut injected = vec![0u64; tenants];
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); tenants];

    // Round-robin bookkeeping (only consulted when a quantum is set):
    // the dispatch sequence number at which each tenant last ran.
    let mut last_served = vec![0u64; tenants];
    let mut seq = 0u64;

    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); tenants];
    let mut slots: Vec<Slot> = (0..tenants).map(|_| Slot::default()).collect();
    let mut now = 0u64;
    let mut resident: Option<usize> = None;
    let mut service_cycles = 0u64;
    let mut switch_cycles = 0u64;
    let mut switches = 0u64;
    let mut batches = 0u64;
    let mut preemptions = 0u64;
    let mut last_completion = 0u64;

    // Admits every request that has arrived by `now`.
    macro_rules! admit {
        () => {
            while let Some(r) = pending.peek().filter(|r| r.arrival <= now) {
                let t = usize::from(r.tenant);
                queues[t].push_back(r.arrival);
                injected[t] += 1;
                if traced {
                    lanes[t].instant("arrive", r.arrival);
                }
                pending.advance();
            }
        };
    }

    loop {
        admit!();

        // Candidate selection: each tenant offers its parked batch, else
        // its queue head (see `Slot`). Pure FCFS (quantum 0): the oldest
        // request wins. With a quantum set: round-robin — least recently
        // served tenant first, request age breaking ties — so a preempted
        // long batch cannot immediately reclaim the array from the
        // tenants it was parked for.
        let rank = |t: usize, arrival: u64| {
            if quantum == 0 {
                (0, arrival, t)
            } else {
                (last_served[t], arrival, t)
            }
        };
        let best = (0..tenants)
            .filter_map(|t| {
                let oldest = slots[t].arrivals.first().or_else(|| queues[t].front())?;
                Some(rank(t, *oldest))
            })
            .min();
        let Some((_, oldest, t)) = best else {
            // Idle: jump to the next arrival or finish.
            let Some(next) = pending.peek() else {
                break;
            };
            now = now.max(next.arrival);
            continue;
        };

        if slots[t].arrivals.is_empty() {
            // Batch maturity: full, or the head has waited out the window
            // (with the trace exhausted nothing more can join, so launch
            // what is queued).
            let deadline = oldest.saturating_add(cfg.batch_window);
            let full = queues[t].len() >= max_batch;
            if let Some(next) = pending.peek().filter(|_| !full && now < deadline) {
                // Wait for more co-batchable arrivals or the window.
                now = deadline.min(next.arrival);
                continue;
            }
            let b = queues[t].len().min(max_batch);
            slots[t].arrivals.extend(queues[t].drain(..b));
            slots[t].next_layer = 0;
            batches += 1;
            if traced {
                lanes[t].instant(&format!("dispatch batch={b}"), now);
            }
        }

        // Cold switch: another tenant's data is resident, so the layers
        // still to run re-stage their resident bytes first. An empty
        // array (None) is warm by the replay convention.
        let mut layer = slots[t].next_layer;
        if resident.is_some_and(|r| r != t) {
            let cost = costs[t].restage_from(layer);
            if traced {
                lanes[t].span("restage", now, now + cost);
            }
            now += cost;
            switch_cycles += cost;
            switches += 1;
        }
        resident = Some(t);

        // Run the batch quantum by quantum, parking it when another
        // tenant has work waiting at a layer boundary.
        let layers = profiles[t].layers();
        let batch = slots[t].arrivals.len() as u64;
        loop {
            let from = layer;
            layer = if quantum == 0 {
                layers
            } else {
                layers.min(from + quantum)
            };
            let segment_start = now;
            let c = costs[t].run(from, layer, batch);
            now += c;
            service_cycles += c;
            seq += 1;
            last_served[t] = seq;
            if traced && layer > from {
                lanes[t].span(&format!("run L{from}..L{layer}"), segment_start, now);
            }

            if layer == layers {
                samples[t].extend(slots[t].arrivals.iter().map(|&arrival| now - arrival));
                slots[t].arrivals.clear();
                if traced {
                    lanes[t].instant("complete", now);
                }
                last_completion = last_completion.max(now);
                break;
            }

            admit!();
            // Park at the layer boundary when any other tenant has work
            // waiting; the round-robin rank hands the array to the least
            // recently served of them.
            let other_waiting = (0..tenants)
                .any(|u| u != t && !(slots[u].arrivals.is_empty() && queues[u].is_empty()));
            if other_waiting {
                if traced {
                    lanes[t].instant("preempt", now);
                }
                slots[t].next_layer = layer;
                preemptions += 1;
                break;
            }
        }
    }

    let per_tenant = tenant_stats(profiles, &injected, samples, cfg);
    ServingReport {
        scheme: profiles[0].scheme,
        clock,
        offered_rps: workload.rate_rps,
        injected: injected.iter().sum(),
        completed: per_tenant.iter().map(|s| s.completed).sum(),
        slo_met: per_tenant.iter().map(|s| s.slo_met).sum(),
        makespan_cycles: last_completion.saturating_sub(first_arrival),
        service_cycles,
        switch_cycles,
        switches,
        batches,
        preemptions,
        per_tenant,
    }
}

/// Each tenant's stats, in tenant order, from its unsorted latency sample
/// and injected count, graded against its SLO deadline (none when
/// `cfg.slo_cycles` is empty).
fn tenant_stats(
    profiles: &[TenantProfile],
    injected: &[u64],
    samples: Vec<Vec<u64>>,
    cfg: &ServingConfig,
) -> Vec<TenantServingStats> {
    samples
        .into_iter()
        .enumerate()
        .map(|(t, lat)| {
            let slo = cfg.slo_cycles.get(t).copied().unwrap_or(u64::MAX);
            TenantServingStats::new(profiles[t].name.clone(), injected[t], lat, slo)
        })
        .collect()
}

/// The reference event loop for the differential tests: the dispatch
/// loop in its direct form, which keeps parked batches in a `Vec<Job>`
/// scanned at every decision and prices each layer through
/// [`TenantProfile::batched_layer_cycles`]. It counts batches and
/// preemptions too, so whole reports compare.
#[cfg(test)]
mod oracle {
    use super::ServingConfig;
    use crate::profile::TenantProfile;
    use crate::report::ServingReport;
    use crate::workload::Workload;
    use smart_trace::{Lane, Tracer};
    use std::collections::VecDeque;

    /// An in-flight batch: requests of one tenant moving through the model's
    /// layers together.
    #[derive(Debug)]
    struct Job {
        tenant: usize,
        /// Arrival cycles of the batched requests (head first).
        arrivals: Vec<u64>,
        /// Next layer to run.
        next_layer: usize,
    }

    impl Job {
        fn oldest(&self) -> u64 {
            self.arrivals[0]
        }
    }

    pub(super) fn simulate_traced(
        profiles: &[TenantProfile],
        workload: &Workload,
        n: usize,
        cfg: &ServingConfig,
        tracer: &Tracer,
        lane_prefix: &str,
    ) -> ServingReport {
        assert_eq!(
            profiles.len(),
            workload.tenants.len(),
            "one profile per tenant"
        );
        assert!(!profiles.is_empty(), "serving needs at least one tenant");
        assert!(cfg.max_batch >= 1, "a batch holds at least one request");
        assert!(
            cfg.slo_cycles.is_empty() || cfg.slo_cycles.len() == profiles.len(),
            "slo_cycles must be empty or one deadline per tenant"
        );
        for (p, t) in profiles.iter().zip(&workload.tenants) {
            assert_eq!(p.model, t.model, "profile/tenant model mismatch");
            assert_eq!(p.scheme, profiles[0].scheme, "profiles must share a scheme");
            assert_eq!(p.clock, profiles[0].clock, "profiles must share a clock");
        }
        let clock = profiles[0].clock;
        let trace = workload.trace(n, clock);

        // One trace lane per tenant. Lanes are no-ops on a disabled tracer;
        // the exporter re-sorts each lane by timestamp, so emitting `arrive`
        // instants at admission time (after later events) is fine.
        let lanes: Vec<Lane> = profiles
            .iter()
            .enumerate()
            .map(|(t, p)| tracer.lane(&format!("{lane_prefix}tenant {t} {}", p.name)))
            .collect();

        // Suffix sums of the per-layer re-staging cost: switching to a job at
        // layer l re-stages the resident bytes of layers l.. .
        let restage_tail: Vec<Vec<u64>> = profiles
            .iter()
            .map(|p| {
                let mut tail = vec![0u64; p.layers() + 1];
                for l in (0..p.layers()).rev() {
                    tail[l] = tail[l + 1] + p.restage_cycles[l];
                }
                tail
            })
            .collect();

        // Round-robin bookkeeping (only consulted when a quantum is set):
        // the dispatch sequence number at which each tenant last ran.
        let mut last_served = vec![0u64; profiles.len()];
        let mut seq = 0u64;

        let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); profiles.len()];
        let mut injected = vec![0u64; profiles.len()];
        let mut samples: Vec<Vec<u64>> = vec![Vec::new(); profiles.len()];
        let mut parked: Vec<Job> = Vec::new();
        let mut next_req = 0usize;
        let mut now = 0u64;
        let mut resident: Option<usize> = None;
        let mut service_cycles = 0u64;
        let mut switch_cycles = 0u64;
        let mut switches = 0u64;
        let mut batches = 0u64;
        let mut preemptions = 0u64;
        let mut last_completion = 0u64;

        // Admits every request that has arrived by `now`.
        macro_rules! admit {
            () => {
                while next_req < trace.len() && trace[next_req].arrival <= now {
                    let r = trace[next_req];
                    queues[usize::from(r.tenant)].push_back(r.arrival);
                    injected[usize::from(r.tenant)] += 1;
                    lanes[usize::from(r.tenant)].instant("arrive", r.arrival);
                    next_req += 1;
                }
            };
        }

        loop {
            admit!();

            // Candidate selection. Pure FCFS (quantum 0): the parked job or
            // queue head with the oldest request, parked jobs winning ties
            // (resuming beats launching at equal age). With a quantum set:
            // round-robin — least recently served tenant first, request age
            // breaking ties — so a preempted long job cannot immediately
            // reclaim the array from the tenants it was parked for.
            let rank = |t: usize, arrival: u64| {
                if cfg.quantum_layers == 0 {
                    (0, arrival, t)
                } else {
                    (last_served[t], arrival, t)
                }
            };
            let best_parked = parked
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| rank(j.tenant, j.oldest()))
                .map(|(i, j)| (rank(j.tenant, j.oldest()), i));
            let best_head = queues
                .iter()
                .enumerate()
                .filter_map(|(t, q)| q.front().map(|&a| (rank(t, a), (a, t))))
                .min();

            let job = match (best_parked, best_head) {
                (None, None) => {
                    // Idle: jump to the next arrival or finish.
                    if next_req == trace.len() {
                        break;
                    }
                    now = now.max(trace[next_req].arrival);
                    continue;
                }
                (Some((pr, pi)), head) if head.is_none_or(|(hr, _)| pr <= hr) => {
                    parked.swap_remove(pi)
                }
                (Some((_, pi)), None) => parked.swap_remove(pi),
                (_, Some((_, (head_arrival, t)))) => {
                    // Batch maturity: full, or the head has waited out the
                    // window (with the trace exhausted nothing more can
                    // join, so launch what is queued).
                    let deadline = head_arrival.saturating_add(cfg.batch_window);
                    let full = queues[t].len() >= cfg.max_batch as usize;
                    if !full && now < deadline && next_req < trace.len() {
                        // Wait for more co-batchable arrivals or the window.
                        now = deadline.min(trace[next_req].arrival);
                        continue;
                    }
                    let b = queues[t].len().min(cfg.max_batch as usize);
                    let arrivals: Vec<u64> = queues[t].drain(..b).collect();
                    batches += 1;
                    if lanes[t].is_enabled() {
                        lanes[t].instant(&format!("dispatch batch={b}"), now);
                    }
                    Job {
                        tenant: t,
                        arrivals,
                        next_layer: 0,
                    }
                }
            };

            // Cold switch: another tenant's data is resident, so the layers
            // still to run re-stage their resident bytes first. An empty
            // array (None) is warm by the replay convention.
            let t = job.tenant;
            if resident.is_some_and(|r| r != t) {
                let cost = restage_tail[t][job.next_layer];
                lanes[t].span("restage", now, now + cost);
                now += cost;
                switch_cycles += cost;
                switches += 1;
            }
            resident = Some(t);

            // Run the job quantum by quantum, parking it when an older
            // request of another tenant is waiting at a layer boundary.
            let mut job = job;
            let profile = &profiles[t];
            let batch = u32::try_from(job.arrivals.len()).expect("batch fits u32");
            loop {
                let remaining = profile.layers() - job.next_layer;
                let run = if cfg.quantum_layers == 0 {
                    remaining
                } else {
                    remaining.min(cfg.quantum_layers as usize)
                };
                let segment_start = now;
                for l in job.next_layer..job.next_layer + run {
                    let c = profile.batched_layer_cycles(l, batch);
                    now += c;
                    service_cycles += c;
                }
                job.next_layer += run;
                seq += 1;
                last_served[t] = seq;
                if lanes[t].is_enabled() && run > 0 {
                    lanes[t].span(
                        &format!("run L{}..L{}", job.next_layer - run, job.next_layer),
                        segment_start,
                        now,
                    );
                }

                if job.next_layer == profile.layers() {
                    for &arrival in &job.arrivals {
                        samples[t].push(now - arrival);
                    }
                    lanes[t].instant("complete", now);
                    last_completion = last_completion.max(now);
                    break;
                }

                admit!();
                // Park at the layer boundary when any other tenant has work
                // waiting; the round-robin rank hands the array to the least
                // recently served of them.
                let other_waiting = parked.iter().any(|j| j.tenant != t)
                    || queues
                        .iter()
                        .enumerate()
                        .any(|(qt, q)| qt != t && !q.is_empty());
                if other_waiting {
                    lanes[t].instant("preempt", now);
                    preemptions += 1;
                    parked.push(job);
                    break;
                }
            }
        }

        let per_tenant = super::tenant_stats(profiles, &injected, samples, cfg);
        let first_arrival = trace.first().map_or(0, |r| r.arrival);
        ServingReport {
            scheme: profiles[0].scheme,
            clock,
            offered_rps: workload.rate_rps,
            injected: trace.len() as u64,
            completed: per_tenant.iter().map(|s| s.completed).sum(),
            slo_met: per_tenant.iter().map(|s| s.slo_met).sum(),
            makespan_cycles: last_completion.saturating_sub(first_arrival),
            service_cycles,
            switch_cycles,
            switches,
            batches,
            preemptions,
            per_tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::mix_capacity_rps;
    use crate::workload::{ArrivalModel, Tenant, ARRIVAL_BLOCK};
    use smart_systolic::models::ModelId;
    use smart_units::rng::Rng;
    use smart_units::Frequency;

    /// A synthetic profile: `layers` uniform layers of `total` cycles
    /// (`compute` of them batch-scaling) with `restage` switch cycles
    /// each. The simulator only reads the public fields, so tests need
    /// no ILP compile.
    fn prof(total: u64, compute: u64, restage: u64, layers: usize) -> TenantProfile {
        TenantProfile {
            name: "synthetic".to_owned(),
            model: ModelId::AlexNet,
            scheme: "TEST",
            clock: Frequency::from_ghz(1.0),
            layer_cycles: vec![total; layers],
            layer_compute: vec![compute; layers],
            restage_cycles: vec![restage; layers],
            resident_fraction: 0.5,
        }
    }

    fn two_tenant_workload(rate: f64, seed: u64) -> Workload {
        Workload::poisson(
            vec![
                Tenant::of(ModelId::AlexNet, 1.0),
                Tenant::of(ModelId::AlexNet, 1.0),
            ],
            rate,
            seed,
        )
    }

    #[test]
    fn zero_load_latency_is_the_standalone_replay() {
        let p = prof(1_000, 600, 50, 10);
        let w = Workload::poisson(vec![Tenant::of(ModelId::AlexNet, 1.0)], 10.0, 7);
        let r = simulate(std::slice::from_ref(&p), &w, 1, &ServingConfig::fcfs());
        assert_eq!(r.completed, 1);
        assert_eq!(r.latencies(), [p.standalone_cycles()]);
        assert_eq!(r.switch_cycles, 0, "an empty array is warm");
    }

    #[test]
    fn requests_are_conserved_and_switches_paid() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        // 50% load on the slower tenant mix keeps queues finite but
        // forces plenty of interleaving.
        let w = two_tenant_workload(3e4, 11);
        let r = simulate(&profiles, &w, 300, &ServingConfig::fcfs());
        assert_eq!(r.injected, 300);
        assert_eq!(r.completed, 300);
        assert_eq!(
            r.per_tenant.iter().map(|t| t.completed).sum::<u64>(),
            r.completed
        );
        assert_eq!(
            r.per_tenant.iter().map(|t| t.injected).sum::<u64>(),
            r.injected
        );
        assert!(r.switches > 0, "alternating tenants must cold-switch");
        // Run-to-completion never parks mid-model, so every switch
        // re-stages a full model: 500 cycles into tenant 0, 800 into 1.
        assert!(r.switch_cycles >= r.switches * 500);
        assert!(r.switch_cycles <= r.switches * 800);
        assert!(r.quantile_cycles(0.5) <= r.quantile_cycles(0.99));
        assert!(r.quantile_cycles(0.99) <= r.quantile_cycles(0.999));
    }

    #[test]
    fn simulation_is_deterministic() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(5e4, 3);
        let cfg = ServingConfig::fcfs()
            .with_batching(4, 20_000)
            .with_quantum(2);
        let a = simulate(&profiles, &w, 200, &cfg);
        let b = simulate(&profiles, &w, 200, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn p99_is_monotone_in_offered_load_under_fcfs() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let mut last = 0;
        for rate in [1e4, 2e4, 4e4, 6e4, 8e4] {
            let r = simulate(
                &profiles,
                &two_tenant_workload(rate, 17),
                400,
                &ServingConfig::fcfs(),
            );
            let p99 = r.quantile_cycles(0.99);
            assert!(p99 >= last, "p99 regressed at rate {rate}: {p99} < {last}");
            last = p99;
        }
    }

    #[test]
    fn batching_amortizes_service_cycles() {
        let profiles = [prof(1_000, 400, 50, 10), prof(1_000, 400, 50, 10)];
        let w = two_tenant_workload(8e4, 23);
        let solo = simulate(&profiles, &w, 300, &ServingConfig::fcfs());
        let batched = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_batching(8, 50_000),
        );
        assert_eq!(batched.completed, solo.completed);
        assert!(
            batched.service_cycles < solo.service_cycles,
            "batch {} vs solo {}",
            batched.service_cycles,
            solo.service_cycles
        );
    }

    #[test]
    fn preemption_cuts_the_short_tenant_tail() {
        // Tenant 0 runs 100x longer per request than tenant 1; without
        // preemption the short tenant queues behind whole long jobs.
        let profiles = [prof(100_000, 60_000, 500, 10), prof(1_000, 600, 50, 10)];
        let w = two_tenant_workload(1.5e3, 29);
        let rtc = simulate(&profiles, &w, 200, &ServingConfig::fcfs());
        let preempt = simulate(&profiles, &w, 200, &ServingConfig::fcfs().with_quantum(1));
        assert_eq!(preempt.completed, rtc.completed);
        let short_p99 = |r: &ServingReport| r.per_tenant[1].quantile_cycles(0.99);
        assert!(
            short_p99(&preempt) < short_p99(&rtc),
            "preempt {} vs run-to-completion {}",
            short_p99(&preempt),
            short_p99(&rtc)
        );
        assert!(
            preempt.switch_cycles > rtc.switch_cycles,
            "preemption must pay more re-staging"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_lifecycle_lanes() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(3e4, 11);
        let cfg = ServingConfig::fcfs().with_quantum(2);
        let plain = simulate(&profiles, &w, 100, &cfg);
        let tracer = Tracer::enabled();
        let traced = simulate_traced(&profiles, &w, 100, &cfg, &tracer, "serving/");
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let lanes = tracer.lanes();
        let names: Vec<&str> = lanes.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            ["serving/tenant 0 synthetic", "serving/tenant 1 synthetic"]
        );
        for (name, events) in &lanes {
            let has = |n: &str| events.iter().any(|e| e.name.starts_with(n));
            assert!(has("arrive"), "{name} has arrivals");
            assert!(has("dispatch batch="), "{name} has dispatches");
            assert!(has("run L"), "{name} has run segments");
            assert!(has("complete"), "{name} has completions");
        }
        // The lifecycle lanes are a valid, deterministic Chrome trace.
        let a = smart_trace::chrome::export(&tracer).expect("valid trace");
        let retracer = Tracer::enabled();
        let _ = simulate_traced(&profiles, &w, 100, &cfg, &retracer, "serving/");
        let b = smart_trace::chrome::export(&retracer).expect("valid trace");
        assert_eq!(a, b, "same seed, byte-identical trace");
    }

    #[test]
    fn slo_deadlines_gate_goodput() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(6e4, 31);
        let loose = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_slo(vec![u64::MAX, u64::MAX]),
        );
        let tight = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_slo(vec![10_000, 20_000]),
        );
        assert_eq!(loose.slo_met, loose.completed);
        assert!(tight.slo_met < tight.completed);
        assert!(tight.goodput_rps() < loose.goodput_rps());
        assert!(tight.slo_attainment() < 1.0);
    }

    /// A draw from `0..n`; the modulo bias is irrelevant at these ranges.
    fn below(rng: &mut Rng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// One random differential case: 1–4 tenants of 1–30 layers each,
    /// every layer drawing its own total, compute (at most the total) and
    /// re-staging cycles; quantum 0–3, batches of 1–8 with a window of 0
    /// to three mean service times, an optional SLO, and Poisson or
    /// bursty arrivals at 0.3–1.5x the mix capacity; 1–2,000 requests, or
    /// one to three arrival blocks.
    fn random_case(rng: &mut Rng) -> (Vec<TenantProfile>, Workload, usize, ServingConfig) {
        let tenants = 1 + below(rng, 4) as usize;
        let profiles: Vec<TenantProfile> = (0..tenants)
            .map(|_| {
                let layers = 1 + below(rng, 30) as usize;
                let scale = 10 + below(rng, 5_000);
                let layer_cycles: Vec<u64> = (0..layers).map(|_| 1 + below(rng, scale)).collect();
                TenantProfile {
                    layer_compute: layer_cycles.iter().map(|&c| below(rng, c + 1)).collect(),
                    restage_cycles: (0..layers).map(|_| below(rng, scale)).collect(),
                    layer_cycles,
                    ..prof(1, 0, 0, 0)
                }
            })
            .collect();
        let mix: Vec<Tenant> = (0..tenants)
            .map(|t| {
                // Now and then a tenant gets no traffic at all.
                let weight = if t > 0 && below(rng, 8) == 0 {
                    0.0
                } else {
                    0.25 + 4.0 * rng.next_f64()
                };
                Tenant::of(ModelId::AlexNet, weight)
            })
            .collect();
        let capacity = mix_capacity_rps(&profiles, &mix);
        let service_cycles = (profiles[0].clock.as_si() / capacity) as u64;
        let arrivals = if below(rng, 2) == 0 {
            ArrivalModel::Poisson
        } else {
            ArrivalModel::Bursty {
                on_fraction: 0.1 + 0.9 * rng.next_f64(),
                period_s: (5.0 + 100.0 * rng.next_f64()) / capacity,
            }
        };
        let workload = Workload {
            tenants: mix,
            arrivals,
            rate_rps: (0.3 + 1.2 * rng.next_f64()) * capacity,
            seed: rng.next_u64(),
        };
        let window = if below(rng, 3) == 0 {
            0
        } else {
            below(rng, 3 * service_cycles + 1)
        };
        let mut cfg = ServingConfig::fcfs()
            .with_batching(1 + below(rng, 8) as u32, window)
            .with_quantum(below(rng, 4) as u32);
        if below(rng, 2) == 0 {
            let slo = profiles
                .iter()
                .map(|p| p.standalone_cycles() * (1 + below(rng, 10)))
                .collect();
            cfg = cfg.with_slo(slo);
        }
        // One case in eight streams several arrival blocks, so a refill
        // that drops, repeats or reorders a request shows.
        let n = if below(rng, 8) == 0 {
            ARRIVAL_BLOCK + below(rng, 2 * ARRIVAL_BLOCK as u64 + 8) as usize
        } else {
            1 + below(rng, 2_000) as usize
        };
        (profiles, workload, n, cfg)
    }

    /// The slot loop with prefix-sum pricing reproduces the reference
    /// loop's report on random non-uniform profiles, and on every tenth
    /// case its Chrome trace byte for byte. Uniform layers would hide a
    /// prefix index off by one or re-staging from the wrong layer.
    #[test]
    fn slot_loop_matches_the_reference_loop() {
        let mut rng = Rng::new(0x5e12_71a6);
        let (mut parks, mut multi, mut switches, mut refills) = (0, 0, 0, 0);
        for case in 0..300 {
            let (profiles, w, n, cfg) = random_case(&mut rng);
            refills += usize::from(n > ARRIVAL_BLOCK);
            let got = simulate(&profiles, &w, n, &cfg);
            let want = oracle::simulate_traced(&profiles, &w, n, &cfg, &Tracer::disabled(), "");
            assert_eq!(got, want, "case {case}: n {n}, {cfg:?}");
            parks += got.preemptions;
            multi += u64::from(got.batches < got.injected);
            switches += got.switches;
            if case % 10 == 0 {
                let (a, b) = (Tracer::enabled(), Tracer::enabled());
                let _ = simulate_traced(&profiles, &w, n, &cfg, &a, "t/");
                let _ = oracle::simulate_traced(&profiles, &w, n, &cfg, &b, "t/");
                let export = |t: &Tracer| smart_trace::chrome::export(t).expect("valid trace");
                assert_eq!(export(&a), export(&b), "case {case}: trace");
            }
        }
        // The draws reach every regime the loop distinguishes.
        assert!(
            parks > 0 && multi > 0 && switches > 0 && refills > 0,
            "{parks} {multi} {switches} {refills}"
        );
    }

    /// Cross-layer check: alone on the array a tenant never switches or
    /// parks, so its busy time is the replay's: every batch pays the
    /// model's total cycles once and each further request its compute.
    #[test]
    fn single_tenant_busy_time_equals_the_replay_totals() {
        use smart_core::scheme::Scheme;
        use smart_timing::{TimingCache, TimingConfig};

        let cache = TimingCache::new();
        let timing = TimingConfig::nominal();
        let n = 300u64;
        for scheme in [Scheme::smart(), Scheme::pipe()] {
            for model in [ModelId::AlexNet, ModelId::MobileNet] {
                let p = TenantProfile::build(&scheme, model, &timing, &cache).expect("hetero");
                let replay = cache.report(&scheme, model, &timing).expect("hetero");
                let total = replay.total_cycles();
                let compute: u64 = replay.layers.iter().map(|l| l.compute_cycles).sum();
                // Near saturation, so a window lets batches form.
                let w =
                    Workload::poisson(vec![Tenant::of(model, 1.0)], 0.9 * p.standalone_rps(), 5);
                let window = p.standalone_cycles();
                for cfg in [
                    ServingConfig::fcfs(),
                    ServingConfig::fcfs().with_quantum(2),
                    ServingConfig::fcfs().with_batching(4, window),
                    ServingConfig::fcfs()
                        .with_batching(4, window)
                        .with_quantum(2),
                ] {
                    let r = simulate(std::slice::from_ref(&p), &w, n as usize, &cfg);
                    let what = format!("{} {} {cfg:?}", scheme.name, model.name());
                    assert_eq!(
                        r.service_cycles,
                        r.batches * total + (n - r.batches) * compute,
                        "{what}"
                    );
                    assert_eq!((r.switch_cycles, r.preemptions), (0, 0), "{what}");
                    if cfg.max_batch == 1 {
                        assert_eq!(r.batches, n, "{what}");
                    } else {
                        assert!(r.batches < n, "{what}: no batch formed");
                    }
                }
            }
        }
    }
}
