//! The serving experiments: the multi-tenant simulator of
//! `smart-serving` driven across schemes, offered loads, batch policies,
//! and tenant mixes.
//!
//! All three experiments share one tenant-profile build per
//! `(scheme, model)` through the context's [`TimingCache`] — the
//! expensive `ModelPrepass` behind each profile is paid once and every
//! sweep point replays it — and one *scheme-independent* SLO: deadlines
//! derived from the Heter baseline's stand-alone latencies (× a fixed
//! factor), so SMART-vs-Pipe goodput is compared at equal deadlines
//! rather than each scheme being graded on its own curve.
//!
//! Everything is deterministic: traces come from seeded generators, the
//! dispatch simulator draws no randomness, and sweeps fan out through
//! order-preserving [`parallel_map`], so the tables are byte-identical
//! at any `--jobs` (the golden snapshot covers them at `--jobs 2`).
//!
//! [`TimingCache`]: smart_timing::TimingCache

// lint:allow-file(index, tenant and bucket arrays are sized by the same bounds that index them)

use crate::ExperimentContext;
use smart_core::scheme::Scheme;
use smart_report::{parallel_map, ColumnSpec, ResultTable, Unit, Value};
use smart_serving::{
    mix_capacity_rps, simulate_traced, ArrivalModel, ServingConfig, ServingReport, Tenant,
    TenantProfile, Workload,
};
use smart_systolic::models::ModelId;
use smart_timing::TimingConfig;

/// The schemes the serving studies compare (all heterogeneous-SPM, all
/// on the same clock), the Heter baseline first.
fn schemes() -> [Scheme; 3] {
    [Scheme::heter(), Scheme::pipe(), Scheme::smart()]
}

/// The canonical two-tenant mix: a latency-lean CNN sharing the array
/// with a heavier one, 3:1 traffic split.
fn canonical_mix() -> Vec<Tenant> {
    vec![
        Tenant::of(ModelId::AlexNet, 3.0),
        Tenant::of(ModelId::MobileNet, 1.0),
    ]
}

/// Builds one profile per tenant on `scheme` through the shared caches.
fn profiles(scheme: &Scheme, tenants: &[Tenant], ctx: &ExperimentContext) -> Vec<TenantProfile> {
    let cfg = TimingConfig::nominal();
    tenants
        .iter()
        .map(|t| {
            TenantProfile::build(scheme, t.model, &cfg, &ctx.timing)
                // lint:allow(panic_freedom, serving experiments only build heterogeneous schemes, which always profile)
                .expect("serving schemes are heterogeneous")
        })
        .collect()
}

/// Adds the event-loop work of serving runs to the context's counters:
/// `serving.requests`, `serving.batches`, `serving.preemptions` and
/// `serving.switches`. The loop runs `batches + preemptions` layer
/// segments, so these are its noise-free work measure.
pub fn count_serving_work(ctx: &ExperimentContext, reports: &[ServingReport]) {
    for r in reports {
        ctx.metrics.add("serving.requests", r.injected);
        ctx.metrics.add("serving.batches", r.batches);
        ctx.metrics.add("serving.preemptions", r.preemptions);
        ctx.metrics.add("serving.switches", r.switches);
    }
}

/// Scheme-independent SLO deadlines: `factor ×` each tenant's
/// stand-alone latency on the Heter baseline (`heter`: the tenants'
/// Heter profiles), in cycles (the serving schemes share one clock,
/// asserted by the callers).
fn reference_slo(heter: &[TenantProfile], factor: u64) -> Vec<u64> {
    heter
        .iter()
        .map(|p| p.standalone_cycles() * factor)
        .collect()
}

/// `serving_saturation`: p99 tail latency and goodput vs offered load
/// for Heter / Pipe / SMART under one FCFS discipline and one shared
/// SLO. The load axis is a fraction of each scheme's *own* mix capacity
/// (the schemes differ ~30x in raw speed, so a shared absolute axis
/// would leave the fast ones idle while Heter melts); every scheme's
/// tail then shows its knee at the same relative load, while SMART's
/// higher absolute capacity keeps its goodput column strictly above
/// Pipe's at the shared deadlines.
#[must_use]
pub fn serving_saturation(ctx: &ExperimentContext) -> ResultTable {
    let tenants = canonical_mix();
    let schemes = schemes();
    let profs: Vec<Vec<TenantProfile>> =
        schemes.iter().map(|s| profiles(s, &tenants, ctx)).collect();
    for p in &profs {
        assert_eq!(p[0].clock, profs[0][0].clock, "shared clock");
    }
    // `schemes()` lists Heter first, so `profs[0]` is the Heter set.
    let slo = reference_slo(&profs[0], 8);
    let capacities: Vec<f64> = profs
        .iter()
        .map(|p| mix_capacity_rps(p, &tenants))
        .collect();
    let loads = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2];
    const N: usize = 400;

    let mut t = ResultTable::new(
        "serving_saturation",
        "Serving saturation: p99 latency and goodput vs offered load \
         (AlexNet+MobileNet 3:1, Poisson, FCFS, SLO = 8x Heter standalone)",
    );
    t.columns = vec![ColumnSpec::right("load", 6)];
    for s in &schemes {
        t.columns
            .push(ColumnSpec::right(format!("{}-p99(us)", s.name), 14));
        t.columns
            .push(ColumnSpec::right(format!("{}-good(krps)", s.name), 16));
    }

    let points: Vec<(usize, usize)> = (0..loads.len())
        .flat_map(|l| (0..schemes.len()).map(move |s| (l, s)))
        .collect();
    let reports = parallel_map(ctx.jobs, &points, |&(l, s)| {
        let w = Workload::poisson(tenants.clone(), loads[l] * capacities[s], 42);
        // One lane group per sweep point: the point has a single writer,
        // so its lanes are deterministic at any --jobs.
        let prefix = format!(
            "serving_saturation/{} load {:.1}/",
            schemes[s].name, loads[l]
        );
        simulate_traced(
            &profs[s],
            &w,
            N,
            &ServingConfig::fcfs().with_slo(slo.clone()),
            &ctx.tracer,
            &prefix,
        )
    });
    count_serving_work(ctx, &reports);

    for (l, &load) in loads.iter().enumerate() {
        let mut row = vec![Value::num(load, 1)];
        for s in 0..schemes.len() {
            let r = &reports[l * schemes.len() + s];
            row.push(Value::time(r.p99(), Unit::Us, 3));
            row.push(Value::num(r.goodput_rps() / 1e3, 1));
        }
        t.push_row(row);
    }
    t.push_note(format!(
        "load = fraction of each scheme's own mix capacity ({}); \
         {N} requests per point, seed 42, shared SLO deadlines",
        schemes
            .iter()
            .zip(&capacities)
            .map(|(s, c)| format!("{} {:.0} rps", s.name, c))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    t
}

/// `serving_batch_tail`: the batch-formation trade on SMART — larger
/// windows/batches amortize staging (throughput up, thrash down) but
/// hold early arrivals hostage (tail up).
#[must_use]
pub fn serving_batch_tail(ctx: &ExperimentContext) -> ResultTable {
    let tenants = canonical_mix();
    let scheme = Scheme::smart();
    let profs = profiles(&scheme, &tenants, ctx);
    let slo = reference_slo(&profiles(&Scheme::heter(), &tenants, ctx), 8);
    let rate = 0.75 * mix_capacity_rps(&profs, &tenants);
    let clock = profs[0].clock;
    let window_us = |us: f64| (us * 1e-6 * clock.as_si()) as u64;
    const N: usize = 600;

    let policies: [(u32, f64); 6] = [(1, 0.0), (2, 2.0), (4, 2.0), (8, 2.0), (4, 10.0), (8, 10.0)];

    let mut t = ResultTable::new(
        "serving_batch_tail",
        "Serving batch formation on SMART: tail latency vs staging amortization \
         (AlexNet+MobileNet 3:1, Poisson at 75% capacity)",
    );
    t.columns = vec![
        ColumnSpec::right("batch", 6),
        ColumnSpec::right("window(us)", 11),
        ColumnSpec::right("p50(us)", 10),
        ColumnSpec::right("p99(us)", 10),
        ColumnSpec::right("p999(us)", 10),
        ColumnSpec::right("good(krps)", 11),
        ColumnSpec::right("util", 7),
        ColumnSpec::right("thrash", 7),
    ];

    let reports = parallel_map(ctx.jobs, &policies, |&(batch, wus)| {
        let w = Workload::poisson(tenants.clone(), rate, 42);
        let prefix = format!("serving_batch_tail/batch {batch} window {wus}us/");
        simulate_traced(
            &profs,
            &w,
            N,
            &ServingConfig::fcfs()
                .with_batching(batch, window_us(wus))
                .with_slo(slo.clone()),
            &ctx.tracer,
            &prefix,
        )
    });
    count_serving_work(ctx, &reports);

    for ((batch, wus), r) in policies.iter().zip(&reports) {
        t.push_row(vec![
            Value::count(u64::from(*batch)),
            Value::num(*wus, 1),
            Value::time(r.p50(), Unit::Us, 3),
            Value::time(r.p99(), Unit::Us, 3),
            Value::time(r.p999(), Unit::Us, 3),
            Value::num(r.goodput_rps() / 1e3, 1),
            Value::percent(r.utilization(), 1),
            Value::percent(r.thrash_overhead(), 1),
        ]);
    }
    t.push_note(format!(
        "{N} requests per policy at {:.0} rps, seed 42; window holds a \
         batch head for co-arrivals before launch",
        rate
    ));
    t
}

/// `serving_tenant_mix`: how the mix shape (balanced / skewed / bursty)
/// moves the tail and the SPM-thrash bill across schemes — SMART's
/// larger resident working sets make each cold switch dearer, but its
/// faster layers clear the backlog sooner.
#[must_use]
pub fn serving_tenant_mix(ctx: &ExperimentContext) -> ResultTable {
    let mixes: [(&str, Vec<Tenant>, ArrivalModel); 3] = [
        (
            "balanced",
            vec![
                Tenant::of(ModelId::AlexNet, 1.0),
                Tenant::of(ModelId::MobileNet, 1.0),
            ],
            ArrivalModel::Poisson,
        ),
        (
            "skewed",
            vec![
                Tenant::of(ModelId::AlexNet, 4.0),
                Tenant::of(ModelId::MobileNet, 1.0),
            ],
            ArrivalModel::Poisson,
        ),
        (
            "bursty",
            vec![
                Tenant::of(ModelId::AlexNet, 1.0),
                Tenant::of(ModelId::MobileNet, 1.0),
            ],
            ArrivalModel::Bursty {
                on_fraction: 0.25,
                period_s: 2e-4,
            },
        ),
    ];
    let schemes = schemes();
    const N: usize = 400;

    let mut t = ResultTable::new(
        "serving_tenant_mix",
        "Serving tenant mixes: tails and SPM thrash across schemes \
         (Poisson/bursty at 60% of the Heter mix capacity, FCFS)",
    );
    t.columns = vec![
        ColumnSpec::left("mix", 10),
        ColumnSpec::left("scheme", 7),
        ColumnSpec::right("p50(us)", 10),
        ColumnSpec::right("p99(us)", 10),
        ColumnSpec::right("good(krps)", 11),
        ColumnSpec::right("thrash", 7),
        ColumnSpec::right("switches", 9),
    ];

    // Each (mix, scheme) profile set once, before the fan-out; the Heter
    // set (scheme 0) also prices each mix's SLO and offered rate.
    let profs: Vec<Vec<Vec<TenantProfile>>> = mixes
        .iter()
        .map(|(_, tenants, _)| schemes.iter().map(|s| profiles(s, tenants, ctx)).collect())
        .collect();
    let points: Vec<(usize, usize)> = (0..mixes.len())
        .flat_map(|m| (0..schemes.len()).map(move |s| (m, s)))
        .collect();
    let reports = parallel_map(ctx.jobs, &points, |&(m, s)| {
        let (_, tenants, arrivals) = &mixes[m];
        let heter = &profs[m][0];
        let slo = reference_slo(heter, 8);
        let rate = 0.6 * mix_capacity_rps(heter, tenants);
        let w = Workload {
            tenants: tenants.clone(),
            arrivals: *arrivals,
            rate_rps: rate,
            seed: 42,
        };
        let prefix = format!("serving_tenant_mix/{} {}/", mixes[m].0, schemes[s].name);
        simulate_traced(
            &profs[m][s],
            &w,
            N,
            &ServingConfig::fcfs().with_slo(slo),
            &ctx.tracer,
            &prefix,
        )
    });
    count_serving_work(ctx, &reports);

    for (m, (name, _, _)) in mixes.iter().enumerate() {
        for (s, scheme) in schemes.iter().enumerate() {
            let r = &reports[m * schemes.len() + s];
            t.push_row(vec![
                Value::text(*name),
                Value::text(scheme.name),
                Value::time(r.p50(), Unit::Us, 3),
                Value::time(r.p99(), Unit::Us, 3),
                Value::num(r.goodput_rps() / 1e3, 1),
                Value::percent(r.thrash_overhead(), 1),
                Value::count(r.switches),
            ]);
        }
    }
    t.push_note(format!(
        "{N} requests per cell, seed 42; bursty = on/off modulated \
         arrivals (25% duty, 200 us period) at the same average rate"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_p99_is_monotone_with_a_knee_and_smart_beats_pipe() {
        let ctx = ExperimentContext::new(2);
        let t = serving_saturation(&ctx);
        assert_eq!(t.rows.len(), 6);
        // Columns: load, then (p99, goodput) per scheme in
        // [Heter, Pipe, SMART] order.
        let p99 = |row: usize, scheme: usize| {
            t.rows[row][1 + 2 * scheme]
                .as_display_f64()
                .expect("numeric p99")
        };
        let goodput = |row: usize, scheme: usize| {
            t.rows[row][2 + 2 * scheme]
                .as_display_f64()
                .expect("numeric goodput")
        };
        for scheme in 0..3 {
            for row in 1..t.rows.len() {
                assert!(
                    p99(row, scheme) >= p99(row - 1, scheme),
                    "scheme {scheme}: p99 not monotone at row {row}"
                );
            }
            // A knee: the tail at overload dwarfs the idle tail.
            assert!(
                p99(t.rows.len() - 1, scheme) > 4.0 * p99(0, scheme),
                "scheme {scheme}: no saturation knee"
            );
        }
        // SMART strictly outserves Pipe at the shared SLO once load bites.
        for row in 3..t.rows.len() {
            assert!(
                goodput(row, 2) > goodput(row, 1),
                "row {row}: SMART goodput {} <= Pipe {}",
                goodput(row, 2),
                goodput(row, 1)
            );
        }
        assert!(t.non_finite_cells().is_empty());
    }

    #[test]
    fn sweeps_pay_one_prepass_per_scheme_model_pair() {
        // Asserted through the unified metrics snapshot — the same
        // counters `--metrics` dumps — so this test and the stderr
        // reports cannot diverge. Hits are `hits + coalesced`: which
        // concurrent requester wins the miss is timing-dependent, the
        // sum is not.
        let ctx = ExperimentContext::new(2);
        let _ = serving_saturation(&ctx);
        let after_saturation = ctx.metrics_snapshot();
        // 3 schemes x 2 models, each built once: the SLO reuses the
        // Heter set, so nothing hits yet.
        assert_eq!(after_saturation.counter("timing_cache.misses"), 6);
        let warm_after_saturation = after_saturation.counter("timing_cache.hits")
            + after_saturation.counter("timing_cache.coalesced");
        assert_eq!(warm_after_saturation, 0);

        let _ = serving_batch_tail(&ctx);
        let after_batch = ctx.metrics_snapshot();
        assert_eq!(
            after_batch.counter("timing_cache.misses"),
            6,
            "batch_tail reuses the prepasses"
        );
        assert!(
            after_batch.counter("timing_cache.hits")
                + after_batch.counter("timing_cache.coalesced")
                > warm_after_saturation
        );
    }

    #[test]
    fn tenant_mix_is_deterministic_across_jobs() {
        let a = serving_tenant_mix(&ExperimentContext::single_threaded());
        let b = serving_tenant_mix(&ExperimentContext::new(4));
        assert_eq!(a.to_text(), b.to_text());
    }
}
