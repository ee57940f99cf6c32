//! End-to-end inference evaluation: per-layer latency and energy of a
//! scheme running a CNN model (the engine behind Figs. 5, 7, 18-21).
//!
//! The performance model (see DESIGN.md Sec. 3):
//!
//! * compute time comes from the weight-stationary fold mapping;
//! * streaming demands are served by the SPM arrays at their bank
//!   parallelism — a stall appears when an array cannot keep pace;
//! * SHIFT arrays additionally pay *rotation* at every fold boundary
//!   (scaled by [`SHIFT_SCAN_FACTOR`], the im2col re-scan multiplier);
//! * heterogeneous SPMs move loads and PSum spills through the RANDOM
//!   array, hidden behind compute according to the allocation policy
//!   (static double-buffering vs ILP prefetch);
//! * weights are assumed SPM-resident per layer (the paper sizes SPMs "to
//!   avoid thrashing traffic to DRAM"), so DRAM never appears on the
//!   critical path.

use crate::config::{AcceleratorConfig, COOLING_FACTOR};
use crate::scheme::{Scheme, SpmOrganization};
use smart_spm::service::{AccessCost, SpmService};
use smart_systolic::layer::CnnModel;
use smart_systolic::mapping::LayerMapping;
use smart_systolic::trace::{DataClass, LayerDemand};
use smart_units::{Energy, SmartError, Time};

/// Multiplier on SHIFT realignment distance: each fold boundary re-scans
/// the live region several times because overlapping im2col windows revisit
/// the same rows (calibrated so SuperNPU lands near its published 16% / 40%
/// single/batch utilization).
pub const SHIFT_SCAN_FACTOR: f64 = 6.0;

/// Fraction of PSum spill traffic that actually leaves the accelerator's
/// accumulator registers for the SPM (the rest accumulates in place).
pub const PSUM_SPILL_FACTOR: f64 = 0.25;

/// Per-layer evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Matrix-unit busy time.
    pub compute: Time,
    /// Stall waiting for SPM streaming bandwidth.
    pub stream_stall: Time,
    /// Exposed memory time (realignments, loads, spills) after overlap.
    pub exposed_mem: Time,
    /// Total layer latency.
    pub total: Time,
    /// MAC operations.
    pub macs: u64,
    /// SPM dynamic energy.
    pub spm_energy: Energy,
}

/// Whole-inference energy decomposition (Figs. 20-21 stacks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Matrix-unit dynamic energy.
    pub matrix: Energy,
    /// SPM dynamic energy.
    pub spm_dynamic: Energy,
    /// SPM static (leakage) energy.
    pub spm_static: Energy,
    /// Total including the 400x cooling overhead where applicable.
    pub total: Energy,
}

/// Whole-inference evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Scheme name.
    pub scheme: &'static str,
    /// Model name.
    pub model: String,
    /// Batch size evaluated.
    pub batch: u32,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// End-to-end latency for the whole batch.
    pub total_time: Time,
    /// Total MACs for the whole batch.
    pub macs: u64,
    /// Energy decomposition.
    pub energy: EnergyReport,
}

impl InferenceReport {
    /// Achieved throughput in TMAC/s.
    #[must_use]
    pub fn throughput_tmacs(&self) -> f64 {
        self.macs as f64 / self.total_time.as_s() / 1e12
    }

    /// Throughput normalized to a reference report (the figures' "norm.
    /// perf."), or a typed error when the ratio is not a finite positive
    /// number (zero-time reference, zero-MAC reference, non-finite
    /// inputs).
    ///
    /// # Errors
    ///
    /// [`SmartError::InvalidInput`] when the reference throughput is zero
    /// or non-finite, or the resulting ratio is non-finite.
    pub fn try_speedup_over(&self, reference: &Self) -> Result<f64, SmartError> {
        let denominator = reference.throughput_tmacs();
        if !denominator.is_finite() || denominator <= 0.0 {
            return Err(SmartError::invalid_input(format!(
                "reference report {}/{} has zero or non-finite throughput ({denominator} TMAC/s)",
                reference.scheme, reference.model
            )));
        }
        let ratio = self.throughput_tmacs() / denominator;
        if !ratio.is_finite() {
            return Err(SmartError::invalid_input(format!(
                "speedup of {}/{} over {}/{} is non-finite",
                self.scheme, self.model, reference.scheme, reference.model
            )));
        }
        Ok(ratio)
    }

    /// Throughput normalized to a reference report (the figures' "norm.
    /// perf.").
    ///
    /// Never returns NaN: a degenerate comparison (zero-time or zero-MAC
    /// reference) saturates to [`f64::INFINITY`] — deliberately *not* a
    /// finite stand-in, so the experiment runner's non-finite check
    /// (`all_experiments --check`) still flags the broken baseline instead
    /// of letting a huge finite number pass as a plausible speedup. Use
    /// [`InferenceReport::try_speedup_over`] for a typed error instead.
    #[must_use]
    pub fn speedup_over(&self, reference: &Self) -> f64 {
        self.try_speedup_over(reference).unwrap_or(f64::INFINITY)
    }

    /// Energy per inferred image, or a typed error for a degenerate
    /// report.
    ///
    /// # Errors
    ///
    /// [`SmartError::InvalidInput`] when the report's batch is zero (only
    /// possible for hand-constructed reports; [`evaluate`] rejects a zero
    /// batch) or its total energy is non-finite.
    pub fn try_energy_per_image(&self) -> Result<Energy, SmartError> {
        if self.batch == 0 {
            return Err(SmartError::invalid_input(format!(
                "report {}/{} has batch 0",
                self.scheme, self.model
            )));
        }
        let per_image = self.energy.total / f64::from(self.batch);
        if !per_image.is_finite() {
            return Err(SmartError::invalid_input(format!(
                "energy per image of {}/{} is non-finite",
                self.scheme, self.model
            )));
        }
        Ok(per_image)
    }

    /// Energy per inferred image.
    ///
    /// Never divides by zero: a (hand-constructed) zero batch is treated
    /// as one image. Use [`InferenceReport::try_energy_per_image`] to
    /// detect that case instead.
    #[must_use]
    pub fn energy_per_image(&self) -> Energy {
        self.energy.total / f64::from(self.batch.max(1))
    }
}

/// Evaluates one scheme on one model at one batch size.
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn evaluate(scheme: &Scheme, model: &CnnModel, batch: u32) -> InferenceReport {
    assert!(batch > 0, "batch must be positive");
    let config = &scheme.config;
    let overlap = scheme.policy.overlap_fraction();

    let mut layers = Vec::with_capacity(model.layers.len());
    let mut total_time = Time::ZERO;
    let mut total_macs = 0u64;
    let mut spm_dynamic = Energy::ZERO;

    for layer in &model.layers {
        let mapping = LayerMapping::map(layer, config.shape, batch);
        let demand = LayerDemand::derive(layer, &mapping);
        // Realignment distances are per-image (the data alignment unit
        // restarts each image's window), so derive them at batch 1.
        let single = LayerMapping::map(layer, config.shape, 1);
        let single_demand = LayerDemand::derive(layer, &single);

        let compute = mapping.compute_time(config.frequency);
        let (stream_stall, mem_serial, energy) = match &scheme.spm {
            SpmOrganization::Ideal => (Time::ZERO, Time::ZERO, Energy::ZERO),
            SpmOrganization::PureShift(spm) => {
                serve_pure_shift(spm, &demand, &single_demand, compute)
            }
            SpmOrganization::PureRandom(array) => serve_pure_random(array, &demand, compute),
            SpmOrganization::Heterogeneous(spm) => serve_hetero(spm, &mapping, &demand, compute),
        };

        let hidden = compute * overlap;
        let exposed_mem = (mem_serial - hidden).max(Time::ZERO);
        let total = compute + stream_stall + exposed_mem;

        total_time += total;
        total_macs += mapping.macs;
        spm_dynamic += energy;
        layers.push(LayerReport {
            name: layer.name.clone(),
            compute,
            stream_stall,
            exposed_mem,
            total,
            macs: mapping.macs,
            spm_energy: energy,
        });
    }

    let energy = energy_report(config, &scheme.spm, total_time, total_macs, spm_dynamic);

    InferenceReport {
        scheme: scheme.name,
        model: model.name.clone(),
        batch,
        layers,
        total_time,
        macs: total_macs,
        energy,
    }
}

/// SuperNPU service: streams run at lane parallelism; every fold boundary
/// rotates each class's lane across its (per-image) live region.
fn serve_pure_shift(
    spm: &crate::scheme::PureShiftSpm,
    demand: &LayerDemand,
    single_demand: &LayerDemand,
    compute: Time,
) -> (Time, Time, Energy) {
    let t_in = spm
        .input
        .serve_stream(demand.reads_of(DataClass::Input), false);
    let t_out = spm.output.serve_stream(
        demand.reads_of(DataClass::Psum)
            + demand.writes_of(DataClass::Psum)
            + demand.writes_of(DataClass::Output),
        true,
    );
    let t_w = spm
        .weight
        .serve_stream(demand.reads_of(DataClass::Weight), false);
    let stream_max = t_in.time.max(t_out.time).max(t_w.time);
    let stream_stall = (stream_max - compute).max(Time::ZERO);

    let mut realign = AccessCost::ZERO;
    for r in &single_demand.realignments {
        let array = match r.class {
            DataClass::Input => &spm.input,
            DataClass::Psum | DataClass::Output => &spm.output,
            DataClass::Weight => &spm.weight,
        };
        let distance = (r.distance_bytes as f64 * SHIFT_SCAN_FACTOR) as u64;
        // One realignment per fold boundary, whatever the batch size:
        // consecutive images of a batch sit adjacently in the lane, so only
        // the first image of each fold pays the rewind (this is what makes
        // batching effective on SHIFT-based SPMs).
        let one = array.serve_realignment(distance);
        realign.time += one.time * r.count as f64;
        realign.energy += one.energy * r.count as f64;
    }

    let energy = t_in.energy + t_out.energy + t_w.energy + realign.energy;
    (stream_stall, realign.time, energy)
}

/// Homogeneous random-array service: every word goes through one array.
fn serve_pure_random(
    array: &smart_cryomem::array::RandomArray,
    demand: &LayerDemand,
    compute: Time,
) -> (Time, Time, Energy) {
    let reads: u64 = demand.stream_reads.iter().map(|(_, w)| w).sum();
    let writes: u64 = demand.stream_writes.iter().map(|(_, w)| w).sum();
    let r = array.serve_stream(reads, false);
    let w = array.serve_stream(writes, true);
    let stream_time = r.time + w.time;
    let stream_stall = (stream_time - compute).max(Time::ZERO);

    let mut realign = AccessCost::ZERO;
    for ev in &demand.realignments {
        let one = array.serve_realignment(ev.distance_bytes);
        realign.time += one.time * ev.count as f64;
    }

    (stream_stall, realign.time, r.energy + w.energy)
}

/// Heterogeneous service: staging SHIFT arrays feed the matrix unit at full
/// rate; the RANDOM array carries loads (inputs + weights into staging) and
/// the PSum spill traffic whose working set exceeds the staging arrays.
fn serve_hetero(
    spm: &smart_spm::hetero::HeterogeneousSpm,
    mapping: &LayerMapping,
    demand: &LayerDemand,
    compute: Time,
) -> (Time, Time, Energy) {
    // Staging streams.
    let t_in = spm
        .input_shift
        .serve_stream(demand.reads_of(DataClass::Input), false);
    let t_out = spm
        .output_shift
        .serve_stream(demand.writes_of(DataClass::Output), true);
    let t_w = spm
        .weight_shift
        .serve_stream(demand.reads_of(DataClass::Weight), false);
    let stream_max = t_in.time.max(t_out.time).max(t_w.time);
    let stream_stall = (stream_max - compute).max(Time::ZERO);

    // RANDOM array: unique loads (inputs + weights) into staging.
    let load_words = mapping.live_input_bytes + mapping.weight_bytes;
    let loads = spm.random.serve_stream(load_words, false);

    // PSum spill: round trips for the part of the accumulation block that
    // does not fit the staging array or the matrix unit's accumulators.
    let psum_ws = mapping.live_output_bytes / mapping.m_folds.max(1);
    let psum_words = demand.reads_of(DataClass::Psum) + demand.writes_of(DataClass::Psum);
    let spill_words = if psum_ws > spm.output_shift.capacity_bytes() {
        (psum_words as f64 * PSUM_SPILL_FACTOR) as u64
    } else {
        0
    };
    let spill_r = spm.random.serve_stream(spill_words / 2, false);
    let spill_w = spm.random.serve_stream(spill_words - spill_words / 2, true);

    // Realignments become direct RANDOM accesses.
    let mut realign = AccessCost::ZERO;
    for ev in &demand.realignments {
        let one = spm.random.serve_realignment(ev.distance_bytes);
        realign.time += one.time * ev.count as f64;
    }

    // Capacity pressure: if the layer's activation working set exceeds the
    // RANDOM array, the overflow thrashes to DRAM (Fig. 23: a 14 MB array
    // hurts batches). Weights stream through their own staging path and are
    // sized per layer (the paper's no-thrashing assumption).
    let working_set = mapping.live_input_bytes + mapping.live_output_bytes;
    let dram_bytes = working_set.saturating_sub(spm.random.capacity_bytes);
    let dram_time = Time::from_s(dram_bytes as f64 / crate::config::DRAM_BANDWIDTH);

    // DRAM transfers use a separate channel and overlap the RANDOM-side
    // work; the serial memory demand is whichever is longer.
    let random_side = loads.time + spill_r.time + spill_w.time + realign.time;
    let mem_serial = random_side.max(dram_time);
    let energy =
        t_in.energy + t_out.energy + t_w.energy + loads.energy + spill_r.energy + spill_w.energy;
    (stream_stall, mem_serial, energy)
}

fn energy_report(
    config: &AcceleratorConfig,
    spm: &SpmOrganization,
    total_time: Time,
    macs: u64,
    spm_dynamic: Energy,
) -> EnergyReport {
    if let Some(power) = config.average_power {
        // Fixed-power baseline (TPU): all energy lumped, no cooling.
        let total = power * total_time;
        return EnergyReport {
            matrix: total * 0.6,
            spm_dynamic: total * 0.4,
            spm_static: Energy::ZERO,
            total,
        };
    }
    let matrix = Energy::from_j(config.mac_energy_j * macs as f64);
    let leak_power = match spm {
        SpmOrganization::Ideal | SpmOrganization::PureShift(_) => smart_units::Power::ZERO,
        SpmOrganization::PureRandom(a) => a.leakage,
        SpmOrganization::Heterogeneous(h) => h.leakage(),
    };
    let spm_static = leak_power * total_time;
    let chip = matrix + spm_dynamic + spm_static;
    let total = if config.cryogenic {
        chip * COOLING_FACTOR
    } else {
        chip
    };
    EnergyReport {
        matrix,
        spm_dynamic,
        spm_static,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use smart_systolic::models::ModelId;

    fn alexnet_single(scheme: &Scheme) -> InferenceReport {
        evaluate(scheme, &ModelId::AlexNet.build(), 1)
    }

    #[test]
    fn supernpu_beats_tpu_single_image() {
        // Fig. 18: SuperNPU improves single-image throughput over TPU by
        // ~8.6x (we accept 3x-20x).
        let tpu = alexnet_single(&Scheme::tpu());
        let sn = alexnet_single(&Scheme::supernpu());
        let speedup = sn.speedup_over(&tpu);
        assert!((3.0..=25.0).contains(&speedup), "speedup = {speedup:.1}");
    }

    #[test]
    fn sram_slower_than_supernpu() {
        // Fig. 18: "Josephson-CMOS SRAM arrays actually decrease the
        // inference throughput" vs SuperNPU.
        let sn = alexnet_single(&Scheme::supernpu());
        let sram = alexnet_single(&Scheme::sram());
        assert!(sram.speedup_over(&sn) < 1.0);
    }

    #[test]
    fn heter_between_sram_and_supernpu() {
        // Fig. 18: "Heter still obtains lower inference throughput than
        // SuperNPU" but beats plain SRAM.
        let sn = alexnet_single(&Scheme::supernpu());
        let sram = alexnet_single(&Scheme::sram());
        let heter = alexnet_single(&Scheme::heter());
        assert!(heter.speedup_over(&sram) > 1.0, "Heter should beat SRAM");
        assert!(
            heter.speedup_over(&sn) < 1.0,
            "Heter should lose to SuperNPU"
        );
    }

    #[test]
    fn pipe_beats_supernpu_by_about_2_4x() {
        let sn = alexnet_single(&Scheme::supernpu());
        let pipe = alexnet_single(&Scheme::pipe());
        let x = pipe.speedup_over(&sn);
        assert!((1.5..=4.0).contains(&x), "Pipe/SuperNPU = {x:.2}");
    }

    #[test]
    fn smart_beats_supernpu_by_about_3_9x() {
        let sn = alexnet_single(&Scheme::supernpu());
        let smart = alexnet_single(&Scheme::smart());
        let x = smart.speedup_over(&sn);
        assert!((2.5..=6.0).contains(&x), "SMART/SuperNPU = {x:.2}");
    }

    #[test]
    fn smart_beats_pipe() {
        // The ILP compiler's prefetching is worth ~1.6x on top of Pipe.
        let pipe = alexnet_single(&Scheme::pipe());
        let smart = alexnet_single(&Scheme::smart());
        assert!(smart.speedup_over(&pipe) > 1.1);
    }

    #[test]
    fn batch_improves_supernpu_throughput() {
        // Sec. 6.2: SuperNPU batch throughput ~2.5x its single-image
        // throughput.
        let model = ModelId::AlexNet.build();
        let sn = Scheme::supernpu();
        let single = evaluate(&sn, &model, 1);
        let batch = evaluate(&sn, &model, ModelId::AlexNet.supernpu_batch());
        let gain = batch.throughput_tmacs() / single.throughput_tmacs();
        assert!(gain > 1.5, "batch gain = {gain:.2}");
    }

    #[test]
    fn smart_batch_gain_smaller_than_supernpu_gain() {
        // SMART is already fast at batch 1; its batch gain is smaller
        // (Sec. 6.2: 34.5% vs 2.5x).
        let model = ModelId::AlexNet.build();
        let sn_gain = {
            let s = Scheme::supernpu();
            evaluate(&s, &model, 30).throughput_tmacs() / evaluate(&s, &model, 1).throughput_tmacs()
        };
        let smart_gain = {
            let s = Scheme::smart();
            evaluate(&s, &model, 22).throughput_tmacs() / evaluate(&s, &model, 1).throughput_tmacs()
        };
        assert!(
            smart_gain < sn_gain,
            "smart {smart_gain:.2} vs sn {sn_gain:.2}"
        );
    }

    #[test]
    fn smart_reduces_energy_vs_supernpu() {
        // Fig. 20: SMART reduces single-image inference energy by ~86%
        // (we accept >= 50%).
        let sn = alexnet_single(&Scheme::supernpu());
        let smart = alexnet_single(&Scheme::smart());
        let ratio = smart.energy.total.as_si() / sn.energy.total.as_si();
        assert!(ratio < 0.5, "energy ratio = {ratio:.2}");
    }

    #[test]
    fn cooling_dominates_sfq_energy() {
        let sn = alexnet_single(&Scheme::supernpu());
        let chip = sn.energy.matrix + sn.energy.spm_dynamic + sn.energy.spm_static;
        assert!((sn.energy.total.as_si() / chip.as_si() - 400.0).abs() < 1.0);
    }

    #[test]
    fn tpu_energy_is_power_times_time() {
        let tpu = alexnet_single(&Scheme::tpu());
        let expected = 40.0 * tpu.total_time.as_s();
        assert!((tpu.energy.total.as_j() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn throughput_below_peak() {
        for scheme in Scheme::figure18_set() {
            let r = alexnet_single(&scheme);
            assert!(
                r.throughput_tmacs() <= scheme.config.peak_tmacs() * 1.001,
                "{} exceeds peak",
                scheme.name
            );
        }
    }

    /// A degenerate hand-constructed report (no layers, zero time, zero
    /// batch) for the guard tests.
    fn degenerate() -> InferenceReport {
        InferenceReport {
            scheme: "degenerate",
            model: "none".to_owned(),
            batch: 0,
            layers: Vec::new(),
            total_time: Time::ZERO,
            macs: 0,
            energy: EnergyReport {
                matrix: Energy::ZERO,
                spm_dynamic: Energy::ZERO,
                spm_static: Energy::ZERO,
                total: Energy::from_j(1.0),
            },
        }
    }

    #[test]
    fn speedup_over_degenerate_reference_is_a_typed_error() {
        let good = alexnet_single(&Scheme::smart());
        let bad = degenerate();
        let err = good.try_speedup_over(&bad).unwrap_err();
        assert!(matches!(err, SmartError::InvalidInput { .. }), "{err}");
        // The infallible form saturates to +inf (never NaN), so the
        // runner's non-finite check still catches the degenerate baseline.
        let saturated = good.speedup_over(&bad);
        assert!(!saturated.is_nan());
        assert_eq!(saturated, f64::INFINITY);
    }

    #[test]
    fn speedup_between_real_reports_matches_try_variant() {
        let sn = alexnet_single(&Scheme::supernpu());
        let smart = alexnet_single(&Scheme::smart());
        let fallible = smart.try_speedup_over(&sn).expect("finite");
        assert!((smart.speedup_over(&sn) - fallible).abs() < 1e-12);
    }

    #[test]
    fn energy_per_image_zero_batch_is_guarded() {
        let bad = degenerate();
        let err = bad.try_energy_per_image().unwrap_err();
        assert!(matches!(err, SmartError::InvalidInput { .. }), "{err}");
        // Documented saturation: batch 0 is priced as one image.
        let e = bad.energy_per_image();
        assert!(e.is_finite());
        assert!((e.as_j() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_per_image_real_report_is_finite_and_divides_batch() {
        let model = ModelId::AlexNet.build();
        let s = Scheme::supernpu();
        let r = evaluate(&s, &model, 30);
        let per_image = r.try_energy_per_image().expect("finite");
        assert!((per_image.as_si() - r.energy.total.as_si() / 30.0).abs() < 1e-18);
        assert_eq!(per_image, r.energy_per_image());
    }

    #[test]
    fn report_totals_consistent() {
        let r = alexnet_single(&Scheme::smart());
        let sum: Time = r.layers.iter().map(|l| l.total).sum();
        assert!((sum.as_si() - r.total_time.as_si()).abs() < 1e-12);
        let mac_sum: u64 = r.layers.iter().map(|l| l.macs).sum();
        assert_eq!(mac_sum, r.macs);
    }
}
