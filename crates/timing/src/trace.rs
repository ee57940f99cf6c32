//! Deterministic span derivation for replay timelines.
//!
//! [`trace_model_replay`] converts a finished [`ModelTimingReport`] into
//! a span tree on the virtual replay-cycle clock: one span per layer,
//! tiled exactly by `compute`, `stream stall`, and the per-class exposed
//! stalls. The tree is *derived from the accounting identity*
//! (`total = compute + stream_stall + Σ exposed`, see
//! [`TimingReport::is_consistent`]) rather than recorded inside the
//! replay inner loop — so the replay hot path stays untouched, the
//! timeline is identical whether the report came from a cold replay or a
//! warm [`crate::cache::TimingCache`] hit, and the spans sum to the
//! layer totals by construction.

use crate::report::{ModelTimingReport, TimingReport};
use smart_systolic::trace::DataClass;
use smart_trace::Tracer;

/// Records the replay timeline of `report` onto the lane `lane_name`.
///
/// Layers are laid out back to back starting at virtual cycle 0, each
/// wrapped in a span named after the layer and tiled by its non-zero
/// accounting components in identity order (compute, stream stall, then
/// exposed stalls per [`DataClass::ALL`]). A model-level root span named
/// `"<scheme> <model>"` encloses everything. No-op on a disabled tracer.
pub fn trace_model_replay(report: &ModelTimingReport, tracer: &Tracer, lane_name: &str) {
    if !tracer.is_enabled() {
        return;
    }
    let lane = tracer.lane(lane_name);
    let root = format!("{} {}", report.scheme, report.model);
    lane.begin(&root, 0);
    let mut t = 0u64;
    for layer in &report.layers {
        t = trace_layer(layer, &lane, t);
    }
    lane.end(&root, t);
}

/// Emits one layer's span tree starting at `t`; returns the end cycle.
/// An inconsistent report (components exceeding `total_cycles`) extends
/// the layer span to cover its children so the trace stays valid.
fn trace_layer(layer: &TimingReport, lane: &smart_trace::Lane, t: u64) -> u64 {
    let accounted = layer.compute_cycles + layer.stream_stall_cycles + layer.exposed_total();
    let end = t + layer.total_cycles.max(accounted);
    lane.begin(&layer.name, t);
    let mut cursor = t;
    if layer.compute_cycles > 0 {
        lane.span("compute", cursor, cursor + layer.compute_cycles);
        cursor += layer.compute_cycles;
    }
    if layer.stream_stall_cycles > 0 {
        lane.span("stream stall", cursor, cursor + layer.stream_stall_cycles);
        cursor += layer.stream_stall_cycles;
    }
    for class in DataClass::ALL {
        let cycles = layer.exposed_of(class);
        if cycles > 0 {
            lane.span(
                &format!("exposed {}", class.name()),
                cursor,
                cursor + cycles,
            );
            cursor += cycles;
        }
    }
    lane.end(&layer.name, end);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_trace::{chrome, EventKind};
    use smart_units::Frequency;

    fn layer(name: &str, compute: u64, stream: u64, exposed: [u64; 4]) -> TimingReport {
        TimingReport {
            name: name.to_owned(),
            placement_bytes: (0, 0, 0),
            total_cycles: compute + stream + exposed.iter().sum::<u64>(),
            compute_cycles: compute,
            stream_stall_cycles: stream,
            exposed_stall_cycles: exposed,
            prefetch_work_cycles: 0,
            prefetch_stall_cycles: 0,
            random_busy_cycles: 0,
        }
    }

    fn model() -> ModelTimingReport {
        ModelTimingReport {
            scheme: "SMART",
            model: "toy".to_owned(),
            clock: Frequency::from_ghz(52.6),
            layers: vec![
                layer("conv1", 100, 10, [5, 0, 0, 5]),
                layer("conv2", 50, 0, [0, 20, 0, 0]),
            ],
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        trace_model_replay(&model(), &tracer, "replay/toy");
        assert_eq!(tracer.event_count(), 0);
    }

    #[test]
    fn spans_tile_the_accounting_identity() {
        let tracer = Tracer::enabled();
        trace_model_replay(&model(), &tracer, "replay/toy");
        let lanes = tracer.lanes();
        let events = &lanes["replay/toy"];
        // Root span covers both layers back to back.
        assert_eq!(events[0].name, "SMART toy");
        assert_eq!(events[0].kind, EventKind::Begin);
        let last = events.last().expect("events");
        assert_eq!((last.name.as_str(), last.ts), ("SMART toy", 190));
        // conv1 [0, 120] tiled compute / stream stall / exposed classes;
        // conv2 starts where conv1 ends. Zero components are skipped.
        let begins: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .map(|e| (e.name.as_str(), e.ts))
            .collect();
        assert_eq!(
            begins,
            [
                ("SMART toy", 0),
                ("conv1", 0),
                ("compute", 0),
                ("stream stall", 100),
                ("exposed weights", 110),
                ("exposed psums", 115),
                ("conv2", 120),
                ("compute", 120),
                ("exposed inputs", 170),
            ]
        );
        // The derived tree is a valid, exportable Chrome trace.
        chrome::export(&tracer).expect("valid nesting and timestamps");
    }

    #[test]
    fn same_report_exports_identical_bytes() {
        let export = |_: u32| {
            let tracer = Tracer::enabled();
            trace_model_replay(&model(), &tracer, "replay/toy");
            chrome::export(&tracer).expect("valid trace")
        };
        assert_eq!(export(0), export(1));
    }
}
