//! The experiment builders: one function per table/figure of the paper
//! (plus the ablations), each producing a typed
//! [`ResultTable`] instead of pre-formatted text.
//!
//! Builders share one [`ExperimentContext`]: its evaluation cache
//! deduplicates the baseline evaluations that recur across figures (the
//! TPU and SuperNPU reports divide every speedup/energy column), and its
//! `jobs` knob fans model/scheme grids and sweep points across worker
//! threads. The legacy text output of every figure is derived from the
//! table by [`ResultTable::to_text`].

// lint:allow-file(panic_freedom, experiment builders run under the snapshot/CI harness; a violated builder invariant must abort the run loudly, and every expect states the invariant)
// lint:allow-file(index, experiment tables index small fixed-size axis arrays defined beside their loops)

use crate::ExperimentContext;
use smart_core::area::ChipArea;
use smart_core::scheme::Scheme;
use smart_cryomem::array::{fig9_breakdown, RandomArray, RandomArrayKind};
use smart_cryomem::pipeline::explore;
use smart_cryomem::subbank::{chip_validation_data, SubBankConfig, SubBankModel};
use smart_cryomem::tech::MemoryTechnology;
use smart_josim::cells::CellSpec;
use smart_josim::fixtures::validate_ptl_model;
use smart_report::{parallel_map, ColumnSpec, ResultTable, Unit, Value};
use smart_search::{SearchConfig, SearchSpace};
use smart_sfq::cells::{JtlChainSpec, PtlLinkSpec, SplitterFanoutSpec};
use smart_sfq::components::{Component, ComponentKind};
use smart_sfq::hop::PtlHop;
use smart_sfq::jj::JosephsonJunction;
use smart_sfq::wire::{wire_comparison, WireTechnology};
use smart_spm::shift::ShiftArray;
use smart_systolic::mapping::ArrayShape;
use smart_systolic::models::ModelId;
use smart_systolic::trace::weight_trace_sample;
use smart_units::Length;

const MB: u64 = 1024 * 1024;

/// Fig. 2: PTL vs JTL vs CMOS wire latency and energy across lengths.
#[must_use]
pub fn fig02_wires(_ctx: &ExperimentContext) -> ResultTable {
    let lengths = [10.0, 25.0, 50.0, 100.0, 150.0, 200.0];
    let mut t = ResultTable::new(
        "fig02",
        "Figure 2: interconnect comparison (latency ps / energy J)",
    );
    t.columns = vec![ColumnSpec::right("len(um)", 8)];
    for tech in WireTechnology::ALL {
        t.columns
            .push(ColumnSpec::right(format!("{}(ps)", tech.name()), 10));
        t.columns
            .push(ColumnSpec::right(format!("{}(J)", tech.name()), 10));
    }
    for &um in &lengths {
        let mut row = vec![Value::num(um, 0)];
        for &tech in WireTechnology::ALL.iter() {
            let p = smart_sfq::wire::wire_point(tech, Length::from_um(um));
            row.push(Value::time(p.latency, Unit::Ps, 3));
            row.push(Value::sci(p.energy.as_j(), 2));
        }
        t.push_row(row);
    }
    t.push_summary(
        "points",
        Value::count(wire_comparison(&lengths).len() as u64),
    );
    t
}

/// Table 1: the cryogenic memory technology comparison.
#[must_use]
pub fn table1_memories(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new("table1", "Table 1: cryogenic memory comparison");
    t.columns = vec![ColumnSpec::left("Feature", 22)];
    for label in ["SHIFT", "VTM", "SRAM", "MRAM", "SNM"] {
        t.columns.push(ColumnSpec::right(label, 8));
    }
    let params: Vec<_> = MemoryTechnology::ALL
        .iter()
        .map(|t| t.parameters())
        .collect();
    let row = |label: &str,
               f: &dyn Fn(&smart_cryomem::tech::TechnologyParameters) -> Value|
     -> Vec<Value> {
        let mut cells = vec![Value::text(label)];
        cells.extend(params.iter().map(f));
        cells
    };
    t.push_row(row("Read latency (ns)", &|p| {
        Value::time(p.read_latency, Unit::Ns, 2)
    }));
    t.push_row(row("Write latency (ns)", &|p| {
        Value::time(p.write_latency, Unit::Ns, 2)
    }));
    t.push_row(row("Cell size (F^2)", &|p| Value::num(p.cell_size_f2, 0)));
    t.push_row(row("Read energy (fJ)", &|p| {
        Value::energy(p.read_energy, Unit::Fj, 1)
    }));
    t.push_row(row("Write energy (fJ)", &|p| {
        Value::energy(p.write_energy, Unit::Fj, 1)
    }));
    t.push_row(row("Leakage", &|p| Value::text(p.leakage.label())));
    t.push_row(row("Random access", &|p| {
        Value::text(if p.random_access { "yes" } else { "no" })
    }));
    t
}

/// Table 2: SFQ H-Tree component latency and power.
#[must_use]
pub fn table2_components(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new("table2", "Table 2: SFQ H-Tree components");
    t.columns = vec![
        ColumnSpec::left("Component", 10),
        ColumnSpec::right("Latency(ps)", 12),
        ColumnSpec::right("Leakage(uW)", 16),
        ColumnSpec::right("Dynamic(nW)", 16),
    ];
    for kind in [
        ComponentKind::Splitter,
        ComponentKind::Driver,
        ComponentKind::Receiver,
        ComponentKind::NTron,
    ] {
        let c = Component::of(kind);
        t.push_row(vec![
            Value::text(kind.name()),
            Value::time(c.latency(), Unit::Ps, 2),
            Value::power(c.leakage(), Unit::Uw, 3),
            Value::power(c.dynamic_power(), Unit::Nw, 3),
        ]);
    }
    t
}

/// Fig. 5: SuperNPU with homogeneous SPMs of each technology on AlexNet
/// (latency / energy / area, normalized to SHIFT).
#[must_use]
pub fn fig05_homogeneous(ctx: &ExperimentContext) -> ResultTable {
    let shift = ctx.cache.report(&Scheme::supernpu(), ModelId::AlexNet, 1);
    let shift_area = ChipArea::of(&Scheme::supernpu().spm, ArrayShape::new(64, 256)).total();
    let mut t = ResultTable::new(
        "fig05",
        "Figure 5: SuperNPU with homogeneous cryogenic SPMs, AlexNet single image (norm. to SHIFT)",
    );
    t.columns = vec![
        ColumnSpec::left("SPM", 8),
        ColumnSpec::right("latency", 10),
        ColumnSpec::right("energy", 10),
        ColumnSpec::right("area", 10),
    ];
    t.push_row(vec![
        Value::text("SHIFT"),
        Value::num(1.0, 3),
        Value::num(1.0, 3),
        Value::num(1.0, 3),
    ]);
    let technologies = [
        RandomArrayKind::JosephsonCmosSram,
        RandomArrayKind::SheMram,
        RandomArrayKind::Snm,
        RandomArrayKind::Vtm,
    ];
    for (name, latency, energy, area) in parallel_map(ctx.jobs, &technologies, |&kind| {
        let scheme = Scheme::fig5_homogeneous(kind);
        let r = ctx.cache.report(&scheme, ModelId::AlexNet, 1);
        let area = ChipArea::of(&scheme.spm, ArrayShape::new(64, 256)).total();
        (
            scheme.name,
            r.total_time.ratio(shift.total_time),
            r.energy.total.ratio(shift.energy.total),
            area.ratio(shift_area),
        )
    }) {
        t.push_row(vec![
            Value::text(name),
            Value::num(latency, 3),
            Value::num(energy, 3),
            Value::num(area, 3),
        ]);
    }
    t
}

/// Fig. 6: a weight-read trace sample with sequential and random accesses.
#[must_use]
pub fn fig06_trace(_ctx: &ExperimentContext) -> ResultTable {
    let model = ModelId::AlexNet.build();
    let fc6 = &model.layers[5];
    let trace = weight_trace_sample(fc6, ArrayShape::new(64, 256), 0x0098_9680, 68, 3);
    let mut t = ResultTable::new(
        "fig06",
        "Figure 6: memory accesses of SuperNPU (weight reads, fc6)",
    );
    t.columns = vec![
        ColumnSpec::right("cyc", 5),
        ColumnSpec::right("col0", 12),
        ColumnSpec::right("col1", 12),
        ColumnSpec::right("col2", 12),
    ];
    for cycle in [0u64, 1, 2, 3, 62, 63, 64, 65] {
        let mut row = vec![Value::count(cycle)];
        for c in 0..3 {
            let rec = trace
                .iter()
                .find(|r| r.cycle == cycle && r.column == c)
                .expect("record");
            row.push(Value::text(format!(
                "{:#012x}{}",
                rec.address,
                if rec.sequential { " " } else { "*" }
            )));
        }
        t.push_row(row);
    }
    t.push_note("(* marks a non-sequential jump: the tile boundary)");
    t
}

/// Fig. 7: heterogeneous SPM latency on AlexNet, normalized to SHIFT.
#[must_use]
pub fn fig07_hetero(ctx: &ExperimentContext) -> ResultTable {
    let shift = ctx.cache.report(&Scheme::supernpu(), ModelId::AlexNet, 1);
    let mut t = ResultTable::new(
        "fig07",
        "Figure 7: heterogeneous SPM inference latency, AlexNet (norm. to SHIFT)",
    );
    t.columns = vec![
        ColumnSpec::left("scheme", 8),
        ColumnSpec::right("norm.latency", 12),
    ];
    t.push_row(vec![Value::text("SHIFT"), Value::num(1.0, 3)]);
    let variants = [
        (RandomArrayKind::JosephsonCmosSram, false),
        (RandomArrayKind::SheMram, false),
        (RandomArrayKind::Snm, false),
        (RandomArrayKind::Vtm, false),
        (RandomArrayKind::Vtm, true),
    ];
    for (name, norm) in parallel_map(ctx.jobs, &variants, |&(kind, prefetch)| {
        let scheme = Scheme::fig7_hetero(kind, prefetch);
        let r = ctx.cache.report(&scheme, ModelId::AlexNet, 1);
        (scheme.name, r.total_time.ratio(shift.total_time))
    }) {
        t.push_row(vec![Value::text(name), Value::num(norm, 3)]);
    }
    t
}

/// Fig. 9: CMOS H-Tree latency/energy shares in the 28 MB Josephson-CMOS
/// array.
#[must_use]
pub fn fig09_htree_breakdown(_ctx: &ExperimentContext) -> ResultTable {
    let b = fig9_breakdown();
    let mut t = ResultTable::new(
        "fig09",
        "Figure 9: 256-bank 28 MB Josephson-CMOS array breakdown",
    );
    t.columns = vec![
        ColumnSpec::left("part", 11),
        ColumnSpec::right("latency", 9),
        ColumnSpec::right("energy", 9),
    ];
    let tl = b.total_latency();
    let te = b.total_energy();
    let lat = |x: smart_units::Time| Value::percent(x.ratio(tl), 1);
    let blank = || Value::text("");
    t.push_row(vec![
        Value::text("H-tree"),
        lat(b.htree_latency),
        Value::percent(b.htree_energy_share(), 1),
    ]);
    t.push_row(vec![
        Value::text("cdec"),
        lat(b.cmos_decoder_latency),
        blank(),
    ]);
    t.push_row(vec![Value::text("BL"), lat(b.bitline_latency), blank()]);
    t.push_row(vec![Value::text("sen"), lat(b.sense_latency), blank()]);
    t.push_row(vec![Value::text("arr"), lat(b.array_latency), blank()]);
    t.push_row(vec![
        Value::text("sub-bank"),
        blank(),
        Value::percent(b.subbank_energy.ratio(te), 1),
    ]);
    t.push_row(vec![
        Value::text("other(SFQ)"),
        lat(b.sfq_periphery_latency),
        Value::percent(b.sfq_periphery_energy.ratio(te), 1),
    ]);
    t.push_summary(
        "total access latency",
        Value::time(tl, Unit::Ns, 2).with_unit_suffix(),
    );
    t.push_summary(
        "total access energy",
        Value::energy(te, Unit::Pj, 3).with_unit_suffix(),
    );
    t
}

/// Fig. 12: sub-bank model vs the 4 K chip demonstration.
#[must_use]
pub fn fig12_subbank_validation(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new(
        "fig12",
        "Figure 12: CMOS sub-bank validation vs 4K chip (0.18um)",
    );
    t.columns = vec![
        ColumnSpec::left("config", 8),
        ColumnSpec::right("chip(ns)", 12),
        ColumnSpec::right("model(ns)", 12),
        ColumnSpec::right("dev", 8),
        ColumnSpec::right("chip(pJ)", 12),
        ColumnSpec::right("model(pJ)", 12),
        ColumnSpec::right("dev", 8),
    ];
    for chip in chip_validation_data() {
        let m = SubBankModel::new(SubBankConfig::chip_018um(chip.capacity_bytes, chip.mats));
        t.push_row(vec![
            Value::text(chip.label),
            Value::time(chip.latency, Unit::Ns, 3),
            Value::time(m.access_latency(), Unit::Ns, 3),
            Value::percent(m.access_latency().ratio(chip.latency) - 1.0, 1),
            Value::energy(chip.energy, Unit::Pj, 4),
            Value::energy(m.read_energy(), Unit::Pj, 4),
            Value::percent(m.read_energy().ratio(chip.energy) - 1.0, 1),
        ]);
    }
    t
}

/// Fig. 13: analytic H-Tree hop model vs the `josim-lite` transient
/// simulation.
#[must_use]
pub fn fig13_josim_validation(_ctx: &ExperimentContext) -> ResultTable {
    let lengths = [0.1, 0.2, 0.4, 0.6, 0.8];
    let pts = validate_ptl_model(&lengths).expect("simulation runs");
    let jj = JosephsonJunction::hypres_ersfq();
    let mut t = ResultTable::new("fig13", "Figure 13: SFQ H-Tree model vs josim-lite");
    t.columns = vec![
        ColumnSpec::right("len(mm)", 8),
        ColumnSpec::right("model(ps)", 12),
        ColumnSpec::right("josim(ps)", 12),
        ColumnSpec::right("dev", 8),
        ColumnSpec::right("f_max(GHz)", 14),
        ColumnSpec::right("hop E(aJ)", 12),
    ];
    for p in &pts {
        let hop = PtlHop::new(p.length);
        t.push_row(vec![
            Value::length(p.length, Unit::Mm, 2),
            Value::quantity(p.analytic_delay, Unit::Ps, 3),
            Value::quantity(p.simulated_delay, Unit::Ps, 3),
            Value::percent(p.delay_error(), 1),
            Value::frequency(hop.max_operating_frequency(), Unit::Ghz, 1),
            Value::energy(hop.energy_per_pulse(&jj), Unit::Aj, 1),
        ]);
    }
    t
}

/// Fig. 14: pipeline design-space exploration.
#[must_use]
pub fn fig14_design_space(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new(
        "fig14",
        "Figure 14: pipelined CMOS-SFQ array design space (28 MB, 256 banks)",
    );
    let pts = explore(28 * MB, 256, &[1.0, 2.0, 4.0, 6.0, 8.0, 9.6, 12.0]);
    t.columns = vec![
        ColumnSpec::right("f(GHz)", 8),
        ColumnSpec::right("feasible", 9),
        ColumnSpec::right("MATs/sb", 8),
        ColumnSpec::right("repeaters", 10),
        ColumnSpec::right("leak(mW)", 12),
        ColumnSpec::right("area(mm2)", 10),
    ];
    for p in &pts {
        t.push_row(vec![
            Value::frequency(p.frequency, Unit::Ghz, 1),
            Value::Bool(p.feasible),
            Value::count(u64::from(p.mats_per_subbank)),
            Value::count(u64::from(p.repeaters)),
            Value::power(p.leakage, Unit::Mw, 2),
            Value::area(p.area, Unit::Mm2, 2),
        ]);
    }
    t
}

/// Fig. 16: per-access energy of the SPM arrays.
#[must_use]
pub fn fig16_access_energy(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new("fig16", "Figure 16: SPM access energy");
    t.columns = vec![
        ColumnSpec::left("array", 14),
        ColumnSpec::right("energy", 13),
    ];
    t.show_header = false;
    let rows = [
        (
            "384KB-SHIFT",
            ShiftArray::new(24 * MB, 64).energy_per_access(),
        ),
        (
            "96KB-SHIFT",
            ShiftArray::new(24 * MB, 256).energy_per_access(),
        ),
        (
            "128B-SHIFT",
            ShiftArray::new(32 * 1024, 256).energy_per_access(),
        ),
        (
            "192KB-RANDOM",
            RandomArray::build(RandomArrayKind::PipelinedCmosSfq, 28 * MB, 256).read_energy,
        ),
    ];
    for (label, e) in rows {
        t.push_row(vec![
            Value::text(label),
            Value::energy(e, Unit::Pj, 4).with_unit_suffix(),
        ]);
    }
    t
}

/// Fig. 17: area breakdown of SuperNPU vs SMART.
#[must_use]
pub fn fig17_area(_ctx: &ExperimentContext) -> ResultTable {
    let shape = ArrayShape::new(64, 256);
    let sn = ChipArea::of(&Scheme::supernpu().spm, shape);
    let sm = ChipArea::of(&Scheme::smart().spm, shape);
    let mut t = ResultTable::new("fig17", "Figure 17: area breakdown (mm^2)");
    t.columns = vec![ColumnSpec::left("scheme", 10)];
    for label in [
        "matrix", "SHIFT", "array", "dec", "H-Tree", "other", "total",
    ] {
        t.columns.push(ColumnSpec::right(label, 8));
    }
    for (name, a) in [("SuperNPU", sn), ("SMART", sm)] {
        let mut row = vec![Value::text(name)];
        for part in [
            a.matrix,
            a.shift,
            a.array,
            a.decoder,
            a.htree,
            a.other,
            a.total(),
        ] {
            row.push(Value::area(part, Unit::Mm2, 2));
        }
        t.push_row(row);
    }
    t.push_summary(
        "SMART / SuperNPU total",
        Value::num(sm.total().ratio(sn.total()), 3),
    );
    t.push_note("(paper: 1.03)");
    t
}

/// The Figs. 18-21 grid: per model, the TPU baseline and every Fig. 18
/// scheme, evaluated through the shared cache on the context's worker
/// pool. Returns one row of column values per model plus the gmean row.
fn tpu_normalized_grid(
    ctx: &ExperimentContext,
    batch_mode: bool,
    metric: impl Fn(&smart_core::eval::InferenceReport, &smart_core::eval::InferenceReport) -> f64
        + Sync,
) -> (Vec<(&'static str, Vec<f64>)>, Vec<f64>) {
    let schemes = Scheme::figure18_set();
    let rows: Vec<(&'static str, Vec<f64>)> = parallel_map(ctx.jobs, &ModelId::ALL, |&id| {
        let tpu_batch = if batch_mode { id.smart_batch() } else { 1 };
        let tpu = ctx.cache.report(&Scheme::tpu(), id, tpu_batch);
        let cells: Vec<f64> = schemes
            .iter()
            .map(|s| {
                let b = if !batch_mode {
                    1
                } else if s.name == "SHIFT" {
                    id.supernpu_batch()
                } else {
                    id.smart_batch()
                };
                let r = ctx.cache.report(s, id, b);
                metric(&r, &tpu)
            })
            .collect();
        (id.name(), cells)
    });
    let mut logs = vec![0.0f64; schemes.len()];
    for (_, cells) in &rows {
        for (l, x) in logs.iter_mut().zip(cells) {
            *l += x.ln();
        }
    }
    let gmeans: Vec<f64> = logs
        .iter()
        .map(|l| (l / ModelId::ALL.len() as f64).exp())
        .collect();
    (rows, gmeans)
}

fn grid_table(
    name: &str,
    title: &str,
    width: usize,
    precision: usize,
    rows: Vec<(&'static str, Vec<f64>)>,
    gmeans: Vec<f64>,
) -> ResultTable {
    let mut t = ResultTable::new(name, title);
    t.column_sep = String::new();
    t.columns = vec![ColumnSpec::left("model", 12)];
    for s in Scheme::figure18_set() {
        t.columns.push(ColumnSpec::right(s.name, width));
    }
    for (model, cells) in rows {
        let mut row = vec![Value::text(model)];
        row.extend(cells.iter().map(|&x| Value::num(x, precision)));
        t.push_row(row);
    }
    let mut row = vec![Value::text("gmean")];
    row.extend(gmeans.iter().map(|&x| Value::num(x, precision)));
    t.push_row(row);
    t
}

/// Fig. 18: single-image speedup over TPU.
#[must_use]
pub fn fig18_single_speedup(ctx: &ExperimentContext) -> ResultTable {
    let (rows, gmeans) = tpu_normalized_grid(ctx, false, |r, tpu| r.speedup_over(tpu));
    grid_table(
        "fig18",
        "Figure 18: single-image throughput normalized to TPU",
        9,
        2,
        rows,
        gmeans,
    )
}

/// Fig. 19: batch speedup over TPU.
#[must_use]
pub fn fig19_batch_speedup(ctx: &ExperimentContext) -> ResultTable {
    let (rows, gmeans) = tpu_normalized_grid(ctx, true, |r, tpu| r.speedup_over(tpu));
    grid_table(
        "fig19",
        "Figure 19: batch throughput normalized to TPU",
        9,
        2,
        rows,
        gmeans,
    )
}

/// Fig. 20: single-image energy normalized to TPU.
#[must_use]
pub fn fig20_single_energy(ctx: &ExperimentContext) -> ResultTable {
    let (rows, gmeans) = tpu_normalized_grid(ctx, false, |r, tpu| {
        r.energy_per_image().ratio(tpu.energy_per_image())
    });
    grid_table(
        "fig20",
        "Figure 20: single-image energy per inference normalized to TPU",
        10,
        3,
        rows,
        gmeans,
    )
}

/// Fig. 21: batch energy normalized to TPU.
#[must_use]
pub fn fig21_batch_energy(ctx: &ExperimentContext) -> ResultTable {
    let (rows, gmeans) = tpu_normalized_grid(ctx, true, |r, tpu| {
        r.energy_per_image().ratio(tpu.energy_per_image())
    });
    grid_table(
        "fig21",
        "Figure 21: batch energy per inference normalized to TPU",
        10,
        3,
        rows,
        gmeans,
    )
}

fn sweep_table(
    name: &str,
    title: &str,
    pts: &[smart_core::sensitivity::SweepPoint],
) -> ResultTable {
    let mut t = ResultTable::new(name, title);
    t.columns = vec![
        ColumnSpec::left("param", 8),
        ColumnSpec::right("single", 10),
        ColumnSpec::right("batch", 10),
    ];
    for p in pts {
        t.push_row(vec![
            Value::text(p.label.clone()),
            Value::num(p.single, 2),
            Value::num(p.batch, 2),
        ]);
    }
    t
}

/// Fig. 22: SHIFT staging capacity sensitivity.
#[must_use]
pub fn fig22_shift_capacity(ctx: &ExperimentContext) -> ResultTable {
    sweep_table(
        "fig22",
        "Figure 22: SHIFT capacity sensitivity (speedup over SuperNPU)",
        &smart_core::sensitivity::shift_capacity_sweep(&ctx.cache, &[16, 32, 64, 128], ctx.jobs),
    )
}

/// Fig. 23: RANDOM array capacity sensitivity.
#[must_use]
pub fn fig23_random_capacity(ctx: &ExperimentContext) -> ResultTable {
    sweep_table(
        "fig23",
        "Figure 23: RANDOM capacity sensitivity (speedup over SuperNPU)",
        &smart_core::sensitivity::random_capacity_sweep(&ctx.cache, &[14, 28, 56, 112], ctx.jobs),
    )
}

/// Fig. 24: prefetch iteration count sensitivity.
#[must_use]
pub fn fig24_prefetch(ctx: &ExperimentContext) -> ResultTable {
    sweep_table(
        "fig24",
        "Figure 24: prefetch iteration sensitivity (speedup over SuperNPU)",
        &smart_core::sensitivity::prefetch_sweep(&ctx.cache, &[1, 2, 3, 4, 5], ctx.jobs),
    )
}

/// Fig. 25: RANDOM write latency sensitivity.
#[must_use]
pub fn fig25_write_latency(ctx: &ExperimentContext) -> ResultTable {
    sweep_table(
        "fig25",
        "Figure 25: RANDOM write latency sensitivity (speedup over SuperNPU)",
        &smart_core::sensitivity::write_latency_sweep(&ctx.cache, &[0.11, 2.0, 3.0], ctx.jobs),
    )
}

/// Table 4: the baseline configurations.
#[must_use]
pub fn table4_configs(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new("table4", "Table 4: baseline configurations");
    t.columns = vec![
        ColumnSpec::left("config", 10),
        ColumnSpec::right("clock(GHz)", 10),
        ColumnSpec::right("rows", 6),
        ColumnSpec::right("cols", 6),
        ColumnSpec::right("peak(TMAC/s)", 13),
        ColumnSpec::right("cryogenic", 10),
    ];
    for c in [
        smart_core::config::AcceleratorConfig::tpu(),
        smart_core::config::AcceleratorConfig::supernpu(),
        smart_core::config::AcceleratorConfig::smart(),
    ] {
        t.push_row(vec![
            Value::text(c.name),
            Value::frequency(c.frequency, Unit::Ghz, 1),
            Value::count(u64::from(c.shape.rows)),
            Value::count(u64::from(c.shape.cols)),
            Value::num(c.peak_tmacs(), 0),
            Value::Bool(c.cryogenic),
        ]);
    }
    t
}

/// Ablation: the ILP compiler vs the greedy ideal-static allocator across
/// all AlexNet layers (the software half of SMART's gain over Pipe).
#[must_use]
pub fn ablation_ilp_vs_greedy(ctx: &ExperimentContext) -> ResultTable {
    use smart_compiler::formulation::{compile_layer_ctx, FormulationParams};
    use smart_compiler::greedy::allocate;
    use smart_compiler::lifespan::analyze;
    use smart_systolic::dag::LayerDag;
    use smart_systolic::mapping::LayerMapping;

    let model = ModelId::AlexNet.build();
    let params = FormulationParams::smart_default();
    let mut t = ResultTable::new(
        "ablation_ilp_vs_greedy",
        "Ablation: ILP vs greedy allocation objective (higher = more time saved)",
    );
    t.columns = vec![
        ColumnSpec::left("layer", 8),
        ColumnSpec::right("ILP", 12),
        ColumnSpec::right("greedy", 12),
        ColumnSpec::right("gain", 8),
    ];
    // Per-layer ILP and greedy compilations are independent; fan them out.
    // The shared solver context both warm-starts root relaxations and —
    // under `--cache-dir` — replays whole solves from the persisted
    // solution memo, which is what makes this experiment near-free warm.
    let solver = ctx.timing.solver();
    let compiled = parallel_map(ctx.jobs, &model.layers, |layer| {
        let mapping = LayerMapping::map(layer, ArrayShape::new(64, 256), 1);
        let dag = LayerDag::build(&mapping, 6);
        let ilp = compile_layer_ctx(&dag, &params, solver);
        let greedy = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
        (layer.name.clone(), ilp.objective, greedy.objective)
    });
    let mut ilp_total = 0.0;
    let mut greedy_total = 0.0;
    for (name, ilp, greedy) in compiled {
        ilp_total += ilp;
        greedy_total += greedy;
        t.push_row(vec![
            Value::text(name),
            Value::num(ilp, 0),
            Value::num(greedy, 0),
            Value::percent(ilp / greedy.max(1.0) - 1.0, 2),
        ]);
    }
    t.push_summary("total ILP", Value::num(ilp_total, 0));
    t.push_summary("total greedy", Value::num(greedy_total, 0));
    t.push_summary(
        "total gain",
        Value::percent(ilp_total / greedy_total.max(1.0) - 1.0, 2),
    );

    // Contested capacity: shrink the SPMs until placements conflict — here
    // the ILP's global view beats greedy largest-first.
    let mut tight = params;
    tight.shift_capacity = 4 * 1024;
    tight.random_capacity = 192 * 1024;
    tight.bytes_per_iteration = 256 * 1024;
    let contested = parallel_map(ctx.jobs, &model.layers, |layer| {
        let mapping = LayerMapping::map(layer, ArrayShape::new(64, 256), 1);
        let dag = LayerDag::build(&mapping, 6);
        let ilp = compile_layer_ctx(&dag, &tight, solver).objective;
        let greedy = allocate(&dag, &tight, analyze(&dag, tight.prefetch_window)).objective;
        (ilp, greedy)
    });
    let ilp_total: f64 = contested.iter().map(|(i, _)| i).sum();
    let greedy_total: f64 = contested.iter().map(|(_, g)| g).sum();
    t.push_summary("contested ILP", Value::num(ilp_total, 0));
    t.push_summary("contested greedy", Value::num(greedy_total, 0));
    t.push_summary(
        "contested gain",
        Value::percent(ilp_total / greedy_total.max(1.0) - 1.0, 2),
    );
    t.push_note("(contested capacity: 4 KB SHIFT, 192 KB RANDOM, 256 KB/iter)");
    t
}

/// Ablation: SHIFT lane length (bank count at fixed capacity) vs random
/// access cost and access energy — the design pressure that leads SMART to
/// 128-byte staging lanes.
#[must_use]
pub fn ablation_lane_length(_ctx: &ExperimentContext) -> ResultTable {
    let mut t = ResultTable::new(
        "ablation_lane_length",
        "Ablation: 24 MB SHIFT SPM, lane length vs random-access cost",
    );
    t.columns = vec![
        ColumnSpec::right("banks", 7),
        ColumnSpec::right("lane", 10),
        ColumnSpec::right("rotate(half) ns", 16),
        ColumnSpec::right("access energy pJ", 18),
    ];
    for banks in [16u32, 64, 256, 1024, 4096] {
        let a = ShiftArray::new(24 * MB, banks);
        let half = a.lane_bytes() * u64::from(banks) / 2;
        t.push_row(vec![
            Value::count(u64::from(banks)),
            Value::text(format!("{}B", a.lane_bytes())),
            Value::time(a.rotate_time(half), Unit::Ns, 1),
            Value::energy(a.energy_per_access(), Unit::Pj, 4),
        ]);
    }
    t.push_note("");
    t.push_note("Shorter lanes: cheaper random access & cheaper per-access energy,");
    t.push_note("but more banks means more peripherals — SMART settles on 128 B lanes.");
    t
}

/// Circuit characterization: JTL chains swept over stage count and bias,
/// simulated with the adaptive sparse engine and validated against the
/// closed-form `smart_sfq::jtl` model (~2 ps/stage).
#[must_use]
pub fn josim_jtl_characterization(ctx: &ExperimentContext) -> ResultTable {
    // Stage sweep at the standard bias, then a bias sweep at 8 stages.
    // The bias sweep includes the 750 center on purpose: that spec is the
    // same `CellSpec` as the 8-stage point above, so one of the two rows
    // is served from the shared `CircuitCache` (and the identical rows
    // double as a determinism check in the committed snapshot).
    let mut points: Vec<JtlChainSpec> = [4u32, 6, 8, 12]
        .iter()
        .map(|&s| JtlChainSpec::standard(s))
        .collect();
    points.extend(
        [650u32, 700, 750, 800, 850]
            .iter()
            .map(|&b| JtlChainSpec::new(8, 100_000, b)),
    );
    let measured = parallel_map(ctx.jobs, &points, |spec| {
        let m = ctx
            .circuits
            .measure(&CellSpec::Jtl(*spec))
            .expect("JTL chain simulates");
        (*spec, m)
    });

    let mut t = ResultTable::new(
        "josim_jtl",
        "JTL chain characterization (adaptive sparse MNA vs closed-form model)",
    );
    t.columns = vec![
        ColumnSpec::right("stages", 7),
        ColumnSpec::right("bias(Ic)", 9),
        ColumnSpec::right("sim(ps/st)", 11),
        ColumnSpec::right("model(ps/st)", 13),
        ColumnSpec::right("dev", 8),
        ColumnSpec::right("E(aJ)", 9),
        ColumnSpec::right("pulses", 7),
        ColumnSpec::right("steps", 7),
    ];
    for (spec, m) in &measured {
        let model = spec.closed_form_stage_delay().as_s();
        t.push_row(vec![
            Value::count(u64::from(spec.stages)),
            Value::num(f64::from(spec.bias_pm) * 1e-3, 2),
            Value::quantity(m.delay_per_hop, Unit::Ps, 3),
            Value::quantity(model, Unit::Ps, 3),
            Value::percent((m.delay_per_hop - model) / model, 1),
            Value::sci(m.dissipated_energy * 1e18, 2),
            Value::count(u64::from(m.max_output_pulses)),
            Value::count(m.steps as u64),
        ]);
    }
    let worst = measured
        .iter()
        .map(|(spec, m)| {
            let model = spec.closed_form_stage_delay().as_s();
            ((m.delay_per_hop - model) / model).abs()
        })
        .fold(0.0f64, f64::max);
    t.push_summary("max |dev| vs model", Value::percent(worst, 1));
    t
}

/// Circuit characterization: splitter fan-out trees. The validation is
/// digital — one input pulse must arrive exactly once at *every* leaf —
/// with root-to-leaf latency and dissipation per broadcast alongside.
#[must_use]
pub fn josim_fanout_characterization(ctx: &ExperimentContext) -> ResultTable {
    let points: Vec<SplitterFanoutSpec> = [2u32, 4, 8]
        .iter()
        .map(|&l| SplitterFanoutSpec::standard(l))
        .collect();
    let measured = parallel_map(ctx.jobs, &points, |spec| {
        let m = ctx
            .circuits
            .measure(&CellSpec::Fanout(*spec))
            .expect("fan-out tree simulates");
        (*spec, m)
    });

    let mut t = ResultTable::new(
        "josim_fanout",
        "Splitter fan-out tree characterization (adaptive sparse MNA)",
    );
    t.columns = vec![
        ColumnSpec::right("leaves", 7),
        ColumnSpec::right("depth", 6),
        ColumnSpec::right("delay(ps)", 10),
        ColumnSpec::right("per-level(ps)", 14),
        ColumnSpec::right("E(aJ)", 9),
        ColumnSpec::right("min p", 6),
        ColumnSpec::right("max p", 6),
        ColumnSpec::right("steps", 7),
    ];
    let mut all_leaves_fired = true;
    for (spec, m) in &measured {
        all_leaves_fired &= m.delivered_exactly_one();
        t.push_row(vec![
            Value::count(u64::from(spec.leaves)),
            Value::count(u64::from(spec.depth())),
            Value::quantity(m.delay, Unit::Ps, 3),
            Value::quantity(m.delay_per_hop, Unit::Ps, 3),
            Value::sci(m.dissipated_energy * 1e18, 2),
            Value::count(u64::from(m.min_output_pulses)),
            Value::count(u64::from(m.max_output_pulses)),
            Value::count(m.steps as u64),
        ]);
    }
    t.push_summary(
        "every leaf fired exactly once",
        Value::text(if all_leaves_fired { "yes" } else { "NO" }),
    );
    t
}

/// Circuit characterization: PTL links re-measured with the adaptive
/// sparse engine against the Eq. 4 closed-form delay — the same ladder
/// netlists as the Fig. 13 fixed-step validation, at a fraction of the
/// steps.
#[must_use]
pub fn josim_ptl_characterization(ctx: &ExperimentContext) -> ResultTable {
    let points: Vec<PtlLinkSpec> = [0.1f64, 0.2, 0.4, 0.6, 0.8]
        .iter()
        .map(|&mm| PtlLinkSpec::from_mm(mm))
        .collect();
    let measured = parallel_map(ctx.jobs, &points, |spec| {
        let m = ctx
            .circuits
            .measure(&CellSpec::Ptl(*spec))
            .expect("PTL link simulates");
        (*spec, m)
    });

    let mut t = ResultTable::new(
        "josim_ptl",
        "PTL link characterization (adaptive sparse MNA vs Eq. 4 model)",
    );
    t.columns = vec![
        ColumnSpec::right("len(mm)", 8),
        ColumnSpec::right("model(ps)", 10),
        ColumnSpec::right("sim(ps)", 9),
        ColumnSpec::right("dev", 8),
        ColumnSpec::right("E(aJ)", 9),
        ColumnSpec::right("steps", 7),
    ];
    for (spec, m) in &measured {
        let model = spec.closed_form_delay();
        t.push_row(vec![
            Value::length(spec.length(), Unit::Mm, 2),
            Value::quantity(model, Unit::Ps, 3),
            Value::quantity(m.delay, Unit::Ps, 3),
            Value::percent((m.delay - model) / model, 1),
            Value::sci(m.dissipated_energy * 1e18, 2),
            Value::count(m.steps as u64),
        ]);
    }
    t
}

/// Shared nominal replay setup of the `timing_*` experiments: the SMART
/// scheme replayed at the paper's prefetch window through the context's
/// memoized [`smart_timing::TimingCache`].
fn timing_replay(
    ctx: &ExperimentContext,
    model: ModelId,
    cfg: &smart_timing::TimingConfig,
) -> std::sync::Arc<smart_timing::ModelTimingReport> {
    ctx.timing
        .report(&Scheme::smart(), model, cfg)
        .expect("SMART is heterogeneous")
}

/// Timing replay: per-layer stall breakdown of the SMART scheme on VGG16
/// (every layer) and ResNet50 (aggregated per stage). The exposed-stall
/// columns carry the paper's Greek class letters; the placement summary
/// recompiles the most-stalled layer's schedule to show where its bytes
/// live.
#[must_use]
pub fn timing_stall_breakdown(ctx: &ExperimentContext) -> ResultTable {
    use smart_systolic::trace::DataClass;

    let cfg = smart_timing::TimingConfig::nominal();
    let scheme = Scheme::smart();
    let replays = parallel_map(ctx.jobs, &[ModelId::Vgg16, ModelId::ResNet50], |&id| {
        (id, timing_replay(ctx, id, &cfg))
    });
    // Under --trace-out, derive each replay's per-layer timeline (one
    // lane per model, on the virtual replay-cycle clock).
    for (id, rep) in &replays {
        smart_timing::trace_model_replay(rep, &ctx.tracer, &format!("replay/{}", id.name()));
    }

    let mut t = ResultTable::new(
        "timing_stall_breakdown",
        "Timing replay: per-layer exposed stalls of SMART (cycles; α/β/γ/δ = Table 3 classes)",
    );
    t.columns = vec![
        ColumnSpec::left("model", 9),
        ColumnSpec::left("layer", 9),
        ColumnSpec::right("compute(us)", 12),
        ColumnSpec::right("stream", 8),
    ];
    for class in DataClass::ALL {
        t.columns
            .push(ColumnSpec::right(format!("{}", class.symbol()), 9));
    }
    t.columns.push(ColumnSpec::right("occ", 7));
    t.columns.push(ColumnSpec::right("total(us)", 10));

    let clock = scheme.config.frequency;
    let row_of = |model: &str,
                  layer: &str,
                  compute: u64,
                  stream: u64,
                  exposed: [u64; 4],
                  busy: u64,
                  total: u64| {
        let mut row = vec![
            Value::text(model),
            Value::text(layer),
            Value::time(clock.period() * compute as f64, Unit::Us, 2),
            Value::count(stream),
        ];
        row.extend(exposed.iter().map(|&c| Value::count(c)));
        row.push(Value::percent(
            if total == 0 {
                0.0
            } else {
                (busy as f64 / total as f64).min(1.0)
            },
            0,
        ));
        row.push(Value::time(clock.period() * total as f64, Unit::Us, 2));
        row
    };

    for (id, rep) in &replays {
        match id {
            // VGG16: all 16 layers individually.
            ModelId::Vgg16 => {
                for l in &rep.layers {
                    t.push_row(row_of(
                        id.name(),
                        &l.name,
                        l.compute_cycles,
                        l.stream_stall_cycles,
                        l.exposed_stall_cycles,
                        l.random_busy_cycles,
                        l.total_cycles,
                    ));
                }
            }
            // ResNet50: 54 layers fold into their stages.
            _ => {
                let stage_of = |name: &str| {
                    if name.starts_with("res") {
                        name[..4].to_owned()
                    } else {
                        name.to_owned()
                    }
                };
                // Rows come out in first-appearance (`order`) sequence; the
                // map itself is key-ordered so no iteration ever observes
                // hash order.
                let mut order: Vec<String> = Vec::new();
                let mut agg: std::collections::BTreeMap<String, (u64, u64, [u64; 4], u64, u64)> =
                    std::collections::BTreeMap::new();
                for l in &rep.layers {
                    let key = stage_of(&l.name);
                    if !agg.contains_key(&key) {
                        order.push(key.clone());
                    }
                    let e = agg.entry(key).or_default();
                    e.0 += l.compute_cycles;
                    e.1 += l.stream_stall_cycles;
                    for (a, b) in e.2.iter_mut().zip(&l.exposed_stall_cycles) {
                        *a += b;
                    }
                    e.3 += l.random_busy_cycles;
                    e.4 += l.total_cycles;
                }
                for key in order {
                    let (c, s, e, b, tot) = agg.get(&key).copied().unwrap_or_default();
                    t.push_row(row_of(id.name(), &key, c, s, e, b, tot));
                }
            }
        }

        // Whole-model summary plus the placement mix of the most-stalled
        // layer (its schedule recompiled against the scheme's geometry).
        t.push_summary(
            format!("{} total", id.name()),
            Value::time(rep.total_time(), Unit::Us, 2).with_unit_suffix(),
        );
        let dominant = DataClass::ALL
            .iter()
            .copied()
            .max_by_key(|&c| rep.exposed_of(c))
            .expect("four classes");
        t.push_summary(
            format!("{} dominant stall class", id.name()),
            Value::text(format!("{dominant} ({})", dominant.symbol())),
        );
        if let Some(worst) = rep.layers.iter().max_by_key(|l| l.exposed_total()) {
            let model = id.build();
            let layer = model
                .layers
                .iter()
                .find(|l| l.name == worst.name)
                .expect("replayed layer exists");
            let compiled = smart_timing::compile_scheme_layer(
                &scheme,
                layer,
                cfg.max_iterations,
                ctx.timing.solver(),
            )
            .expect("heterogeneous");
            let (shift, random, dram) = compiled.schedule.bytes_by_location(&compiled.dag);
            t.push_summary(
                format!("{} most stalled: {}", id.name(), worst.name),
                Value::text(format!(
                    "{}KB {}, {}KB {}, {}KB {} ({:.0}% resident)",
                    shift / 1024,
                    smart_compiler::Location::Shift,
                    random / 1024,
                    smart_compiler::Location::Random,
                    dram / 1024,
                    smart_compiler::Location::Dram,
                    compiled.schedule.spm_resident_fraction(&compiled.dag) * 100.0
                )),
            );
        }
    }
    t.push_note("(stall columns in cycles at 52.6 GHz; occ = RANDOM-array occupancy)");
    t
}

/// Timing replay: double-buffer depth sweep at half RANDOM bandwidth.
/// The ILP schedule fetches at most `a - 1 = 2` iterations ahead, so the
/// replay saturates at depth 2 — the cycle-level counterpart of Fig. 24's
/// prefetch saturation.
#[must_use]
pub fn timing_buffer_depth(ctx: &ExperimentContext) -> ResultTable {
    let base = smart_timing::TimingConfig::nominal().with_bandwidth_pct(50);
    let depths = [1u32, 2, 3, 4, 5];
    let cfgs: Vec<smart_timing::TimingConfig> =
        depths.iter().map(|&d| base.with_depth(d)).collect();
    // One sweep per model: each pays a single ILP compile for all its
    // uncached depths (bit-identical to per-point replays).
    let alex = ctx
        .timing
        .sweep(&Scheme::smart(), ModelId::AlexNet, &cfgs)
        .expect("SMART is heterogeneous");
    let vgg = ctx
        .timing
        .sweep(&Scheme::smart(), ModelId::Vgg16, &cfgs)
        .expect("SMART is heterogeneous");
    let points: Vec<_> = depths
        .iter()
        .zip(alex.into_iter().zip(vgg))
        .map(|(&depth, (a, v))| (depth, a, v))
        .collect();

    let mut t = ResultTable::new(
        "timing_buffer_depth",
        "Timing replay: double-buffer depth sweep, SMART at 50% RANDOM bandwidth",
    );
    t.columns = vec![
        ColumnSpec::right("depth", 6),
        ColumnSpec::right("AlexNet(us)", 12),
        ColumnSpec::right("stall(cyc)", 11),
        ColumnSpec::right("hidden", 7),
        ColumnSpec::right("VGG16(us)", 11),
        ColumnSpec::right("stall(cyc)", 11),
    ];
    for (depth, alex, vgg) in &points {
        let hidden_fraction = {
            let work: u64 = alex.layers.iter().map(|l| l.prefetch_work_cycles).sum();
            let hidden: u64 = alex
                .layers
                .iter()
                .map(smart_timing::TimingReport::prefetch_hidden_cycles)
                .sum();
            if work == 0 {
                0.0
            } else {
                hidden as f64 / work as f64
            }
        };
        t.push_row(vec![
            Value::count(u64::from(*depth)),
            Value::time(alex.total_time(), Unit::Us, 2),
            Value::count(alex.exposed_total()),
            Value::percent(hidden_fraction, 1),
            Value::time(vgg.total_time(), Unit::Us, 2),
            Value::count(vgg.exposed_total()),
        ]);
    }
    let saturation = points.windows(2).find(|w| {
        w[1].1.total_cycles() == w[0].1.total_cycles()
            && w[1].2.total_cycles() == w[0].2.total_cycles()
    });
    t.push_summary(
        "saturation depth",
        match saturation {
            Some(w) => Value::count(u64::from(w[0].0)),
            None => Value::text("none within sweep"),
        },
    );
    t.push_note("(the a = 3 schedule fetches at most 2 iterations ahead, so depth saturates at 2)");
    t
}

/// Timing replay: RANDOM-array bandwidth sensitivity on AlexNet. The
/// analytic evaluator prices the same scheme identically in every row —
/// the exposed stalls under constrained bandwidth are precisely what the
/// cycle-level replay adds. The summary carries the stall-free
/// cross-validation residual (replay vs analytic on the idealized twin).
#[must_use]
pub fn timing_random_bandwidth(ctx: &ExperimentContext) -> ResultTable {
    let analytic = ctx.cache.report(&Scheme::smart(), ModelId::AlexNet, 1);
    let base = smart_timing::TimingConfig::nominal();
    let pcts = [10u32, 25, 50, 100, 400];
    let cfgs: Vec<smart_timing::TimingConfig> =
        pcts.iter().map(|&p| base.with_bandwidth_pct(p)).collect();
    // One ILP compile shared by all uncached points.
    let reports = ctx
        .timing
        .sweep(&Scheme::smart(), ModelId::AlexNet, &cfgs)
        .expect("SMART is heterogeneous");
    let points: Vec<_> = pcts.iter().copied().zip(reports).collect();

    let mut t = ResultTable::new(
        "timing_random_bandwidth",
        "Timing replay: RANDOM bandwidth sensitivity, SMART on AlexNet (analytic model is bandwidth-blind)",
    );
    t.columns = vec![
        ColumnSpec::right("bw", 5),
        ColumnSpec::right("replay(us)", 11),
        ColumnSpec::right("stall(cyc)", 11),
        ColumnSpec::right("stream(cyc)", 12),
        ColumnSpec::right("occ", 7),
        ColumnSpec::right("vs analytic", 12),
    ];
    for (pct, rep) in &points {
        t.push_row(vec![
            Value::text(format!("{pct}%")),
            Value::time(rep.total_time(), Unit::Us, 2),
            Value::count(rep.exposed_total()),
            Value::count(rep.stream_stall_cycles()),
            Value::percent(rep.random_occupancy(), 0),
            Value::num(rep.total_time().as_s() / analytic.total_time.as_s(), 3),
        ]);
    }
    t.push_summary(
        "analytic latency (every row)",
        Value::time(analytic.total_time, Unit::Us, 2).with_unit_suffix(),
    );
    let residual =
        smart_timing::max_layer_deviation(&Scheme::smart(), &ModelId::AlexNet.build(), &base)
            .expect("SMART is heterogeneous");
    t.push_summary(
        "stall-free cross-validation residual",
        Value::percent(residual, 2),
    );
    t.push_note("(the residual is the max per-layer |replay - analytic| on the idealized twin)");
    t
}

/// Design-space search: the latency/energy/area Pareto frontier of the
/// small heterogeneous grid, each frontier point ILP-enriched and
/// confirmed by the cycle-level replay.
#[must_use]
pub fn search_frontier(ctx: &ExperimentContext) -> ResultTable {
    let space = SearchSpace::small();
    let cfg = SearchConfig::new(ctx.jobs);
    let out = smart_search::search(&space, &cfg, &ctx.cache, &ctx.timing)
        .expect("the small grid is valid and heterogeneous");
    frontier_table(
        "search_frontier",
        "Design-space search: Pareto frontier of the small heterogeneous grid (AlexNet, batch 1)",
        &out,
    )
}

/// Renders a search outcome's Pareto frontier as a [`ResultTable`] (shared
/// by the `search_frontier` experiment and the `pareto_search` binary).
#[must_use]
pub fn frontier_table(name: &str, title: &str, out: &smart_search::SearchOutcome) -> ResultTable {
    let mut t = ResultTable::new(name, title);
    t.columns = vec![
        ColumnSpec::left("family", 7),
        ColumnSpec::right("window", 7),
        ColumnSpec::left("random", 12),
        ColumnSpec::right("banks", 6),
        ColumnSpec::right("shift(KB)", 10),
        ColumnSpec::right("random(MB)", 11),
        ColumnSpec::right("latency(us)", 12),
        ColumnSpec::right("energy(J)", 10),
        ColumnSpec::right("area(mm2)", 10),
        ColumnSpec::right("resident", 9),
        ColumnSpec::right("replay/ana", 11),
    ];
    for p in out.frontier_points() {
        let (shift, random, banks, kind) = hetero_axes(&p.params);
        let ilp = p.ilp.expect("frontier points are enriched");
        let replay = p.replay.expect("frontier points are replayed");
        t.push_row(vec![
            Value::text(p.params.name),
            Value::text(
                p.params
                    .prefetch_window
                    .map_or("static".to_owned(), |a| format!("a={a}")),
            ),
            Value::text(kind.name()),
            Value::count(u64::from(banks)),
            Value::count(shift / 1024),
            Value::count(random / MB),
            Value::time(p.objectives.latency, Unit::Us, 2),
            Value::sci(p.objectives.energy.as_j(), 2),
            Value::num(p.objectives.area.as_mm2(), 1),
            Value::percent(ilp.resident_fraction(), 0),
            Value::num(replay.vs_analytic, 3),
        ]);
    }
    t.push_summary("space", Value::count(out.stats.space as u64));
    t.push_summary(
        "pruned (eps-dominated)",
        Value::count(out.stats.pruned as u64),
    );
    t.push_summary(
        "survivors (ILP-enriched)",
        Value::count(out.stats.survivors as u64),
    );
    t.push_summary("frontier", Value::count(out.stats.frontier as u64));
    t.push_note("(objectives are analytic; replay/ana cross-checks each frontier point's latency)");
    t
}

/// Design-space search: the staged engine vs the naive per-config
/// baseline on the same grid — identical frontier, a fraction of the
/// solver work.
#[must_use]
pub fn search_warm_vs_cold(ctx: &ExperimentContext) -> ResultTable {
    // Fresh caches: the counters below are this experiment's own work, not
    // whatever concurrently-running experiments put into the shared ones.
    let space = SearchSpace::small();
    let cfg = SearchConfig::new(ctx.jobs);
    let eval = smart_core::cache::EvalCache::new();
    let timing = smart_timing::TimingCache::new();
    let warm = smart_search::search(&space, &cfg, &eval, &timing).expect("valid grid");
    let cold = smart_search::search_naive(&space, &cfg).expect("valid grid");

    let mut t = ResultTable::new(
        "search_warm_vs_cold",
        "Design-space search: warm-started engine vs naive cold baseline (small grid)",
    );
    t.columns = vec![
        ColumnSpec::left("run", 12),
        ColumnSpec::right("evals", 6),
        ColumnSpec::right("ilp compiles", 13),
        ColumnSpec::right("cold", 5),
        ColumnSpec::right("warm hits", 10),
        ColumnSpec::right("memo hits", 10),
        ColumnSpec::right("replays", 8),
        ColumnSpec::right("pruned", 7),
    ];
    let row = |label: &str, s: &smart_search::SearchStats| {
        vec![
            Value::text(label),
            Value::count(s.eval_misses),
            Value::count(s.ilp_compiles),
            Value::count(s.cold_solves),
            Value::count(s.warm_hits),
            Value::count(s.solution_hits),
            Value::count(s.timing_misses),
            Value::count(s.pruned as u64),
        ]
    };
    t.push_row(row("naive cold", &cold.stats));
    t.push_row(row("engine warm", &warm.stats));
    t.push_summary(
        "frontiers identical",
        Value::text(if warm.frontier == cold.frontier {
            "yes"
        } else {
            "NO"
        }),
    );
    t.push_summary(
        "ILP compiles saved",
        Value::percent(
            1.0 - warm.stats.ilp_compiles as f64 / cold.stats.ilp_compiles.max(1) as f64,
            0,
        ),
    );
    t.push_note(
        "(cold/warm/memo count ILP solves by start mode; pruning skips stages 2-3 entirely)",
    );
    t
}

/// Design-space search: the frontier gap between the prefetching SMART
/// family and the static Pipe family over identical hardware axes.
#[must_use]
pub fn search_frontier_gap(ctx: &ExperimentContext) -> ResultTable {
    let axes = |windows: Vec<Option<u32>>| SearchSpace {
        windows,
        random_banks: vec![256],
        kinds: vec![RandomArrayKind::PipelinedCmosSfq],
        shift_kb: vec![16, 32, 64],
        random_mb: vec![14, 28, 42],
        shift_banks: 256,
    };
    let cfg = SearchConfig::new(ctx.jobs);
    let pipe =
        smart_search::search(&axes(vec![None]), &cfg, &ctx.cache, &ctx.timing).expect("valid grid");
    let smart = smart_search::search(&axes(vec![Some(3)]), &cfg, &ctx.cache, &ctx.timing)
        .expect("valid grid");

    let mut t = ResultTable::new(
        "search_frontier_gap",
        "Design-space search: SMART (a=3) vs Pipe frontier gap on shared hardware axes",
    );
    t.columns = vec![
        ColumnSpec::right("shift(KB)", 10),
        ColumnSpec::right("random(MB)", 11),
        ColumnSpec::right("Pipe(us)", 9),
        ColumnSpec::right("SMART(us)", 10),
        ColumnSpec::right("speedup", 8),
        ColumnSpec::left("on frontier", 12),
    ];
    let mut log_sum = 0.0;
    for (i, (p, s)) in pipe.points.iter().zip(&smart.points).enumerate() {
        let (shift, random) = hetero_split(&p.params);
        let speedup = p.objectives.latency.as_s() / s.objectives.latency.as_s();
        log_sum += speedup.ln();
        let membership = match (pipe.frontier.contains(&i), smart.frontier.contains(&i)) {
            (true, true) => "both",
            (true, false) => "Pipe",
            (false, true) => "SMART",
            (false, false) => "-",
        };
        t.push_row(vec![
            Value::count(shift / 1024),
            Value::count(random / MB),
            Value::time(p.objectives.latency, Unit::Us, 2),
            Value::time(s.objectives.latency, Unit::Us, 2),
            Value::num(speedup, 2),
            Value::text(membership),
        ]);
    }
    let points = pipe.points.len();
    t.push_summary(
        "gmean prefetch speedup",
        Value::num((log_sum / points as f64).exp(), 3),
    );
    t.push_summary(
        "Pipe/SMART frontier sizes",
        Value::text(format!("{}/{}", pipe.stats.frontier, smart.stats.frontier)),
    );
    t.push_note("(same SPM geometry per row; the only delta is the ILP's prefetch window)");
    t
}

/// The SHIFT/RANDOM byte split of a heterogeneous search point.
fn hetero_split(params: &smart_core::geometry::GeometryParams) -> (u64, u64) {
    let (shift, random, _, _) = hetero_axes(params);
    (shift, random)
}

/// The SHIFT/RANDOM bytes, RANDOM bank count, and technology of a
/// heterogeneous search point.
fn hetero_axes(params: &smart_core::geometry::GeometryParams) -> (u64, u64, u32, RandomArrayKind) {
    match params.spm {
        smart_core::geometry::SpmGeometry::Heterogeneous {
            capacity_bytes,
            shift_bytes,
            random_banks,
            kind,
            ..
        } => (
            shift_bytes,
            capacity_bytes - 3 * shift_bytes,
            random_banks,
            kind,
        ),
        _ => unreachable!("search grids are heterogeneous"),
    }
}
