//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! the Fig. 2 wire kernel, the cryogenic sub-bank model, the `josim-lite`
//! transient engine, the ILP compiler, and the end-to-end evaluator.

use criterion::{criterion_group, criterion_main, Criterion};
use smart_compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart_compiler::SolverContext;
use smart_core::eval::evaluate;
use smart_core::scheme::Scheme;
use smart_cryomem::subbank::{SubBankConfig, SubBankModel};
use smart_josim::fixtures::PtlFixture;
use smart_sfq::ptl::PtlGeometry;
use smart_sfq::wire::wire_comparison;
use smart_systolic::dag::LayerDag;
use smart_systolic::layer::ConvLayer;
use smart_systolic::mapping::{ArrayShape, LayerMapping};
use smart_systolic::models::ModelId;
use smart_units::Length;
use std::hint::black_box;

fn bench_wire_comparison(c: &mut Criterion) {
    let lengths: Vec<f64> = (1..=200).map(f64::from).collect();
    c.bench_function("fig02_wire_comparison_200pts", |b| {
        b.iter(|| wire_comparison(black_box(&lengths)))
    });
}

fn bench_subbank_model(c: &mut Criterion) {
    c.bench_function("cryomem_subbank_112kb", |b| {
        b.iter(|| SubBankModel::new(black_box(SubBankConfig::scaled_28nm(112 * 1024, 64, 1))))
    });
}

fn bench_josim_transient(c: &mut Criterion) {
    let fixture = PtlFixture::new(PtlGeometry::hypres_microstrip(), Length::from_mm(0.2));
    c.bench_function("josim_ptl_0p2mm_transient", |b| {
        b.iter(|| fixture.run().expect("simulates"))
    });
}

fn bench_ilp_compile(c: &mut Criterion) {
    let layer = ConvLayer::conv("conv3", 13, 13, 256, 384, 3, 1, 1);
    let mapping = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
    let dag = LayerDag::build(&mapping, 6);
    let params = FormulationParams::smart_default();
    c.bench_function("compiler_ilp_layer_6iter", |b| {
        b.iter(|| compile_layer_ctx(black_box(&dag), black_box(&params), &SolverContext::new()))
    });
}

fn bench_evaluate(c: &mut Criterion) {
    let model = ModelId::AlexNet.build();
    let schemes = [Scheme::supernpu(), Scheme::smart()];
    let mut g = c.benchmark_group("evaluate_alexnet");
    for s in &schemes {
        g.bench_function(s.name, |b| {
            b.iter(|| evaluate(black_box(s), black_box(&model), 1))
        });
    }
    g.finish();
}

fn bench_resnet_sweep(c: &mut Criterion) {
    let model = ModelId::ResNet50.build();
    let smart = Scheme::smart();
    c.bench_function("evaluate_resnet50_smart_batch20", |b| {
        b.iter(|| evaluate(black_box(&smart), black_box(&model), 20))
    });
}

criterion_group!(
    benches,
    bench_wire_comparison,
    bench_subbank_model,
    bench_josim_transient,
    bench_ilp_compile,
    bench_evaluate,
    bench_resnet_sweep
);
criterion_main!(benches);
