//! Runs the real ILP compiler on CNN layers and compares it to the greedy
//! (ideal-static) allocator — the `SMART` vs `Heter`/`Pipe` software gap.
//!
//! ```sh
//! cargo run --release --example compiler_schedule
//! ```

use smart::compiler::formulation::{compile_layer_ctx, FormulationParams};
use smart::compiler::greedy::allocate;
use smart::compiler::lifespan::analyze;
use smart::compiler::schedule::Location;
use smart::compiler::SolverContext;
use smart::systolic::dag::LayerDag;
use smart::systolic::mapping::{ArrayShape, LayerMapping};
use smart::systolic::models::ModelId;
use smart::units::Time;

fn main() {
    let model = ModelId::AlexNet.build();
    let shape = ArrayShape::new(64, 256);
    let params = FormulationParams::smart_default();

    println!(
        "ILP compilation of AlexNet onto SMART (a = {}):",
        params.prefetch_window
    );
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>9} {:>9} {:>11}",
        "layer", "iters", "SHIFT(B)", "RANDOM(B)", "DRAM(B)", "prefetch", "source"
    );

    for layer in &model.layers {
        let mapping = LayerMapping::map(layer, shape, 1);
        let dag = LayerDag::build(&mapping, 6);
        let schedule = compile_layer_ctx(&dag, &params, &SolverContext::new());
        let (shift, random, dram) = schedule.bytes_by_location(&dag);
        println!(
            "{:<8} {:>6} {:>10} {:>10} {:>9} {:>8.0}% {:>11?}",
            layer.name,
            dag.iterations,
            shift,
            random,
            dram,
            schedule.prefetched_fraction(&dag) * 100.0,
            schedule.source
        );
    }

    // Head-to-head on one layer: ILP vs greedy objective and exposure.
    let layer = &model.layers[1]; // conv2
    let mapping = LayerMapping::map(layer, shape, 1);
    let dag = LayerDag::build(&mapping, 6);
    let ilp = compile_layer_ctx(&dag, &params, &SolverContext::new());
    let greedy = allocate(&dag, &params, analyze(&dag, params.prefetch_window));
    println!("\nconv2 head-to-head (objective = modeled time saving):");
    println!("  ILP    objective = {:.0}", ilp.objective);
    println!("  greedy objective = {:.0}", greedy.objective);

    // Exposed load time under a simple load-cost model.
    let iter_time = Time::from_us(0.2);
    let cost = |bytes: u64, loc: Location| match loc {
        Location::Shift | Location::Random => Time::from_ns(bytes as f64 * 4e-4),
        Location::Dram => Time::from_ns(bytes as f64 * 3.3e-3),
    };
    println!(
        "  ILP    exposed load = {:.2} us",
        ilp.exposed_load_time(&dag, iter_time, cost).as_us()
    );
    println!(
        "  greedy exposed load = {:.2} us",
        greedy.exposed_load_time(&dag, iter_time, cost).as_us()
    );
}
