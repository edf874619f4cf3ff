//! Allocation budget of the quadratic model's system assembly: the
//! buffers it keeps between `minimize` calls mean a warm call allocates
//! almost nothing under the `b2b_rebuild` span. The counting allocator is
//! installed for this whole test binary, exactly as the `complx` CLI
//! installs it.

use complx_netlist::{generator::GeneratorConfig, Design, Placement};
use complx_obs::prof::{self, set_mem_profiling};
use complx_wirelength::{Anchors, InterconnectModel, QuadraticModel};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// Bytes allocated under `b2b_rebuild` (its worker-side chunks included)
/// by one anchored `minimize` call.
fn b2b_alloc_bytes(model: &QuadraticModel, design: &Design, placement: &mut Placement) -> u64 {
    let anchors = Anchors::uniform(design, design.initial_placement(), 0.5);
    complx_obs::install(Vec::new());
    model.minimize(design, placement, Some(&anchors));
    let harvest = complx_obs::harvest().expect("collector installed");
    harvest
        .memory
        .iter()
        .filter(|m| m.path.split('/').any(|s| s == "b2b_rebuild"))
        .map(|m| m.alloc_bytes)
        .sum()
}

#[test]
fn warm_minimize_allocates_a_tenth_of_the_cold_call() {
    assert!(prof::allocator_installed());
    set_mem_profiling(true);
    let design = GeneratorConfig::small("alloc", 21).generate();
    for threads in [1, 2] {
        let _g = complx_par::with_threads(threads);
        complx_par::prewarm(threads);
        let model = QuadraticModel::default();
        let mut placement = design.initial_placement();
        let cold = b2b_alloc_bytes(&model, &design, &mut placement);
        let warm = b2b_alloc_bytes(&model, &design, &mut placement);
        assert!(cold > 0, "{threads} threads: cold call allocated nothing");
        assert!(
            warm * 10 <= cold,
            "{threads} threads: warm call allocated {warm} B, cold {cold} B"
        );
    }
    set_mem_profiling(false);
}
