//! Checks that keep the benchmark honest: thread-count determinism of the
//! placer on a small generated design, and the metric catalogue against
//! `BENCHMARK.json`.

use complx_netlist::generator::GeneratorConfig;
use complx_obs::JsonValue;
use complx_place::{ComplxPlacer, PlacerConfig, ProjectionBackend, Trace};
use complx_placebench::gate::{self, Fingerprint};
use complx_placebench::metrics::{END_TO_END, PER_LAYER};
use complx_placebench::workload::WORKLOADS;

/// 1-thread and 2-thread runs must agree bit for bit, on both `P_C`
/// backends. 4200 cells put every parallel kernel above its threshold.
#[test]
fn one_and_two_threads_are_bit_identical() {
    let design = GeneratorConfig::ispd2005_like("det", 11, 4200).generate();
    for projection in [ProjectionBackend::Geometric, ProjectionBackend::Electro] {
        let config = PlacerConfig {
            projection,
            max_iterations: 8,
            ..PlacerConfig::default()
        };
        let run = |threads: usize| {
            let _t = complx_par::with_threads(threads);
            let placed = ComplxPlacer::new(config.clone()).place(&design);
            let errors = gate::check(&design, &config, &placed);
            assert!(
                errors.is_empty(),
                "{projection} at {threads} threads: {errors:?}"
            );
            Fingerprint::of(&placed.expect("gate passed"))
        };
        let one = run(1);
        assert!(one.iterations > 0, "{projection}: the λ loop must run");
        assert_eq!(gate::check_repeat(&one, &run(2)), None, "{projection}");
    }
}

/// The gate must flag an illegal placement, a corrupted trace and a
/// scaled HPWL the oracle does not reproduce.
#[test]
fn gate_flags_corrupted_results() {
    let design = GeneratorConfig::small("gate", 5).generate();
    let config = PlacerConfig::default();
    let placed = ComplxPlacer::new(config.clone()).place(&design);
    assert_eq!(gate::check(&design, &config, &placed), Vec::<String>::new());
    let good = placed.expect("gate passed");

    let mut overlapping = good.clone();
    let movable = design.movable_cells();
    let (a, b) = (movable[0].index(), movable[1].index());
    overlapping.legal.xs_mut()[a] = overlapping.legal.xs()[b];
    overlapping.legal.ys_mut()[a] = overlapping.legal.ys()[b];
    let errors = gate::check(&design, &config, &Ok(overlapping));
    assert!(
        errors.iter().any(|e| e.contains("oracle audit")),
        "{errors:?}"
    );

    let mut off_hpwl = good.clone();
    off_hpwl.metrics.scaled_hpwl *= 1.0 + 1e-6;
    let errors = gate::check(&design, &config, &Ok(off_hpwl));
    assert!(
        errors.iter().any(|e| e.contains("scaled HPWL")),
        "{errors:?}"
    );

    let mut bad_trace = good.clone();
    bad_trace.trace = Trace::new();
    for (k, r) in good.trace.records().iter().enumerate() {
        let mut r = *r;
        if k == good.trace.len() - 1 {
            r.lagrangian *= 2.0;
        }
        bad_trace.trace.push(r);
    }
    let errors = gate::check(&design, &config, &Ok(bad_trace));
    assert!(
        errors.iter().any(|e| e.contains("lagrangian")),
        "{errors:?}"
    );
}

fn load_benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    complx_obs::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = load_benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), s.better.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}
