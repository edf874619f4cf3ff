//! The benchmark's metric catalogue: every name it reports, with its unit,
//! direction and kind. `BENCHMARK.json` at the repository root lists the
//! same names; a test keeps the two in step.

/// How a metric behaves run to run, which decides how `--diff` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock seconds on the issuing thread.
    Wall,
    /// Seconds summed over every thread that worked under a span.
    Busy,
    /// Allocation or memory volume.
    Alloc,
    /// A count that is fixed for a given input: any change is a change in
    /// behaviour, not noise.
    Exact,
    /// A derived ratio or quality figure.
    Ratio,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted metric name; the text before the first `.` is its layer.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Run-to-run behaviour.
    pub kind: Kind,
}

impl MetricSpec {
    /// The layer a metric belongs to (`sparse` for `sparse.cg_s`); the
    /// end-to-end metrics belong to `e2e`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or("e2e", |(layer, _)| layer)
    }
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        kind,
    }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("place_s", "s", "lower", Kind::Wall),
    m("setup_s", "s", "lower", Kind::Wall),
    m("scaled_hpwl", "length", "lower", Kind::Exact),
    m("peak_rss_mb", "MB", "lower", Kind::Alloc),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricSpec] = &[
    // core
    m("core.iterations", "count", "lower", Kind::Exact),
    m("core.stop_reason", "code", "lower", Kind::Exact),
    m("core.bootstrap_s", "s", "lower", Kind::Wall),
    m("core.loop_self_s", "s", "lower", Kind::Wall),
    m("core.pi_trend_ratio", "ratio", "lower", Kind::Exact),
    // wirelength
    m("wirelength.b2b_rebuild_s", "s", "lower", Kind::Wall),
    m("wirelength.b2b_rebuild_busy_s", "s", "lower", Kind::Busy),
    m(
        "wirelength.b2b_rebuild_calls",
        "count",
        "lower",
        Kind::Exact,
    ),
    m("wirelength.b2b_alloc_bytes", "bytes", "lower", Kind::Alloc),
    m("wirelength.minimize_replay_s", "s", "lower", Kind::Wall),
    // sparse
    m("sparse.cg_s", "s", "lower", Kind::Wall),
    m("sparse.cg_busy_s", "s", "lower", Kind::Busy),
    m("sparse.cg_iterations", "count", "lower", Kind::Exact),
    m("sparse.cg_converged_ratio", "ratio", "higher", Kind::Exact),
    m("sparse.residual_p50", "ratio", "lower", Kind::Exact),
    m("sparse.residual_max", "ratio", "lower", Kind::Exact),
    // spread
    m("spread.projection_s", "s", "lower", Kind::Wall),
    m("spread.projection_busy_s", "s", "lower", Kind::Busy),
    m("spread.projection_calls", "count", "lower", Kind::Exact),
    m("spread.bins_rebuilt", "count", "lower", Kind::Exact),
    m("spread.regions", "count", "lower", Kind::Exact),
    m("spread.density_s", "s", "lower", Kind::Wall),
    m("spread.shred_s", "s", "lower", Kind::Wall),
    m("spread.project_replay_s", "s", "lower", Kind::Wall),
    m("spread.charge_s", "s", "lower", Kind::Wall),
    m("spread.displace_s", "s", "lower", Kind::Wall),
    m("spread.electro_passes", "count", "lower", Kind::Exact),
    // fft
    m("fft.poisson_s", "s", "lower", Kind::Wall),
    m("fft.points", "count", "lower", Kind::Exact),
    m("fft.plan_replay_s", "s", "lower", Kind::Wall),
    m("fft.solve_replay_s", "s", "lower", Kind::Wall),
    // legalize
    m("legalize.legalize_s", "s", "lower", Kind::Wall),
    m("legalize.detail_s", "s", "lower", Kind::Wall),
    m("legalize.detail_moves", "count", "higher", Kind::Exact),
    m("legalize.failures", "count", "lower", Kind::Exact),
    m("legalize.legalize_replay_s", "s", "lower", Kind::Wall),
    m("legalize.detail_replay_s", "s", "lower", Kind::Wall),
    // netlist
    m("netlist.read_s", "s", "lower", Kind::Wall),
    m("netlist.validate_s", "s", "lower", Kind::Wall),
    m("netlist.bundle_bytes", "bytes", "lower", Kind::Exact),
    // par
    m("par.parallelism.b2b", "ratio", "higher", Kind::Ratio),
    m("par.parallelism.cg", "ratio", "higher", Kind::Ratio),
    m("par.parallelism.projection", "ratio", "higher", Kind::Ratio),
    // memory
    m("mem.alloc_bytes", "bytes", "lower", Kind::Alloc),
    m("mem.allocs", "count", "lower", Kind::Alloc),
    m("mem.peak_heap_bytes", "bytes", "lower", Kind::Alloc),
    // obs
    m("obs.trace_overhead_ratio", "ratio", "lower", Kind::Ratio),
];

/// Looks a metric up in both catalogues.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}
