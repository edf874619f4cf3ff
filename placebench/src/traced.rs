//! The traced run: the placer's own spans and counters, harvested with the
//! `complx_obs` collector and the counting allocator armed, plus replayed
//! calls into each layer's public functions on the run's final iterates.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;

use complx_fft::PoissonSolver;
use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::density::DensityGrid;
use complx_netlist::{CellId, CellKind, Design};
use complx_obs::{prof, Harvest, Sink};
use complx_place::{ComplxPlacer, Interconnect, PlacementOutcome, ProjectionBackend, StopReason};
use complx_sparse::CgSolver;
use complx_spread::{ElectroProjection, FeasibilityProjection, Projection};
use complx_wirelength::{Anchors, InterconnectModel, QuadraticModel};

use crate::run::{place_checked, RunResult, Setup, SETUP_SAMPLES};
use crate::stats::{median, median_time};
use crate::workload::{Bundle, Workload};

/// Repetitions of each replayed layer call (the median is reported).
pub const REPLAY_REPS: usize = 3;

/// Records the seconds of `…/chunks` spans that ran on the placer thread.
/// The collector merges chunk spans of every thread under one path; the
/// difference between that total and this one is the pool workers' share.
struct CallerChunks(Rc<RefCell<BTreeMap<String, f64>>>);

impl Sink for CallerChunks {
    fn on_span_exit(&mut self, path: &str, _depth: usize, seconds: f64, _seq: u64) {
        if path.ends_with("/chunks") {
            *self.0.borrow_mut().entry(path.to_string()).or_default() += seconds;
        }
    }
}

/// Span arithmetic over one harvest.
struct Spans<'a> {
    harvest: &'a Harvest,
    caller_chunks: BTreeMap<String, f64>,
}

impl Spans<'_> {
    /// Every phase whose last path component is one of `names`.
    fn named<'s>(&'s self, names: &'s [&str]) -> impl Iterator<Item = &'s complx_obs::PhaseStat> {
        self.harvest
            .phases
            .iter()
            .filter(move |p| names.contains(&p.name()))
    }

    fn wall(&self, names: &[&str]) -> f64 {
        self.named(names)
            .map(|p| p.total_seconds)
            .fold(0.0, |a, b| a + b)
    }

    fn calls(&self, names: &[&str]) -> u64 {
        self.named(names).map(|p| p.count).sum()
    }

    /// Seconds pool workers spent in the chunk spans under `path`.
    fn worker_chunks(&self, path: &str) -> f64 {
        let chunks = format!("{path}/chunks");
        let all = self.harvest.phase(&chunks).map_or(0.0, |p| p.total_seconds);
        let caller = self.caller_chunks.get(&chunks).copied().unwrap_or(0.0);
        (all - caller).max(0.0)
    }

    /// Wall time on the placer thread plus the workers' chunk time: the
    /// seconds of CPU the layer kept busy.
    fn busy(&self, names: &[&str]) -> f64 {
        self.named(names)
            .map(|p| p.total_seconds + self.worker_chunks(&p.path))
            .fold(0.0, |a, b| a + b)
    }

    /// Bytes allocated on the placer thread while a span named in `names`
    /// was open.
    fn alloc_bytes(&self, names: &[&str]) -> u64 {
        self.harvest
            .memory
            .iter()
            .filter(|m| names.iter().any(|n| m.path.rsplit('/').next() == Some(*n)))
            .map(|m| m.alloc_bytes)
            .sum()
    }

    /// Self time of `path` on the placer thread: its total minus its
    /// direct children (chunk children count only their placer-thread part).
    fn self_seconds(&self, path: &str) -> f64 {
        let Some(parent) = self.harvest.phase(path) else {
            return 0.0;
        };
        let prefix = format!("{path}/");
        let children: f64 = self
            .harvest
            .phases
            .iter()
            .filter(|c| c.depth == parent.depth + 1 && c.path.starts_with(&prefix))
            .map(|c| {
                if c.name() == "chunks" {
                    self.caller_chunks.get(&c.path).copied().unwrap_or(0.0)
                } else {
                    c.total_seconds
                }
            })
            .sum();
        (parent.total_seconds - children).max(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// A stable numeric code per stop reason (the metric `core.stop_reason`).
pub fn stop_code(reason: StopReason) -> f64 {
    match reason {
        StopReason::Converged => 1.0,
        StopReason::Stagnated => 2.0,
        StopReason::IterationCap => 3.0,
        StopReason::TimeBudget => 4.0,
        StopReason::Recovered => 5.0,
        StopReason::Cancelled => 6.0,
        _ => 7.0,
    }
}

/// Best Π over the trailing quarter of the constrained (λ > 0) iterations
/// divided by the first constrained Π; 1 when the λ loop never ran. Below
/// 1 means the feasibility distance came down (paper Formula 3).
pub fn pi_trend_ratio(outcome: &PlacementOutcome) -> f64 {
    let pis: Vec<f64> = outcome
        .trace
        .records()
        .iter()
        .filter(|r| r.lambda > 0.0)
        .map(|r| r.pi)
        .collect();
    let Some(&first) = pis.first() else {
        return 1.0;
    };
    let tail = &pis[pis.len() - pis.len() / 4 - 1..];
    ratio(tail.iter().copied().fold(f64::INFINITY, f64::min), first)
}

/// The traced run: three placements of one design (untraced, traced,
/// untraced), then replays of each layer on the traced run's final
/// iterates.
///
/// The traced run places the single design of generator seed `seed`.
///
/// # Errors
///
/// Returns a message when the bundle cannot be written or read back.
pub fn traced(workload: &Workload, seed: u64, work: &Path) -> Result<RunResult, String> {
    let bundle = Bundle::write(workload, seed, &work.join(seed.to_string()))?;
    let setup = Setup::run(&bundle, SETUP_SAMPLES)?;
    let design = &setup.design;
    complx_par::prewarm(workload.threads);
    let _threads = complx_par::with_threads(workload.threads);

    // Placement 1 warms the process up (the first placement of a process
    // runs about 10% slower) and is the determinism reference; 2 is
    // traced; 3 is the untraced reference for the trace overhead.
    let mut result = RunResult::default();
    let mut first = None;
    let untraced = |d: &Design| ComplxPlacer::new(workload.config()).place(d);
    if place_checked(workload, design, &mut first, &mut result, untraced).is_none() {
        return Ok(result);
    }
    let caller = Rc::new(RefCell::new(BTreeMap::new()));
    let mut collected = None;
    let traced = place_checked(workload, design, &mut first, &mut result, |d| {
        prof::set_mem_profiling(true);
        complx_obs::install(vec![Box::new(CallerChunks(Rc::clone(&caller)))]);
        let placed = ComplxPlacer::new(workload.config()).place(d);
        collected = Some((
            complx_obs::harvest().unwrap_or_default(),
            prof::mem_totals(),
        ));
        prof::set_mem_profiling(false);
        placed
    });
    let reference = place_checked(workload, design, &mut first, &mut result, untraced);
    let (Some((outcome, traced_s)), Some((harvest, totals)), Some((_, untraced_s))) =
        (traced, collected, reference)
    else {
        return Ok(result);
    };
    let spans = Spans {
        harvest: &harvest,
        caller_chunks: caller.take(),
    };

    const B2B: &[&str] = &["b2b_rebuild"];
    const CG: &[&str] = &["cg_solve_x", "cg_solve_y"];
    const PROJ: &[&str] = &["projection"];
    let h = &harvest;
    let residuals: Vec<f64> = outcome.solves.iter().map(|s| s.relative_residual).collect();
    let cg_solves = h.counter("cg.solves");
    let replay = Replays::run(workload, design, &outcome);

    let metrics: Vec<(&'static str, f64)> = vec![
        ("core.iterations", outcome.iterations as f64),
        ("core.stop_reason", stop_code(outcome.stop_reason)),
        ("core.bootstrap_s", spans.wall(&["bootstrap"])),
        ("core.loop_self_s", spans.self_seconds("place/iteration")),
        ("core.pi_trend_ratio", pi_trend_ratio(&outcome)),
        ("wirelength.b2b_rebuild_s", spans.wall(B2B)),
        ("wirelength.b2b_rebuild_busy_s", spans.busy(B2B)),
        ("wirelength.b2b_rebuild_calls", spans.calls(B2B) as f64),
        ("wirelength.b2b_alloc_bytes", spans.alloc_bytes(B2B) as f64),
        ("wirelength.minimize_replay_s", replay.minimize_s),
        ("sparse.cg_s", spans.wall(CG)),
        ("sparse.cg_busy_s", spans.busy(CG)),
        ("sparse.cg_iterations", h.counter("cg.iterations") as f64),
        (
            "sparse.cg_converged_ratio",
            ratio(
                cg_solves.saturating_sub(h.counter("cg.unconverged")) as f64,
                cg_solves as f64,
            ),
        ),
        ("sparse.residual_p50", median(&residuals).unwrap_or(0.0)),
        (
            "sparse.residual_max",
            residuals.iter().copied().fold(0.0, f64::max),
        ),
        ("spread.projection_s", spans.wall(PROJ)),
        ("spread.projection_busy_s", spans.busy(PROJ)),
        (
            "spread.projection_calls",
            h.counter("projection.calls") as f64,
        ),
        (
            "spread.bins_rebuilt",
            h.counter("projection.bins_rebuilt") as f64,
        ),
        ("spread.regions", h.counter("projection.regions") as f64),
        ("spread.density_s", spans.wall(&["density"])),
        ("spread.shred_s", spans.wall(&["shred"])),
        ("spread.project_replay_s", replay.project_s),
        ("spread.charge_s", spans.wall(&["charge"])),
        ("spread.displace_s", spans.wall(&["displace"])),
        (
            "spread.electro_passes",
            h.counter("projection.passes") as f64,
        ),
        ("fft.poisson_s", spans.wall(&["poisson"])),
        ("fft.points", h.counter("projection.fft_points") as f64),
        ("fft.plan_replay_s", replay.plan_s),
        ("fft.solve_replay_s", replay.solve_s),
        ("legalize.legalize_s", spans.wall(&["legalize"])),
        ("legalize.detail_s", spans.wall(&["detail"])),
        ("legalize.detail_moves", h.counter("detail.moves") as f64),
        ("legalize.failures", h.counter("legalize.failures") as f64),
        ("legalize.legalize_replay_s", replay.legalize_s),
        ("legalize.detail_replay_s", replay.detail_s),
        ("netlist.read_s", median(&setup.read_s).unwrap_or(0.0)),
        (
            "netlist.validate_s",
            median(&setup.validate_s).unwrap_or(0.0),
        ),
        ("netlist.bundle_bytes", bundle.bytes as f64),
        (
            "par.parallelism.b2b",
            ratio(spans.busy(B2B), spans.wall(B2B)),
        ),
        ("par.parallelism.cg", ratio(spans.busy(CG), spans.wall(CG))),
        (
            "par.parallelism.projection",
            ratio(spans.busy(PROJ), spans.wall(PROJ)),
        ),
        ("mem.alloc_bytes", totals.alloc_bytes as f64),
        ("mem.allocs", totals.allocs as f64),
        ("mem.peak_heap_bytes", totals.peak_bytes as f64),
        ("obs.trace_overhead_ratio", ratio(traced_s, untraced_s)),
    ];
    result.metrics = metrics;
    Ok(result)
}

/// Median seconds of direct calls into each layer on the final iterates.
/// Layers the workload does not run report 0.
#[derive(Debug, Default)]
struct Replays {
    minimize_s: f64,
    project_s: f64,
    plan_s: f64,
    solve_s: f64,
    legalize_s: f64,
    detail_s: f64,
}

impl Replays {
    fn run(workload: &Workload, design: &Design, outcome: &PlacementOutcome) -> Self {
        let cfg = workload.config();
        let mut r = Self::default();

        // QuadraticModel::minimize on the final lower iterate, anchored to
        // the feasible iterate at the final λ (as the λ loop builds them).
        if let Interconnect::Quadratic(net_model) = cfg.interconnect {
            let model = QuadraticModel::new(net_model).with_solver(
                CgSolver::new()
                    .with_tolerance(cfg.cg_tolerance)
                    .with_max_iterations(cfg.cg_max_iterations),
            );
            let mean_std = design.mean_std_cell_area().max(f64::MIN_POSITIVE);
            let lambdas: Vec<f64> = (0..design.num_cells())
                .map(|i| {
                    let cell = design.cell(CellId::from_index(i));
                    let scale = if cfg.per_macro_lambda && cell.kind() == CellKind::MovableMacro {
                        (cell.area() / mean_std).max(1.0)
                    } else {
                        1.0
                    };
                    if cell.is_movable() {
                        outcome.final_lambda * scale
                    } else {
                        0.0
                    }
                })
                .collect();
            let anchors = Anchors::per_cell(
                design,
                outcome.upper.clone(),
                lambdas,
                1.5 * design.row_height(),
            );
            r.minimize_s = median_time(REPLAY_REPS, || {
                let mut p = outcome.lower.clone();
                black_box(model.minimize(design, &mut p, Some(&anchors)));
            });
        }

        let projection: Box<dyn Projection> = match cfg.projection {
            ProjectionBackend::Geometric => Box::new(FeasibilityProjection {
                shred_macros: cfg.shred_macros,
                cells_per_bin: cfg.cells_per_bin,
                ..FeasibilityProjection::default()
            }),
            ProjectionBackend::Electro => Box::new(ElectroProjection {
                cells_per_bin: cfg.cells_per_bin,
                ..ElectroProjection::default()
            }),
        };
        r.project_s = median_time(REPLAY_REPS, || {
            black_box(projection.project(design, &outcome.lower));
        });

        // PoissonSolver::new against solve at the grid side the run ended
        // on, with the final lower iterate's density as the charge.
        if cfg.projection == ProjectionBackend::Electro {
            let side = outcome.trace.records().last().map_or(0, |rec| rec.bins);
            if side.is_power_of_two() {
                let grid = DensityGrid::build(design, &outcome.lower, side, side);
                let bin_area = grid.bin_width() * grid.bin_height();
                let rho: Vec<f64> = (0..side * side)
                    .map(|k| grid.usage(k % side, k / side) / bin_area)
                    .collect();
                let core = design.core();
                r.plan_s = median_time(REPLAY_REPS, || {
                    black_box(PoissonSolver::new(side, side));
                });
                let solver = PoissonSolver::new(side, side);
                r.solve_s = median_time(REPLAY_REPS, || {
                    black_box(solver.solve(&rho, core.width(), core.height()));
                });
            }
        }

        r.legalize_s = median_time(REPLAY_REPS, || {
            black_box(Legalizer::default().legalize(design, &outcome.upper));
        });
        let legal = Legalizer::default()
            .legalize(design, &outcome.upper)
            .placement;
        r.detail_s = median_time(REPLAY_REPS, || {
            black_box(DetailedPlacer::default().improve(design, legal.clone()));
        });
        r
    }
}
