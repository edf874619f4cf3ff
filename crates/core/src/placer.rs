//! The ComPLx primal-dual placement loop.

use std::time::{Duration, Instant};

use complx_legalize::{DetailedPlacer, Legalizer};
use complx_netlist::{hpwl, CellKind, Design, Placement, Point};
use complx_par::CancelToken;
use complx_sparse::CgSolver;
use complx_spread::rudy::CongestionMap;
use complx_spread::{ElectroProjection, FeasibilityProjection, Projection, ProjectionResult};
use complx_wirelength::{
    Anchors, BetaRegModel, InterconnectModel, LseModel, PNormModel, QuadraticModel,
};

use complx_obs as obs;

use crate::budget::Budget;
use crate::ckpt::{self, CheckpointState, CheckpointWriter};
use crate::config::{Interconnect, PlacerConfig, ProjectionBackend};
use crate::error::{PlaceError, StopReason};
use crate::faults::{FaultArming, FaultKind};
use crate::lambda::LambdaSchedule;
use crate::metrics::PlacementMetrics;
use crate::solves::{SolveRecord, SolverTotals};
use crate::trace::{IterationRecord, Trace};

/// Everything a placement run produces.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// The last lower-bound iterate `(x, y)` (analytic minimizer).
    pub lower: Placement,
    /// The last feasible iterate `(x°, y°)` (projection output) — per
    /// Section 4, detailed placement starts here.
    pub upper: Placement,
    /// The final legal placement (equal to `upper` when
    /// [`PlacerConfig::final_detail`] is off).
    pub legal: Placement,
    /// Quality metrics of `legal`.
    pub metrics: PlacementMetrics,
    /// HPWL of `legal` (convenience copy of `metrics.hpwl`).
    pub hpwl_legal: f64,
    /// Per-iteration convergence trace (Figures 1 and 3).
    pub trace: Trace,
    /// Number of global placement iterations executed.
    pub iterations: usize,
    /// Final λ value (Figure 3 / Section S3).
    pub final_lambda: f64,
    /// Whether a convergence criterion fired (vs. the iteration cap).
    pub converged: bool,
    /// Why the primal-dual loop stopped iterating.
    pub stop_reason: StopReason,
    /// Number of divergence recoveries executed during the run (`0` for a
    /// clean run; when non-zero, [`Self::stop_reason`] is
    /// [`StopReason::Recovered`]).
    pub recoveries: usize,
    /// Wall-clock seconds in global placement.
    pub global_seconds: f64,
    /// Wall-clock seconds in legalization + detailed placement.
    pub detail_seconds: f64,
    /// Per-iteration linear-solver statistics (bootstrap solves at
    /// iteration 0, then one record per λ-loop primal step).
    pub solves: Vec<SolveRecord>,
}

impl PlacementOutcome {
    /// Run-level totals over [`Self::solves`].
    pub fn solver_totals(&self) -> SolverTotals {
        SolverTotals::from_records(&self.solves)
    }
}

/// The ComPLx global placer. See the crate docs for the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplxPlacer {
    config: PlacerConfig,
    cancel: Option<CancelToken>,
}

impl Default for ComplxPlacer {
    fn default() -> Self {
        Self::new(PlacerConfig::default())
    }
}

impl ComplxPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        Self {
            config,
            cancel: None,
        }
    }

    /// Attaches an external cancel token. When it trips, the run winds
    /// down cooperatively: the inner kernels (CG, NLCG, projection,
    /// detailed placement) stop at their next safe point and the loop
    /// exits through the best-iterate path with
    /// [`StopReason::Cancelled`] — or [`PlaceError::Cancelled`] when no
    /// feasible iterate exists yet. An untripped token changes nothing:
    /// the run is bit-identical to one without a token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Places a design.
    ///
    /// # Errors
    ///
    /// Returns a [`PlaceError`] when the design is unplaceable, the solver
    /// breaks down before a feasible iterate exists, the run diverges past
    /// the recovery budget, or the time budget expires before any feasible
    /// iterate was produced. See [`PlaceError`] for the variants.
    pub fn place(&self, design: &Design) -> Result<PlacementOutcome, PlaceError> {
        self.run(design, None, None)
    }

    /// Resumes a run from a checkpoint captured by a previous (killed or
    /// cancelled) run with the same design and configuration, continuing
    /// at `state.iteration + 1`. The final placement is byte-identical to
    /// the uninterrupted run's, for any thread count.
    ///
    /// Criticality-weighted runs are not resumable: the checkpoint does
    /// not capture the criticality factors (see
    /// [`Self::place_with_criticality`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::CheckpointMismatch`] when the checkpoint was
    /// taken on a different design or a configuration whose
    /// determinism-relevant fields differ (see [`ckpt::config_hash`]),
    /// plus every failure mode of [`Self::place`].
    pub fn resume(
        &self,
        design: &Design,
        state: CheckpointState,
    ) -> Result<PlacementOutcome, PlaceError> {
        let dh = ckpt::design_hash(design);
        if dh != state.design_hash {
            return Err(PlaceError::CheckpointMismatch {
                reason: format!(
                    "design hash {dh:#018x} does not match checkpoint {:#018x}",
                    state.design_hash
                ),
            });
        }
        let ch = ckpt::config_hash(&self.config);
        if ch != state.config_hash {
            return Err(PlaceError::CheckpointMismatch {
                reason: format!(
                    "config hash {ch:#018x} does not match checkpoint {:#018x}",
                    state.config_hash
                ),
            });
        }
        if state.lower.len() != design.num_cells() {
            return Err(PlaceError::CheckpointMismatch {
                reason: format!(
                    "checkpoint holds {} cells for a {}-cell design",
                    state.lower.len(),
                    design.num_cells()
                ),
            });
        }
        self.run(design, None, Some(state))
    }

    /// Places a design with per-cell criticality factors `γ_i` weighing the
    /// penalty term (Formula 13). `criticality[i]` multiplies cell `i`'s
    /// λ; pass `None` (or all-ones) for wirelength-driven placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InvalidDesign`] when `criticality` has the
    /// wrong length or contains non-finite/negative entries, plus every
    /// failure mode of [`Self::place`].
    pub fn place_with_criticality(
        &self,
        design: &Design,
        criticality: Option<&[f64]>,
    ) -> Result<PlacementOutcome, PlaceError> {
        self.run(design, criticality, None)
    }

    /// The shared engine behind [`Self::place`],
    /// [`Self::place_with_criticality`], and [`Self::resume`]: a fresh run
    /// bootstraps at λ = 0, a resumed run restores the checkpointed loop
    /// state and continues at the next iteration.
    fn run(
        &self,
        design: &Design,
        criticality: Option<&[f64]>,
        resume: Option<CheckpointState>,
    ) -> Result<PlacementOutcome, PlaceError> {
        if let Some(c) = criticality {
            if c.len() != design.num_cells() {
                return Err(PlaceError::InvalidDesign {
                    reason: format!(
                        "criticality has {} entries for {} cells",
                        c.len(),
                        design.num_cells()
                    ),
                });
            }
            if c.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(PlaceError::InvalidDesign {
                    reason: "criticality contains non-finite or negative factors".into(),
                });
            }
        }
        validate_design(design)?;
        let _place_span = obs::span("place");
        let cfg = &self.config;
        let t_global = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let deadline = match cfg.time_budget {
            Some(s) if s <= 0.0 => {
                return Err(PlaceError::TimedOut { budget_seconds: s });
            }
            Some(s) => Some(t_global + Duration::from_secs_f64(s)),
            None => None,
        };
        // Deadline ∪ external cancellation, polled at every safe point;
        // the token additionally reaches the cancellable kernels.
        let budget = Budget::new(deadline, self.cancel.clone());

        // The CG tolerance is recovery-state: each divergence recovery
        // tightens it (sloppier solves are a prime source of breakdowns),
        // so the model is rebuilt from the current value.
        let make_model = |cg_tol: f64| -> Box<dyn InterconnectModel> {
            match cfg.interconnect {
                Interconnect::Quadratic(net_model) => Box::new(
                    QuadraticModel::new(net_model).with_solver(
                        CgSolver::new()
                            .with_tolerance(cg_tol)
                            .with_max_iterations(cfg.cg_max_iterations),
                    ),
                ),
                Interconnect::LogSumExp { gamma_rows } => {
                    Box::new(LseModel::new().with_gamma_rows(gamma_rows))
                }
                Interconnect::BetaRegularized { beta_rows2 } => {
                    Box::new(BetaRegModel::new().with_beta_rows2(beta_rows2))
                }
                Interconnect::PNorm { p } => Box::new(PNormModel::new().with_p(p)),
            }
        };
        let mut cg_tol = cfg.cg_tolerance;
        let mut model = make_model(cg_tol);
        let mut armed = FaultArming::new(cfg.faults.as_ref());
        // The paper treats `P_C` as a black box; the backend is picked at
        // runtime behind the object-safe `Projection` trait.
        let projection: Box<dyn Projection> = match cfg.projection {
            ProjectionBackend::Geometric => Box::new(FeasibilityProjection {
                shred_macros: cfg.shred_macros,
                cells_per_bin: cfg.cells_per_bin,
                cancel: self.cancel.clone(),
                ..FeasibilityProjection::default()
            }),
            ProjectionBackend::Electro => Box::new(ElectroProjection {
                cells_per_bin: cfg.cells_per_bin,
                cancel: self.cancel.clone(),
                ..ElectroProjection::default()
            }),
        };
        let adaptive = projection.adaptive_bins(design);

        // Periodic crash-safe checkpointing. Disabled for
        // criticality-weighted runs: the checkpoint does not capture the
        // criticality factors, so a resume could not reproduce them.
        let mut ckpt_writer = match (&cfg.checkpoint, criticality) {
            (Some(c), None) => Some(CheckpointWriter::new(
                c,
                resume.as_ref().map_or(0, |s| s.generation),
            )),
            _ => None,
        };
        let hashes = ckpt_writer
            .as_ref()
            .map(|_| (ckpt::design_hash(design), ckpt::config_hash(cfg)));

        // Per-macro λ scale factors (Section 5).
        let macro_scale: Vec<f64> = {
            let mean_std = design.mean_std_cell_area().max(f64::MIN_POSITIVE);
            design
                .cell_ids()
                .map(|id| {
                    let cell = design.cell(id);
                    if cfg.per_macro_lambda && cell.kind() == CellKind::MovableMacro {
                        (cell.area() / mean_std).max(1.0)
                    } else {
                        1.0
                    }
                })
                .collect()
        };
        let crit = |i: usize| criticality.map_or(1.0, |c| c[i]);

        // Mutable loop state — born in the bootstrap for a fresh run,
        // restored verbatim from the checkpoint for a resumed one.
        let mut solves: Vec<SolveRecord>;
        let mut trace: Trace;
        let mut lower: Placement;
        let mut upper: Placement;
        let mut best_upper: Placement;
        let mut best_phi_upper: f64;
        let mut pi_prev: f64;
        let mut converged: bool;
        let mut iterations: usize;
        let mut final_lambda: f64;
        let mut recoveries: usize;
        let mut stale: usize;
        let mut stop_reason: StopReason;
        let schedule_init: Option<LambdaSchedule>;
        let start_k: usize;

        if let Some(st) = resume {
            // Faults scheduled inside the killed run's lifetime already
            // fired (or died with it) — only future ones stay armed.
            armed.discard_through(st.iteration);
            cg_tol = st.cg_tol;
            model = make_model(cg_tol);
            solves = st.solves;
            trace = st.trace;
            lower = st.lower;
            upper = st.upper;
            best_upper = st.best_upper;
            best_phi_upper = st.best_phi_upper;
            pi_prev = st.pi_prev;
            converged = false;
            iterations = st.iteration;
            final_lambda = st.final_lambda;
            recoveries = st.recoveries;
            stale = st.stale;
            stop_reason = StopReason::IterationCap;
            schedule_init = Some(
                LambdaSchedule::restore(cfg.lambda_mode, st.lambda, st.lambda_1, st.h)
                    .with_inverse_ratio(cfg.lambda_inverse_ratio),
            );
            start_k = st.iteration + 1;
            obs::add("ckpt.resumes", 1);
            if obs::enabled() {
                obs::event(
                    "resume",
                    obs::JsonValue::object(vec![
                        ("iteration", (st.iteration as i64).into()),
                        ("generation", (st.generation as i64).into()),
                    ]),
                );
            }
        } else {
            // Bootstrap: unconstrained quadratic placement (λ = 0). A few
            // passes let the B2B linearization settle. A breakdown here is
            // fatal — no feasible iterate exists yet to degrade to.
            solves = Vec::new();
            let bootstrap_span = obs::span("bootstrap");
            lower = design.initial_placement();
            for _ in 0..3 {
                let stats =
                    model.minimize_with_cancel(design, &mut lower, None, budget.cancel_token());
                solves.push(SolveRecord::from_stats(0, &stats));
                if stats.breakdown {
                    return Err(PlaceError::SolverBreakdown {
                        iteration: 0,
                        detail: "CG breakdown in the λ = 0 bootstrap solve".into(),
                    });
                }
                if !placement_is_finite(design, &lower) {
                    return Err(PlaceError::SolverBreakdown {
                        iteration: 0,
                        detail: "non-finite iterate out of the λ = 0 bootstrap solve".into(),
                    });
                }
                if let Some(reason) = budget.stop() {
                    // No projection has run yet, so there is no feasible
                    // placement to exit gracefully with.
                    return Err(match reason {
                        StopReason::Cancelled => PlaceError::Cancelled,
                        _ => PlaceError::TimedOut {
                            budget_seconds: cfg.time_budget.unwrap_or(0.0),
                        },
                    });
                }
            }

            trace = Trace::new();
            let boot = projection.project_with_bins(design, &lower, cfg.grid.bins_at(0, adaptive));
            drop(bootstrap_span);
            upper = boot.placement.clone();
            let phi0 = hpwl::weighted_hpwl(design, &lower);
            pi_prev = boot.distance_l1;

            trace.push(IterationRecord {
                iteration: 0,
                lambda: 0.0,
                phi_lower: phi0,
                phi_upper: hpwl::weighted_hpwl(design, &upper),
                pi: pi_prev,
                lagrangian: phi0,
                overflow: boot.overflow_before,
                bins: boot.bins_used,
            });

            converged = boot.overflow_before < cfg.overflow_tolerance;
            iterations = 0;
            final_lambda = 0.0;
            recoveries = 0;
            // A run that never enters the λ loop — already feasible, or the
            // bootstrap projection left nothing to optimize — is converged.
            // Entering the loop flips this to IterationCap, which then
            // stands only if no break fires before `max_iterations`.
            stop_reason = StopReason::Converged;
            // Best feasible iterate seen so far (SimPL's "upper-bound
            // placement"; Section 4 reads the result off a feasible
            // iterate, so keeping the best one means extra iterations never
            // hurt).
            best_upper = upper.clone();
            best_phi_upper = hpwl::weighted_hpwl(design, &upper);
            stale = 0;
            schedule_init = if !converged && pi_prev > 0.0 && phi0 > 0.0 {
                Some(
                    LambdaSchedule::new(cfg.lambda_mode, cfg.lambda_init_divisor, phi0, pi_prev)
                        .with_inverse_ratio(cfg.lambda_inverse_ratio),
                )
            } else {
                None
            };
            start_k = 1;
        }

        if let Some(mut schedule) = schedule_init {
            stop_reason = StopReason::IterationCap;
            for k in start_k..=cfg.max_iterations {
                if let Some(reason) = budget.stop() {
                    stop_reason = reason;
                    break;
                }
                if armed.take(k, FaultKind::Kill) {
                    // Simulated crash: surface exactly what an external
                    // SIGKILL would leave behind — committed checkpoints on
                    // disk, nothing else.
                    return Err(PlaceError::Killed { iteration: k });
                }
                let _iter_span = obs::span("iteration");
                obs::add("place.iterations", 1);
                iterations = k;
                let lambda = schedule.lambda();
                final_lambda = lambda;

                // Snapshot for rollback: if this iteration faults, the
                // recovery policy restores the last good iterates.
                let lower_prev = lower.clone();

                // Primal step: minimize Φ + λ‖·−(x°,y°)‖₁ (linearized).
                let lambdas: Vec<f64> = (0..design.num_cells())
                    .map(|i| {
                        if design
                            .cell(complx_netlist::CellId::from_index(i))
                            .is_movable()
                        {
                            lambda * macro_scale[i] * crit(i)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let anchors =
                    Anchors::per_cell(design, upper.clone(), lambdas, 1.5 * design.row_height());
                let mstats = model.minimize_with_cancel(
                    design,
                    &mut lower,
                    Some(&anchors),
                    budget.cancel_token(),
                );
                solves.push(SolveRecord::from_stats(k, &mstats));

                // A cancel (or deadline) that tripped inside the solve left
                // a half-converged iterate; discard it and exit with the
                // snapshot so the reported lower bound stays meaningful.
                if let Some(reason) = budget.stop() {
                    lower = lower_prev;
                    stop_reason = reason;
                    break;
                }

                // Fault detection (injected faults flow through the same
                // checks as real numerical failures).
                if armed.take(k, FaultKind::NanGradient) {
                    poison(&mut lower, design);
                }
                let cg_stall = armed.take(k, FaultKind::CgStall);
                let mut fault: Option<String> = if mstats.breakdown || cg_stall {
                    Some(if cg_stall {
                        FaultKind::CgStall.describe().into()
                    } else {
                        "CG breakdown in primal solve".into()
                    })
                } else if !placement_is_finite(design, &lower) {
                    Some("non-finite lower-bound iterate after primal step".into())
                } else {
                    None
                };

                // Dual step: project — with routability-driven inflation
                // when configured (SimPLR-lite) — and optionally refine with
                // the detailed placer (the "P_C += FastPlace-DP"
                // configuration). Skipped when the primal step already
                // faulted: projecting a poisoned iterate is meaningless.
                let bins = cfg.grid.bins_at(k, adaptive);
                let mut proj_result: Option<ProjectionResult> = None;
                if fault.is_none() {
                    let proj = match &cfg.routability {
                        Some(r) => {
                            let cbins = if r.grid_bins == 0 { bins } else { r.grid_bins };
                            let map = CongestionMap::build(design, &lower, cbins, cbins, r.supply);
                            let factors =
                                map.inflation_factors(design, &lower, r.alpha, r.max_inflation);
                            projection.project_with_bins_inflated(
                                design,
                                &lower,
                                bins,
                                Some(&factors),
                            )
                        }
                        None => projection.project_with_bins(design, &lower, bins),
                    };
                    upper = proj.placement.clone();
                    if armed.take(k, FaultKind::ProjectionStall) {
                        poison(&mut upper, design);
                    }
                    if !placement_is_finite(design, &upper) {
                        fault = Some("non-finite feasible iterate after projection".into());
                    } else {
                        if cfg.detail_each_iteration {
                            let legalized = Legalizer::default().legalize(design, &upper);
                            let refined = DetailedPlacer {
                                max_passes: 1,
                                ..DetailedPlacer::default()
                            }
                            .improve(design, legalized.placement);
                            upper = refined.placement;
                        }
                        proj_result = Some(proj);
                    }
                }

                if let Some(detail) = fault {
                    recoveries += 1;
                    obs::add("place.recoveries", 1);
                    if obs::enabled() {
                        obs::event(
                            "recovery",
                            obs::JsonValue::object(vec![
                                ("iteration", (k as i64).into()),
                                ("recoveries", (recoveries as i64).into()),
                                ("detail", detail.as_str().into()),
                            ]),
                        );
                    }
                    if recoveries > cfg.max_recoveries {
                        return Err(PlaceError::Diverged {
                            iteration: k,
                            recoveries: recoveries - 1,
                            best: Some(Box::new(best_upper)),
                            detail,
                        });
                    }
                    // Recovery policy: restore the last good iterates, back
                    // λ off (an overgrown penalty is the usual culprit),
                    // tighten the CG tolerance, and retry the iteration.
                    lower = lower_prev;
                    upper = best_upper.clone();
                    schedule.scale(0.5);
                    cg_tol = (cg_tol * 0.1).max(1e-12);
                    model = make_model(cg_tol);
                    continue;
                }
                let Some(proj) = proj_result else {
                    // Unreachable: a missing projection always set `fault`,
                    // which the block above consumed with `continue`.
                    continue;
                };

                let phi_lower = hpwl::weighted_hpwl(design, &lower);
                let phi_upper = hpwl::weighted_hpwl(design, &upper);
                let pi = lower.l1_distance(&upper);
                if phi_upper < best_phi_upper && proj.overflow_after < 0.25 {
                    best_phi_upper = phi_upper;
                    best_upper = upper.clone();
                    stale = 0;
                } else {
                    stale += 1;
                }

                trace.push(IterationRecord {
                    iteration: k,
                    lambda,
                    phi_lower,
                    phi_upper,
                    pi,
                    lagrangian: phi_lower + lambda * pi,
                    overflow: proj.overflow_before,
                    // The grid the projection actually used (the electro
                    // backend rounds the request to a power of two).
                    bins: proj.bins_used,
                });
                if obs::enabled() {
                    obs::event(
                        "iteration",
                        obs::JsonValue::object(vec![
                            ("iteration", (k as i64).into()),
                            ("lambda", lambda.into()),
                            ("phi_lower", phi_lower.into()),
                            ("phi_upper", phi_upper.into()),
                            ("pi", pi.into()),
                            ("overflow", proj.overflow_before.into()),
                            ("bins", (bins as i64).into()),
                            ("cg_iterations_x", (mstats.iterations_x as i64).into()),
                            ("cg_iterations_y", (mstats.iterations_y as i64).into()),
                            ("relative_residual", mstats.relative_residual.into()),
                        ]),
                    );
                }

                // Convergence (Section 4): relative duality gap or the
                // overflow of the analytic iterate.
                let rel_gap = if phi_upper > 0.0 {
                    (phi_upper - phi_lower) / phi_upper
                } else {
                    0.0
                };
                // Refined convergence (Section 4): the duality gap or the
                // overflow of the analytic iterate; additionally stop when
                // the best feasible iterate has stagnated — more iterations
                // cannot improve the result that detailed placement uses.
                if proj.overflow_before < cfg.overflow_tolerance
                    || (k >= 3 && rel_gap < cfg.gap_tolerance)
                {
                    converged = true;
                    stop_reason = StopReason::Converged;
                    break;
                }
                if k >= 10 && stale >= cfg.stagnation_window {
                    converged = true;
                    stop_reason = StopReason::Stagnated;
                    break;
                }

                schedule.advance(pi_prev, pi);
                pi_prev = pi;

                // Periodic checkpoint at the loop bottom, where the state
                // is exactly "iteration k done, schedule advanced" — the
                // precondition [`ComplxPlacer::resume`] restores. Best
                // effort: an I/O failure is counted, not fatal.
                if let (Some(w), Some((dh, ch))) = (ckpt_writer.as_mut(), hashes) {
                    if w.due(k) {
                        let _ckpt_span = obs::span("checkpoint");
                        let state = CheckpointState {
                            design_hash: dh,
                            config_hash: ch,
                            generation: w.next_generation(),
                            iteration: k,
                            lambda: schedule.lambda(),
                            lambda_1: schedule.lambda_1(),
                            h: schedule.h(),
                            pi_prev,
                            cg_tol,
                            recoveries,
                            stale,
                            best_phi_upper,
                            final_lambda,
                            lower: lower.clone(),
                            upper: upper.clone(),
                            best_upper: best_upper.clone(),
                            trace: trace.clone(),
                            solves: solves.clone(),
                        };
                        let io_fault = armed.take_io_fault(k);
                        match w.write(&state, io_fault) {
                            Ok(bytes) => {
                                obs::add("ckpt.writes", 1);
                                obs::add("ckpt.bytes", bytes);
                                if obs::enabled() {
                                    obs::event(
                                        "checkpoint",
                                        obs::JsonValue::object(vec![
                                            ("iteration", (k as i64).into()),
                                            ("bytes", (bytes as i64).into()),
                                            ("generation", (state.generation as i64).into()),
                                        ]),
                                    );
                                }
                            }
                            Err(e) => {
                                obs::add("ckpt.errors", 1);
                                if obs::enabled() {
                                    obs::event(
                                        "checkpoint_error",
                                        obs::JsonValue::object(vec![
                                            ("iteration", (k as i64).into()),
                                            ("error", e.to_string().as_str().into()),
                                        ]),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        let global_seconds = t_global.elapsed().as_secs_f64();
        if recoveries > 0 {
            stop_reason = StopReason::Recovered;
        }
        // The λ loop is over: free the model's assembly buffers before
        // legalization allocates its own.
        drop(model);

        // Final legalization + detailed placement on the best feasible
        // iterate (Section 4). Legalization always runs — the contract is a
        // legal result even on a time-budget exit — but the detailed
        // placement polish is skipped when the budget is already spent.
        let upper = best_upper;
        let t_detail = Instant::now(); // lint:allow(nondet-taint): phase timer; elapsed seconds feed the report only, never a coordinate
        let legal = if cfg.final_detail {
            let legalized = Legalizer::default().legalize(design, &upper);
            if budget.stop().is_some() {
                legalized.placement
            } else {
                DetailedPlacer::default()
                    .improve_with_cancel(design, legalized.placement, budget.cancel_token())
                    .placement
            }
        } else {
            upper.clone()
        };
        let detail_seconds = t_detail.elapsed().as_secs_f64();

        let metrics = PlacementMetrics::measure(design, &legal);
        Ok(PlacementOutcome {
            lower,
            upper,
            hpwl_legal: metrics.hpwl,
            metrics,
            legal,
            trace,
            iterations,
            final_lambda,
            converged,
            stop_reason,
            recoveries,
            global_seconds,
            detail_seconds,
            solves,
        })
    }
}

/// Cheap structural validation: geometry must be finite and the design
/// physically placeable. Runs once per [`ComplxPlacer::place`] call.
fn validate_design(design: &Design) -> Result<(), PlaceError> {
    let fail = |reason: String| Err(PlaceError::InvalidDesign { reason });
    let core = design.core();
    if ![core.lx, core.ly, core.hx, core.hy]
        .iter()
        .all(|v| v.is_finite())
    {
        return fail("core rectangle has non-finite coordinates".into());
    }
    if core.width() <= 0.0 || core.height() <= 0.0 {
        return fail(format!(
            "core rectangle is degenerate ({} × {})",
            core.width(),
            core.height()
        ));
    }
    if !design.row_height().is_finite() || design.row_height() <= 0.0 {
        return fail(format!(
            "row height {} is not positive and finite",
            design.row_height()
        ));
    }
    let mut movable_area = 0.0;
    for id in design.cell_ids() {
        let c = design.cell(id);
        if ![c.width(), c.height()].iter().all(|v| v.is_finite())
            || c.width() < 0.0
            || c.height() < 0.0
        {
            return fail(format!(
                "cell `{}` has invalid dimensions {} × {}",
                c.name(),
                c.width(),
                c.height()
            ));
        }
        if c.is_movable() {
            movable_area += c.area();
        } else {
            let p = design.fixed_positions().position(id);
            if !p.x.is_finite() || !p.y.is_finite() {
                return fail(format!(
                    "fixed cell `{}` has a non-finite position",
                    c.name()
                ));
            }
        }
    }
    let capacity = core.width() * core.height();
    if movable_area > capacity {
        return fail(format!(
            "movable area {movable_area:.1} exceeds core capacity {capacity:.1}"
        ));
    }
    Ok(())
}

/// Whether every movable cell sits at finite coordinates.
fn placement_is_finite(design: &Design, p: &Placement) -> bool {
    design.movable_cells().iter().all(|&id| {
        let pt = p.position(id);
        pt.x.is_finite() && pt.y.is_finite()
    })
}

/// Poisons one movable coordinate with NaN (fault injection only).
fn poison(placement: &mut Placement, design: &Design) {
    if let Some(&id) = design.movable_cells().first() {
        placement.set_position(id, Point::new(f64::NAN, f64::NAN));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GridSchedule, LambdaMode};
    use complx_legalize::is_legal;
    use complx_netlist::generator::GeneratorConfig;

    fn small(seed: u64) -> Design {
        GeneratorConfig::small("pl", seed).generate()
    }

    #[test]
    fn placement_converges_and_is_legal() {
        let d = small(1);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.converged,
            "did not converge in {} iters",
            out.iterations
        );
        assert!(is_legal(&d, &out.legal, 1e-6));
        assert!(out.hpwl_legal > 0.0);
    }

    #[test]
    fn trace_shows_paper_trends() {
        // Figure 1: Π decreases, Φ (lower) increases, bounds stay ordered.
        let d = small(2);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let recs = out.trace.records();
        assert!(recs.len() >= 3);
        let first = recs[1]; // skip the λ=0 bootstrap record
        let last = *recs.last().unwrap();
        assert!(
            last.pi < first.pi,
            "Π must decrease: {} -> {}",
            first.pi,
            last.pi
        );
        assert!(
            last.phi_lower > first.phi_lower * 0.95,
            "Φ should (weakly) increase: {} -> {}",
            first.phi_lower,
            last.phi_lower
        );
        for r in &recs[1..] {
            assert!(
                r.phi_lower <= r.phi_upper * 1.02,
                "weak duality violated at iter {}: {} vs {}",
                r.iteration,
                r.phi_lower,
                r.phi_upper
            );
        }
    }

    #[test]
    fn lambda_increases_monotonically() {
        let d = small(3);
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let recs = out.trace.records();
        for w in recs.windows(2) {
            assert!(w[1].lambda >= w[0].lambda);
        }
        assert!(out.final_lambda > 0.0);
        // Section S3: the final λ is bounded (its absolute magnitude is
        // design- and unit-dependent; the scale-independence claim is
        // checked across the whole suite by the fig3 harness).
        assert!(out.final_lambda.is_finite() && out.final_lambda < 1e3);
    }

    #[test]
    fn placer_is_deterministic() {
        let d = small(4);
        let a = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let b = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert_eq!(a.legal, b.legal);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn placement_beats_projection_of_center_start() {
        // The full loop must clearly beat "project once and legalize".
        let d = small(5);
        let naive = {
            let p = d.initial_placement();
            let proj = complx_spread::FeasibilityProjection::default().project(&d, &p);
            let legal = complx_legalize::Legalizer::default()
                .legalize(&d, &proj.placement)
                .placement;
            complx_netlist::hpwl::hpwl(&d, &legal)
        };
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.hpwl_legal < naive,
            "placer {} vs naive {naive}",
            out.hpwl_legal
        );
    }

    #[test]
    fn mixed_size_designs_place_and_legalize() {
        let d = GeneratorConfig::ispd2006_like("pm", 6, 600, 0.7).generate();
        let out = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(is_legal(&d, &out.legal, 1e-6));
        // Movable macros actually moved away from the center pile.
        let c = d.core().center();
        let spread_out = d
            .movable_cells()
            .iter()
            .filter(|&&id| d.cell(id).kind() == CellKind::MovableMacro)
            .filter(|&&id| out.legal.position(id).l1_distance(c) > d.row_height())
            .count();
        assert!(spread_out > 0);
    }

    #[test]
    fn region_constraints_satisfied_after_placement() {
        use complx_netlist::{Rect, RegionConstraint};
        let mut cfg = GeneratorConfig::small("rg", 7);
        cfg.num_std_cells = 300;
        // Build design, then rebuild with a region over the first 20 cells.
        let d0 = cfg.generate();
        let core = d0.core();
        let region_rect = Rect::new(
            core.lx,
            core.ly,
            core.lx + 0.4 * core.width(),
            core.ly + 0.4 * core.height(),
        );
        let cells: Vec<_> = d0.movable_cells().iter().copied().take(20).collect();
        let d = {
            // Reuse the timing crate trick: rebuild with a region.
            use complx_netlist::DesignBuilder;
            let mut b = DesignBuilder::new(d0.name(), d0.core(), d0.row_height());
            b.set_target_density(d0.target_density()).unwrap();
            for id in d0.cell_ids() {
                let c = d0.cell(id);
                if c.is_movable() {
                    b.add_cell(c.name(), c.width(), c.height(), c.kind())
                        .unwrap();
                } else {
                    b.add_fixed_cell(
                        c.name(),
                        c.width(),
                        c.height(),
                        c.kind(),
                        d0.fixed_positions().position(id),
                    )
                    .unwrap();
                }
            }
            for nid in d0.net_ids() {
                let n = d0.net(nid);
                b.add_net(
                    n.name(),
                    n.weight(),
                    d0.net_pins(nid)
                        .iter()
                        .map(|p| (p.cell, p.dx, p.dy))
                        .collect(),
                )
                .unwrap();
            }
            b.add_region(RegionConstraint::new("r0", region_rect, cells.clone()));
            b.build().unwrap()
        };
        let mut fast = PlacerConfig::fast();
        fast.final_detail = false; // detail moves are not region-aware yet
        let out = ComplxPlacer::new(fast).place(&d).unwrap();
        assert!(complx_spread::regions::regions_satisfied(&d, &out.upper));
    }

    #[test]
    fn log_sum_exp_interconnect_places_legally() {
        // §S1: any smoothing of HPWL can drive the primal step.
        let d = small(9);
        let cfg = PlacerConfig {
            interconnect: crate::config::Interconnect::LogSumExp { gamma_rows: 4.0 },
            max_iterations: 15,
            ..PlacerConfig::fast()
        };
        let out = ComplxPlacer::new(cfg).place(&d).unwrap();
        assert!(is_legal(&d, &out.legal, 1e-6));
        // Must be in the same ballpark as the quadratic default (LSE with
        // few NLCG iterations is weaker; allow 2x).
        let quad = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        assert!(
            out.hpwl_legal < 2.0 * quad.hpwl_legal,
            "lse {} vs quadratic {}",
            out.hpwl_legal,
            quad.hpwl_legal
        );
    }

    #[test]
    fn grid_and_lambda_ablation_configs_run() {
        let d = small(8);
        for cfg in [
            PlacerConfig {
                grid: GridSchedule::Fixed { fraction: 1.0 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
            PlacerConfig {
                lambda_mode: LambdaMode::Geometric { ratio: 1.3 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
            PlacerConfig {
                lambda_mode: LambdaMode::Arithmetic { step: 1.0 },
                max_iterations: 12,
                ..PlacerConfig::fast()
            },
        ] {
            let out = ComplxPlacer::new(cfg).place(&d).unwrap();
            assert!(out.hpwl_legal > 0.0);
        }
    }

    #[test]
    fn pre_tripped_cancel_errors_before_feasible_iterate() {
        let d = small(1);
        let token = CancelToken::new();
        token.cancel();
        let err = ComplxPlacer::new(PlacerConfig::fast())
            .with_cancel(token)
            .place(&d)
            .unwrap_err();
        assert!(matches!(err, PlaceError::Cancelled), "got {err}");
        assert_eq!(err.exit_code(), 8);
    }

    #[test]
    fn untripped_token_is_bit_identical_to_no_token() {
        let d = small(4);
        let plain = ComplxPlacer::new(PlacerConfig::fast()).place(&d).unwrap();
        let tokened = ComplxPlacer::new(PlacerConfig::fast())
            .with_cancel(CancelToken::new())
            .place(&d)
            .unwrap();
        assert_eq!(plain.legal, tokened.legal);
        assert_eq!(plain.trace, tokened.trace);
        assert_eq!(plain.iterations, tokened.iterations);
    }

    #[test]
    fn kill_then_resume_reproduces_uninterrupted_run() {
        use crate::config::CheckpointConfig;
        use crate::faults::FaultPlan;

        let d = small(6);
        let dir = std::env::temp_dir().join(format!("complx-placer-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_a = dir.join("a.ckpt");
        let ckpt_b = dir.join("b.ckpt");

        let base = PlacerConfig {
            max_iterations: 20,
            ..PlacerConfig::fast()
        };

        // Reference: uninterrupted checkpointed run.
        let cfg_a = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_a, 2)),
            ..base.clone()
        };
        let reference = ComplxPlacer::new(cfg_a).place(&d).unwrap();
        assert!(
            reference.iterations >= 5,
            "design converged too fast to test resume"
        );

        // Crash: kill at iteration 5 (checkpoints at 2 and 4 committed).
        let cfg_b = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_b, 2)),
            faults: Some(FaultPlan::new().inject(5, FaultKind::Kill)),
            ..base.clone()
        };
        let err = ComplxPlacer::new(cfg_b).place(&d).unwrap_err();
        assert!(
            matches!(err, PlaceError::Killed { iteration: 5 }),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 10);

        // Resume from the killed run's checkpoint; the fault plan is gone
        // (a real restart would not re-specify it).
        let cfg_r = PlacerConfig {
            checkpoint: Some(CheckpointConfig::new(&ckpt_b, 2)),
            ..base.clone()
        };
        let (state, used_prev) = ckpt::load_checkpoint(&ckpt_b).unwrap();
        assert!(!used_prev);
        assert_eq!(state.iteration, 4);
        let resumed = ComplxPlacer::new(cfg_r).resume(&d, state).unwrap();

        assert_eq!(
            reference.legal, resumed.legal,
            "resume must be byte-identical"
        );
        assert_eq!(reference.upper, resumed.upper);
        assert_eq!(reference.lower, resumed.lower);
        assert_eq!(reference.trace, resumed.trace);
        assert_eq!(reference.iterations, resumed.iterations);
        assert_eq!(
            reference.final_lambda.to_bits(),
            resumed.final_lambda.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_design_and_config() {
        use crate::config::CheckpointConfig;

        let d = small(6);
        let other = small(7);
        let dir = std::env::temp_dir().join(format!("complx-placer-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        let cfg = PlacerConfig {
            max_iterations: 20,
            checkpoint: Some(CheckpointConfig::new(&path, 2)),
            ..PlacerConfig::fast()
        };
        ComplxPlacer::new(cfg.clone()).place(&d).unwrap();
        let (state, _) = ckpt::load_checkpoint(&path).unwrap();

        let err = ComplxPlacer::new(cfg.clone())
            .resume(&other, state.clone())
            .unwrap_err();
        assert!(
            matches!(err, PlaceError::CheckpointMismatch { .. }),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 9);

        let other_cfg = PlacerConfig {
            max_iterations: 25,
            ..cfg
        };
        let err = ComplxPlacer::new(other_cfg).resume(&d, state).unwrap_err();
        assert!(
            matches!(err, PlaceError::CheckpointMismatch { .. }),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
