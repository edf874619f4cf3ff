//! Assembly and solution of the quadratic placement systems
//! `Φ_Q(x) = xᵀQ_x x + 2 f_xᵀ x + const` (paper Formula 2), one per axis.

use std::sync::{Mutex, MutexGuard, PoisonError};

use complx_netlist::{CellId, Design, NetId, Placement, Point};
use complx_sparse::{CgSolver, CsrAssembler, CsrMatrix, TripletMatrix};

/// Designs with fewer nets than this assemble in a single chunk (no pool
/// dispatch). The per-net stamping order is preserved by scattering the
/// per-chunk buffers into rows in chunk order, so the assembled system is
/// bit-identical for any chunking — this gate is purely a
/// dispatch-overhead cutoff.
const PAR_MIN_NETS: usize = 512;

/// Diagonal weight that keeps a variable with no connection of its own
/// (a cell on no net, say) from making the system singular.
const REG: f64 = 1e-8;

use crate::anchors::Anchors;
use crate::b2b::{decompose, Edge, NetModel};
use crate::model::{InterconnectModel, MinimizeStats};

/// Maps movable cells to solver-variable indices (and back).
///
/// Fixed cells and terminals have no variable; star variables (if the net
/// model uses them) are appended after the cell variables per solve.
#[derive(Debug, Clone)]
pub struct VarIndex {
    var_of_cell: Vec<Option<u32>>,
    cell_of_var: Vec<CellId>,
}

impl VarIndex {
    /// Builds the index for a design's movable cells.
    pub fn new(design: &Design) -> Self {
        let mut var_of_cell = vec![None; design.num_cells()];
        let mut cell_of_var = Vec::with_capacity(design.movable_cells().len());
        for &id in design.movable_cells() {
            var_of_cell[id.index()] = Some(cell_of_var.len() as u32);
            cell_of_var.push(id);
        }
        Self {
            var_of_cell,
            cell_of_var,
        }
    }

    /// Number of movable-cell variables.
    pub fn num_vars(&self) -> usize {
        self.cell_of_var.len()
    }

    /// The variable for a cell, or `None` if the cell is fixed.
    pub fn var(&self, cell: CellId) -> Option<usize> {
        self.var_of_cell[cell.index()].map(|v| v as usize)
    }

    /// The cell owning variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a star variable or out of range.
    pub fn cell(&self, v: usize) -> CellId {
        self.cell_of_var[v]
    }
}

/// Which axis a system describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

/// The linearized-quadratic interconnect model used by SimPL and ComPLx.
///
/// Each [`InterconnectModel::minimize`] call:
///
/// 1. decomposes every net with the configured [`NetModel`], linearizing
///    Bound2Bound weights against the incoming placement,
/// 2. stamps anchor pseudonets with weight `λ_i/(|x_i − x_i°| + ε)`,
/// 3. solves the two independent SPD systems with Jacobi-PCG (warm-started
///    from the incoming placement), and
/// 4. clamps results into the core region.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticModel {
    net_model: NetModel,
    /// Lower bound for linearization denominators (distance units).
    dist_eps: f64,
    solver: CgSolver,
    /// Assembly buffers reused from one `minimize` call to the next.
    workspace: WorkspaceCell,
}

/// The buffers one axis assembly needs. Every call rebuilds their contents
/// from the design and placement it is given; only the allocations carry
/// over, so one model may serve any sequence of designs.
#[derive(Debug, Default)]
struct Workspace {
    /// Star variable of each net, if the net model gives it one.
    star_of_net: Vec<Option<u32>>,
    /// Running pin count before each net (`num_nets + 1` entries).
    pin_prefix: Vec<usize>,
    /// Net range boundaries of the stamping chunks.
    bounds: Vec<usize>,
    /// One stamp buffer per chunk.
    chunks: Vec<ChunkStamps>,
    /// Anchor pseudonets, stamped after every net.
    anchor_stamps: TripletMatrix,
    /// Count, scatter, sort and merge buffers plus the assembled matrix.
    assembler: CsrAssembler,
    /// The linear term of `Φ_Q`.
    f: Vec<f64>,
    /// The right-hand side `−f`.
    rhs: Vec<f64>,
}

/// What one chunk of nets stamps.
#[derive(Debug, Default)]
struct ChunkStamps {
    q: TripletMatrix,
    /// Updates to `f`, replayed one at a time in chunk order.
    fu: Vec<(u32, f64)>,
    /// Pin coordinates of the net being decomposed.
    coords: Vec<f64>,
    /// Edges of the net being decomposed.
    edges: Vec<Edge>,
}

/// The model's [`Workspace`] behind a lock. It is no part of the model's
/// value: a clone starts with empty buffers and any two compare equal.
#[derive(Default)]
struct WorkspaceCell(Mutex<Workspace>);

impl WorkspaceCell {
    fn lock(&self) -> MutexGuard<'_, Workspace> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for WorkspaceCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for WorkspaceCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for WorkspaceCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Workspace { .. }")
    }
}

impl Default for QuadraticModel {
    fn default() -> Self {
        Self::new(NetModel::Bound2Bound)
    }
}

impl QuadraticModel {
    /// Creates the model with a given net decomposition; the CG tolerance
    /// defaults to `1e-6`.
    pub fn new(net_model: NetModel) -> Self {
        Self {
            net_model,
            dist_eps: 1.0,
            solver: CgSolver::new(),
            workspace: WorkspaceCell::default(),
        }
    }

    /// Overrides the CG solver configuration.
    #[must_use]
    pub fn with_solver(mut self, solver: CgSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the linearization distance floor.
    #[must_use]
    pub fn with_distance_epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0);
        self.dist_eps = eps;
        self
    }

    /// The configured net model.
    pub fn net_model(&self) -> NetModel {
        self.net_model
    }

    /// Builds one axis' system `Q x = −f` in the workspace. Returns the
    /// matrix, the right-hand side and the warm start (the current
    /// coordinates; star variables at their net's centroid).
    fn assemble_axis<'w>(
        &self,
        ws: &'w mut Workspace,
        design: &Design,
        index: &VarIndex,
        placement: &Placement,
        anchors: Option<&Anchors>,
        axis: Axis,
    ) -> (&'w CsrMatrix, &'w [f64], Vec<f64>) {
        let Workspace {
            star_of_net,
            pin_prefix,
            bounds,
            chunks,
            anchor_stamps,
            assembler,
            f,
            rhs,
        } = ws;
        let n_cells = index.num_vars();

        // Count star variables first so the matrix dimension is known.
        star_of_net.clear();
        star_of_net.resize(design.num_nets(), None);
        let mut n_star = 0usize;
        for nid in design.net_ids() {
            let p = design.net(nid).degree();
            if self.net_model.uses_star_var(p) {
                star_of_net[nid.index()] = Some((n_cells + n_star) as u32);
                n_star += 1;
            }
        }
        let n = n_cells + n_star;

        let coord = |cell: CellId| -> f64 {
            match axis {
                Axis::X => placement.xs()[cell.index()],
                Axis::Y => placement.ys()[cell.index()],
            }
        };
        let offset = |pin: &complx_netlist::Pin| -> f64 {
            match axis {
                Axis::X => pin.dx,
                Axis::Y => pin.dy,
            }
        };

        // Stamps nets `lo..hi` into a chunk's matrix plus a sparse f-update
        // list. The updates are *not* pre-summed: replaying them one at a
        // time, chunk by chunk, performs the exact additions of the plain
        // sequential net loop, so the assembled system is bit-identical no
        // matter how the nets are chunked.
        let num_nets = design.num_nets();
        pin_prefix.clear();
        pin_prefix.push(0usize);
        let mut total_pins = 0usize;
        for nid in design.net_ids() {
            total_pins += design.net_pins(nid).len();
            pin_prefix.push(total_pins);
        }
        let star_of_net = &*star_of_net;
        let stamp_range = |lo: usize, hi: usize, buf: &mut ChunkStamps| {
            let ChunkStamps {
                q,
                fu,
                coords,
                edges,
            } = buf;
            q.reset(n);
            fu.clear();
            for net_idx in lo..hi {
                let nid = NetId::from_index(net_idx);
                let pins = design.net_pins(nid);
                let w = design.net(nid).weight();
                coords.clear();
                coords.extend(pins.iter().map(|p| coord(p.cell) + offset(p)));
                decompose(self.net_model, w, coords, self.dist_eps, edges);
                let star = star_of_net[nid.index()].map(|v| v as usize);
                for e in edges.iter() {
                    // Resolve endpoints: (variable index or fixed coordinate, offset).
                    let resolve = |end: usize| -> (Option<usize>, f64) {
                        if end == Edge::STAR {
                            (star, 0.0)
                        } else {
                            let pin = &pins[end];
                            match index.var(pin.cell) {
                                Some(v) => (Some(v), offset(pin)),
                                None => (None, coord(pin.cell) + offset(pin)),
                            }
                        }
                    };
                    let (va, ca) = resolve(e.a);
                    let (vb, cb) = resolve(e.b);
                    match (va, vb) {
                        (Some(i), Some(j)) => {
                            if i == j {
                                continue; // both pins on one cell: constant term
                            }
                            q.add_connection(i, j, e.weight);
                            // (x_i + ca − x_j − cb)² cross terms go to f.
                            fu.push((i as u32, e.weight * (ca - cb)));
                            fu.push((j as u32, e.weight * (cb - ca)));
                        }
                        (Some(i), None) => {
                            q.add_diagonal(i, e.weight);
                            fu.push((i as u32, e.weight * (ca - cb)));
                        }
                        (None, Some(j)) => {
                            q.add_diagonal(j, e.weight);
                            fu.push((j as u32, e.weight * (cb - ca)));
                        }
                        (None, None) => {}
                    }
                }
            }
        };

        // Pin-count-balanced net ranges, one per runner.
        let nparts = if num_nets < PAR_MIN_NETS {
            1
        } else {
            complx_par::threads().min(num_nets)
        };
        bounds.clear();
        bounds.push(0usize);
        let mut prev_bound = 0usize;
        for k in 1..nparts {
            let target = k * total_pins / nparts;
            let i = pin_prefix.partition_point(|&p| p < target).min(num_nets);
            prev_bound = i.max(prev_bound);
            bounds.push(prev_bound);
        }
        bounds.push(num_nets);

        chunks.resize_with(nparts, ChunkStamps::default);
        let bounds = &*bounds;
        let car = complx_obs::carrier();
        let stamp_chunk = |k: usize, buf: &mut ChunkStamps| {
            let _attached = car.attach();
            let _sp = complx_obs::span("chunks");
            stamp_range(bounds[k], bounds[k + 1], buf);
        };
        if nparts == 1 {
            stamp_chunk(0, &mut chunks[0]);
        } else {
            complx_par::scope(|s| {
                for (k, buf) in chunks.iter_mut().enumerate() {
                    let stamp_chunk = &stamp_chunk;
                    s.spawn(move || stamp_chunk(k, buf));
                }
            });
        }

        f.clear();
        f.resize(n, 0.0);
        for c in chunks.iter() {
            for &(i, d) in &c.fu {
                f[i as usize] += d;
            }
        }

        // Anchor pseudonets, stamped after every net.
        anchor_stamps.reset(n);
        if let Some(a) = anchors {
            for v in 0..n_cells {
                let cell = index.cell(v);
                let c = coord(cell);
                let w = match axis {
                    Axis::X => a.weight_x(cell, c),
                    Axis::Y => a.weight_y(cell, c),
                };
                if w > 0.0 {
                    let target = match axis {
                        Axis::X => a.targets().xs()[cell.index()],
                        Axis::Y => a.targets().ys()[cell.index()],
                    };
                    anchor_stamps.add_diagonal(v, w);
                    f[v] -= w * target;
                }
            }
        }

        // Regularize disconnected variables so the system stays SPD: pull
        // them gently toward their current location (star variables, which
        // have none, toward 0).
        let stamps = chunks.iter().map(|c| &c.q).chain([&*anchor_stamps]);
        let a_mat = assembler.assemble_regularized(n, stamps, REG, |v| {
            let cur = if v < n_cells {
                coord(index.cell(v))
            } else {
                0.0
            };
            f[v] -= REG * cur;
        });
        debug_assert!(a_mat.is_symmetric(1e-9));
        rhs.clear();
        rhs.extend(f.iter().map(|v| -v));

        // Warm start from the current coordinates (star vars at net centroid).
        let mut x = vec![0.0; n];
        for (v, xi) in x.iter_mut().enumerate().take(n_cells) {
            *xi = coord(index.cell(v));
        }
        for nid in design.net_ids() {
            if let Some(s) = star_of_net[nid.index()] {
                let pins = design.net_pins(nid);
                let c: f64 =
                    pins.iter().map(|p| coord(p.cell) + offset(p)).sum::<f64>() / pins.len() as f64;
                x[s as usize] = c;
            }
        }
        (a_mat, rhs, x)
    }
}

impl InterconnectModel for QuadraticModel {
    fn name(&self) -> &'static str {
        match self.net_model {
            NetModel::Bound2Bound => "quadratic-b2b",
            NetModel::Clique => "quadratic-clique",
            NetModel::Star => "quadratic-star",
            NetModel::HybridCliqueStar => "quadratic-hybrid",
        }
    }

    fn wirelength(&self, design: &Design, placement: &Placement) -> f64 {
        // At the linearization point B2B equals HPWL, so HPWL is the honest
        // surrogate value for every net model here.
        complx_netlist::hpwl::weighted_hpwl(design, placement)
    }

    fn minimize(
        &self,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
    ) -> MinimizeStats {
        self.minimize_with_cancel(design, placement, anchors, None)
    }

    fn minimize_with_cancel(
        &self,
        design: &Design,
        placement: &mut Placement,
        anchors: Option<&Anchors>,
        cancel: Option<&complx_par::CancelToken>,
    ) -> MinimizeStats {
        // The workspace is taken out for the call, so no lock is held while
        // stamping on the pool or solving. A concurrent call on the same
        // model finds it empty and allocates a fresh one.
        let mut ws = std::mem::take(&mut *self.workspace.lock());
        let index = VarIndex::new(design);
        let mut solve_axis = |axis: Axis| {
            let assembly_span = complx_obs::span("b2b_rebuild");
            let (a, rhs, mut x) =
                self.assemble_axis(&mut ws, design, &index, placement, anchors, axis);
            drop(assembly_span);
            let _solve_span = complx_obs::span(match axis {
                Axis::X => "cg_solve_x",
                Axis::Y => "cg_solve_y",
            });
            let stats = self.solver.solve_with_cancel(a, rhs, &mut x, cancel);
            x.truncate(index.num_vars());
            (x, stats)
        };
        let (xs, sx) = solve_axis(Axis::X);
        let (ys, sy) = solve_axis(Axis::Y);
        *self.workspace.lock() = ws;
        let core = design.core();
        for v in 0..index.num_vars() {
            let cell = index.cell(v);
            let c = design.cell(cell);
            let hw = (0.5 * c.width()).min(0.5 * core.width());
            let hh = (0.5 * c.height()).min(0.5 * core.height());
            let p = Point::new(
                xs[v].clamp(core.lx + hw, core.hx - hw),
                ys[v].clamp(core.ly + hh, core.hy - hh),
            );
            placement.set_position(cell, p);
        }
        MinimizeStats {
            iterations_x: sx.iterations,
            iterations_y: sy.iterations,
            converged: sx.converged && sy.converged,
            breakdown: sx.breakdown.is_some() || sy.breakdown.is_some(),
            relative_residual: sx.relative_residual.max(sy.relative_residual),
            clamped_diagonals: sx.clamped_diagonals + sy.clamped_diagonals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::{generator::GeneratorConfig, hpwl, CellKind, DesignBuilder, Rect};

    #[test]
    fn var_index_skips_fixed() {
        let d = GeneratorConfig::small("v", 1).generate();
        let idx = VarIndex::new(&d);
        assert_eq!(idx.num_vars(), d.movable_cells().len());
        for &id in d.movable_cells() {
            let v = idx.var(id).unwrap();
            assert_eq!(idx.cell(v), id);
        }
        for id in d.cell_ids() {
            if !d.cell(id).is_movable() {
                assert!(idx.var(id).is_none());
            }
        }
    }

    #[test]
    fn two_cells_between_fixed_pads_land_at_thirds() {
        // pad(0) -- a -- b -- pad(30): quadratic optimum is equidistant.
        let mut b = DesignBuilder::new("line", Rect::new(0.0, 0.0, 30.0, 30.0), 1.0);
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable).unwrap();
        let c = b.add_cell("b", 1.0, 1.0, CellKind::Movable).unwrap();
        let p0 = b
            .add_fixed_cell("p0", 1.0, 1.0, CellKind::Terminal, Point::new(0.0, 15.0))
            .unwrap();
        let p1 = b
            .add_fixed_cell("p1", 1.0, 1.0, CellKind::Terminal, Point::new(30.0, 15.0))
            .unwrap();
        b.add_net("n0", 1.0, vec![(p0, 0.0, 0.0), (a, 0.0, 0.0)])
            .unwrap();
        b.add_net("n1", 1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .unwrap();
        b.add_net("n2", 1.0, vec![(c, 0.0, 0.0), (p1, 0.0, 0.0)])
            .unwrap();
        let d = b.build().unwrap();
        let mut pl = d.initial_placement();
        let model = QuadraticModel::new(NetModel::Clique); // no linearization
        let stats = model.minimize(&d, &mut pl, None);
        assert!(stats.converged);
        assert!(
            (pl.position(a).x - 10.0).abs() < 1e-4,
            "{:?}",
            pl.position(a)
        );
        assert!(
            (pl.position(c).x - 20.0).abs() < 1e-4,
            "{:?}",
            pl.position(c)
        );
        assert!((pl.position(a).y - 15.0).abs() < 1e-4);
    }

    #[test]
    fn minimize_reduces_hpwl_from_random() {
        let d = GeneratorConfig::small("m", 2).generate();
        // Start from a spread-out random-ish placement: use fixed positions
        // plus per-cell perturbation.
        let mut pl = d.initial_placement();
        for (i, v) in pl.xs_mut().iter_mut().enumerate() {
            *v += ((i * 37) % 100) as f64 - 50.0;
        }
        for (i, v) in pl.ys_mut().iter_mut().enumerate() {
            *v += ((i * 61) % 100) as f64 - 50.0;
        }
        let before = hpwl::hpwl(&d, &pl);
        let model = QuadraticModel::default();
        model.minimize(&d, &mut pl, None);
        let after = hpwl::hpwl(&d, &pl);
        assert!(after < before, "hpwl {before} -> {after}");
    }

    #[test]
    fn b2b_iterations_converge_toward_lower_hpwl() {
        // Repeated linearized solves should (weakly) improve HPWL.
        let d = GeneratorConfig::small("it", 3).generate();
        let model = QuadraticModel::default();
        let mut pl = d.initial_placement();
        model.minimize(&d, &mut pl, None);
        let first = hpwl::hpwl(&d, &pl);
        for _ in 0..5 {
            model.minimize(&d, &mut pl, None);
        }
        let refined = hpwl::hpwl(&d, &pl);
        assert!(
            refined <= first * 1.05,
            "B2B refinement diverged: {first} -> {refined}"
        );
    }

    #[test]
    fn anchors_pull_cells_toward_targets() {
        let d = GeneratorConfig::small("an", 4).generate();
        let model = QuadraticModel::default();
        let mut free = d.initial_placement();
        model.minimize(&d, &mut free, None);

        // Anchor every cell at the core corner with a large λ.
        let mut targets = free.clone();
        for &id in d.movable_cells() {
            targets.set_position(id, Point::new(d.core().lx + 1.0, d.core().ly + 1.0));
        }
        let anchors = Anchors::uniform(&d, targets.clone(), 1000.0);
        let mut anchored = free.clone();
        model.minimize(&d, &mut anchored, Some(&anchors));
        let before = anchors.penalty(&free);
        let after = anchors.penalty(&anchored);
        assert!(after < before * 0.5, "penalty {before} -> {after}");
    }

    #[test]
    fn fixed_cells_never_move() {
        let d = GeneratorConfig::small("fx", 5).generate();
        let model = QuadraticModel::default();
        let mut pl = d.initial_placement();
        let fixed: Vec<_> = d
            .cell_ids()
            .filter(|&id| !d.cell(id).is_movable())
            .map(|id| (id, pl.position(id)))
            .collect();
        model.minimize(&d, &mut pl, None);
        for (id, p) in fixed {
            assert_eq!(pl.position(id), p);
        }
    }

    #[test]
    fn results_inside_core() {
        let d = GeneratorConfig::small("core", 6).generate();
        for model in [
            QuadraticModel::new(NetModel::Bound2Bound),
            QuadraticModel::new(NetModel::Clique),
            QuadraticModel::new(NetModel::Star),
            QuadraticModel::new(NetModel::HybridCliqueStar),
        ] {
            let mut pl = d.initial_placement();
            model.minimize(&d, &mut pl, None);
            let core = d.core();
            for &id in d.movable_cells() {
                let p = pl.position(id);
                assert!(core.contains(p), "{} at {p:?} via {}", id, model.name());
            }
        }
    }

    #[test]
    fn minimize_bit_identical_across_thread_counts() {
        // `small` generates ~660 nets, clearing PAR_MIN_NETS, so the
        // chunked assembly path actually runs with several chunks.
        let d = GeneratorConfig::small("det", 11).generate();
        assert!(d.num_nets() >= super::PAR_MIN_NETS);
        let model = QuadraticModel::default();
        let run = |t: usize| {
            let _g = complx_par::with_threads(t);
            let mut pl = d.initial_placement();
            for _ in 0..2 {
                model.minimize(&d, &mut pl, None);
            }
            pl
        };
        let reference = run(1);
        for t in [2, 8] {
            let pl = run(t);
            for (a, b) in pl.xs().iter().zip(reference.xs()) {
                assert_eq!(a.to_bits(), b.to_bits(), "x drifted at {t} threads");
            }
            for (a, b) in pl.ys().iter().zip(reference.ys()) {
                assert_eq!(a.to_bits(), b.to_bits(), "y drifted at {t} threads");
            }
        }
    }

    /// Today's assembly, kept as the oracle: one sequential stamping loop
    /// (which chunked stamping reproduces exactly) into a single triplet
    /// matrix, a probe conversion to read the diagonal, regularization,
    /// and a second conversion.
    #[allow(clippy::needless_range_loop)]
    fn reference_system(
        model: &QuadraticModel,
        design: &Design,
        placement: &Placement,
        anchors: Option<&Anchors>,
        axis: Axis,
    ) -> (CsrMatrix, Vec<f64>) {
        let index = VarIndex::new(design);
        let n_cells = index.num_vars();
        let mut star_of_net: Vec<Option<u32>> = vec![None; design.num_nets()];
        let mut n_star = 0usize;
        for nid in design.net_ids() {
            if model.net_model.uses_star_var(design.net(nid).degree()) {
                star_of_net[nid.index()] = Some((n_cells + n_star) as u32);
                n_star += 1;
            }
        }
        let n = n_cells + n_star;
        let coord = |cell: CellId| match axis {
            Axis::X => placement.xs()[cell.index()],
            Axis::Y => placement.ys()[cell.index()],
        };
        let offset = |pin: &complx_netlist::Pin| match axis {
            Axis::X => pin.dx,
            Axis::Y => pin.dy,
        };
        let mut q = TripletMatrix::new(n);
        let mut f = vec![0.0f64; n];
        let mut edges: Vec<Edge> = Vec::new();
        for nid in design.net_ids() {
            let pins = design.net_pins(nid);
            let coords: Vec<f64> = pins.iter().map(|p| coord(p.cell) + offset(p)).collect();
            let w = design.net(nid).weight();
            decompose(model.net_model, w, &coords, model.dist_eps, &mut edges);
            let star = star_of_net[nid.index()].map(|v| v as usize);
            for e in &edges {
                let resolve = |end: usize| -> (Option<usize>, f64) {
                    if end == Edge::STAR {
                        return (star, 0.0);
                    }
                    let pin = &pins[end];
                    match index.var(pin.cell) {
                        Some(v) => (Some(v), offset(pin)),
                        None => (None, coord(pin.cell) + offset(pin)),
                    }
                };
                let (va, ca) = resolve(e.a);
                let (vb, cb) = resolve(e.b);
                match (va, vb) {
                    (Some(i), Some(j)) if i != j => {
                        q.add_connection(i, j, e.weight);
                        f[i] += e.weight * (ca - cb);
                        f[j] += e.weight * (cb - ca);
                    }
                    (Some(i), None) => {
                        q.add_diagonal(i, e.weight);
                        f[i] += e.weight * (ca - cb);
                    }
                    (None, Some(j)) => {
                        q.add_diagonal(j, e.weight);
                        f[j] += e.weight * (cb - ca);
                    }
                    _ => {}
                }
            }
        }
        if let Some(a) = anchors {
            for v in 0..n_cells {
                let cell = index.cell(v);
                let (w, target) = match axis {
                    Axis::X => (
                        a.weight_x(cell, coord(cell)),
                        a.targets().xs()[cell.index()],
                    ),
                    Axis::Y => (
                        a.weight_y(cell, coord(cell)),
                        a.targets().ys()[cell.index()],
                    ),
                };
                if w > 0.0 {
                    q.add_diagonal(v, w);
                    f[v] -= w * target;
                }
            }
        }
        let probe = q.to_csr();
        for (v, &d) in probe.diagonal().iter().enumerate() {
            if d <= 0.0 {
                let cur = if v < n_cells {
                    coord(index.cell(v))
                } else {
                    0.0
                };
                q.add_diagonal(v, REG);
                f[v] -= REG * cur;
            }
        }
        (q.to_csr(), f.iter().map(|v| -v).collect())
    }

    /// Every stored entry of `a` as `(col, value bits)`, row by row: equal
    /// exactly when row pointers, columns and value bits all agree.
    fn csr_bits(a: &CsrMatrix) -> Vec<Vec<(usize, u64)>> {
        (0..a.dim())
            .map(|r| a.row(r).map(|(c, v)| (c, v.to_bits())).collect())
            .collect()
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A placement pushed off the generator's start so that B2B picks
    /// distinct boundary pins and weights.
    fn perturbed(d: &Design) -> Placement {
        let mut pl = d.initial_placement();
        for &id in d.movable_cells() {
            let i = id.index();
            let p = pl.position(id);
            let p = Point::new(
                p.x + ((i * 37) % 101) as f64 * 0.3 - 15.0,
                p.y + ((i * 61) % 89) as f64 * 0.3 - 13.0,
            );
            pl.set_position(id, p);
        }
        pl
    }

    /// A design that needs regularization: an isolated movable cell, plus a
    /// four-pin net whose pins are all fixed (under the star and hybrid
    /// models, a star variable tied to fixed pins only), among enough nets
    /// to be stamped in several chunks.
    fn regularized_design() -> (Design, CellId) {
        let mut b = DesignBuilder::new("reg", Rect::new(0.0, 0.0, 200.0, 200.0), 1.0);
        let cells: Vec<CellId> = (0..300)
            .map(|i| {
                b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::Movable)
                    .unwrap()
            })
            .collect();
        let lonely = b.add_cell("lonely", 1.0, 1.0, CellKind::Movable).unwrap();
        let pads: Vec<CellId> = (0..8)
            .map(|i| {
                let at = Point::new(25.0 * i as f64, if i % 2 == 0 { 0.0 } else { 200.0 });
                b.add_fixed_cell(format!("p{i}"), 1.0, 1.0, CellKind::Terminal, at)
                    .unwrap()
            })
            .collect();
        for k in 0..600 {
            let degree = 2 + k % 5;
            let mut pins: Vec<(CellId, f64, f64)> = (0..degree)
                .map(|j| (cells[(k * 7 + j * 13) % 300], 0.1 * j as f64, -0.2))
                .collect();
            if k % 10 == 0 {
                pins.push((pads[k % 8], 0.0, 0.0));
            }
            pins.dedup_by_key(|p| p.0);
            b.add_net(format!("n{k}"), 1.0 + (k % 3) as f64, pins)
                .unwrap();
        }
        let fixed_star = (0..4).map(|i| (pads[i], 0.0, 0.5)).collect();
        b.add_net("fixed_star", 1.0, fixed_star).unwrap();
        (b.build().unwrap(), lonely)
    }

    #[test]
    fn workspace_assembly_matches_reference_bit_for_bit() {
        let (reg_design, lonely) = regularized_design();
        let generated = GeneratorConfig::small("oracle", 12).generate();
        for d in [&generated, &reg_design] {
            assert!(d.num_nets() >= PAR_MIN_NETS);
            let index = VarIndex::new(d);
            let pl = perturbed(d);
            let mut targets = d.initial_placement();
            for &id in d.movable_cells() {
                let p = targets.position(id);
                targets.set_position(id, Point::new(p.x + 3.0, p.y - 2.0));
            }
            // Some cells unanchored (λ = 0), the isolated one among them.
            let lambda: Vec<f64> = (0..d.num_cells())
                .map(|i| if i % 3 == 0 { 0.0 } else { 0.5 * i as f64 })
                .collect();
            let anchors = Anchors::per_cell(d, targets, lambda, 1.5);
            for net_model in [
                NetModel::Bound2Bound,
                NetModel::Clique,
                NetModel::Star,
                NetModel::HybridCliqueStar,
            ] {
                let model = QuadraticModel::new(net_model);
                // One workspace serves every case, so reuse is covered too.
                let mut ws = Workspace::default();
                for anc in [None, Some(&anchors)] {
                    for axis in [Axis::X, Axis::Y] {
                        let (want, want_rhs) = reference_system(&model, d, &pl, anc, axis);
                        if std::ptr::eq(d, &reg_design) && anc.is_none() {
                            let v = index.var(lonely).unwrap();
                            assert_eq!(want.get(v, v), REG, "isolated cell regularized");
                        }
                        for t in [1, 2, 8] {
                            let _g = complx_par::with_threads(t);
                            let (a, rhs, _) =
                                model.assemble_axis(&mut ws, d, &index, &pl, anc, axis);
                            let case = format!(
                                "{} {net_model:?} anchors={} {axis:?} {t} threads",
                                d.name(),
                                anc.is_some()
                            );
                            assert_eq!(csr_bits(a), csr_bits(&want), "matrix: {case}");
                            assert_eq!(vec_bits(rhs), vec_bits(&want_rhs), "rhs: {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_models() {
        let a = GeneratorConfig::small("reuse", 13).generate();
        let (b, _) = regularized_design();
        assert_ne!(a.num_cells(), b.num_cells());
        let run = |model: &QuadraticModel, d: &Design| {
            let mut pl = perturbed(d);
            let anchors = Anchors::uniform(d, d.initial_placement(), 0.7);
            model.minimize(d, &mut pl, Some(&anchors));
            model.minimize(d, &mut pl, None);
            (vec_bits(pl.xs()), vec_bits(pl.ys()))
        };
        let model = QuadraticModel::default();
        for (step, d) in [&a, &b, &a].into_iter().enumerate() {
            let got = run(&model, d);
            let fresh = run(&QuadraticModel::default(), d);
            assert!(got == fresh, "step {step}: reused workspace drifted");
            let clone = model.clone();
            assert_eq!(clone, model);
            assert!(run(&clone, d) == fresh, "step {step}: clone drifted");
        }
    }

    #[test]
    fn net_models_give_similar_optima() {
        let d = GeneratorConfig::small("cmp", 7).generate();
        let mut results = Vec::new();
        for model in [
            QuadraticModel::new(NetModel::Bound2Bound),
            QuadraticModel::new(NetModel::Clique),
            QuadraticModel::new(NetModel::HybridCliqueStar),
        ] {
            let mut pl = d.initial_placement();
            for _ in 0..3 {
                model.minimize(&d, &mut pl, None);
            }
            results.push(hpwl::hpwl(&d, &pl));
        }
        // All models should land within 2x of each other on an easy design.
        let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = results.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 2.0 * min, "{results:?}");
    }
}
