//! The untraced run: set-up and placement timed through the public entry
//! points only, every result checked by the gate.

use std::path::Path;
use std::time::{Duration, Instant};

use complx_netlist::{bookshelf, validate, Design};
use complx_place::{ComplxPlacer, PlaceError, PlacementOutcome};

use crate::gate::{self, Fingerprint};
use crate::stats::{median, peak_rss_mb, timed};
use crate::workload::{Bundle, Workload};

/// Set-up samples per run, spread over the run's designs: one read of a
/// 20k-cell bundle takes about 0.1 s and varies by tens of percent, so
/// set-up is reported as a median.
pub const SETUP_SAMPLES: usize = 9;

/// One design a run placed.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRecord {
    /// Generator seed.
    pub seed: u64,
    /// Global-placement iterations.
    pub iterations: usize,
    /// Oracle scaled HPWL of the legal placement.
    pub scaled_hpwl: f64,
    /// Wall seconds of each placement of this design.
    pub place_s: Vec<f64>,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Placements attempted.
    pub attempted: u64,
    /// Placements that failed the gate or the determinism probe.
    pub failed: u64,
    /// One line per failure found.
    pub failures: Vec<String>,
    /// Metric name and value, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-design detail (untraced runs).
    pub designs: Vec<DesignRecord>,
}

impl RunResult {
    /// Whether every attempted placement passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }
}

/// Set-up timings of one run.
#[derive(Debug)]
pub struct Setup {
    /// The design as read back from the bundle.
    pub design: Design,
    /// Seconds of each `read_aux` call.
    pub read_s: Vec<f64>,
    /// Seconds of each `validate` call.
    pub validate_s: Vec<f64>,
}

impl Setup {
    /// Reads and validates the bundle `reps` times (at least once).
    ///
    /// # Errors
    ///
    /// Returns a message when the bundle does not parse.
    pub fn run(bundle: &Bundle, reps: usize) -> Result<Self, String> {
        let mut read_s = Vec::with_capacity(reps);
        let mut validate_s = Vec::with_capacity(reps);
        let mut design = None;
        for _ in 0..reps.max(1) {
            let (parsed, r) = timed(|| bookshelf::read_aux(&bundle.aux));
            let parsed = parsed.map_err(|e| format!("{}: {e}", bundle.aux.display()))?;
            let (_issues, v) = timed(|| validate::validate(&parsed.design));
            read_s.push(r);
            validate_s.push(v);
            design = Some(parsed.design);
        }
        let design = design.ok_or("no set-up repetition ran")?;
        Ok(Self {
            design,
            read_s,
            validate_s,
        })
    }

    /// Seconds of each read + validate.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.read_s.iter().zip(&self.validate_s).map(|(r, v)| r + v)
    }
}

/// Places `design` once with `place`, gates the result against `first`
/// (recording the fingerprint when it is the first) and books the attempt
/// in `result`. Returns the outcome and the wall seconds of `place` when it
/// passed.
pub fn place_checked(
    workload: &Workload,
    design: &Design,
    first: &mut Option<Fingerprint>,
    result: &mut RunResult,
    place: impl FnOnce(&Design) -> Result<PlacementOutcome, PlaceError>,
) -> Option<(PlacementOutcome, f64)> {
    let config = workload.config();
    let (placed, secs) = timed(|| place(design));
    result.attempted += 1;
    let mut errors = gate::check(design, &config, &placed);
    if let Ok(o) = &placed {
        let fp = Fingerprint::of(o);
        match first {
            None => *first = Some(fp),
            Some(f) => errors.extend(gate::check_repeat(f, &fp)),
        }
    }
    if !errors.is_empty() {
        result.failed += 1;
        result.failures.extend(errors);
        return None;
    }
    placed.ok().map(|o| (o, secs))
}

/// The untraced run. For each of the workload's designs: generate it,
/// write its bundle, time set-up on the files, place it once. Then place
/// the first design again, at least once and until `seconds` have passed
/// since the first placement, each repeat checked bit for bit against the
/// first result.
///
/// # Errors
///
/// Returns a message when a bundle cannot be written or read back, or the
/// RSS cannot be read.
pub fn untraced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<RunResult, String> {
    complx_par::prewarm(workload.threads);
    let _threads = complx_par::with_threads(workload.threads);
    let seeds = workload.design_seeds(seed);
    let setup_reps = SETUP_SAMPLES.div_ceil(seeds.len());

    let mut result = RunResult::default();
    let mut setup_s = Vec::new();
    let mut repeat: Option<(Design, Fingerprint)> = None;
    let mut start = None;
    for &dseed in &seeds {
        let bundle = Bundle::write(workload, dseed, &work.join(dseed.to_string()))?;
        let setup = Setup::run(&bundle, setup_reps)?;
        setup_s.extend(setup.samples());
        start.get_or_insert_with(Instant::now);
        let mut first = None;
        let placed = place_checked(workload, &setup.design, &mut first, &mut result, |d| {
            ComplxPlacer::new(workload.config()).place(d)
        });
        let (Some((outcome, secs)), Some(fp)) = (placed, first) else {
            continue;
        };
        result.designs.push(DesignRecord {
            seed: dseed,
            iterations: outcome.iterations,
            scaled_hpwl: complx_oracle::scaled_hpwl(&setup.design, &outcome.legal),
            place_s: vec![secs],
        });
        if result.designs.len() == 1 {
            repeat = Some((setup.design, fp));
        }
    }

    if let (Some((design, fp)), Some(start)) = (repeat, start) {
        let mut first = Some(fp);
        let mut repeats = 0;
        while repeats == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
            repeats += 1;
            let placed = place_checked(workload, &design, &mut first, &mut result, |d| {
                ComplxPlacer::new(workload.config()).place(d)
            });
            match placed {
                Some((_, secs)) => result.designs[0].place_s.push(secs),
                None => break,
            }
        }
    }

    for d in &result.designs {
        eprintln!(
            "design seed {}: {} iterations, scaled HPWL {:.6e}, place {:?} s",
            d.seed, d.iterations, d.scaled_hpwl, d.place_s
        );
    }
    if result.designs.len() == seeds.len() {
        let per_design: Vec<f64> = result
            .designs
            .iter()
            .filter_map(|d| median(&d.place_s))
            .collect();
        let hpwl: Vec<f64> = result.designs.iter().map(|d| d.scaled_hpwl).collect();
        result.metrics = vec![
            ("place_s", median(&per_design).unwrap_or(0.0)),
            ("setup_s", median(&setup_s).unwrap_or(0.0)),
            ("scaled_hpwl", median(&hpwl).unwrap_or(0.0)),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
    }
    Ok(result)
}
