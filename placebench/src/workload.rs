//! The benchmark's workloads: which design is generated, how it is placed
//! and on how many threads.

use std::path::{Path, PathBuf};

use complx_netlist::generator::GeneratorConfig;
use complx_netlist::{bookshelf, Design};
use complx_place::{PlacerConfig, ProjectionBackend};

/// One workload shape. The generator seed comes from the command line, so
/// the same shape can be re-run on inputs a change was not tuned on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Design name, shared by workloads that place the same design.
    pub design: &'static str,
    /// Movable standard cells handed to the `ispd2005_like` generator.
    pub std_cells: usize,
    /// Thread count of the run.
    pub threads: usize,
    /// `P_C` backend.
    pub projection: ProjectionBackend,
    /// Designs an untraced run places (see [`Workload::design_seeds`]).
    pub designs: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "gp20k-t1",
        design: "gp20k",
        std_cells: 20_000,
        threads: 1,
        projection: ProjectionBackend::Geometric,
        designs: 2,
    },
    Workload {
        name: "gp40k-t2",
        design: "gp40k",
        std_cells: 40_000,
        threads: 2,
        projection: ProjectionBackend::Geometric,
        designs: 1,
    },
    Workload {
        name: "electro20k-t1",
        design: "gp20k",
        std_cells: 20_000,
        threads: 1,
        projection: ProjectionBackend::Electro,
        designs: 5,
    },
];

/// The seed the recorded baseline uses.
pub const DEFAULT_SEED: u64 = 7;

/// Distance between the generator seeds of one run's designs, so runs with
/// neighbouring seeds share no design.
pub const SEED_STRIDE: u64 = 1000;

impl Workload {
    /// Finds a workload by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generator seeds of the designs an untraced run with `seed` places:
    /// `seed` itself first, then `seed + k·SEED_STRIDE`. Reporting medians
    /// over several designs keeps one unusual design (say, one where the
    /// λ loop stops at once) from moving the run's figures.
    pub fn design_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.designs as u64)
            .map(|k| seed.wrapping_add(k * SEED_STRIDE))
            .collect()
    }

    /// Generates the workload's design for `seed`.
    pub fn generate(&self, seed: u64) -> Design {
        GeneratorConfig::ispd2005_like(self.design, seed, self.std_cells).generate()
    }

    /// The placer configuration: the defaults (a converged run with
    /// legalization and detailed placement) with the workload's backend.
    pub fn config(&self) -> PlacerConfig {
        PlacerConfig {
            projection: self.projection,
            ..PlacerConfig::default()
        }
    }
}

/// A generated design written to disk as a Bookshelf bundle.
#[derive(Debug)]
pub struct Bundle {
    /// The directory holding the bundle; removed on drop.
    pub dir: PathBuf,
    /// The `.aux` file set-up reads.
    pub aux: PathBuf,
    /// Total size of the bundle's files.
    pub bytes: u64,
}

impl Bundle {
    /// Generates the workload's design and writes it under `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when the bundle cannot be written.
    pub fn write(workload: &Workload, seed: u64, dir: &Path) -> Result<Self, String> {
        let design = workload.generate(seed);
        let aux = bookshelf::write_bundle(&design, &design.initial_placement(), dir)
            .map_err(|e| format!("writing bundle to {}: {e}", dir.display()))?;
        let mut bytes = 0;
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            bytes += meta.len();
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            aux,
            bytes,
        })
    }
}

impl Drop for Bundle {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
