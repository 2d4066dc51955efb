//! The DAC'99 energy model (rectified Hicks/Walnock/Owens).

use crate::sram::SramPart;
use memsim::{CacheConfig, SimReport};
use std::fmt;

/// Technology coefficients of the model (§2.3).
///
/// Defaults are the paper's 0.8 µm CMOS values. `data_switches_per_byte`
/// encodes the paper's assumed data-bus switching activity: 50 % of the
/// 8 data lines per byte toggle per transfer, i.e. 4 switches per byte (the
/// exact constant is garbled in the surviving text; any constant scales
/// `E_io`/`E_main` uniformly and cannot change configuration rankings).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EnergyParams {
    /// Address-decode coefficient `α` (pJ per address-bus bit switch).
    pub alpha: f64,
    /// Cell-array coefficient `β` (pJ per word-line × bit-line cell).
    pub beta: f64,
    /// I/O-pad coefficient `γ` (pJ per pad-bit switch).
    pub gamma: f64,
    /// Data-bus switches per byte transferred (`Data_bs` per byte).
    pub data_switches_per_byte: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            alpha: 0.001,
            beta: 2.0,
            gamma: 20.0,
            data_switches_per_byte: 4.0,
        }
    }
}

/// The cell-array organisation implied by a cache configuration.
///
/// A word line holds one set row — all `S` ways of `L` bytes — and there is
/// one row per set, so `word_line_size · bit_line_size = 8 · T` bit cells
/// regardless of organisation, matching the paper's `E_cell` formula.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    /// Bit cells on one word line (`8 · L · S`).
    pub word_line_size: u64,
    /// Bit cells on one bit line (number of rows, `T / (L · S)`).
    pub bit_line_size: u64,
}

impl CacheGeometry {
    /// Derives the geometry from a validated configuration.
    pub fn of(config: &CacheConfig) -> Self {
        CacheGeometry {
            word_line_size: 8 * (config.line() * config.assoc()) as u64,
            bit_line_size: config.num_sets() as u64,
        }
    }
}

/// Per-access energy split into the model's four components (nanojoules).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EnergyBreakdown {
    /// Address-decode path (`E_dec`).
    pub dec_nj: f64,
    /// Cell arrays (`E_cell`).
    pub cell_nj: f64,
    /// Host-processor I/O pads (`E_io`), misses only.
    pub io_nj: f64,
    /// Main-memory access (`E_main`), misses only.
    pub main_nj: f64,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total_nj(&self) -> f64 {
        self.dec_nj + self.cell_nj + self.io_nj + self.main_nj
    }
}

/// The paper's cache energy model.
///
/// # Example
///
/// ```
/// use energy::{DacEnergyModel, SramPart};
/// use memsim::CacheConfig;
///
/// let model = DacEnergyModel::new(SramPart::cy7c_2mbit());
/// let small = CacheConfig::new(16, 4, 1)?;
/// let large = CacheConfig::new(512, 4, 1)?;
/// // Hit energy grows with cache size (the paper's key observation).
/// assert!(model.hit_energy_nj(&large, 1.0) > model.hit_energy_nj(&small, 1.0));
/// # Ok::<(), memsim::ConfigError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DacEnergyModel {
    /// Technology coefficients.
    pub params: EnergyParams,
    /// The off-chip memory part providing `Em`.
    pub part: SramPart,
}

impl DacEnergyModel {
    /// A model with the paper's default 0.8 µm coefficients.
    pub fn new(part: SramPart) -> Self {
        DacEnergyModel {
            params: EnergyParams::default(),
            part,
        }
    }

    /// `E_hit` for one access, given the average address-bus switches
    /// `add_bs` (nanojoules).
    pub fn hit_energy_nj(&self, config: &CacheConfig, add_bs: f64) -> f64 {
        self.hit_breakdown(config, add_bs).total_nj()
    }

    /// `E_miss` for one access (nanojoules).
    pub fn miss_energy_nj(&self, config: &CacheConfig, add_bs: f64) -> f64 {
        self.miss_breakdown(config, add_bs).total_nj()
    }

    /// The hit-path components (`E_dec`, `E_cell`; I/O and main are zero).
    pub fn hit_breakdown(&self, config: &CacheConfig, add_bs: f64) -> EnergyBreakdown {
        let g = CacheGeometry::of(config);
        EnergyBreakdown {
            dec_nj: pj(self.params.alpha * add_bs),
            cell_nj: pj(self.params.beta * (g.word_line_size * g.bit_line_size) as f64),
            io_nj: 0.0,
            main_nj: 0.0,
        }
    }

    /// The miss-path components (`E_dec`, `E_cell`, `E_io`, `E_main`).
    pub fn miss_breakdown(&self, config: &CacheConfig, add_bs: f64) -> EnergyBreakdown {
        let mut b = self.hit_breakdown(config, add_bs);
        let line = config.line() as f64;
        let data_bs = self.params.data_switches_per_byte * line;
        b.io_nj = pj(self.params.gamma * (data_bs + add_bs));
        b.main_nj = pj(self.params.gamma * data_bs) + self.part.energy_per_access_nj * line;
        b
    }

    /// Average energy per access (nanojoules) at the given hit rate:
    /// `hit_rate · E_hit + (1 − hit_rate) · E_miss` (§2.3).
    ///
    /// # Panics
    ///
    /// Panics if `hit_rate` is outside `[0, 1]`.
    pub fn access_energy_nj(&self, config: &CacheConfig, hit_rate: f64, add_bs: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "hit rate must be in [0, 1], got {hit_rate}"
        );
        hit_rate * self.hit_energy_nj(config, add_bs)
            + (1.0 - hit_rate) * self.miss_energy_nj(config, add_bs)
    }

    /// Total energy of a simulated run (nanojoules), counting **reads
    /// only** as the paper does.
    pub fn trace_energy_nj(&self, report: &SimReport) -> f64 {
        let add_bs = report.cpu_bus.avg_switches();
        let hits = report.stats.read_hits as f64;
        let misses = report.stats.read_misses() as f64;
        hits * self.hit_energy_nj(&report.config, add_bs)
            + misses * self.miss_energy_nj(&report.config, add_bs)
    }

    /// Energy of one write-back of a dirty line to main memory
    /// (nanojoules): the line crosses the I/O pads and is stored off-chip —
    /// the same `γ·Data_bs·L + Em·L` transfer as a fill, in the other
    /// direction.
    pub fn writeback_energy_nj(&self, config: &CacheConfig) -> f64 {
        let line = config.line() as f64;
        let data_bs = self.params.data_switches_per_byte * line;
        pj(2.0 * self.params.gamma * data_bs) + self.part.energy_per_access_nj * line
    }

    /// Total energy **including the write path** (nanojoules) — the
    /// extension of the journal follow-up (Shiue & Chakrabarti, *Memory
    /// Design and Exploration for Low Power, Embedded Systems*, 2001):
    ///
    /// * write hits charge the decode + cell array like a read hit;
    /// * write misses additionally fetch the line (write-allocate);
    /// * every write-back of a dirty line pays the off-chip transfer.
    pub fn trace_energy_with_writes_nj(&self, report: &SimReport) -> f64 {
        let add_bs = report.cpu_bus.avg_switches();
        let cfg = &report.config;
        let write_hits = report.stats.write_hits as f64;
        let write_misses = report.stats.write_misses() as f64;
        let writebacks = report.stats.writebacks as f64;
        self.trace_energy_nj(report)
            + write_hits * self.hit_energy_nj(cfg, add_bs)
            + write_misses * self.miss_energy_nj(cfg, add_bs)
            + writebacks * self.writeback_energy_nj(cfg)
    }

    /// Energy of a hit served by a single-entry **line buffer** in front of
    /// the cache (nanojoules): only the address comparison/decode path
    /// switches — the cell arrays stay quiet. This is the Su–Despain block
    /// buffering optimisation contemporaneous with the paper.
    pub fn buffer_hit_energy_nj(&self, _config: &CacheConfig, add_bs: f64) -> f64 {
        pj(self.params.alpha * add_bs)
    }

    /// Total read energy when a line buffer fronts the cache: buffer hits
    /// (recorded in [`CacheStats::buffer_hits`](memsim::CacheStats)) pay
    /// only the comparator, remaining hits pay the full array access.
    pub fn trace_energy_with_buffer_nj(&self, report: &SimReport) -> f64 {
        let add_bs = report.cpu_bus.avg_switches();
        let cfg = &report.config;
        let buffered = report.stats.buffer_hits as f64;
        let array_hits = report.stats.read_hits as f64 - buffered;
        let misses = report.stats.read_misses() as f64;
        buffered * self.buffer_hit_energy_nj(cfg, add_bs)
            + array_hits.max(0.0) * self.hit_energy_nj(cfg, add_bs)
            + misses * self.miss_energy_nj(cfg, add_bs)
    }
}

/// Converts the model's raw picojoule quantities to nanojoules.
fn pj(x: f64) -> f64 {
    x / 1000.0
}

impl fmt::Display for DacEnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DAC'99 energy model (α={}, β={}, γ={}) over {}",
            self.params.alpha, self.params.beta, self.params.gamma, self.part
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{Simulator, TraceEvent};

    fn cfg(t: usize, l: usize, s: usize) -> CacheConfig {
        CacheConfig::new(t, l, s).unwrap()
    }

    #[test]
    fn geometry_product_is_8t() {
        for (t, l, s) in [(64, 8, 1), (64, 8, 2), (512, 32, 4), (16, 4, 1)] {
            let g = CacheGeometry::of(&cfg(t, l, s));
            assert_eq!(g.word_line_size * g.bit_line_size, 8 * t as u64);
        }
    }

    #[test]
    fn cell_energy_grows_linearly_with_cache_size() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let e64 = m.hit_breakdown(&cfg(64, 8, 1), 0.0).cell_nj;
        let e128 = m.hit_breakdown(&cfg(128, 8, 1), 0.0).cell_nj;
        assert!((e128 / e64 - 2.0).abs() < 1e-12);
        // β·8·T pJ: T = 64 gives 1024 pJ = 1.024 nJ.
        assert!((e64 - 1.024).abs() < 1e-12);
    }

    #[test]
    fn miss_energy_includes_io_and_main() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let c = cfg(64, 8, 1);
        let hit = m.hit_breakdown(&c, 1.0);
        let miss = m.miss_breakdown(&c, 1.0);
        assert_eq!(hit.dec_nj, miss.dec_nj);
        assert_eq!(hit.cell_nj, miss.cell_nj);
        assert!(miss.io_nj > 0.0);
        // Em·L dominates: 4.95 nJ × 8 = 39.6 nJ.
        assert!(miss.main_nj > 39.6);
        assert!(miss.total_nj() > hit.total_nj());
    }

    #[test]
    fn main_memory_term_scales_with_line_size() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let m8 = m.miss_breakdown(&cfg(64, 8, 1), 0.0).main_nj;
        let m32 = m.miss_breakdown(&cfg(256, 32, 1), 0.0).main_nj;
        assert!((m32 / m8 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn access_energy_interpolates_between_hit_and_miss() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let c = cfg(64, 8, 1);
        let e_hit = m.access_energy_nj(&c, 1.0, 1.0);
        let e_miss = m.access_energy_nj(&c, 0.0, 1.0);
        let e_half = m.access_energy_nj(&c, 0.5, 1.0);
        assert!((e_half - 0.5 * (e_hit + e_miss)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "hit rate")]
    fn out_of_range_hit_rate_panics() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let _ = m.access_energy_nj(&cfg(64, 8, 1), 1.5, 1.0);
    }

    #[test]
    fn trace_energy_matches_manual_sum() {
        let c = cfg(64, 8, 1);
        let trace: Vec<TraceEvent> = (0..100).map(|i| TraceEvent::read(i * 4, 4)).collect();
        let report = Simulator::simulate(c, trace);
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let add_bs = report.cpu_bus.avg_switches();
        let expected = report.stats.read_hits as f64 * m.hit_energy_nj(&c, add_bs)
            + report.stats.read_misses() as f64 * m.miss_energy_nj(&c, add_bs);
        assert!((m.trace_energy_nj(&report) - expected).abs() < 1e-9);
        assert!(m.trace_energy_nj(&report) > 0.0);
    }

    #[test]
    fn write_path_energy_adds_on_top_of_reads() {
        let c = cfg(64, 8, 1);
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let trace: Vec<TraceEvent> = (0..200)
            .flat_map(|i| [TraceEvent::read(i * 4, 4), TraceEvent::write(i * 4, 4)])
            .collect();
        let report = Simulator::simulate(c, trace);
        assert!(report.stats.writes > 0);
        let reads_only = m.trace_energy_nj(&report);
        let with_writes = m.trace_energy_with_writes_nj(&report);
        assert!(with_writes > reads_only);
    }

    #[test]
    fn writeback_energy_scales_with_line_size() {
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        let e8 = m.writeback_energy_nj(&cfg(64, 8, 1));
        let e32 = m.writeback_energy_nj(&cfg(256, 32, 1));
        assert!((e32 / e8 - 4.0).abs() < 1e-9);
        // Dominated by Em·L, like a fill.
        assert!(e8 > 4.95 * 8.0);
    }

    #[test]
    fn line_buffer_saves_array_energy() {
        let c = cfg(64, 8, 1);
        let m = DacEnergyModel::new(SramPart::cy7c_2mbit());
        // A same-line-heavy read trace: two reads per line.
        let trace: Vec<TraceEvent> = (0..400).map(|i| TraceEvent::read(i * 4, 4)).collect();
        let mut buffered = Simulator::new(c).with_line_buffer();
        buffered.run(trace.iter().copied());
        let breport = buffered.into_report();
        assert!(breport.stats.buffer_hits > 0);
        let with_buffer = m.trace_energy_with_buffer_nj(&breport);
        let without = m.trace_energy_nj(&breport);
        assert!(
            with_buffer < without,
            "buffered {with_buffer} should beat unbuffered {without}"
        );
        // And the saving equals the avoided array accesses.
        let saved = breport.stats.buffer_hits as f64
            * (m.hit_energy_nj(&c, breport.cpu_bus.avg_switches())
                - m.buffer_hit_energy_nj(&c, breport.cpu_bus.avg_switches()));
        assert!((without - with_buffer - saved).abs() < 1e-9);
    }

    #[test]
    fn em_extremes_flip_the_cache_size_preference() {
        // The crux of the paper's Fig. 1: with a cheap off-chip memory,
        // bigger caches cost energy; with an expensive one they save it.
        // Compare per-access energy at a fixed plausible miss-rate profile:
        // the small cache misses more.
        let small = cfg(16, 4, 1);
        let large = cfg(512, 4, 1);
        let (mr_small, mr_large) = (0.10, 0.01);

        let cheap = DacEnergyModel::new(SramPart::low_power_2mbit());
        let cheap_small = cheap.access_energy_nj(&small, 1.0 - mr_small, 1.0);
        let cheap_large = cheap.access_energy_nj(&large, 1.0 - mr_large, 1.0);
        assert!(
            cheap_small < cheap_large,
            "cheap Em should favour small caches"
        );

        let dear = DacEnergyModel::new(SramPart::sram_16mbit());
        let dear_small = dear.access_energy_nj(&small, 1.0 - mr_small, 1.0);
        let dear_large = dear.access_energy_nj(&large, 1.0 - mr_large, 1.0);
        assert!(
            dear_small > dear_large,
            "dear Em should favour large caches"
        );
    }
}
