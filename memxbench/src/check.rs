//! Output checks behind `ok_ratio` and `correct`.
//!
//! Records are digested bit for bit; a seeded sample of designs is
//! replayed through the naive `memsim::reference` cache and compared
//! field by field; selections are recomputed by brute force. None of this
//! runs inside a timed window.

use crate::inputs::{fnv, Rng};
use loopir::transform::tile_all;
use memexplore::metrics::read_trace;
use memexplore::{select, CycleModel, Evaluator, Record};
use memsim::reference::ReferenceCache;
use memsim::{Replacement, TraceEvent};

/// Bit-exact digest of records, in order.
pub fn digest(records: &[Record]) -> u64 {
    let mut bytes = Vec::with_capacity(records.len() * 64);
    for r in records {
        push_record(&mut bytes, r);
    }
    fnv(&bytes)
}

fn push_record(bytes: &mut Vec<u8>, r: &Record) {
    bytes.extend_from_slice(r.design.to_string().as_bytes());
    bytes.push(0);
    for word in [
        r.miss_rate.to_bits(),
        r.cycles.to_bits(),
        r.energy_nj.to_bits(),
        r.trip_count,
        u64::from(r.conflict_free),
    ] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
}

/// A sweep's records plus the three selections a user reads off them.
pub struct Selection {
    pub min_energy: Record,
    pub min_cycles: Record,
    pub pareto: Vec<Record>,
}

pub fn select_all(records: &[Record]) -> Selection {
    Selection {
        min_energy: select::min_energy(records)
            .expect("non-empty sweep")
            .clone(),
        min_cycles: select::min_cycles(records)
            .expect("non-empty sweep")
            .clone(),
        pareto: select::pareto(records).into_iter().cloned().collect(),
    }
}

/// Digest of the records and their selections together.
pub fn sweep_digest(records: &[Record], sel: &Selection) -> u64 {
    let mut bytes = digest(records).to_le_bytes().to_vec();
    push_record(&mut bytes, &sel.min_energy);
    push_record(&mut bytes, &sel.min_cycles);
    for r in &sel.pareto {
        push_record(&mut bytes, r);
    }
    fnv(&bytes)
}

/// Recomputes the selections by brute force (first index wins ties, as
/// `Iterator::min_by` does; a frontier point is one that no record
/// sorting before it in (cycles, energy) order matches or beats on
/// energy) and compares them with `sel`.
pub fn check_selection(records: &[Record], sel: &Selection) -> Result<(), String> {
    let argmin = |key: &dyn Fn(&Record) -> (f64, f64, usize)| {
        let mut best = 0;
        for i in 1..records.len() {
            if key(&records[i]) < key(&records[best]) {
                best = i;
            }
        }
        &records[best]
    };
    let e = argmin(&|r| (r.energy_nj, r.cycles, r.design.cache_size));
    let c = argmin(&|r| (r.cycles, r.energy_nj, r.design.cache_size));
    if *e != sel.min_energy {
        return Err(format!(
            "min_energy picked {} but brute force finds {}",
            sel.min_energy.design, e.design
        ));
    }
    if *c != sel.min_cycles {
        return Err(format!(
            "min_cycles picked {} but brute force finds {}",
            sel.min_cycles.design, c.design
        ));
    }
    let before = |s: usize, r: usize| {
        let (a, b) = (&records[s], &records[r]);
        (a.cycles, a.energy_nj) < (b.cycles, b.energy_nj)
            || ((a.cycles, a.energy_nj) == (b.cycles, b.energy_nj) && s < r)
    };
    let mut frontier: Vec<usize> = (0..records.len())
        .filter(|&r| {
            !(0..records.len())
                .any(|s| s != r && before(s, r) && records[s].energy_nj <= records[r].energy_nj)
        })
        .collect();
    frontier.sort_by(|&a, &b| {
        if before(a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    let brute: Vec<&Record> = frontier.iter().map(|&i| &records[i]).collect();
    if brute.len() != sel.pareto.len() || brute.iter().zip(&sel.pareto).any(|(a, b)| *a != b) {
        return Err(format!(
            "pareto frontier has {} points but brute force finds {}",
            sel.pareto.len(),
            brute.len()
        ));
    }
    Ok(())
}

/// Compares one record with the naive reference cache replaying `trace`:
/// read count, miss rate and cycles must match bit for bit. Designs with
/// a replacement policy the reference does not model are skipped
/// (`Ok(false)`).
pub fn against_reference(record: &Record, trace: &[TraceEvent]) -> Result<bool, String> {
    let d = record.design;
    if !matches!(d.replacement, Replacement::Lru | Replacement::Fifo) {
        return Ok(false);
    }
    let config = d.cache_config().map_err(|e| format!("{d}: {e}"))?;
    let stats = ReferenceCache::simulate(config, trace.iter().copied());
    let cycles = CycleModel.cycles_from_counts(
        stats.read_hits,
        stats.read_misses(),
        d.assoc,
        d.line,
        d.tiling,
    );
    if record.trip_count != stats.reads
        || record.miss_rate.to_bits() != stats.read_miss_rate().to_bits()
        || record.cycles.to_bits() != cycles.to_bits()
    {
        return Err(format!(
            "{d}: record (reads {}, miss rate {}, cycles {}) differs from the reference \
             (reads {}, miss rate {}, cycles {cycles})",
            record.trip_count,
            record.miss_rate,
            record.cycles,
            stats.reads,
            stats.read_miss_rate()
        ));
    }
    Ok(true)
}

/// Checks a seeded sample of a kernel sweep's records against the
/// reference: each sampled design's trace is rebuilt from scratch
/// (layout, tiling, read trace) and replayed naively. Returns the number
/// of designs compared.
pub fn kernel_sample(
    evaluator: &Evaluator,
    kernel: &loopir::Kernel,
    records: &[Record],
    seed: u64,
    samples: usize,
) -> Result<usize, String> {
    let mut rng = Rng::new(seed ^ fnv(kernel.name.as_bytes()));
    let mut compared = 0;
    for _ in 0..samples {
        let r = &records[rng.below(records.len() as u64) as usize];
        let d = r.design;
        let (layout, conflict_free) = evaluator.layout_for(kernel, d.cache_size, d.line);
        if conflict_free != r.conflict_free {
            return Err(format!("{}: {d}: conflict-free flag differs", kernel.name));
        }
        let trace = read_trace(&tile_all(kernel, d.tiling), &layout);
        if against_reference(r, &trace).map_err(|e| format!("{}: {e}", kernel.name))? {
            compared += 1;
        }
    }
    Ok(compared)
}
