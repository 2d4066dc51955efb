//! The layout phase every sweep engine shares.
//!
//! Each `(T, L)` pair gets the §4.1 off-chip assignment. Padding can
//! backfire, though: a stretched row pitch can push a borderline working
//! set past the cache and *create* capacity misses. So every optimized
//! layout is arbitrated against the natural one by its read-miss count on
//! a direct-mapped `(T, L)` cache, and the natural layout wins only when it
//! misses strictly less. The assignment can then never lose to doing
//! nothing.
//!
//! Scoring is where the phase spends its time, so it runs like the sweep
//! itself: each distinct candidate layout's untiled read trace is generated
//! once (the natural layout is one candidate for every pair) and streamed
//! through direct-mapped [`ReplayBank`]s over all the pairs that need it.

use crate::explore::{try_steal_loop, ExploreError, SweepHists};
use crate::metrics::{Evaluator, PlacementMode, PlanSource, PLAN_CHUNK_EVENTS};
use crate::obs::{FieldValue, Obs, Span};
use analysis::placement::{optimize_layout, PlacementError, PlacementReport};
use loopir::{check_subscripts, DataLayout, Kernel};
use memsim::{CacheConfig, ReplayBank, TraceEvent, TraceSource};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Most cache lines of tag state one scoring bank simulates at once. Banks
/// are filled up to it in pair order; a configuration larger than it gets
/// a bank of its own, so the multi-megabyte caches of the expansive grid
/// never share one.
const SCORE_BANK_LINES: usize = 1 << 16;

/// Places every `(T, L)` pair of `pairs`, arbitrates each optimized layout
/// against the natural one, and deduplicates the winners by value into
/// `unique` (appending layouts it does not hold yet, in pair order).
/// Returns, per pair in input order, the index of its layout in `unique`
/// and whether the §4.1 conflict-free guarantee applies to it.
///
/// Emits one `place` unit per pair and one `score` unit per scoring bank
/// (fields `events` and `width`) under a `layout` span.
///
/// # Errors
///
/// [`ExploreError::Placement`] before anything is placed when some
/// access of the kernel's trace leaves its array
/// ([`check_subscripts`]; under the natural layout the message starts
/// `natural layout: `), so no out-of-bounds kernel reaches trace
/// generation. Then [`ExploreError::WorkerPanic`] (phase `layout`) with
/// the message of the first worker panic, or else
/// [`ExploreError::Placement`] naming the first pair (in pair order)
/// whose placement failed, such as an array whose padded addresses
/// overflow 64 bits.
pub(crate) fn arbitrate_layouts(
    evaluator: &Evaluator,
    kernel: &Kernel,
    pairs: &[(usize, usize)],
    workers: usize,
    obs: Option<&Obs>,
    hists: Option<&SweepHists>,
    unique: &mut Vec<DataLayout>,
) -> Result<Vec<(usize, bool)>, ExploreError> {
    let panicked = |message| ExploreError::WorkerPanic {
        phase: "layout",
        message,
    };
    let _span = Span::begin(obs, "layout");
    // Tiling only reorders the iteration points, so checking the untiled
    // nest covers every tiled trace of the grid.
    check_subscripts(kernel).map_err(|e| {
        ExploreError::Placement(match evaluator.placement {
            PlacementMode::Natural => format!("natural layout: {e}"),
            PlacementMode::Optimized => e.to_string(),
        })
    })?;

    // Placement, one unit per pair.
    let slots: Vec<OnceLock<Result<Option<PlacementReport>, PlacementError>>> =
        pairs.iter().map(|_| OnceLock::new()).collect();
    try_steal_loop(workers, pairs.len(), |w, i| {
        let (t, l) = pairs[i];
        let start = Instant::now();
        let _ = slots[i].set(match evaluator.placement {
            PlacementMode::Optimized => optimize_layout(kernel, t as u64, l as u64).map(Some),
            PlacementMode::Natural => Ok(None),
        });
        let dur = start.elapsed();
        if let Some(h) = hists {
            h.layout.record(dur);
        }
        if let Some(o) = obs {
            o.unit(
                "layout",
                "place",
                w as u64,
                dur,
                &[
                    ("cache", FieldValue::U64(t as u64)),
                    ("line", FieldValue::U64(l as u64)),
                ],
            );
        }
    })
    .map_err(panicked)?;
    let placed: Vec<Option<PlacementReport>> = slots
        .into_iter()
        .zip(pairs)
        .map(|(s, (t, l))| {
            s.into_inner()
                .expect("placement filled every slot")
                .map_err(|e| {
                    ExploreError::Placement(format!("placement at cache {t} B, line {l} B: {e}"))
                })
        })
        .collect::<Result<_, _>>()?;

    // Candidates: the natural layout first, then each distinct optimized
    // layout. A pair whose optimized layout *is* the natural one has
    // nothing to arbitrate.
    let natural = DataLayout::natural(kernel);
    let mut candidates: Vec<&DataLayout> = vec![&natural];
    let mut members: Vec<Vec<usize>> = vec![Vec::new()];
    let mut contested = vec![false; pairs.len()];
    for (i, report) in placed.iter().enumerate() {
        let Some(r) = report.as_ref().filter(|r| r.layout != natural) else {
            continue;
        };
        let c = match candidates.iter().position(|&u| *u == r.layout) {
            Some(c) => c,
            None => {
                candidates.push(&r.layout);
                members.push(Vec::new());
                candidates.len() - 1
            }
        };
        members[0].push(i);
        members[c].push(i);
        contested[i] = true;
    }

    // Scoring, one unit per candidate: its read trace is walked once from
    // its compiled plan and streamed chunk by chunk through all of its
    // banks, so no trace is ever materialized.
    let banks: Vec<Vec<Vec<usize>>> = members
        .iter()
        .map(|m| {
            let mut banks: Vec<Vec<usize>> = Vec::new();
            let mut lines = 0;
            for &i in m {
                let (t, l) = pairs[i];
                if banks.is_empty() || lines + t / l > SCORE_BANK_LINES {
                    banks.push(Vec::new());
                    lines = 0;
                }
                banks.last_mut().expect("a bank is open").push(i);
                lines += t / l;
            }
            banks
        })
        .collect();
    let candidate_misses: Vec<OnceLock<Vec<Vec<u64>>>> =
        banks.iter().map(|_| OnceLock::new()).collect();
    try_steal_loop(workers, candidates.len(), |w, c| {
        let mut scoring: Vec<(ReplayBank, Duration)> = banks[c]
            .iter()
            .map(|bank_pairs| {
                let configs: Vec<CacheConfig> = bank_pairs
                    .iter()
                    .map(|&i| {
                        let (t, l) = pairs[i];
                        CacheConfig::new(t, l, 1).expect("geometry validated by caller")
                    })
                    .collect();
                let bank = ReplayBank::with_options(&configs, evaluator.bus_encoding, false);
                (bank, Duration::ZERO)
            })
            .collect();
        if scoring.is_empty() {
            // Only the natural candidate can have no pair to score.
            let _ = candidate_misses[c].set(Vec::new());
            return;
        }
        let mut events = 0u64;
        let mut chunk: Vec<TraceEvent> = Vec::with_capacity(PLAN_CHUNK_EVENTS);
        let mut source = PlanSource::new(kernel, candidates[c]);
        while source
            .fill(&mut chunk, PLAN_CHUNK_EVENTS)
            .expect("a plan source never fails")
            > 0
        {
            for (bank, busy) in &mut scoring {
                let start = Instant::now();
                bank.feed(&chunk);
                *busy += start.elapsed();
            }
            events += chunk.len() as u64;
        }
        let mut misses = Vec::with_capacity(scoring.len());
        for (bank, busy) in &scoring {
            misses.push(
                (0..bank.len())
                    .map(|k| bank.stats(k).read_misses())
                    .collect(),
            );
            if let Some(h) = hists {
                h.score.record(*busy);
            }
            if let Some(o) = obs {
                o.unit(
                    "layout",
                    "score",
                    w as u64,
                    *busy,
                    &[
                        ("events", FieldValue::U64(events)),
                        ("width", FieldValue::U64(bank.len() as u64)),
                    ],
                );
            }
        }
        let _ = candidate_misses[c].set(misses);
    })
    .map_err(panicked)?;

    let mut misses = vec![[0u64; 2]; pairs.len()];
    for (c, slot) in candidate_misses.into_iter().enumerate() {
        let per_bank = slot.into_inner().expect("scoring filled every candidate");
        for (bank_pairs, bank_misses) in banks[c].iter().zip(per_bank) {
            for (&i, m) in bank_pairs.iter().zip(bank_misses) {
                misses[i][usize::from(c != 0)] = m;
            }
        }
    }
    let arbitrated = placed
        .into_iter()
        .zip(contested)
        .zip(misses)
        .map(|((report, contested), [m_nat, m_opt])| {
            let (layout, conflict_free) = match report {
                Some(r) if !contested || m_opt <= m_nat => (r.layout, r.conflict_free),
                _ => (natural.clone(), false),
            };
            let id = match unique.iter().position(|u| *u == layout) {
                Some(id) => id,
                None => {
                    unique.push(layout);
                    unique.len() - 1
                }
            };
            (id, conflict_free)
        })
        .collect();
    Ok(arbitrated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::read_trace;
    use loopir::kernels;
    use memsim::Simulator;

    /// The per-pair arbitration the banked phase replaced: both layouts'
    /// traces simulated one at a time on a scalar direct-mapped cache.
    fn per_pair(kernel: &Kernel, t: usize, l: usize) -> (DataLayout, bool) {
        let misses = |layout: &DataLayout| {
            let config = CacheConfig::new(t, l, 1).expect("valid geometry");
            let mut sim = Simulator::new(config);
            sim.run_slice(&read_trace(kernel, layout));
            sim.stats().read_misses()
        };
        let r = optimize_layout(kernel, t as u64, l as u64).expect("placeable");
        let natural = DataLayout::natural(kernel);
        if misses(&r.layout) <= misses(&natural) {
            (r.layout, r.conflict_free)
        } else {
            (natural, false)
        }
    }

    #[test]
    fn banked_arbitration_matches_per_pair_simulation() {
        // Paper-grid pairs share banks; the 1 MiB and 4 MiB pairs exceed
        // SCORE_BANK_LINES and get banks of their own.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for t in [16, 64, 256, 1024] {
            for l in [4, 8, 16] {
                pairs.push((t, l));
            }
        }
        pairs.extend([(1 << 20, 4), (1 << 22, 8), (1 << 22, 1024)]);
        for kernel in [kernels::compress(31), kernels::sor(31), kernels::matmul(12)] {
            for workers in [1, 2] {
                let mut unique = Vec::new();
                let arbitrated = arbitrate_layouts(
                    &Evaluator::default(),
                    &kernel,
                    &pairs,
                    workers,
                    None,
                    None,
                    &mut unique,
                )
                .expect("no worker panics");
                for (&(t, l), &(id, conflict_free)) in pairs.iter().zip(&arbitrated) {
                    let (layout, cf) = per_pair(&kernel, t, l);
                    assert_eq!(unique[id], layout, "{} at ({t}, {l})", kernel.name);
                    assert_eq!(conflict_free, cf, "{} at ({t}, {l})", kernel.name);
                }
            }
        }
    }

    #[test]
    fn placement_overflow_is_an_error_not_a_panic() {
        // 2^62 elements of 8 bytes: the natural row pitch overflows u64.
        let a = loopir::ArrayDecl::new("a", &[4, 1 << 62], 8);
        let nest = loopir::LoopNest {
            loops: vec![loopir::Loop::new(0, 3)],
            refs: vec![loopir::ArrayRef::read(
                loopir::ArrayId(0),
                vec![loopir::AffineExpr::var(0), loopir::AffineExpr::constant(0)],
            )],
        };
        let kernel = Kernel::new("huge", vec![a], nest);
        for workers in [1, 2] {
            let err = arbitrate_layouts(
                &Evaluator::default(),
                &kernel,
                &[(64, 8), (128, 8)],
                workers,
                None,
                None,
                &mut Vec::new(),
            )
            .expect_err("the pitch overflows");
            assert!(matches!(err, ExploreError::Placement(_)), "{err:?}");
            assert_eq!(
                err.to_string(),
                "placement at cache 64 B, line 8 B: addresses of array `a` overflow 64 bits"
            );
        }
    }
}
