//! The search oracle: on every paper kernel, the certified bound-guided
//! search (`Explorer::search`) at gap 0 must return an incumbent
//! *bit-identical* to the minimum extracted from an exhaustive sweep of
//! the full 425-design paper grid — for each objective.
//!
//! Bit-identical means the same `Record` down to float bit patterns and
//! the same tie-break: `select::min_energy` / `select::min_cycles` keep
//! the *first* minimum in sweep order, and the search's total order is
//! built to reproduce exactly that choice.
//!
//! The beam half of the oracle checks honesty under truncation: a beamed
//! search may miss the optimum, but it must never *claim* more than it
//! proved — its certified lower bound stays admissible (≤ the true
//! optimum) and its reported gap is at least the true distance between
//! its incumbent and the optimum.

use loopir::kernels;
use loopir::Kernel;
use memexplore::obs::Event;
use memexplore::{
    select, DesignSpace, Explorer, Objective, Obs, ObsConfig, ObsSink, Record, SearchOptions,
};
use memsim::{Replacement, WritePolicy};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn assert_search_oracle(kernel: &Kernel) {
    let space = DesignSpace::paper();
    let explorer = Explorer::default();
    let records = explorer.explore(kernel, &space);
    assert_eq!(records.len(), space.design_count());

    let oracles = [
        (Objective::Energy, select::min_energy(&records)),
        (Objective::Cycles, select::min_cycles(&records)),
    ];
    for (objective, oracle) in oracles {
        let oracle = oracle.expect("non-empty grid has a minimum");
        let oracle_cost = objective.cost(oracle);

        // Exact search: certified gap 0, bit-identical incumbent.
        let out = explorer.search(
            kernel,
            &space,
            &SearchOptions {
                objective,
                ..Default::default()
            },
        );
        assert!(out.complete, "{}/{objective}: not certified", kernel.name);
        assert!(!out.cancelled, "{}/{objective}", kernel.name);
        assert_eq!(out.gap(), 0.0, "{}/{objective}", kernel.name);
        assert_eq!(out.candidates, records.len(), "{}/{objective}", kernel.name);
        let incumbent = out
            .incumbent
            .as_ref()
            .expect("complete search has an incumbent");
        assert_eq!(
            incumbent, oracle,
            "{}/{objective}: search incumbent diverged from the sweep minimum",
            kernel.name
        );
        // The energy bounds must prune *something* — otherwise they are
        // vacuous and this is just a slow exhaustive sweep. (Cycles bounds
        // come from the untiled trace's miss floor and can be too loose to
        // prune on tiling-dominated kernels like MatMult.)
        if matches!(objective, Objective::Energy) {
            assert!(
                out.telemetry.designs_evaluated < records.len(),
                "{}/{objective}: no pruning ({} of {} simulated)",
                kernel.name,
                out.telemetry.designs_evaluated,
                records.len()
            );
        }

        // Beamed searches: possibly suboptimal, never dishonest.
        for beam in [Some(1), Some(4), Some(16), None] {
            let out = explorer.search(
                kernel,
                &space,
                &SearchOptions {
                    objective,
                    beam,
                    ..Default::default()
                },
            );
            let inc_cost = out.incumbent_cost();
            assert!(
                inc_cost >= oracle_cost,
                "{}/{objective}/beam {beam:?}: incumbent {inc_cost} beats the oracle {oracle_cost}",
                kernel.name
            );
            assert!(
                out.lower_bound <= oracle_cost,
                "{}/{objective}/beam {beam:?}: bound {} is not admissible (optimum {oracle_cost})",
                kernel.name,
                out.lower_bound
            );
            // Reported gap covers the true gap to the optimum.
            let true_gap = inc_cost - oracle_cost;
            assert!(
                out.gap() >= true_gap - 1e-9,
                "{}/{objective}/beam {beam:?}: reported gap {} below true gap {true_gap}",
                kernel.name,
                out.gap()
            );
            // An unbounded beam is the exact search again.
            if beam.is_none() {
                assert!(out.complete, "{}/{objective}: unbounded beam", kernel.name);
                assert_eq!(out.incumbent.as_ref().expect("incumbent"), oracle);
            }
        }
    }

    // The weighted objective agrees with a direct scan of the sweep.
    let objective = Objective::Weighted {
        energy_weight: 1.0,
        cycles_weight: 0.5,
    };
    let oracle_cost = records
        .iter()
        .map(|r| objective.cost(r))
        .fold(f64::INFINITY, f64::min);
    let out = explorer.search(
        kernel,
        &space,
        &SearchOptions {
            objective,
            ..Default::default()
        },
    );
    assert!(out.complete, "{}/weighted", kernel.name);
    assert_eq!(
        out.incumbent_cost(),
        oracle_cost,
        "{}/weighted",
        kernel.name
    );
}

#[test]
fn search_matches_exhaustive_minimum_on_compress() {
    assert_search_oracle(&kernels::compress(31));
}

#[test]
fn search_matches_exhaustive_minimum_on_matmul() {
    assert_search_oracle(&kernels::matmul(31));
}

#[test]
fn search_matches_exhaustive_minimum_on_pde() {
    assert_search_oracle(&kernels::pde(31));
}

#[test]
fn search_matches_exhaustive_minimum_on_sor() {
    assert_search_oracle(&kernels::sor(31));
}

#[test]
fn search_matches_exhaustive_minimum_on_dequant() {
    assert_search_oracle(&kernels::dequant(31));
}

/// An in-memory JSONL sink for the search's event log.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("no poisoned writers")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Sweep index of the brute-force optimum: the search's selection key
/// (objective first, then the other metrics, then cache size) with the
/// first design in sweep order winning full ties.
fn brute_force_optimum(records: &[Record], objective: Objective) -> usize {
    let floats = |r: &Record| match objective {
        Objective::Energy => [r.energy_nj, r.cycles, 0.0],
        Objective::Cycles => [r.cycles, r.energy_nj, 0.0],
        Objective::Weighted { .. } => [objective.cost(r), r.energy_nj, r.cycles],
    };
    (0..records.len())
        .min_by(|&a, &b| {
            floats(&records[a])
                .partial_cmp(&floats(&records[b]))
                .expect("finite metrics")
                .then(
                    records[a]
                        .design
                        .cache_size
                        .cmp(&records[b].design.cache_size),
                )
        })
        .expect("non-empty grid")
}

/// Leaf batches on a grid whose banks mix bulk lanes (LRU and FIFO up to
/// 8 ways) with scalar ones (PLRU, 16 ways), under both write policies
/// and tilings up to past the trip count: the incumbent, its sweep index
/// and its record must equal the brute-force optimum over
/// `Evaluator::evaluate`, and every bank lane is either consumed or
/// counted as speculative.
#[test]
fn batched_leaves_on_mixed_banks_match_brute_force() {
    let space = DesignSpace {
        cache_sizes: vec![64, 256, 1024],
        line_sizes: vec![4, 16],
        assocs: vec![1, 2, 4, 8, 16],
        tilings: vec![1, 2, 3, 64],
        min_lines: 4,
        replacements: vec![Replacement::Lru, Replacement::Fifo, Replacement::Plru],
        write_policies: vec![
            WritePolicy::WriteBackAllocate,
            WritePolicy::WriteThroughNoAllocate,
        ],
    };
    let designs = space.designs();
    for kernel in [kernels::compress(12), kernels::matmul(6)] {
        let evaluator = Explorer::default().evaluator;
        let records: Vec<Record> = designs
            .iter()
            .map(|&d| evaluator.evaluate(&kernel, d))
            .collect();
        let objectives = [
            Objective::Energy,
            Objective::Cycles,
            Objective::Weighted {
                energy_weight: 1.0,
                cycles_weight: 0.5,
            },
        ];
        for objective in objectives {
            let label = format!("{}/{objective}", kernel.name);
            let best = brute_force_optimum(&records, objective);
            match objective {
                Objective::Energy => {
                    assert_eq!(
                        select::min_energy(&records),
                        Some(&records[best]),
                        "{label}"
                    )
                }
                Objective::Cycles => {
                    assert_eq!(
                        select::min_cycles(&records),
                        Some(&records[best]),
                        "{label}"
                    )
                }
                Objective::Weighted { .. } => {}
            }

            let buf = SharedBuf::default();
            let obs = Obs::new(ObsConfig {
                log: Some(ObsSink::Writer(Box::new(buf.clone()))),
                progress: false,
                run_id: Some("search-oracle".to_string()),
            })
            .expect("in-memory obs hub");
            let out = Explorer::default().with_obs(Arc::clone(&obs)).search(
                &kernel,
                &space,
                &SearchOptions {
                    objective,
                    ..Default::default()
                },
            );
            obs.finish();
            assert!(out.complete, "{label}");
            assert_eq!(out.incumbent_index, Some(best), "{label}");
            assert_eq!(out.incumbent.as_ref(), Some(&records[best]), "{label}");

            let text = String::from_utf8(buf.0.lock().expect("log").clone()).expect("UTF-8");
            let mut width = 0;
            for event in text.lines().map(|l| Event::parse(l).expect("event parses")) {
                if event.name == "scan" || event.name == "analytic" {
                    width += event.u64_field("width").expect("bank width") as usize;
                }
            }
            let t = &out.telemetry;
            assert_eq!(
                t.designs_evaluated + t.designs_speculative,
                width,
                "{label}: every bank lane is consumed or speculative"
            );
            assert!(t.max_bank_width > 1, "{label}: leaves were not batched");
        }
    }
}
