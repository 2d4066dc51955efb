//! Acceptance tests of the fault-isolated sweep supervisor.
//!
//! The contract under test: a clean supervised run is bit-identical to a
//! plain run; an injected panic quarantines only the affected design(s)
//! (or recovers them via the per-design fallback when the fused bank
//! panicked) while every other record stays bit-identical; a cooperative
//! deadline yields a well-formed partial result; and a resumed sweep
//! reproduces an uninterrupted one exactly. Fault-injection tests are
//! compiled only with `--features fault-injection` — the plan is inert
//! otherwise.

use loopir::kernels;
use loopir::Kernel;
use memexplore::supervisor::sweep_id;
use memexplore::{
    Checkpoint, CheckpointPolicy, DesignSpace, Engine, Evaluator, ExploreError, Explorer,
    SweepOptions,
};
use std::path::PathBuf;
use std::time::Duration;

/// Self-cleaning scratch dir for checkpoint sidecars.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("memx-sup-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Self { dir }
    }

    fn ckpt(&self) -> PathBuf {
        self.dir.join("sweep.ckpt")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn assert_clean_supervised_equivalence(kernel: &Kernel, engine: Engine) {
    let space = DesignSpace::paper();
    let designs = space.designs();
    let explorer = Explorer::default().with_engine(engine);
    let (clean, _) = explorer.explore_designs_with_telemetry(kernel, &designs);
    let outcome = explorer
        .explore_supervised(kernel, &designs, &SweepOptions::default())
        .expect("supervised sweep succeeds");
    assert!(outcome.is_complete(), "{}: incomplete", kernel.name);
    assert!(outcome.errors.is_empty(), "{}", kernel.name);
    assert_eq!(
        outcome.completed_records(),
        clean,
        "{}: supervised records diverged from the plain engine",
        kernel.name
    );
    let t = &outcome.telemetry;
    assert_eq!(t.designs_quarantined, 0);
    assert_eq!(t.designs_retried, 0);
    assert_eq!(t.records_resumed, 0);
    assert!(!t.cancelled);
}

#[test]
fn clean_supervised_run_is_bit_identical_compress() {
    let k = kernels::compress(31);
    assert_clean_supervised_equivalence(&k, Engine::Fused);
    assert_clean_supervised_equivalence(&k, Engine::PerDesign);
}

#[test]
fn clean_supervised_run_is_bit_identical_sor() {
    let k = kernels::sor(31);
    assert_clean_supervised_equivalence(&k, Engine::Fused);
    assert_clean_supervised_equivalence(&k, Engine::PerDesign);
}

#[test]
fn deadline_zero_yields_well_formed_empty_partial_result() {
    let kernel = kernels::compress(31);
    let designs = DesignSpace::paper().designs();
    let options = SweepOptions {
        deadline: Some(Duration::ZERO),
        ..SweepOptions::default()
    };
    let outcome = Explorer::default()
        .explore_supervised(&kernel, &designs, &options)
        .expect("cancelled sweep still returns a well-formed outcome");
    assert!(outcome.telemetry.cancelled, "deadline must flag telemetry");
    assert!(outcome.errors.is_empty());
    assert_eq!(outcome.records.len(), designs.len());
    assert!(
        outcome.records.iter().all(Option::is_none),
        "a zero deadline cancels before any unit starts"
    );
    assert_eq!(outcome.telemetry.designs_evaluated, 0);
}

#[test]
fn generous_deadline_completes_normally() {
    let kernel = kernels::dequant(31);
    let designs = DesignSpace::paper().designs();
    let explorer = Explorer::default();
    let (clean, _) = explorer.explore_designs_with_telemetry(&kernel, &designs);
    let options = SweepOptions {
        deadline: Some(Duration::from_secs(3600)),
        ..SweepOptions::default()
    };
    let outcome = explorer
        .explore_supervised(&kernel, &designs, &options)
        .expect("sweep succeeds");
    assert!(!outcome.telemetry.cancelled);
    assert_eq!(outcome.completed_records(), clean);
}

/// A deadline that fires while a trace group's plan is being walked
/// abandons that bank: generation stops at the next chunk boundary and no
/// member of the group lands a record, while every group that finished
/// keeps its clean records. The deadline is placed at fractions of a
/// clean run's simulate phase until one lands inside a group, which the
/// telemetry shows as generated events beyond the completed scans.
#[test]
fn deadline_mid_group_stops_generation_and_lands_no_partial_record() {
    let kernel = kernels::matmul(31);
    // One (T, L) pair, so the trace groups are exactly the tilings.
    let space = DesignSpace {
        cache_sizes: vec![256],
        line_sizes: vec![8],
        assocs: vec![1, 2, 4],
        tilings: vec![1, 2, 4, 8],
        min_lines: 1,
        ..DesignSpace::default()
    };
    let designs = space.designs();
    let explorer = Explorer::default().with_workers(1);
    let (clean, t) = explorer.explore_designs_with_telemetry(&kernel, &designs);
    assert_eq!(t.fused_groups, 4);
    let group_events = t.trace_events_scanned / 4;
    let prepare = t.layout_time + t.trace_time;
    let mut landed_mid_group = false;
    for attempt in 1..=24u32 {
        let fraction = f64::from(attempt % 8 + 1) / 10.0;
        let options = SweepOptions {
            deadline: Some(prepare + t.simulate_time.mul_f64(fraction)),
            ..SweepOptions::default()
        };
        let outcome = explorer
            .explore_supervised(&kernel, &designs, &options)
            .expect("a cancelled sweep still returns an outcome");
        for b in &space.tilings {
            let group: Vec<&Option<_>> = designs
                .iter()
                .zip(&outcome.records)
                .filter(|(d, _)| d.tiling == *b)
                .map(|(_, r)| r)
                .collect();
            assert!(
                group.iter().all(|r| r.is_some()) || group.iter().all(|r| r.is_none()),
                "group B={b} landed a partial record set"
            );
        }
        for (record, clean) in outcome.records.iter().zip(&clean) {
            if let Some(record) = record {
                assert_eq!(record, clean);
            }
        }
        let tel = &outcome.telemetry;
        let abandoned = tel.trace_events_generated - tel.trace_events_scanned;
        if tel.cancelled && abandoned > 0 {
            // One worker walks one group at a time, so at most that
            // group's walk (all of it when the deadline fired after its
            // last chunk) was abandoned: nothing walked on past it.
            assert!(
                abandoned <= group_events,
                "generation ran on after the deadline: {abandoned} of {group_events} events"
            );
            landed_mid_group = true;
            break;
        }
    }
    assert!(landed_mid_group, "no deadline fired inside a trace group");
}

/// A kernel whose compiled plan overflows `i64` fails the trace phase as
/// one typed error: every design of the grid shares the failure, so none
/// is quarantined on its own.
#[test]
fn plan_overflow_is_a_whole_sweep_error_not_quarantine() {
    use loopir::{AffineExpr, ArrayDecl, ArrayId, ArrayRef, Loop, LoopNest};
    // Element 2^61 of a 4-byte array lies at byte 2^63, past i64::MAX.
    let n: i64 = 1 << 61;
    let kernel = Kernel::new(
        "huge",
        vec![ArrayDecl::new("a", &[n as usize + 1], 4)],
        LoopNest {
            loops: vec![Loop::new(0, n)],
            refs: vec![ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)])],
        },
    );
    // The natural layout has nothing to arbitrate, so the layout phase
    // never compiles a plan and the trace phase is the first to.
    let explorer = Explorer::new(Evaluator::default().unoptimized());
    let designs = DesignSpace::small().designs();
    match explorer.explore_supervised(&kernel, &designs, &SweepOptions::default()) {
        Err(ExploreError::WorkerPanic { phase, message }) => {
            assert_eq!(phase, "trace");
            assert!(message.starts_with("trace address overflow"), "{message}");
        }
        Err(e) => panic!("unexpected error: {e}"),
        Ok(outcome) => panic!(
            "expected a trace-phase error, got {} quarantined designs",
            outcome.errors.len()
        ),
    }
}

/// The named resume regression: a "killed" sweep leaves — by the atomic
/// write contract — a valid checkpoint holding some subset of the
/// records. Resuming from any such subset must reproduce the
/// uninterrupted run bit-identically. (The CI smoke job performs the
/// literal SIGKILL variant of this test against the binary.)
#[test]
fn resume_after_kill_bit_identity_compress() {
    let kernel = kernels::compress(31);
    let designs = DesignSpace::paper().designs();
    let explorer = Explorer::default();
    let (clean, _) = explorer.explore_designs_with_telemetry(&kernel, &designs);

    for take in [1, designs.len() / 2, designs.len() - 1] {
        let scratch = Scratch::new(&format!("resume-{take}"));
        let ck = Checkpoint {
            sweep_id: sweep_id(&kernel, &designs, &explorer.evaluator),
            entries: clean.iter().cloned().enumerate().take(take).collect(),
        };
        ck.write_atomic(&scratch.ckpt()).expect("checkpoint writes");
        let options = SweepOptions {
            checkpoint: Some(CheckpointPolicy {
                path: scratch.ckpt(),
                every: 64,
                resume: true,
            }),
            ..SweepOptions::default()
        };
        let outcome = explorer
            .explore_supervised(&kernel, &designs, &options)
            .expect("resumed sweep succeeds");
        assert!(outcome.is_complete());
        assert_eq!(outcome.telemetry.records_resumed, take);
        assert_eq!(
            outcome.completed_records(),
            clean,
            "resume from {take} records diverged from the uninterrupted sweep"
        );
        // The final flush leaves a checkpoint of the whole sweep behind.
        let final_ck = Checkpoint::read(&scratch.ckpt()).expect("final checkpoint is valid");
        assert_eq!(final_ck.entries.len(), designs.len());
        assert!(outcome.telemetry.checkpoints_written >= 1);
    }
}

#[test]
fn resume_with_missing_checkpoint_starts_fresh() {
    let kernel = kernels::dequant(31);
    let designs = DesignSpace::paper().designs();
    let explorer = Explorer::default();
    let (clean, _) = explorer.explore_designs_with_telemetry(&kernel, &designs);
    let scratch = Scratch::new("fresh");
    let options = SweepOptions {
        checkpoint: Some(CheckpointPolicy {
            path: scratch.ckpt(),
            every: 100,
            resume: true,
        }),
        ..SweepOptions::default()
    };
    let outcome = explorer
        .explore_supervised(&kernel, &designs, &options)
        .expect("fresh resume succeeds");
    assert_eq!(outcome.telemetry.records_resumed, 0);
    assert_eq!(outcome.completed_records(), clean);
    assert!(scratch.ckpt().exists());
}

#[cfg(feature = "fault-injection")]
mod injected {
    use super::*;
    use memexplore::{FaultPlan, Record};

    /// Reference records for comparing fault-isolated runs.
    fn clean_records(kernel: &Kernel, designs: &[memexplore::CacheDesign]) -> Vec<Record> {
        Explorer::default()
            .explore_designs_with_telemetry(kernel, designs)
            .0
    }

    /// A panicking fused bank scan must fall back to the per-design
    /// engine and recover *every* member bit-identically.
    fn assert_fused_fallback_recovers(kernel: &Kernel, group: usize) {
        let designs = DesignSpace::paper().designs();
        let clean = clean_records(kernel, &designs);
        let options = SweepOptions {
            fault: FaultPlan {
                panic_group: Some(group),
                ..FaultPlan::none()
            },
            ..SweepOptions::default()
        };
        let outcome = Explorer::default()
            .with_engine(Engine::Fused)
            .explore_supervised(kernel, &designs, &options)
            .expect("sweep survives the injected panic");
        assert!(
            outcome.is_complete(),
            "{}: fallback must recover",
            kernel.name
        );
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        assert!(
            outcome.telemetry.designs_retried > 0,
            "{}: the poisoned bank must be retried per design",
            kernel.name
        );
        assert_eq!(
            outcome.completed_records(),
            clean,
            "{}: recovered records diverged",
            kernel.name
        );
    }

    /// A design that panics on the per-design engine is quarantined; all
    /// other records stay bit-identical to a clean run.
    fn assert_per_design_quarantine(kernel: &Kernel, victim: usize) {
        let designs = DesignSpace::paper().designs();
        let clean = clean_records(kernel, &designs);
        let options = SweepOptions {
            fault: FaultPlan {
                panic_design: Some(victim),
                ..FaultPlan::none()
            },
            ..SweepOptions::default()
        };
        let outcome = Explorer::default()
            .with_engine(Engine::PerDesign)
            .explore_supervised(kernel, &designs, &options)
            .expect("sweep survives the injected panic");
        assert_eq!(outcome.errors.len(), 1, "{}", kernel.name);
        assert_eq!(outcome.errors[0].design_index, victim);
        assert_eq!(outcome.errors[0].engine, "per-design");
        assert!(outcome.errors[0].message.contains("injected fault"));
        assert_eq!(outcome.telemetry.designs_quarantined, 1);
        for (i, slot) in outcome.records.iter().enumerate() {
            if i == victim {
                assert!(
                    slot.is_none(),
                    "{}: victim must be quarantined",
                    kernel.name
                );
            } else {
                assert_eq!(
                    slot.as_ref(),
                    Some(&clean[i]),
                    "{}: design {i} diverged",
                    kernel.name
                );
            }
        }
    }

    #[test]
    fn fused_bank_panic_recovers_via_fallback_compress() {
        let k = kernels::compress(31);
        for group in [0, 3] {
            assert_fused_fallback_recovers(&k, group);
        }
    }

    #[test]
    fn fused_bank_panic_recovers_via_fallback_sor() {
        assert_fused_fallback_recovers(&kernels::sor(31), 1);
    }

    #[test]
    fn per_design_panic_quarantines_only_the_victim_compress() {
        let k = kernels::compress(31);
        for victim in [0, 17] {
            assert_per_design_quarantine(&k, victim);
        }
    }

    #[test]
    fn per_design_panic_quarantines_only_the_victim_sor() {
        assert_per_design_quarantine(&kernels::sor(31), 42);
    }

    /// A trace group of one design is still a fused bank: `panic_group`
    /// fires on it, the fallback retries its design, and a design that
    /// panics in the fallback too is labelled `fallback`, not
    /// `per-design`.
    #[test]
    fn singleton_bank_panic_goes_through_the_fallback() {
        let k = kernels::compress(31);
        let designs = DesignSpace {
            cache_sizes: vec![64],
            line_sizes: vec![8],
            assocs: vec![1],
            tilings: vec![1, 2, 4],
            min_lines: 2,
            ..Default::default()
        }
        .designs();
        let clean = clean_records(&k, &designs);
        let options = SweepOptions {
            fault: FaultPlan {
                panic_group: Some(0),
                panic_design: Some(0),
                ..FaultPlan::none()
            },
            ..SweepOptions::default()
        };
        let outcome = Explorer::default()
            .with_engine(Engine::Fused)
            .explore_supervised(&k, &designs, &options)
            .expect("sweep survives the injected panic");
        let t = &outcome.telemetry;
        assert_eq!(t.fused_groups, designs.len());
        assert_eq!(t.max_bank_width, 1);
        assert_eq!(t.designs_retried, 1);
        assert_eq!(outcome.errors.len(), 1, "{:?}", outcome.errors);
        assert_eq!(outcome.errors[0].design_index, 0);
        assert_eq!(outcome.errors[0].engine, "fallback");
        assert!(outcome.records[0].is_none());
        for i in 1..designs.len() {
            assert_eq!(outcome.records[i].as_ref(), Some(&clean[i]), "design {i}");
        }
    }

    /// Keys are interned in design order, so trace group 0 always
    /// contains design 0: panicking both the group and design 0's
    /// fallback quarantines exactly design 0 while the rest of the bank
    /// is recovered per design.
    #[test]
    fn double_fault_quarantines_only_the_twice_panicking_design() {
        let kernel = kernels::compress(31);
        let designs = DesignSpace::paper().designs();
        let clean = clean_records(&kernel, &designs);
        let options = SweepOptions {
            fault: FaultPlan {
                panic_group: Some(0),
                panic_design: Some(0),
                ..FaultPlan::none()
            },
            ..SweepOptions::default()
        };
        let outcome = Explorer::default()
            .with_engine(Engine::Fused)
            .explore_supervised(&kernel, &designs, &options)
            .expect("sweep survives both injected panics");
        assert_eq!(outcome.errors.len(), 1, "{:?}", outcome.errors);
        assert_eq!(outcome.errors[0].design_index, 0);
        assert_eq!(outcome.errors[0].engine, "fallback");
        assert!(outcome.records[0].is_none());
        for (i, slot) in outcome.records.iter().enumerate().skip(1) {
            assert_eq!(slot.as_ref(), Some(&clean[i]), "design {i} diverged");
        }
    }

    /// Seeded plans pick their fault site reproducibly; any seed must
    /// leave every unaffected record bit-identical.
    #[test]
    fn seeded_fault_plans_isolate_on_both_engines() {
        let kernel = kernels::dequant(31);
        let designs = DesignSpace::paper().designs();
        let clean = clean_records(&kernel, &designs);
        for seed in [1, 2] {
            let plan = FaultPlan::seeded(seed, 4, designs.len());
            for engine in [Engine::Fused, Engine::PerDesign] {
                let options = SweepOptions {
                    fault: plan.clone(),
                    ..SweepOptions::default()
                };
                let outcome = Explorer::default()
                    .with_engine(engine)
                    .explore_supervised(&kernel, &designs, &options)
                    .expect("sweep survives the seeded faults");
                for (i, slot) in outcome.records.iter().enumerate() {
                    if let Some(r) = slot {
                        assert_eq!(r, &clean[i], "seed {seed}: design {i} diverged");
                    }
                }
                assert!(
                    outcome.records.iter().filter(|r| r.is_none()).count() <= 1,
                    "seed {seed}: at most the doubly-faulted design may be lost"
                );
            }
        }
    }

    /// A failed checkpoint flush must not stop the sweep or corrupt the
    /// sidecar: the previous checkpoint stays valid and the run completes.
    #[test]
    fn failed_checkpoint_write_is_counted_not_fatal() {
        let kernel = kernels::compress(31);
        let designs = DesignSpace::paper().designs();
        let clean = clean_records(&kernel, &designs);
        let scratch = Scratch::new("failed-flush");
        let options = SweepOptions {
            checkpoint: Some(CheckpointPolicy {
                path: scratch.ckpt(),
                every: 50,
                resume: false,
            }),
            fault: FaultPlan {
                fail_checkpoint_write: Some(0),
                ..FaultPlan::none()
            },
            ..SweepOptions::default()
        };
        let outcome = Explorer::default()
            .explore_supervised(&kernel, &designs, &options)
            .expect("sweep completes despite the failed flush");
        assert!(outcome.is_complete());
        assert_eq!(outcome.completed_records(), clean);
        assert!(outcome.telemetry.checkpoints_failed >= 1);
        assert!(outcome.telemetry.checkpoints_written >= 1);
        let ck = Checkpoint::read(&scratch.ckpt()).expect("sidecar is a valid checkpoint");
        assert_eq!(ck.entries.len(), designs.len());
    }
}
