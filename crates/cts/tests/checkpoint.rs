//! Kill/resume determinism suite.
//!
//! Simulates a crash at every point a real kill can leave the journal —
//! after any record boundary and mid-record — and asserts that
//! a [`Journal::Resume`] run rebuilds a tree bit-identical to the
//! uninterrupted reference. The small synthetic-design cases run in
//! every profile; the ISCAS sweeps (s35932, s38584 × 1/2/4 workers) are
//! release-only and exercised by `scripts/ci.sh`.

use sllt_cts::flow::{HierarchicalCts, Journal};
use sllt_cts::{
    Checkpoint, CtsError, FaultKind, FaultPlan, FaultStage, RecoveryPolicy, StageFault,
};
use sllt_cts::{CollectingObserver, FlowObserver, LevelReport, NullSink};
use sllt_design::{Design, DesignSpec};
use sllt_geom::{Point, Rect};
use sllt_tree::{ClockTree, Sink};
use std::path::{Path, PathBuf};

fn grid_design() -> Design {
    let sinks: Vec<Sink> = (0..96)
        .map(|i| {
            Sink::new(
                Point::new((i % 12) as f64 * 15.0, (i / 12) as f64 * 15.0),
                1.0 + (i % 3) as f64 * 0.4,
            )
        })
        .collect();
    Design {
        name: "ckptgrid".into(),
        num_instances: 96,
        utilization: 0.5,
        die: Rect::new(Point::ORIGIN, Point::new(200.0, 150.0)),
        clock_root: Point::ORIGIN,
        sinks,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sllt_ckpt_{tag}_{}.jsonl", std::process::id()))
}

/// `cts` starting a fresh journal at `path`.
fn fresh(cts: &HierarchicalCts, path: &Path) -> HierarchicalCts {
    HierarchicalCts {
        journal: Some(Journal::Fresh(path.into())),
        ..cts.clone()
    }
}

/// `cts` resuming the journal at `path`.
fn resuming(cts: &HierarchicalCts, path: &Path) -> HierarchicalCts {
    HierarchicalCts {
        journal: Some(Journal::Resume(path.into())),
        ..cts.clone()
    }
}

/// Byte offsets of every record boundary in the journal (after the
/// terminating newline of each record), including 0. Record-structure
/// aware: a schema-2 binary frame's payload may contain `0x0A` bytes,
/// so newlines alone do not delimit records — frames are skipped whole
/// via their length header.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    use sllt_obs::journal::{FRAME_MARKER, FRAME_OVERHEAD};
    let mut out = vec![0usize];
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == FRAME_MARKER {
            let Some(hdr) = bytes.get(i + 1..i + 5) else {
                break;
            };
            let len = u32::from_le_bytes(hdr.try_into().unwrap()) as usize;
            i += FRAME_OVERHEAD + len;
        } else {
            match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(nl) => i += nl + 1,
                None => break,
            }
        }
        if i <= bytes.len() {
            out.push(i);
        }
    }
    out
}

/// Truncates `full` to `len` bytes at `path`, resumes, and asserts the
/// rebuilt tree matches `reference`. Returns the error when resume
/// legitimately cannot proceed (journal cut before the meta record).
fn resume_truncated(
    cts: &HierarchicalCts,
    design: &Design,
    full: &[u8],
    len: usize,
    path: &Path,
    reference: &ClockTree,
) -> Result<(), CtsError> {
    std::fs::write(path, &full[..len]).unwrap();
    let tree = resuming(cts, path).run(design)?;
    assert_eq!(
        &tree, reference,
        "resume from a journal cut at byte {len} diverged"
    );
    Ok(())
}

#[test]
fn checkpointed_run_matches_plain_run() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let reference = cts.run(&design).unwrap();
    let path = journal_path("plain");
    let tree = fresh(&cts, &path).run(&design).unwrap();
    assert_eq!(tree, reference, "checkpointing must be observational");
    // The journal parses and carries one record per level.
    let ckpt = Checkpoint::load(&path, &cts, &design).unwrap();
    assert!(ckpt.levels() >= 2, "expected a multi-level run");
    assert!(ckpt.torn().is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_from_every_boundary_and_mid_record_rebuilds_the_same_tree() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("cut");
    let reference = fresh(&cts, &path).run(&design).unwrap();
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    assert!(cuts.len() >= 3, "expected meta + at least two levels");

    for (i, &cut) in cuts.iter().enumerate() {
        let r = resume_truncated(&cts, &design, &full, cut, &path, &reference);
        if i == 0 {
            // No meta record at all: resume must refuse, not guess.
            assert!(matches!(r, Err(CtsError::Checkpoint { .. })), "{r:?}");
        } else {
            r.unwrap();
        }
        // Mid-record cut: the torn tail is discarded and the journal
        // behaves as if cut at the previous boundary.
        if i + 1 < cuts.len() {
            let mid = cut + (cuts[i + 1] - cut) / 2;
            let r = resume_truncated(&cts, &design, &full, mid, &path, &reference);
            if i == 0 {
                assert!(matches!(r, Err(CtsError::Checkpoint { .. })), "{r:?}");
            } else {
                r.unwrap();
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_after_kill_appends_a_journal_that_resumes_again() {
    // Two successive kills: cut once, resume (which re-appends), cut the
    // rewritten journal again, resume again. The writer must restore the
    // append invariant each time.
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("rekill");
    let reference = fresh(&cts, &path).run(&design).unwrap();
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    // Cut mid-way through the second level record.
    let cut = cuts[2] + 7;
    std::fs::write(&path, &full[..cut.min(full.len())]).unwrap();
    assert_eq!(resuming(&cts, &path).run(&design).unwrap(), reference);
    // The resumed run rewrote a complete journal; kill it again.
    let rewritten = std::fs::read(&path).unwrap();
    let cuts2 = boundaries(&rewritten);
    std::fs::write(&path, &rewritten[..cuts2[cuts2.len() / 2]]).unwrap();
    assert_eq!(resuming(&cts, &path).run(&design).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_replays_committed_levels_through_the_observer() {
    #[derive(Default)]
    struct Counting {
        replayed: Vec<usize>,
        live: Vec<usize>,
    }
    impl FlowObserver for Counting {
        fn on_level(&mut self, report: &LevelReport) {
            self.live.push(report.level);
        }
        fn on_resumed_level(&mut self, report: &LevelReport) {
            self.replayed.push(report.level);
        }
    }

    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("replay");
    let mut obs = CollectingObserver::new();
    let reference = fresh(&cts, &path)
        .run_with_telemetry(&design, &mut obs, &NullSink)
        .unwrap();
    let levels = obs.levels.len();
    assert!(levels >= 2);

    // Cut after the first level record and resume.
    let full = std::fs::read(&path).unwrap();
    let cuts = boundaries(&full);
    std::fs::write(&path, &full[..cuts[2]]).unwrap();
    let mut counting = Counting::default();
    let tree = resuming(&cts, &path)
        .run_with_telemetry(&design, &mut counting, &NullSink)
        .unwrap();
    assert_eq!(tree, reference);
    assert_eq!(counting.replayed, vec![0], "one committed level replays");
    assert_eq!(
        counting.live,
        (1..levels).collect::<Vec<_>>(),
        "remaining levels run live"
    );
    // The default observer hook folds replayed levels into on_level, so
    // a CollectingObserver sees the full sequence.
    std::fs::write(&path, &full[..cuts[2]]).unwrap();
    let mut collected = CollectingObserver::new();
    resuming(&cts, &path)
        .run_with_telemetry(&design, &mut collected, &NullSink)
        .unwrap();
    assert_eq!(collected.levels.len(), levels);
    assert_eq!(
        collected.levels.iter().map(|l| l.level).collect::<Vec<_>>(),
        (0..levels).collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn fingerprint_guards_config_and_design_drift() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("fp");
    fresh(&cts, &path).run(&design).unwrap();

    // Same journal, different seed: refuse.
    let reseeded = HierarchicalCts {
        seed: cts.seed ^ 1,
        workers: 1,
        ..HierarchicalCts::default()
    };
    match resuming(&reseeded, &path).run(&design) {
        Err(CtsError::Checkpoint { detail }) => {
            assert!(detail.contains("fingerprint"), "{detail}")
        }
        other => panic!("expected a fingerprint refusal, got {other:?}"),
    }
    // Different design: refuse.
    let mut other = grid_design();
    other.sinks[0].cap_ff += 0.5;
    assert!(matches!(
        resuming(&cts, &path).run(&other),
        Err(CtsError::Checkpoint { .. })
    ));
    // Different worker count: fine — trees are worker-invariant.
    let wide = HierarchicalCts {
        workers: 4,
        ..HierarchicalCts::default()
    };
    let reference = cts.run(&design).unwrap();
    assert_eq!(resuming(&wide, &path).run(&design).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

/// A schema-1 journal as the retired text writer laid it out: the
/// fingerprinted meta record, then one JSONL record per level with the
/// nodes as `[x, y, cap, lo, hi, kind, idx]` arrays and each cluster's
/// tree as v1 tree text.
const SCHEMA1_JOURNAL: [&str; 2] = [
    r#"{"type":"sllt-ckpt","schema":1,"design":"ckptgrid","sinks":96,"fingerprint":"5d0f4c2b9a17e3e1"}"#,
    r#"{"type":"level","level":0,"report":{"type":"level","level":0,"nodes":96,"clusters":1,"workers":1,"partition_ms":1.5,"route_ms":2.25,"sizing_ms":0.5,"wirelength_um":412.5,"load_cap_ff":58.4,"driver_input_cap_ff":2.1,"driver_area_um2":3.5,"pads":0,"delay_spread_ps":4.75,"attempts":1,"downgrades":[]},"nodes":[[82.5,52.5,2.1,31.25,36.0,1,0]],"clusters":[{"cell":2,"pads":0,"x":82.5,"y":52.5,"members":[[0.0,0.0,1.0,0.0,0.0,0,0]],"tree":"sllt-tree v1\nsource 82.5 52.5\nnode 1 sink 0.0 0.0 0 135.0 cap 1.0 idx 0\n"}]}"#,
];

#[test]
fn schema1_text_journal_is_refused_cleanly() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("schema1");
    let mut text = String::new();
    for line in SCHEMA1_JOURNAL {
        text += &sllt_obs::journal::seal(&sllt_obs::json::parse(line).unwrap());
        text.push('\n');
    }
    std::fs::write(&path, &text).unwrap();
    for r in [
        Checkpoint::load(&path, &cts, &design).map(|_| ()),
        resuming(&cts, &path).run(&design).map(|_| ()),
    ] {
        match r {
            Err(CtsError::Checkpoint { detail }) => assert!(
                detail.contains("no longer read") && detail.contains("fresh"),
                "{detail}"
            ),
            other => panic!("expected a schema-1 refusal, got {other:?}"),
        }
    }
    // Meta alone, or a torn final level record, is refused the same way.
    let meta_len = text.find('\n').unwrap() + 1;
    for len in [meta_len, text.len() - 9] {
        std::fs::write(&path, &text.as_bytes()[..len]).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, &cts, &design),
            Err(CtsError::Checkpoint { .. })
        ));
    }
    // Starting fresh over the refused journal works.
    let reference = cts.run(&design).unwrap();
    assert_eq!(fresh(&cts, &path).run(&design).unwrap(), reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_interior_record_is_refused() {
    let design = grid_design();
    let cts = HierarchicalCts {
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("corrupt");
    fresh(&cts, &path).run(&design).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one byte inside the second record (not the final line).
    let cuts = boundaries(&bytes);
    let target = cuts[1] + 10;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match resuming(&cts, &path).run(&design) {
        Err(CtsError::Checkpoint { detail }) => {
            assert!(
                detail.contains("corrupt") || detail.contains("line"),
                "{detail}"
            )
        }
        other => panic!("interior corruption must refuse, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn downgraded_levels_checkpoint_and_resume_identically() {
    // A transient route fault forces the ladder to climb on level 0; the
    // downgrade's effects are embedded in the committed state, so resume
    // from any boundary must still match the recovered reference.
    let design = grid_design();
    let cts = HierarchicalCts {
        faults: FaultPlan::single(StageFault::once(
            FaultStage::Route,
            0,
            Some(0),
            FaultKind::Error,
        )),
        recovery: RecoveryPolicy::standard(),
        workers: 1,
        ..HierarchicalCts::default()
    };
    let path = journal_path("downgrade");
    let reference = fresh(&cts, &path).run(&design).unwrap();
    assert_eq!(reference, cts.run(&design).unwrap());
    let ckpt = Checkpoint::load(&path, &cts, &design).unwrap();
    assert_eq!(
        ckpt.reports()[0].attempts,
        2,
        "level 0 must have recovered once"
    );
    assert_eq!(ckpt.reports()[0].downgrades.len(), 1);

    let full = std::fs::read(&path).unwrap();
    for &cut in &boundaries(&full)[1..] {
        resume_truncated(&cts, &design, &full, cut, &path, &reference).unwrap();
    }
    std::fs::remove_file(&path).ok();
}

/// The acceptance sweep: s35932 and s38584, interrupted at every level
/// boundary, resumed at 1, 2, and 4 workers — every resume bit-identical
/// to the uninterrupted reference. Release-only (driven by
/// `scripts/ci.sh`); debug profiles skip it for runtime.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via scripts/ci.sh")]
fn iscas_resume_after_kill_is_bit_identical_at_1_2_4_workers() {
    for name in ["s35932", "s38584"] {
        let design = DesignSpec::by_name(name).unwrap().instantiate();
        let writer_cts = HierarchicalCts {
            workers: 1,
            ..HierarchicalCts::default()
        };
        let path = journal_path(&format!("iscas_{name}"));
        let reference = fresh(&writer_cts, &path).run(&design).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cuts = boundaries(&full);
        assert!(cuts.len() >= 3, "{name}: expected a multi-level journal");
        for workers in [1usize, 2, 4] {
            let cts = HierarchicalCts {
                workers,
                ..HierarchicalCts::default()
            };
            for &cut in &cuts[1..] {
                resume_truncated(&cts, &design, &full, cut, &path, &reference)
                    .unwrap_or_else(|e| panic!("{name} workers={workers} cut={cut}: {e}"));
            }
            // One mid-record cut per worker count.
            let mid = cuts[1] + (cuts[2] - cuts[1]) / 3;
            resume_truncated(&cts, &design, &full, mid, &path, &reference).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }
}
