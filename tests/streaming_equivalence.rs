//! Streaming-equivalence: the bounded-memory sink pipeline must be an
//! *observationally invisible* part of every campaign. For every engine
//! family the campaign's tallies — and, via the stream's tee, its full
//! record stream — must be bit-identical to running each site on its own
//! (or, for PVF, whose per-site runner is private, to the same campaign
//! at another thread count and channel bound), through the tightest
//! possible channel (capacity 1, maximum backpressure) and through
//! panics mid-stream. `tests/pipeline_digests.rs` pins the records
//! themselves.

mod common;

use std::sync::OnceLock;

use common::{avf_with, decoded, reference, run_opts, svf_reference, tmp, Collector};
use vulnstack_core::{Campaign, Fingerprint, JournalOpts, ResumeMode, RunOpts, StreamOpts};
use vulnstack_gefin::{
    decode_record, draw_sites, encode_record, per_model_tallies, pvf_campaign, run_one_model,
    temporal_campaign, FuncPrepared, InjectionPlan, ModelSite, Prepared, PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_llfi::svf_campaign;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

const N: usize = 24;
const SEED: u64 = 11;
const STRUCTURE: HwStructure = HwStructure::RegisterFile;

fn prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        let w = WorkloadId::Crc32.build();
        Prepared::new(&w, CoreModel::A72).expect("prepare crc32/A72")
    })
}

fn crc32() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| WorkloadId::Crc32.build())
}

const SAMPLED: InjectionPlan = InjectionPlan::Sampled { n: N, seed: SEED };
const BIT_FLIP: &[FaultModel] = &[FaultModel::BitFlip];

#[test]
fn streamed_avf_records_are_bit_identical_to_legacy_collect() {
    let prep = prep();
    let baseline = reference(prep, STRUCTURE, &SAMPLED, BIT_FLIP);
    // Channel capacities 1 (every push blocks: maximum backpressure) and
    // a comfortable bound must both reproduce the individual runs.
    for cap in [1usize, 64] {
        let (out, stats, records) =
            avf_with(prep, STRUCTURE, &SAMPLED, BIT_FLIP, &run_opts(4, cap)).unwrap();
        assert!(stats.is_none(), "cap={cap}: sampled plans do not prune");
        assert_eq!(out.stats.executed, N, "cap={cap}");
        assert_eq!(
            records, baseline,
            "cap={cap}: streamed records must be bit-identical to individual runs"
        );
        // The incremental per-model accumulation must agree with a
        // whole-vector pass over the same records.
        assert_eq!(out.per_model, per_model_tallies(&baseline));
    }
}

#[test]
fn streamed_exhaustive_model_sweep_matches_the_models_engine() {
    let prep = prep();
    let cycle = prep.golden.cycles / 2;
    // Byte-corrupt plus the single-site instr-skip: the full (site,
    // model) product small enough for a debug-build test.
    let models = [FaultModel::ByteCorrupt, FaultModel::InstrSkip];
    let plan = InjectionPlan::Exhaustive { cycle };
    // Through a small channel at 4 threads, and through a capacity-1
    // channel on one thread: the same records, the same pruning verdicts.
    let (out, stats, streamed) =
        avf_with(prep, STRUCTURE, &plan, &models, &run_opts(4, 8)).unwrap();
    let (serial, serial_stats, records) =
        avf_with(prep, STRUCTURE, &plan, &models, &run_opts(1, 1)).unwrap();
    let stats = stats.expect("exhaustive plans execute through the pruner");
    let serial_stats = serial_stats.expect("exhaustive plans execute through the pruner");
    assert_eq!(stats.sites, serial_stats.sites);
    assert_eq!(stats.dead_masked, serial_stats.dead_masked);
    assert_eq!(out.tally, serial.tally);
    assert_eq!(out.per_model, per_model_tallies(&records));
    assert_eq!(
        streamed, records,
        "exhaustive streamed records must be bit-identical"
    );
    // Every 64th pair against its own individual injection.
    for (i, rec) in records.iter().enumerate().step_by(64) {
        let site = ModelSite {
            cycle: rec.cycle,
            bit: rec.bit,
            model: rec.model,
        };
        assert_eq!(&run_one_model(prep, STRUCTURE, site), rec, "pair {i}");
    }
}

#[test]
fn streamed_temporal_sweep_matches_the_legacy_profile() {
    let prep = prep();
    let (windows, per_window) = (4usize, 8usize);
    let sweep = |seen: &Collector| {
        let tee = seen.tee();
        let opts = RunOpts {
            stream: StreamOpts {
                tee: Some(&tee),
                ..run_opts(4, 1).stream
            },
            ..run_opts(4, 1)
        };
        temporal_campaign(prep, STRUCTURE, windows, per_window, SEED, &opts).unwrap()
    };
    let baseline_records = Collector::default();
    let baseline = sweep(&baseline_records);
    // The reference profile: every record equals its individual run, and
    // folding them by window (site index over `per_window`) gives the
    // streamed per-window tallies.
    let records = decoded(&baseline_records);
    assert_eq!(records.len(), windows * per_window);
    let mut tallies = vec![vulnstack_core::Tally::default(); windows];
    for (i, rec) in records.iter().enumerate() {
        let site = ModelSite {
            cycle: rec.cycle,
            bit: rec.bit,
            model: rec.model,
        };
        assert_eq!(&run_one_model(prep, STRUCTURE, site), rec, "site {i}");
        assert!(
            (baseline.profile.bounds[i / per_window]..baseline.profile.bounds[i / per_window + 1])
                .contains(&rec.cycle),
            "site {i} lies in its window"
        );
        tallies[i / per_window].add(rec.effect);
    }
    assert_eq!(baseline.profile.tallies, tallies);
    // A second run streams the same records and profile.
    let seen = Collector::default();
    let out = sweep(&seen);
    assert_eq!(out.profile.tallies, baseline.profile.tallies);
    assert_eq!(out.profile.fpms, baseline.profile.fpms);
    assert_eq!(out.profile.bounds, baseline.profile.bounds);
    assert_eq!(decoded(&seen), records);
    assert_eq!(out.stats.executed, windows * per_window);
}

#[test]
fn streamed_pvf_and_svf_match_their_legacy_campaigns() {
    let w = crc32();
    let fprep = FuncPrepared::new(w, Isa::Va64).expect("prepare crc32/va64");
    for mode in [PvfMode::Wd, PvfMode::Woi, PvfMode::Wi] {
        // PVF's per-site runner is private: compare one worker behind a
        // capacity-1 channel against four workers behind the default
        // bound, record by record.
        let run = |threads, channel_cap| {
            let seen = Collector::default();
            let tee = seen.tee();
            let opts = RunOpts {
                stream: StreamOpts {
                    channel_cap,
                    tee: Some(&tee),
                    ..StreamOpts::from_env()
                },
                ..RunOpts::new(threads)
            };
            let out = pvf_campaign(&fprep, mode, N, SEED, &opts).unwrap();
            (out, seen.sorted())
        };
        let (serial, serial_records) = run(1, 1);
        let (out, records) = run(4, 64);
        assert_eq!(out.tally, serial.tally, "mode={mode:?}");
        assert_eq!(records, serial_records, "mode={mode:?}");
        assert_eq!(out.stats.executed, N);
    }
    let baseline = svf_reference(w, N, SEED);
    // Capacity 1 exercises backpressure on the software engine too.
    let seen = Collector::default();
    let tee = seen.tee();
    let opts = RunOpts {
        stream: StreamOpts {
            channel_cap: 1,
            tee: Some(&tee),
            ..StreamOpts::from_env()
        },
        ..RunOpts::new(4)
    };
    let out = svf_campaign(&w.module, &w.input, &w.expected_output, N, SEED, &opts).unwrap();
    assert_eq!(out.tally, baseline);
    let records = seen.sorted();
    assert_eq!(records.len(), N);
    // Every streamed payload is a decodable effect name.
    for (_, p) in &records {
        assert!(
            vulnstack_core::FaultEffect::from_name(p).is_some(),
            "undecodable payload {p:?}"
        );
    }
}

/// A worker panic mid-stream degrades to a durable quarantine record —
/// the stream keeps flowing, every healthy site still lands, and a
/// resume replays the quarantine instead of re-running the poison.
#[test]
fn a_panic_mid_stream_quarantines_without_stalling_the_pipeline() {
    let prep = prep();
    let sites = draw_sites(prep, STRUCTURE, N, SEED);
    let order: Vec<usize> = (0..sites.len()).collect();
    let baseline = reference(prep, STRUCTURE, &SAMPLED, BIT_FLIP);
    let path = tmp("stream-poison.journal");
    let _ = std::fs::remove_file(&path);
    let fingerprint = Fingerprint {
        engine: "test-streamed-poison".to_string(),
        workload: "crc32".to_string(),
        config: "A72".to_string(),
        structure: STRUCTURE.name().to_string(),
        seed: SEED,
        samples: N as u64,
        params: String::new(),
        version: 1,
    };
    let campaign = Campaign {
        items: &sites,
        order: &order,
        fingerprint,
        meta: Vec::new(),
    };
    // Capacity 1: the panic happens while other workers are blocked on
    // the full channel, the worst interleaving for a stalled sink.
    let journaled = |mode| RunOpts {
        journal: Some(JournalOpts {
            path: &path,
            mode,
            workload: "crc32",
        }),
        ..run_opts(4, 1)
    };
    let poisoned = 3usize;
    let mut folded = 0usize;
    let out = campaign
        .run(
            &journaled(ResumeMode::ResumeOrStart),
            |i, &(cycle, bit)| {
                assert!(i != poisoned, "injector blew up on site {i}");
                encode_record(&vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit))
            },
            |p| decode_record(p).is_some(),
            |_, _| folded += 1,
        )
        .unwrap();
    assert_eq!(folded, N - 1, "every healthy record reaches the fold");
    assert_eq!(out.quarantined.len(), 1);
    assert_eq!(out.quarantined[0].index, poisoned);
    assert_eq!(out.quarantined[0].attempts, 3, "1 try + 2 retries");
    assert!(out.quarantined[0].message.contains("blew up on site 3"));
    assert_eq!(out.stats.executed, N);

    // Resume: the quarantine replays durably, the healthy records fold
    // again bit-identically (checked against the individual runs).
    let mut replayed: Vec<(u64, String)> = Vec::new();
    let resumed = campaign
        .run(
            &journaled(ResumeMode::ResumeRequired),
            |_, &(cycle, bit)| {
                encode_record(&vulnstack_gefin::avf::run_one(prep, STRUCTURE, cycle, bit))
            },
            |p| decode_record(p).is_some(),
            |i, p| replayed.push((i, p.to_string())),
        )
        .unwrap();
    assert_eq!(resumed.stats.executed, 0);
    assert_eq!(resumed.stats.replayed, N);
    assert_eq!(resumed.stats.quarantined, 1);
    replayed.sort();
    let want: Vec<(u64, String)> = baseline
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != poisoned)
        .map(|(i, r)| (i as u64, encode_record(r)))
        .collect();
    assert_eq!(replayed, want);
    let _ = std::fs::remove_file(&path);
}
