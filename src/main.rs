//! `vulnstack` — command-line front end for the cross-layer vulnerability
//! platform.
//!
//! ```text
//! vulnstack list
//! vulnstack run      <workload> [--model A72]
//! vulnstack avf      <workload> [--model A72] [--structure RF] [--faults N] [--seed S]
//! vulnstack pvf      <workload> [--isa va64] [--mode wd|woi|wi] [--faults N] [--seed S]
//! vulnstack svf      <workload> [--faults N] [--seed S] [--breakdown] [--hardened]
//! vulnstack ace      <workload> [--model A72]
//! vulnstack analyze  <workload> [--isa va64]
//! vulnstack disasm   <workload> [--isa va64] [--limit N]
//! vulnstack harden   <workload>
//! ```

use std::path::Path;
use std::process::ExitCode;

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::report::{pct, pct2, Table};
use vulnstack_core::{JournalOpts, Quarantine, ResumeStats, RunOpts, Tally};
use vulnstack_gefin::{default_threads, Prepared};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::FaultModel;
use vulnstack_serve::cli::Flags;
use vulnstack_serve::service::{self, RunOutput};
use vulnstack_serve::spec::{journal_from_flags, Plan};
use vulnstack_serve::{CampaignSpec, Engine};
use vulnstack_workloads::{Workload, WorkloadId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage:");
    eprintln!("  vulnstack list");
    eprintln!("  vulnstack run     <workload> [--model A72]");
    eprintln!("  vulnstack avf     <workload> [--model A72] [--structure RF|LSQ|L1i|L1d|L2]");
    eprintln!("                    [--faults N] [--seed S] [--plan sampled|pruned|exhaustive]");
    eprintln!("                    [--at CYCLE] [--models M1,M2|all] [--json PATH]");
    eprintln!("                    [--journal PATH [--resume]]");
    eprintln!("                    (models: bit-flip byte-corrupt instr-skip stuck-at)");
    eprintln!("  vulnstack pvf     <workload> [--isa va32|va64] [--mode wd|woi|wi]");
    eprintln!("                    [--faults N] [--seed S] [--journal PATH [--resume]]");
    eprintln!("  vulnstack svf     <workload> [--faults N] [--seed S] [--breakdown] [--hardened]");
    eprintln!("                    [--journal PATH [--resume]]");
    eprintln!("  vulnstack ace     <workload> [--model A72]");
    eprintln!("  vulnstack analyze <workload> [--isa va32|va64] [--hardened] [--json PATH]");
    eprintln!("  vulnstack analyze attack <kernel|workload> [--isa va32|va64] [--hardened]");
    eprintln!("                    [--json PATH]");
    eprintln!("  vulnstack analyze prune-audit <workload> [--model A72] [--hardened]");
    eprintln!("                    [--faults N] [--seed S] [--json PATH]");
    eprintln!("  vulnstack disasm  <workload> [--isa va64] [--limit N]");
    eprintln!("  vulnstack harden  <workload>");
    eprintln!("  vulnstack ir      <workload> [--hardened]");
    eprintln!("  vulnstack trace   <workload> [--model A72] [--limit N]");
    eprintln!("  vulnstack trace   <workload> --structure RF|LSQ|L1i|L1d|L2");
    eprintln!("                    [--cycle C --bit B | --site K [--faults N] [--seed S]]");
    eprintln!("  vulnstack serve   --state DIR [--listen HOST:PORT|unix:PATH]");
    eprintln!("                    [--slots N] [--threads N]");
    eprintln!(
        "  vulnstack client  <addr> run <workload> [--engine avf|pvf|sweep|svf|svf-hardened]"
    );
    eprintln!("                    [--priority low|normal|high] [spec flags] [--json PATH]");
    eprintln!("  vulnstack client  <addr> list|shutdown | status|cancel --handle H");
}

/// The value flags and the switches subcommand `cmd` takes, each list
/// space-separated.
fn accepted_flags(cmd: &str) -> (&'static str, &'static str) {
    match cmd {
        "run" | "ace" => ("model", "hardened"),
        "avf" => (
            "model structure faults seed plan at models json journal",
            "hardened resume",
        ),
        "pvf" => ("isa mode faults seed journal", "hardened resume"),
        "svf" => ("faults seed journal", "breakdown hardened resume"),
        "analyze" | "analyze attack" => ("isa json", "hardened"),
        "analyze prune-audit" => ("model faults seed json", "hardened"),
        "disasm" => ("isa limit", "hardened"),
        "trace" => (
            "model limit structure cycle bit site faults seed",
            "hardened",
        ),
        "ir" => ("", "hardened"),
        _ => ("", ""),
    }
}

/// Parses the flags after subcommand `cmd`'s positional argument; a
/// flag `cmd` does not take is an error.
fn parse_opts(cmd: &str, rest: &[String]) -> Result<Flags, String> {
    let (values, switches) = accepted_flags(cmd);
    vulnstack_serve::cli::parse_flags(cmd, rest, values, switches)
}

/// `--isa`, default va64.
fn isa(opts: &Flags) -> Result<Isa, String> {
    opts.values.get("isa").map_or(Ok(Isa::Va64), |i| i.parse())
}

/// `--limit`, default 48.
fn limit(opts: &Flags) -> Result<usize, String> {
    match opts.values.get("limit") {
        None => Ok(48),
        Some(v) => v.parse().map_err(|_| format!("bad limit {v}")),
    }
}

/// Prints the resume accounting of a journaled campaign, and warns on
/// stderr about every quarantined site of any campaign (a poisoned site
/// drops out of the tally, so it must never go unmentioned). Each
/// quarantine is paired with the campaign it belongs to — the structure
/// of an AVF run, which covers several, or `PVF`/`SVF` — because site
/// indices restart in every campaign.
fn report_resume(journal: Option<&Path>, stats: &ResumeStats, quarantined: &[(&str, &Quarantine)]) {
    if let Some(path) = journal {
        println!(
            "journal {}: {} replayed, {} executed{}",
            path.display(),
            stats.replayed,
            stats.executed,
            if stats.truncated_bytes > 0 {
                format!(" ({} torn bytes truncated)", stats.truncated_bytes)
            } else {
                String::new()
            }
        );
    }
    for (campaign, q) in quarantined {
        eprintln!(
            "warning: {campaign} site {} quarantined after {} attempt(s): {}",
            q.index, q.attempts, q.message
        );
    }
}

/// `vulnstack avf|pvf|svf <workload>`: the flags become a
/// [`CampaignSpec`] that runs through [`service`] as a daemon campaign
/// does; this prints its results.
fn campaign(engine: Engine, name: &str, opts: &Flags) -> Result<(), String> {
    let spec = CampaignSpec::from_flags(engine, name, opts)?;
    let label = spec.label();
    let run = RunOpts {
        journal: journal_from_flags(opts)?.map(|(path, mode)| JournalOpts {
            path,
            mode,
            workload: &label,
        }),
        ..RunOpts::new(default_threads())
    };
    if engine == Engine::Avf {
        return avf(&spec, opts, &run);
    }
    if opts.switch("breakdown") {
        return svf_breakdown(&spec, &run);
    }
    let (what, tag, tally, quarantined, stats) = match service::run(&spec, &run)? {
        RunOutput::Pvf(o) => {
            let what = format!("PVF[{}] on {}", spec.mode, spec.isa);
            (what, "PVF", o.tally, o.quarantined, o.stats)
        }
        RunOutput::Svf(o) => ("SVF".to_string(), "SVF", o.tally, o.quarantined, o.stats),
        _ => unreachable!("{engine:?} is not a pvf or svf campaign"),
    };
    let quarantined: Vec<_> = quarantined.iter().map(|q| (tag, q)).collect();
    report_resume(run.journal.map(|j| j.path), &stats, &quarantined);
    let vf = tally.vf();
    println!(
        "{name} {what}: SDC {} Crash {} detected {} total {}",
        pct(vf.sdc),
        pct(vf.crash),
        pct(vf.detected),
        pct(vf.total())
    );
    Ok(())
}

/// An AVF table with first columns `name` and `count`.
fn avf_table(name: &str, count: &str) -> Table {
    Table::new(&[
        name, count, "masked", "SDC", "Crash", "detected", "AVF", "HVF",
    ])
}

/// An AVF table row: `name`, `count`, then `tally`'s effects, AVF and
/// `hvf`.
fn avf_row(name: &str, count: u64, tally: &Tally, hvf: f64) -> Vec<String> {
    let effects = [tally.masked, tally.sdc, tally.crash, tally.detected];
    let mut row = vec![name.to_string(), count.to_string()];
    row.extend(effects.iter().map(u64::to_string));
    row.extend([pct2(tally.vf().total()), pct(hvf)]);
    row
}

/// The structures `vulnstack avf` sweeps without `--structure`: every
/// structure one of `models` applies to.
fn swept_structures(models: &[FaultModel]) -> Vec<HwStructure> {
    HwStructure::ALL
        .into_iter()
        .filter(|&s| models.iter().any(|&m| s.admits(m)))
        .collect()
}

/// `vulnstack avf`: one spec per structure (without `--structure`,
/// [`swept_structures`]), all sharing one golden preparation.
fn avf(spec: &CampaignSpec, opts: &Flags, run: &RunOpts<'_>) -> Result<(), String> {
    let structures = if opts.values.contains_key("structure") {
        vec![spec.structure]
    } else if run.journal.is_some() {
        // A journal records exactly one campaign; one file cannot hold
        // the whole all-structures sweep.
        return Err("--journal requires --structure (one journal per campaign)".into());
    } else {
        swept_structures(&spec.models)
    };
    let prep = service::prepare(spec)?;
    let runs = structures
        .into_iter()
        .map(|structure| {
            let spec = CampaignSpec {
                structure,
                ..spec.clone()
            };
            service::run_avf(&spec, &prep, run)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut t = avf_table("structure", "bits");
    for r in runs.iter().map(|r| &r.result) {
        t.row(&avf_row(r.structure.name(), r.bits, &r.tally, r.hvf()));
    }
    println!("{}", t.render());
    // Multi-model or exhaustive campaigns add per-model tables.
    if spec.models != [FaultModel::BitFlip] || spec.plan == Plan::Exhaustive {
        for r in runs.iter().map(|r| &r.result) {
            let mut t = avf_table("model", "injections");
            for (m, tally, fpm) in &r.per_model {
                t.row(&avf_row(m.name(), tally.total(), tally, fpm.hvf()));
            }
            println!("{} per-model:", r.structure);
            println!("{}", t.render());
        }
    }
    if let Some(path) = opts.values.get("json") {
        let report = service::avf_report(&spec.label(), &runs);
        vulnstack_core::report::write_atomic(path, report.as_bytes()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    for r in &runs {
        if let Some(s) = &r.prune {
            println!(
                "{} pruning: {} sites = {} dead ({} static) + {} memoized ({} pilots) + \
                 {} singletons; {} early-terminated, {} proven hangs",
                r.result.structure,
                s.sites,
                s.dead_masked,
                s.static_dead,
                s.memo_hits,
                s.pilot_runs,
                s.singleton_runs,
                s.early_terminated,
                s.runaway_terminated
            );
        }
    }
    let mut quarantined = Vec::new();
    for r in runs.iter().map(|r| &r.result) {
        quarantined.extend(r.quarantined.iter().map(|q| (r.structure.name(), q)));
    }
    let stats = &runs.last().expect("at least one structure").result.stats;
    report_resume(run.journal.map(|j| j.path), stats, &quarantined);
    Ok(())
}

/// `vulnstack svf --breakdown`: the SVF tally split by the class of the
/// instruction each fault lands on. It re-runs every injection to read
/// its landing site, which journaled records do not carry.
fn svf_breakdown(spec: &CampaignSpec, run: &RunOpts<'_>) -> Result<(), String> {
    if run.journal.is_some() {
        return Err("--journal is not supported with --breakdown".into());
    }
    let w = service::workload(spec)?;
    let b = vulnstack_llfi::svf_breakdown(&w.module, &w.input, spec.faults, spec.seed);
    let mut t = Table::new(&["class", "masked", "SDC", "Crash", "detected", "SVF"]);
    for (class, tally) in &b {
        t.row(&[
            class.name().into(),
            tally.masked.to_string(),
            tally.sdc.to_string(),
            tally.crash.to_string(),
            tally.detected.to_string(),
            pct(tally.vf().total()),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn workload(name: &str, hardened: bool) -> Result<Workload, String> {
    let id = WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    vulnstack_ft::workload(id, hardened).map_err(|e| e.to_string())
}

/// Builds the attack-surface report for `target` — the literal string
/// `kernel` (boot stub + trap handler, the syscall path) or a workload
/// name — and prints/writes it per `--json`.
fn analyze_attack(target: &str, opts: &Flags) -> Result<(), String> {
    use vulnstack_analyze::{attack_surface, build_cfg_segments, TextSegment};
    let isa = isa(opts)?;
    let report = if target == "kernel" {
        let k = vulnstack_kernel::build_kernel(isa).map_err(|e| e.to_string())?;
        let segs = [
            TextSegment {
                name: "kboot".to_string(),
                start_word: vulnstack_kernel::memmap::KERNEL_BOOT / 4,
                words: k.boot,
            },
            TextSegment {
                name: "ktrap".to_string(),
                start_word: vulnstack_kernel::memmap::TRAP_VEC / 4,
                words: k.trap,
            },
        ];
        attack_surface(&build_cfg_segments(isa, &segs), "kernel")
    } else {
        let w = workload(target, opts.switch("hardened"))?;
        let compiled =
            compile(&w.module, isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
        attack_surface(&vulnstack_analyze::build_cfg(&compiled), target)
    };
    if let Some(path) = opts.values.get("json") {
        vulnstack_core::report::write_atomic(path, report.to_json().as_bytes())
            .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    println!("{}", report.summary());
    for line in report.finding_lines() {
        println!("{line}");
    }
    let mut t = Table::new(&[
        "function",
        "instrs",
        "reach:branch",
        "reach:addr",
        "reach:sysarg",
        "stuck:branch",
    ]);
    for s in &report.funcs {
        t.row(&[
            s.name.clone(),
            s.reachable_instrs.to_string(),
            s.reach_points[0].to_string(),
            s.reach_points[1].to_string(),
            s.reach_points[2].to_string(),
            s.stuck_reach_points[0].to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(reach counts are (instruction, register) points whose corruption reaches the sink)");
    Ok(())
}

/// Audits the static pruning oracle against the dynamic class table for
/// one workload: every statically-dead site must be dynamically dead.
fn analyze_prune_audit(target: &str, opts: &Flags) -> Result<(), String> {
    // The sites audited are those of the RF campaign `vulnstack avf`
    // runs with the same flags.
    let spec = CampaignSpec::from_flags(Engine::Avf, target, opts)?;
    let w = service::workload(&spec)?;
    let model = spec.model;
    let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
    let oracle = vulnstack_gefin::static_classifier(&prep.image);
    let nphys = prep.cfg.phys_regs as usize;
    let table = vulnstack_gefin::ClassTable::build(&prep, HwStructure::RegisterFile);
    let dynamic_live = table
        .rf_dynamic_live_fraction()
        .ok_or("RF table has no live fraction")?;
    let static_dead = oracle.static_dead_fraction(nphys);
    let compiled =
        compile(&w.module, prep.cfg.isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
    let rf_pvf = vulnstack_analyze::analyze(&compiled).pvf.rf_pvf;

    // Sample the lattice on real campaign sites.
    let sites =
        vulnstack_gefin::draw_sites(&prep, HwStructure::RegisterFile, spec.faults, spec.seed);
    let mut static_dead_sites = 0u64;
    let mut dynamic_dead_sites = 0u64;
    let mut violations = 0u64;
    for &(c, b) in &sites {
        let s_dead = oracle.rf_bit_dead(b, nphys);
        let d_dead = table.classify(c, b) == vulnstack_gefin::SiteClass::DeadMasked;
        static_dead_sites += s_dead as u64;
        dynamic_dead_sites += d_dead as u64;
        violations += (s_dead && !d_dead) as u64;
    }

    let dead_regs: Vec<String> = oracle.dead_regs().iter().map(|r| r.0.to_string()).collect();
    println!(
        "{target} on {model}: {} of {nphys} physical registers statically dead (arch regs: {})",
        dead_regs.len(),
        dead_regs.join(",")
    );
    println!(
        "lattice: static-dead {} <= dynamic-dead {} of {} sampled sites ({} violations)",
        static_dead_sites,
        dynamic_dead_sites,
        sites.len(),
        violations
    );
    println!(
        "fractions: static RF PVF {} >= dynamic live {} ; static dead {}",
        pct2(rf_pvf),
        pct2(dynamic_live),
        pct2(static_dead)
    );
    if let Some(path) = opts.values.get("json") {
        let json = format!(
            "{{\n  \"workload\": \"{target}\", \"model\": \"{model}\", \"nphys\": {nphys},\n  \
             \"static_dead_regs\": [{}],\n  \"static_dead_fraction\": {static_dead:.6},\n  \
             \"dynamic_rf_live_fraction\": {dynamic_live:.6},\n  \"static_rf_pvf\": {rf_pvf:.6},\n  \
             \"sampled_sites\": {},\n  \"static_dead_sites\": {static_dead_sites},\n  \
             \"dynamic_dead_sites\": {dynamic_dead_sites},\n  \"violations\": {violations}\n}}\n",
            dead_regs.join(", "),
            sites.len(),
        );
        vulnstack_core::report::write_atomic(path, json.as_bytes()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if violations > 0 {
        return Err(format!(
            "soundness violation: {violations} statically-dead sites were not dynamically dead"
        ));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map_or("help", String::as_str);
    let name = args.get(1).cloned().unwrap_or_default();
    // `analyze` sub-subcommands shift the target one slot right; they
    // must dispatch before the positional target reaches `parse_opts`.
    if cmd == "analyze" && matches!(name.as_str(), "attack" | "prune-audit") {
        let target = args
            .get(2)
            .cloned()
            .ok_or_else(|| format!("analyze {name} needs a target"))?;
        let opts = parse_opts(
            &format!("analyze {name}"),
            if args.len() > 3 { &args[3..] } else { &[] },
        )?;
        return if name == "attack" {
            analyze_attack(&target, &opts)
        } else {
            analyze_prune_audit(&target, &opts)
        };
    }
    // The serving subcommands own their argument grammar (extra
    // positionals, `unix:` addresses) — forward the raw slice.
    if cmd == "serve" {
        return vulnstack_serve::serve_main(&args[1..]);
    }
    if cmd == "client" {
        return vulnstack_serve::client_main(&args[1..]);
    }
    let rest = if args.len() > 2 { &args[2..] } else { &[] };
    let opts = parse_opts(cmd, rest)?;

    match cmd {
        "list" => {
            let mut t = Table::new(&["workload", "input bytes", "output bytes", "IR instrs"]);
            for id in WorkloadId::ALL {
                let w = id.build();
                t.row(&[
                    id.name().into(),
                    w.input.len().to_string(),
                    w.expected_output.len().to_string(),
                    w.module.num_instrs().to_string(),
                ]);
            }
            println!("{}", t.render());
            println!("core models: A9, A15 (va32); A57, A72 (va64)");
            Ok(())
        }
        "run" => {
            // The golden run `vulnstack avf` injects into.
            let spec = CampaignSpec::from_flags(Engine::Avf, &name, &opts)?;
            let (model, prep) = (spec.model, service::prepare(&spec)?);
            println!(
                "{name} on {model}: {} instructions, {} cycles (IPC {:.2}), output {} bytes OK",
                prep.golden.instrs,
                prep.golden.cycles,
                prep.golden.instrs as f64 / prep.golden.cycles as f64,
                prep.golden.output.len()
            );
            Ok(())
        }
        "avf" | "pvf" | "svf" => campaign(cmd.parse()?, &name, &opts),
        "ace" => {
            let spec = CampaignSpec::from_flags(Engine::Avf, &name, &opts)?;
            let (model, prep) = (spec.model, service::prepare(&spec)?);
            let ace = vulnstack_gefin::ace_analysis(&prep);
            println!(
                "{name} on {model}: ACE RF AVF ≈ {} | ACE LSQ AVF ≈ {} ({} cycles, analytical)",
                pct(ace.rf_avf),
                pct(ace.lsq_avf),
                ace.cycles
            );
            println!("note: ACE is a fast upper bound; compare with `vulnstack avf`.");
            Ok(())
        }
        "analyze" => {
            let w = workload(&name, opts.switch("hardened"))?;
            let isa = isa(&opts)?;
            let compiled =
                compile(&w.module, isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
            let sa = vulnstack_analyze::analyze(&compiled);
            if let Some(path) = opts.values.get("json") {
                vulnstack_core::report::write_atomic(path, sa.to_json().as_bytes())
                    .map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
            print!("{}", sa.summary());
            let mut t = Table::new(&["function", "instrs", "blocks", "max depth", "static PVF"]);
            for (f, (fname, fpvf, _)) in sa.cfg.funcs.iter().zip(sa.pvf.per_func.iter()) {
                let depth = f.blocks.iter().map(|b| b.loop_depth).max().unwrap_or(0);
                t.row(&[
                    fname.clone(),
                    f.instrs.len().to_string(),
                    f.blocks.len().to_string(),
                    depth.to_string(),
                    pct2(*fpvf),
                ]);
            }
            println!("{}", t.render());
            let mut regs: Vec<(usize, f64)> = sa.pvf.per_reg.iter().copied().enumerate().collect();
            regs.sort_by(|a, b| b.1.total_cmp(&a.1));
            let top: Vec<String> = regs
                .iter()
                .take(6)
                .map(|(r, p)| format!("r{r}={}", pct2(*p)))
                .collect();
            println!("hottest registers: {}", top.join(" "));
            if sa.lints.is_empty() {
                println!("lint: clean");
            } else {
                for l in &sa.lints {
                    println!("lint: {l}");
                }
            }
            println!("(static analysis only: zero instructions executed)");
            Ok(())
        }
        "disasm" => {
            let w = workload(&name, opts.switch("hardened"))?;
            let isa = isa(&opts)?;
            let limit = limit(&opts)?;
            let compiled =
                compile(&w.module, isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
            let bytes = compiled.text_bytes();
            let lines = vulnstack_isa::disasm::disasm_bytes(
                &bytes[..(limit * 4).min(bytes.len())],
                vulnstack_kernel::memmap::USER_TEXT as u64,
                isa,
            );
            for l in lines {
                println!("{l}");
            }
            println!("... ({} instructions total)", compiled.text.len());
            Ok(())
        }
        "trace" => {
            // The flags describe the avf campaign whose faults
            // `--structure` replays.
            let spec = CampaignSpec::from_flags(Engine::Avf, &name, &opts)?;
            let w = service::workload(&spec)?;
            let model = spec.model;
            let limit = limit(&opts)?;
            if opts.values.contains_key("structure") {
                // Fault-lifetime replay: inject one fault and print its
                // full event log (injection → consumption → squash /
                // repair → architectural corruption → outcome).
                let st = spec.structure;
                let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
                let (cycle, bit) = match opts.values.get("site") {
                    Some(k) => {
                        // Replay site K of the campaign `vulnstack avf`
                        // would run with the same --faults/--seed.
                        let k: usize = k.parse().map_err(|_| format!("bad site {k}"))?;
                        let sites = vulnstack_gefin::draw_sites(&prep, st, spec.faults, spec.seed);
                        *sites.get(k).ok_or_else(|| {
                            format!("site {k} out of range (campaign has {})", sites.len())
                        })?
                    }
                    None => {
                        let cycle = match opts.values.get("cycle") {
                            Some(v) => v.parse().map_err(|_| format!("bad cycle {v}"))?,
                            None => prep.golden.cycles / 2,
                        };
                        let bit = match opts.values.get("bit") {
                            Some(v) => v.parse().map_err(|_| format!("bad bit {v}"))?,
                            None => 0,
                        };
                        (cycle, bit)
                    }
                };
                let (rec, trace) = vulnstack_gefin::run_one_traced(
                    &prep,
                    st,
                    cycle,
                    bit,
                    vulnstack_gefin::InjectEngine::Checkpointed,
                    limit.max(16),
                );
                println!(
                    "{name} on {model}: inject {} bit {bit} @ cycle {cycle} -> {:?} (FPM {})",
                    st.name(),
                    rec.effect,
                    rec.fpm.map_or("none".into(), |f| f.to_string()),
                );
                let trace = trace.ok_or("no trace recorded")?;
                if trace.dropped() > 0 {
                    println!("({} early events dropped from the ring)", trace.dropped());
                }
                for ev in trace.events() {
                    println!("  cycle {:>10}: {}", ev.cycle, ev.kind);
                }
                let c = trace.counts();
                println!(
                    "consumed {} | repaired {} | squashed {} | tainted stores {}",
                    c.consumed, c.repaired, c.squashed, c.tainted_store_commits
                );
                return Ok(());
            }
            let cfg = model.config();
            let compiled =
                compile(&w.module, cfg.isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
            let image = vulnstack_kernel::SystemImage::build(&compiled, &w.input)
                .map_err(|e| e.to_string())?;
            let mut core = vulnstack_microarch::OooCore::new(&cfg, &image);
            core.enable_trace(limit);
            while core.trace().len() < limit && !core.ended() && core.cycle() < 10_000_000 {
                core.step_cycle();
            }
            for (pc, instr) in core.trace() {
                println!("{pc:#010x}: {instr}");
            }
            Ok(())
        }
        "ir" => {
            let w = workload(&name, opts.switch("hardened"))?;
            println!("{}", w.module);
            Ok(())
        }
        "harden" => {
            let base = workload(&name, false)?;
            let hard = workload(&name, true)?;
            let bi = vulnstack_vir::interp::Interpreter::new(&base.module)
                .with_input(base.input.clone())
                .run()
                .map_err(|e| e.to_string())?;
            let hi = vulnstack_vir::interp::Interpreter::new(&hard.module)
                .with_input(hard.input.clone())
                .run()
                .map_err(|e| e.to_string())?;
            println!(
                "{name}: static {} -> {} IR instrs; dynamic {} -> {} ({:.2}x); output identical: {}",
                base.module.num_instrs(),
                hard.module.num_instrs(),
                bi.dyn_instrs,
                hi.dyn_instrs,
                hi.dyn_instrs as f64 / bi.dyn_instrs as f64,
                bi.output == hi.output
            );
            Ok(())
        }
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnstack_core::ResumeMode;
    use vulnstack_gefin::InjectionPlan;
    use vulnstack_microarch::CoreModel;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The spec subcommand `cmd` builds from `args` on qsort.
    fn spec(cmd: &str, args: &[&str]) -> Result<CampaignSpec, String> {
        CampaignSpec::from_flags(cmd.parse()?, "qsort", &parse_opts(cmd, &sv(args))?)
    }

    #[test]
    fn parses_flags_and_switches() {
        let o = parse_opts(
            "avf",
            &sv(&["--model", "A9", "--faults", "64", "--hardened"]),
        )
        .unwrap();
        let s = CampaignSpec::from_flags(Engine::Avf, "qsort", &o).unwrap();
        assert_eq!(s.model, CoreModel::A9);
        assert_eq!(s.faults, 64);
        assert!(s.hardened);
        assert_eq!(s.label(), "qsort+ft");
        assert!(!o.switch("resume"));
        let o = parse_opts("svf", &sv(&["--faults", "0", "--breakdown"])).unwrap();
        let s = CampaignSpec::from_flags(Engine::Svf, "qsort", &o).unwrap();
        assert_eq!(s.faults, 0);
        assert!(o.switch("breakdown"));
        assert!(!s.hardened);
    }

    #[test]
    fn defaults_are_sensible() {
        let s = spec("avf", &[]).unwrap();
        assert_eq!(s.model, CoreModel::A72);
        assert_eq!(s.isa, Isa::Va64);
        assert_eq!(s.seed, 2021);
        assert_eq!(s.mode, vulnstack_gefin::PvfMode::Wd);
        assert_eq!(s.plan, Plan::Sampled);
        assert_eq!(isa(&parse_opts("disasm", &[]).unwrap()), Ok(Isa::Va64));
    }

    #[test]
    fn rejects_missing_values_and_junk() {
        assert!(parse_opts("avf", &sv(&["--model"])).is_err());
        assert!(parse_opts("avf", &sv(&["stray"])).is_err());
        // A misspelled flag, or one another subcommand takes, fails
        // naming the subcommand and the flag.
        for (cmd, args, err) in [
            ("svf", &["--fault", "3"][..], "svf: unknown flag --fault"),
            ("avf", &["--breakdown"][..], "avf: unknown flag --breakdown"),
            ("pvf", &["--model", "A9"][..], "pvf: unknown flag --model"),
            (
                "list",
                &["--faults", "3"][..],
                "list: unknown flag --faults",
            ),
            (
                "analyze attack",
                &["--limit", "3"][..],
                "analyze attack: unknown flag --limit",
            ),
        ] {
            assert_eq!(parse_opts(cmd, &sv(args)).err().as_deref(), Some(err));
        }
        // Bad values fail with the same message the daemon gives.
        for (cmd, args, err) in [
            ("avf", &["--model", "Z80"][..], "unknown model Z80"),
            ("avf", &["--structure", "TLB"][..], "unknown structure TLB"),
            (
                "pvf",
                &["--isa", "mips"][..],
                "unknown isa mips (expected va32|va64)",
            ),
            (
                "pvf",
                &["--mode", "xx"][..],
                "unknown mode xx (expected wd|woi|wi)",
            ),
            ("svf", &["--faults", "x"][..], "bad --faults x"),
            ("svf", &["--seed", "-1"][..], "bad --seed -1"),
        ] {
            assert_eq!(spec(cmd, args).err().as_deref(), Some(err), "{args:?}");
        }
        assert!(isa(&parse_opts("disasm", &sv(&["--isa", "mips"])).unwrap()).is_err());
    }

    #[test]
    fn plan_flag_parses_and_rejects_junk() {
        let plan = |args: &[&str]| {
            let args = [&["--faults", "10", "--seed", "7"][..], args].concat();
            spec("avf", &args).map(|s| s.injection_plan(100))
        };
        assert_eq!(
            plan(&["--plan", "pruned"]),
            Ok(InjectionPlan::Pruned { n: 10, seed: 7 })
        );
        assert_eq!(
            plan(&["--plan", "sampled"]),
            Ok(InjectionPlan::Sampled { n: 10, seed: 7 })
        );
        assert_eq!(
            plan(&["--plan", "psychic"]),
            Err("unknown plan psychic (expected sampled|pruned|exhaustive)".to_string())
        );
        // Without the flag the plan is sampled.
        assert_eq!(plan(&[]), Ok(InjectionPlan::Sampled { n: 10, seed: 7 }));
    }

    #[test]
    fn exhaustive_plan_takes_an_injection_cycle() {
        let plan = |args: &[&str]| spec("avf", args).map(|s| s.injection_plan(100));
        // Default: mid-run.
        assert_eq!(
            plan(&["--plan", "exhaustive"]),
            Ok(InjectionPlan::Exhaustive { cycle: 100 })
        );
        // Explicit --at pins the cycle.
        assert_eq!(
            plan(&["--plan", "exhaustive", "--at", "42"]),
            Ok(InjectionPlan::Exhaustive { cycle: 42 })
        );
        // --at is meaningless for sampled/pruned plans.
        assert_eq!(
            plan(&["--plan", "pruned", "--at", "42"]),
            Err("--at only applies to --plan exhaustive".to_string())
        );
        assert!(plan(&["--plan", "exhaustive", "--at", "soon"]).is_err());
    }

    #[test]
    fn models_flag_parses_lists_and_rejects_junk() {
        let models = |args: &[&str]| spec("avf", args).map(|s| s.models);
        assert_eq!(models(&[]), Ok(vec![FaultModel::BitFlip]));
        assert_eq!(models(&["--models", "all"]), Ok(FaultModel::ALL.to_vec()));
        assert_eq!(
            models(&["--models", "stuck-at, bit-flip"]),
            Ok(vec![FaultModel::StuckAt, FaultModel::BitFlip])
        );
        assert!(models(&["--models", "gamma-ray"]).is_err());
    }

    #[test]
    fn journal_flags_parse_and_validate() {
        let o = parse_opts("avf", &sv(&["--journal", "j.log", "--resume"])).unwrap();
        assert_eq!(
            journal_from_flags(&o),
            Ok(Some((Path::new("j.log"), ResumeMode::ResumeRequired)))
        );

        let o = parse_opts("svf", &sv(&["--journal", "j.log"])).unwrap();
        assert_eq!(
            journal_from_flags(&o),
            Ok(Some((Path::new("j.log"), ResumeMode::ResumeOrStart)))
        );

        let o = parse_opts("avf", &sv(&["--resume"])).unwrap();
        assert!(
            journal_from_flags(&o).is_err(),
            "--resume alone must be rejected"
        );
        assert_eq!(
            journal_from_flags(&parse_opts("avf", &[]).unwrap()),
            Ok(None)
        );

        // One journal holds one campaign, and the breakdown has none;
        // both refusals come before any golden run.
        for (cmd, args, err) in [
            (
                "avf",
                &["--journal", "j.log"][..],
                "--journal requires --structure (one journal per campaign)",
            ),
            (
                "svf",
                &["--journal", "j.log", "--breakdown"][..],
                "--journal is not supported with --breakdown",
            ),
        ] {
            let o = parse_opts(cmd, &sv(args)).unwrap();
            assert_eq!(
                campaign(cmd.parse().unwrap(), "crc32", &o),
                Err(err.to_string())
            );
        }
    }

    #[test]
    fn avf_sweeps_only_the_structures_a_model_applies_to() {
        use FaultModel::{BitFlip, ByteCorrupt, InstrSkip, StuckAt};
        use HwStructure::{Lsq, RegisterFile};
        for (models, want) in [
            (&[StuckAt][..], &[RegisterFile][..]),
            (&[InstrSkip][..], &[RegisterFile][..]),
            (&[ByteCorrupt][..], &[RegisterFile, Lsq][..]),
            (
                &[StuckAt, InstrSkip, ByteCorrupt][..],
                &[RegisterFile, Lsq][..],
            ),
            (&[StuckAt, BitFlip][..], &HwStructure::ALL[..]),
        ] {
            assert_eq!(swept_structures(models), want, "{models:?}");
        }
        // Without --structure, a stuck-at campaign runs RF and skips the
        // structures stuck-at does not apply to.
        let o = parse_opts("avf", &sv(&["--models", "stuck-at", "--faults", "2"])).unwrap();
        assert_eq!(campaign(Engine::Avf, "crc32", &o), Ok(()));
    }

    #[test]
    fn workload_lookup_and_hardening() {
        assert!(workload("sha", false).is_ok());
        assert!(workload("nope", false).is_err());
        let h = workload("crc32", true).unwrap();
        let b = workload("crc32", false).unwrap();
        assert!(h.module.num_instrs() > 2 * b.module.num_instrs());
    }
}
