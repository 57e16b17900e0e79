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

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use vulnstack_compiler::{compile, CompileOpts};
use vulnstack_core::report::{pct, pct2, Table};
use vulnstack_core::{JournalOpts, Quarantine, ResumeMode, ResumeStats, RunPolicy, StreamOpts};
use vulnstack_gefin::{
    avf_campaign, default_threads, pvf_campaign, FuncPrepared, InjectionPlan, Prepared, PruneStats,
    PvfMode,
};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
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

struct Opts {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

fn parse_opts(rest: &[String]) -> Result<Opts, String> {
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if let Some(name) = a.strip_prefix("--") {
            // Value-less switches.
            if matches!(name, "breakdown" | "hardened" | "resume") {
                switches.push(name.to_string());
                i += 1;
                continue;
            }
            let v = rest
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
            i += 2;
        } else {
            return Err(format!("unexpected argument {a}"));
        }
    }
    Ok(Opts { flags, switches })
}

impl Opts {
    fn model(&self) -> Result<CoreModel, String> {
        let name = self.flags.get("model").map_or("A72", String::as_str);
        CoreModel::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown model {name}"))
    }

    fn isa(&self) -> Result<Isa, String> {
        match self.flags.get("isa").map_or("va64", String::as_str) {
            "va32" => Ok(Isa::Va32),
            "va64" => Ok(Isa::Va64),
            other => Err(format!("unknown isa {other}")),
        }
    }

    fn faults(&self) -> Result<usize, String> {
        match self.flags.get("faults") {
            None => Ok(vulnstack_gefin::default_faults(150)),
            Some(v) => v.parse().map_err(|_| format!("bad fault count {v}")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.flags.get("seed") {
            None => Ok(2021),
            Some(v) => v.parse().map_err(|_| format!("bad seed {v}")),
        }
    }

    fn limit(&self) -> Result<usize, String> {
        match self.flags.get("limit") {
            None => Ok(48),
            Some(v) => v.parse().map_err(|_| format!("bad limit {v}")),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The injection plan. `--plan sampled|pruned|exhaustive` wins;
    /// without the flag the `VULNSTACK_PRUNE` environment knob decides
    /// between sampled and pruned (default: sampled). `--plan
    /// exhaustive` enumerates every (site, model) pair at one fixed
    /// cycle (`--at`, default mid-run) and always executes through the
    /// pruner.
    fn plan(&self, faults: usize, seed: u64, mid_cycle: u64) -> Result<InjectionPlan, String> {
        let at = match self.flags.get("at") {
            None => None,
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad injection cycle {v}"))?,
            ),
        };
        let plan = match self.flags.get("plan").map(String::as_str) {
            None if vulnstack_gefin::prune_default() => InjectionPlan::Pruned { n: faults, seed },
            None => InjectionPlan::Sampled { n: faults, seed },
            Some("sampled") => InjectionPlan::Sampled { n: faults, seed },
            Some("pruned") => InjectionPlan::Pruned { n: faults, seed },
            Some("exhaustive") => InjectionPlan::Exhaustive {
                cycle: at.unwrap_or(mid_cycle),
            },
            Some(other) => {
                return Err(format!(
                    "unknown plan {other} (expected sampled|pruned|exhaustive)"
                ))
            }
        };
        if at.is_some() && !matches!(plan, InjectionPlan::Exhaustive { .. }) {
            return Err("--at only applies to --plan exhaustive".to_string());
        }
        Ok(plan)
    }

    /// The fault-model set from `--models` (comma-separated names, or
    /// `all`); defaults to the classic single-bit transient flip.
    fn models(&self) -> Result<Vec<FaultModel>, String> {
        match self.flags.get("models").map(String::as_str) {
            None => Ok(vec![FaultModel::BitFlip]),
            Some("all") => Ok(FaultModel::ALL.to_vec()),
            Some(list) => list
                .split(',')
                .map(|n| {
                    FaultModel::from_name(n.trim()).ok_or_else(|| {
                        format!(
                            "unknown fault model {n} (expected \
                             bit-flip|byte-corrupt|instr-skip|stuck-at, or all)"
                        )
                    })
                })
                .collect(),
        }
    }

    /// Journaling options from `--journal PATH` / `--resume`: `--journal`
    /// alone resumes an existing journal or starts one; adding `--resume`
    /// insists the journal already exists (a typo'd path fails loudly
    /// instead of silently restarting the campaign from scratch).
    fn journal<'a>(&'a self, workload: &'a str) -> Result<Option<JournalOpts<'a>>, String> {
        match self.flags.get("journal") {
            None if self.switch("resume") => Err("--resume requires --journal PATH".to_string()),
            None => Ok(None),
            Some(p) => Ok(Some(JournalOpts {
                path: Path::new(p),
                mode: if self.switch("resume") {
                    ResumeMode::ResumeRequired
                } else {
                    ResumeMode::ResumeOrStart
                },
                policy: RunPolicy::default(),
                workload,
            })),
        }
    }
}

/// Prints the resume accounting of a journaled campaign, and warns on
/// stderr about every quarantined site of any campaign (a poisoned site
/// drops out of the tally, so it must never go unmentioned). Each
/// quarantine is paired with the campaign it belongs to — the structure
/// of an AVF run, which covers several, or `PVF`/`SVF` — because site
/// indices restart in every campaign.
fn report_resume(
    journal: Option<&JournalOpts<'_>>,
    stats: &ResumeStats,
    quarantined: &[(&str, Quarantine)],
) {
    if let Some(j) = journal {
        println!(
            "journal {}: {} replayed, {} executed{}",
            j.path.display(),
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

// The per-structure/per-model JSON report builder lives in
// `vulnstack_gefin::report` so the serve daemon and this CLI produce
// byte-identical files from the same campaign results.
use vulnstack_gefin::{avf_report_json, ModelReport};

fn workload(name: &str, hardened: bool) -> Result<Workload, String> {
    let id = WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let base = id.build();
    if hardened {
        let module = vulnstack_ft::harden(&base.module).map_err(|e| e.to_string())?;
        Ok(Workload { module, ..base })
    } else {
        Ok(base)
    }
}

/// Builds the attack-surface report for `target` — the literal string
/// `kernel` (boot stub + trap handler, the syscall path) or a workload
/// name — and prints/writes it per `--json`.
fn analyze_attack(target: &str, opts: &Opts) -> Result<(), String> {
    use vulnstack_analyze::{attack_surface, build_cfg_segments, TextSegment};
    let isa = opts.isa()?;
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
    if let Some(path) = opts.flags.get("json") {
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
fn analyze_prune_audit(target: &str, opts: &Opts) -> Result<(), String> {
    let w = workload(target, opts.switch("hardened"))?;
    let model = opts.model()?;
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
    let sites = vulnstack_gefin::draw_sites(
        &prep,
        HwStructure::RegisterFile,
        opts.faults()?,
        opts.seed()?,
    );
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
    if let Some(path) = opts.flags.get("json") {
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
        let opts = parse_opts(if args.len() > 3 { &args[3..] } else { &[] })?;
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
    let opts = parse_opts(rest)?;

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
            let w = workload(&name, opts.switch("hardened"))?;
            let model = opts.model()?;
            let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
            println!(
                "{name} on {model}: {} instructions, {} cycles (IPC {:.2}), output {} bytes OK",
                prep.golden.instrs,
                prep.golden.cycles,
                prep.golden.instrs as f64 / prep.golden.cycles as f64,
                prep.golden.output.len()
            );
            Ok(())
        }
        "avf" => {
            let hardened = opts.switch("hardened");
            let w = workload(&name, hardened)?;
            let label = if hardened {
                format!("{name}+ft")
            } else {
                name.clone()
            };
            let model = opts.model()?;
            let faults = opts.faults()?;
            let seed = opts.seed()?;
            let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
            let structures: Vec<HwStructure> = match opts.flags.get("structure") {
                None => HwStructure::ALL.to_vec(),
                Some(s) => vec![HwStructure::ALL
                    .into_iter()
                    .find(|x| x.name().eq_ignore_ascii_case(s))
                    .ok_or_else(|| format!("unknown structure {s}"))?],
            };
            let journal = opts.journal(&label)?;
            if journal.is_some() && !opts.flags.contains_key("structure") {
                // A journal records exactly one campaign; one file cannot
                // hold the whole all-structures sweep.
                return Err("--journal requires --structure (one journal per campaign)".into());
            }
            let mut t = Table::new(&[
                "structure",
                "bits",
                "masked",
                "SDC",
                "Crash",
                "detected",
                "AVF",
                "HVF",
            ]);
            let models = opts.models()?;
            let plan = opts.plan(faults, seed, prep.golden.cycles / 2)?;
            // Single-model sampled/pruned campaigns print the single-table
            // report; multi-model or exhaustive campaigns add per-model
            // tables. Either way every campaign streams through the
            // bounded sink (records never collect in RAM).
            let single_table = models == [FaultModel::BitFlip]
                && !matches!(plan, InjectionPlan::Exhaustive { .. });
            let mut stats = ResumeStats::default();
            let mut quarantined: Vec<(&str, Quarantine)> = Vec::new();
            let mut prune_report: Vec<(&'static str, PruneStats)> = Vec::new();
            let mut model_report: Vec<ModelReport> = Vec::new();
            for st in structures {
                let (r, prune) = avf_campaign(
                    &prep,
                    st,
                    &plan,
                    &models,
                    default_threads(),
                    journal.as_ref(),
                    StreamOpts::from_env(),
                    None,
                )
                .map_err(|e| e.to_string())?;
                if let Some(s) = prune {
                    prune_report.push((st.name(), s));
                }
                t.row(&[
                    st.name().into(),
                    r.bits.to_string(),
                    r.tally.masked.to_string(),
                    r.tally.sdc.to_string(),
                    r.tally.crash.to_string(),
                    r.tally.detected.to_string(),
                    pct2(r.avf().total()),
                    pct(r.hvf()),
                ]);
                stats = r.stats;
                quarantined.extend(r.quarantined.into_iter().map(|q| (st.name(), q)));
                model_report.push((st.name(), r.per_model));
            }
            println!("{}", t.render());
            if !single_table {
                for (st, tallies) in &model_report {
                    let mut mt = Table::new(&[
                        "model",
                        "injections",
                        "masked",
                        "SDC",
                        "Crash",
                        "detected",
                        "AVF",
                        "HVF",
                    ]);
                    for (m, tally, fpm) in tallies {
                        mt.row(&[
                            m.name().into(),
                            tally.total().to_string(),
                            tally.masked.to_string(),
                            tally.sdc.to_string(),
                            tally.crash.to_string(),
                            tally.detected.to_string(),
                            pct2(tally.vf().total()),
                            pct(fpm.hvf()),
                        ]);
                    }
                    println!("{st} per-model:");
                    println!("{}", mt.render());
                }
            }
            if let Some(path) = opts.flags.get("json") {
                vulnstack_core::report::write_atomic(
                    path,
                    avf_report_json(&label, &plan, &model_report).as_bytes(),
                )
                .map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
            for (st, s) in &prune_report {
                println!(
                    "{st} pruning: {} sites = {} dead ({} static) + {} memoized ({} pilots) + \
                     {} singletons; {} early-terminated, {} proven hangs",
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
            report_resume(journal.as_ref(), &stats, &quarantined);
            Ok(())
        }
        "pvf" => {
            let hardened = opts.switch("hardened");
            let w = workload(&name, hardened)?;
            let label = if hardened {
                format!("{name}+ft")
            } else {
                name.clone()
            };
            let isa = opts.isa()?;
            let faults = opts.faults()?;
            let seed = opts.seed()?;
            let mode = match opts.flags.get("mode").map_or("wd", String::as_str) {
                "wd" => PvfMode::Wd,
                "woi" => PvfMode::Woi,
                "wi" => PvfMode::Wi,
                other => return Err(format!("unknown mode {other}")),
            };
            let prep = FuncPrepared::new(&w, isa).map_err(|e| e.to_string())?;
            let journal = opts.journal(&label)?;
            let out = pvf_campaign(
                &prep,
                mode,
                faults,
                seed,
                default_threads(),
                journal.as_ref(),
                StreamOpts::from_env(),
                None,
            )
            .map_err(|e| e.to_string())?;
            let quarantined: Vec<_> = out.quarantined.into_iter().map(|q| ("PVF", q)).collect();
            report_resume(journal.as_ref(), &out.stats, &quarantined);
            let vf = out.tally.vf();
            println!(
                "{name} PVF[{mode}] on {isa}: SDC {} Crash {} detected {} total {}",
                pct(vf.sdc),
                pct(vf.crash),
                pct(vf.detected),
                pct(vf.total())
            );
            Ok(())
        }
        "svf" => {
            let hardened = opts.switch("hardened");
            let w = workload(&name, hardened)?;
            let label = if hardened {
                format!("{name}+ft")
            } else {
                name.clone()
            };
            let faults = opts.faults()?;
            let seed = opts.seed()?;
            let journal = opts.journal(&label)?;
            if opts.switch("breakdown") {
                if journal.is_some() {
                    // The breakdown path re-runs every injection to read
                    // its landing site; journaled records don't carry it.
                    return Err("--journal is not supported with --breakdown".into());
                }
                let b = vulnstack_llfi::svf_breakdown(&w.module, &w.input, faults, seed);
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
            } else {
                let out = vulnstack_llfi::svf_campaign(
                    &w.module,
                    &w.input,
                    &w.expected_output,
                    faults,
                    seed,
                    default_threads(),
                    journal.as_ref(),
                    StreamOpts::from_env(),
                    None,
                )
                .map_err(|e| e.to_string())?;
                let quarantined: Vec<_> = out.quarantined.into_iter().map(|q| ("SVF", q)).collect();
                report_resume(journal.as_ref(), &out.stats, &quarantined);
                let vf = out.tally.vf();
                println!(
                    "{name} SVF: SDC {} Crash {} detected {} total {}",
                    pct(vf.sdc),
                    pct(vf.crash),
                    pct(vf.detected),
                    pct(vf.total())
                );
            }
            Ok(())
        }
        "ace" => {
            let w = workload(&name, opts.switch("hardened"))?;
            let model = opts.model()?;
            let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
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
            let isa = opts.isa()?;
            let compiled =
                compile(&w.module, isa, &CompileOpts::default()).map_err(|e| e.to_string())?;
            let sa = vulnstack_analyze::analyze(&compiled);
            if let Some(path) = opts.flags.get("json") {
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
            let isa = opts.isa()?;
            let limit = opts.limit()?;
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
            let w = workload(&name, opts.switch("hardened"))?;
            let model = opts.model()?;
            let limit = opts.limit()?;
            if let Some(s) = opts.flags.get("structure") {
                // Fault-lifetime replay: inject one fault and print its
                // full event log (injection → consumption → squash /
                // repair → architectural corruption → outcome).
                let st = HwStructure::ALL
                    .into_iter()
                    .find(|x| x.name().eq_ignore_ascii_case(s))
                    .ok_or_else(|| format!("unknown structure {s}"))?;
                let prep = Prepared::new(&w, model).map_err(|e| e.to_string())?;
                let (cycle, bit) = match opts.flags.get("site") {
                    Some(k) => {
                        // Replay site K of the campaign `vulnstack avf`
                        // would run with the same --faults/--seed.
                        let k: usize = k.parse().map_err(|_| format!("bad site {k}"))?;
                        let sites =
                            vulnstack_gefin::draw_sites(&prep, st, opts.faults()?, opts.seed()?);
                        *sites.get(k).ok_or_else(|| {
                            format!("site {k} out of range (campaign has {})", sites.len())
                        })?
                    }
                    None => {
                        let cycle = match opts.flags.get("cycle") {
                            Some(v) => v.parse().map_err(|_| format!("bad cycle {v}"))?,
                            None => prep.golden.cycles / 2,
                        };
                        let bit = match opts.flags.get("bit") {
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

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let o = parse_opts(&sv(&["--model", "A9", "--faults", "64", "--breakdown"])).unwrap();
        assert_eq!(o.model().unwrap(), CoreModel::A9);
        assert_eq!(o.faults().unwrap(), 64);
        assert!(o.switch("breakdown"));
        assert!(!o.switch("hardened"));
    }

    #[test]
    fn defaults_are_sensible() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.model().unwrap(), CoreModel::A72);
        assert_eq!(o.isa().unwrap(), Isa::Va64);
        assert_eq!(o.seed().unwrap(), 2021);
    }

    #[test]
    fn rejects_missing_values_and_junk() {
        assert!(parse_opts(&sv(&["--model"])).is_err());
        assert!(parse_opts(&sv(&["stray"])).is_err());
        let o = parse_opts(&sv(&["--model", "Z80"])).unwrap();
        assert!(o.model().is_err());
        let o = parse_opts(&sv(&["--isa", "mips"])).unwrap();
        assert!(o.isa().is_err());
    }

    #[test]
    fn plan_flag_parses_and_rejects_junk() {
        let o = parse_opts(&sv(&["--plan", "pruned"])).unwrap();
        assert_eq!(
            o.plan(10, 7, 100).unwrap(),
            InjectionPlan::Pruned { n: 10, seed: 7 }
        );
        let o = parse_opts(&sv(&["--plan", "sampled"])).unwrap();
        assert_eq!(
            o.plan(10, 7, 100).unwrap(),
            InjectionPlan::Sampled { n: 10, seed: 7 }
        );
        let o = parse_opts(&sv(&["--plan", "psychic"])).unwrap();
        assert!(o.plan(10, 7, 100).is_err());
        // Without the flag the VULNSTACK_PRUNE knob decides; the test
        // runner does not set it, so the default is the sampled plan.
        assert_eq!(
            parse_opts(&[]).unwrap().plan(10, 7, 100).unwrap(),
            InjectionPlan::Sampled { n: 10, seed: 7 }
        );
    }

    #[test]
    fn exhaustive_plan_takes_an_injection_cycle() {
        // Default: mid-run.
        let o = parse_opts(&sv(&["--plan", "exhaustive"])).unwrap();
        assert_eq!(
            o.plan(10, 7, 100).unwrap(),
            InjectionPlan::Exhaustive { cycle: 100 }
        );
        // Explicit --at pins the cycle.
        let o = parse_opts(&sv(&["--plan", "exhaustive", "--at", "42"])).unwrap();
        assert_eq!(
            o.plan(10, 7, 100).unwrap(),
            InjectionPlan::Exhaustive { cycle: 42 }
        );
        // --at is meaningless for sampled/pruned plans.
        let o = parse_opts(&sv(&["--plan", "pruned", "--at", "42"])).unwrap();
        assert!(o.plan(10, 7, 100).is_err());
        let o = parse_opts(&sv(&["--plan", "exhaustive", "--at", "soon"])).unwrap();
        assert!(o.plan(10, 7, 100).is_err());
    }

    #[test]
    fn models_flag_parses_lists_and_rejects_junk() {
        assert_eq!(
            parse_opts(&[]).unwrap().models().unwrap(),
            vec![FaultModel::BitFlip]
        );
        let o = parse_opts(&sv(&["--models", "all"])).unwrap();
        assert_eq!(o.models().unwrap(), FaultModel::ALL.to_vec());
        let o = parse_opts(&sv(&["--models", "stuck-at, bit-flip"])).unwrap();
        assert_eq!(
            o.models().unwrap(),
            vec![FaultModel::StuckAt, FaultModel::BitFlip]
        );
        let o = parse_opts(&sv(&["--models", "gamma-ray"])).unwrap();
        assert!(o.models().is_err());
    }

    #[test]
    fn journal_flags_parse_and_validate() {
        let o = parse_opts(&sv(&["--journal", "j.log", "--resume"])).unwrap();
        let j = o.journal("crc32").unwrap().unwrap();
        assert_eq!(j.mode, ResumeMode::ResumeRequired);
        assert_eq!(j.path, Path::new("j.log"));
        assert_eq!(j.workload, "crc32");

        let o = parse_opts(&sv(&["--journal", "j.log"])).unwrap();
        assert_eq!(
            o.journal("x").unwrap().unwrap().mode,
            ResumeMode::ResumeOrStart
        );

        let o = parse_opts(&sv(&["--resume"])).unwrap();
        assert!(o.journal("x").is_err(), "--resume alone must be rejected");
        assert!(parse_opts(&[]).unwrap().journal("x").unwrap().is_none());
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
