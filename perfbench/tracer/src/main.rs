//! Traced replay of the campaign benchmark's workloads.
//!
//! ```text
//! perfbench-tracer <plan-file> <trace-json-out>
//! ```
//!
//! The plan holds one command per line (`#` starts a comment):
//!
//! ```text
//! avf    <cid> <workload> <model> <RF,LSQ,..> <n> <seed>   sampled AVF cell
//! pruned <cid> <workload> <model> <structure> <n> <seed>   pruned AVF cell
//! prep   <workload> <model> <reps>                         Prepared::new only
//! func   <workload> <isa>                                  FuncPrepared::new
//! svf    <cid> <workload> <0|1 hardened> <n> <seed>        SVF cell
//! sink                                                     stream the payloads
//! journal <dir>                                            journal the payloads
//! ```
//!
//! Every call into a layer's public function runs inside a span (name,
//! start, end, parent, campaign id). Spans stay in memory and are written
//! as a Chrome trace (Perfetto opens it) when the plan is done; counts are
//! taken at the same boundaries. Everything runs on this one thread, so
//! the counts repeat exactly for the same plan. Injections run exactly as
//! the CLI runs them; the checkpoint restore and the fault-free prefix
//! they contain are timed apart in a separate probe pass over every
//! `PROBE_EVERY`-th site, so the probe neither adds work to nor warms the
//! caches of the injections it is compared with. The result, one JSON
//! object, goes to stdout: per-cell reports rebuilt with the same report
//! builders the CLI uses (so the caller can assert they equal the
//! untraced reports byte for byte), span totals and self times per
//! (name, workload), and the snapshot and pruner counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use vulnstack_core::journal::{Fingerprint, Journal};
use vulnstack_core::report::pct;
use vulnstack_core::{StreamOpts, Tally};
use vulnstack_gefin::{
    avf_report_json, draw_sites, encode_record, per_model_tallies, run_one_model, FuncPrepared,
    InjectionPlan, InjectionRecord, Prepared, PruneStats, Pruner,
};
use vulnstack_isa::Isa;
use vulnstack_microarch::ooo::HwStructure;
use vulnstack_microarch::{CoreModel, FaultModel};
use vulnstack_workloads::{Workload, WorkloadId};

/// Every how many sites of a cell the probe pass times the restore and
/// the prefix on their own.
const PROBE_EVERY: usize = 8;

/// One timed call. `end == None` while the span is open.
struct Span {
    name: &'static str,
    workload: &'static str,
    campaign: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// In-memory span recorder with an explicit parent stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    fn begin(&mut self, name: &'static str, workload: &'static str, campaign: u32) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            workload,
            campaign,
            parent,
            start_ns,
            end_ns: None,
        });
        id
    }

    fn end(&mut self, id: usize) -> f64 {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Closes `id` under a name chosen after the call it timed.
    fn end_as(&mut self, id: usize, name: &'static str) -> f64 {
        self.spans[id].name = name;
        self.end(id)
    }

    /// Seconds one begin/end pair costs, measured on a scratch tracer.
    fn span_cost_s() -> f64 {
        const N: usize = 200_000;
        let mut t = Tracer::new();
        let t0 = Instant::now();
        for _ in 0..N {
            let id = t.begin("calibrate", "-", 0);
            t.end(id);
        }
        t0.elapsed().as_secs_f64() / N as f64
    }

    fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.expect("span closed") - s.start_ns
    }

    /// `(count, total s, self s)` per `(name, workload)`; self time is a
    /// span's duration minus the durations of its direct children.
    fn totals(&self) -> BTreeMap<(&'static str, &'static str), (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = self.duration_ns(i);
            let e = out.entry((s.name, s.workload)).or_default();
            e.0 += 1;
            e.1 += d as f64 * 1e-9;
            e.2 += d.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"campaign\":{},\"workload\":\"{}\"}}}}",
                sp.name,
                sp.name.split('.').next().unwrap_or(sp.name),
                sp.start_ns as f64 / 1e3,
                self.duration_ns(i) as f64 / 1e3,
                sp.campaign,
                sp.workload,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn workload_id(name: &str) -> Result<WorkloadId, String> {
    WorkloadId::from_name(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn core_model(name: &str) -> Result<CoreModel, String> {
    CoreModel::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown core model {name}"))
}

fn structure(name: &str) -> Result<HwStructure, String> {
    HwStructure::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown structure {name}"))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} {s}"))
}

/// The `avf.<S>.inject` span name of a structure.
fn inject_span(st: HwStructure) -> &'static str {
    match st {
        HwStructure::RegisterFile => "avf.RF.inject",
        HwStructure::Lsq => "avf.LSQ.inject",
        HwStructure::L1i => "avf.L1i.inject",
        HwStructure::L1d => "avf.L1d.inject",
        HwStructure::L2 => "avf.L2.inject",
    }
}

/// One finished campaign cell: the report the CLI would print for it.
struct Cell {
    cid: u32,
    report: String,
}

#[derive(Default)]
struct Counts {
    avf_injections: u64,
    restore_distance_cycles: u64,
    restores: u64,
    /// Seconds the probed sites' injections took and the cycles their
    /// restores ran forward, to set against the probe's times.
    probe_inject_s: f64,
    probe_distance_cycles: u64,
    prune: PruneStats,
    prune_cells: u64,
    /// Seconds of `Pruner::run_site` over L1d sites (the pruner's
    /// overhead where no site can be pruned).
    prune_l1d_run_site_s: f64,
    sink_records: u64,
    journal_records: u64,
}

struct Run {
    tr: Tracer,
    preps: BTreeMap<(WorkloadId, &'static str), Prepared>,
    cells: Vec<Cell>,
    payloads: Vec<String>,
    counts: Counts,
}

impl Run {
    /// Prepares (workload, model) once, under a span; returns its key.
    fn prepared(
        &mut self,
        id: WorkloadId,
        model: CoreModel,
    ) -> Result<(WorkloadId, &'static str), String> {
        let key = (id, model.name());
        if !self.preps.contains_key(&key) {
            let w = id.build();
            let span = self.tr.begin("prepare.golden", id.name(), 0);
            let prep = Prepared::new(&w, model).map_err(|e| format!("{id} on {model}: {e}"))?;
            self.tr.end(span);
            self.preps.insert(key, prep);
        }
        Ok(key)
    }

    /// One injection, as the CLI runs it: restore, prefix, fault, run.
    fn avf_site(
        &mut self,
        key: (WorkloadId, &'static str),
        st: HwStructure,
        (cycle, bit): (u64, u64),
        cid: u32,
    ) -> (InjectionRecord, f64) {
        let prep = &self.preps[&key];
        self.counts.restore_distance_cycles += prep.checkpoints.restore_distance(cycle);
        self.counts.restores += 1;
        let s = self.tr.begin(inject_span(st), key.0.name(), cid);
        let model_site = vulnstack_gefin::ModelSite {
            cycle,
            bit,
            model: FaultModel::BitFlip,
        };
        let rec = run_one_model(prep, st, model_site);
        (rec, self.tr.end(s))
    }

    /// Injects every site of a cell, then times the checkpoint restore and
    /// the fault-free prefix on their own over every `PROBE_EVERY`-th site.
    fn avf_sites(
        &mut self,
        key: (WorkloadId, &'static str),
        st: HwStructure,
        sites: &[(u64, u64)],
        cid: u32,
    ) -> Vec<InjectionRecord> {
        let mut records = Vec::with_capacity(sites.len());
        for (i, &site) in sites.iter().enumerate() {
            let (rec, took) = self.avf_site(key, st, site, cid);
            if i % PROBE_EVERY == 0 {
                self.counts.probe_inject_s += took;
            }
            records.push(rec);
        }
        let wl = key.0.name();
        let probe = self.tr.begin("avf.probe", wl, cid);
        for &(cycle, _) in sites.iter().step_by(PROBE_EVERY) {
            let prep = &self.preps[&key];
            self.counts.probe_distance_cycles += prep.checkpoints.restore_distance(cycle);
            let s = self.tr.begin("snapshot.restore", wl, cid);
            let mut core = black_box(prep.checkpoints.restore(cycle));
            self.tr.end(s);
            let s = self.tr.begin("ooo.prefix", wl, cid);
            core.run_until(black_box(cycle));
            self.tr.end(s);
            drop(black_box(core));
        }
        self.tr.end(probe);
        records
    }

    fn avf(&mut self, f: &[&str]) -> Result<(), String> {
        let [cid, w, m, sts, n, seed] = f else {
            return Err("avf needs <cid> <workload> <model> <structures> <n> <seed>".into());
        };
        let (cid, id, model) = (num(cid, "cid")?, workload_id(w)?, core_model(m)?);
        let (n, seed): (usize, u64) = (num(n, "site count")?, num(seed, "seed")?);
        let structures = sts
            .split(',')
            .map(structure)
            .collect::<Result<Vec<_>, _>>()?;
        let key = self.prepared(id, model)?;
        let cell = self.tr.begin("campaign.avf", id.name(), cid);
        let mut per_structure = Vec::new();
        for st in structures {
            let sites = draw_sites(&self.preps[&key], st, n, seed);
            let records = self.avf_sites(key, st, &sites, cid);
            self.counts.avf_injections += records.len() as u64;
            self.payloads.extend(records.iter().map(encode_record));
            per_structure.push((st.name(), per_model_tallies(&records)));
        }
        self.tr.end(cell);
        let plan = InjectionPlan::Sampled { n, seed };
        self.cells.push(Cell {
            cid,
            report: avf_report_json(id.name(), &plan, &per_structure),
        });
        Ok(())
    }

    fn pruned(&mut self, f: &[&str]) -> Result<(), String> {
        let [cid, w, m, st, n, seed] = f else {
            return Err("pruned needs <cid> <workload> <model> <structure> <n> <seed>".into());
        };
        let (cid, id, model, st) = (
            num(cid, "cid")?,
            workload_id(w)?,
            core_model(m)?,
            structure(st)?,
        );
        let (n, seed): (usize, u64) = (num(n, "site count")?, num(seed, "seed")?);
        let key = self.prepared(id, model)?;
        let wl = id.name();
        let cell = self.tr.begin("campaign.pruned", wl, cid);
        let sites = draw_sites(&self.preps[&key], st, n, seed);
        let span = self.tr.begin("prune.build", wl, cid);
        let pruner = Pruner::new(&self.preps[&key], st);
        self.tr.end(span);
        let mut records = Vec::with_capacity(sites.len());
        let mut simulated = 0u64;
        for &(cycle, bit) in &sites {
            let span = self.tr.begin("prune.site", wl, cid);
            let rec = pruner.run_site(cycle, bit, None);
            let now = pruner.stats();
            let sims = now.pilot_runs + now.singleton_runs;
            let name = if sims > simulated {
                "prune.site.sim"
            } else {
                "prune.site.free"
            };
            simulated = sims;
            let took = self.tr.end_as(span, name);
            if st == HwStructure::L1d {
                self.counts.prune_l1d_run_site_s += took;
            }
            records.push(rec);
        }
        let stats = pruner.stats();
        drop(pruner);
        // On a structure the pruner cannot help (L1d: no site is dead),
        // the same sites also run unpruned, which prices its overhead.
        if st == HwStructure::L1d {
            let unpruned = self.avf_sites(key, st, &sites, cid);
            if let Some(((cycle, bit), _)) = sites
                .iter()
                .zip(unpruned.iter().zip(&records))
                .find(|(_, (a, b))| a != b)
            {
                return Err(format!(
                    "{wl} {st} site ({cycle}, {bit}): pruned record differs"
                ));
            }
        }
        self.tr.end(cell);
        let c = &mut self.counts.prune;
        c.sites += stats.sites;
        c.dead_masked += stats.dead_masked;
        c.static_dead += stats.static_dead;
        c.pilot_runs += stats.pilot_runs;
        c.memo_hits += stats.memo_hits;
        c.singleton_runs += stats.singleton_runs;
        c.early_terminated += stats.early_terminated;
        c.runaway_terminated += stats.runaway_terminated;
        self.counts.prune_cells += 1;
        self.payloads.extend(records.iter().map(encode_record));
        let plan = InjectionPlan::Pruned { n, seed };
        self.cells.push(Cell {
            cid,
            report: avf_report_json(wl, &plan, &[(st.name(), per_model_tallies(&records))]),
        });
        Ok(())
    }

    fn prep(&mut self, f: &[&str]) -> Result<(), String> {
        let [w, m, reps] = f else {
            return Err("prep needs <workload> <model> <reps>".into());
        };
        let (id, model, reps): (_, _, u32) = (workload_id(w)?, core_model(m)?, num(reps, "reps")?);
        let w = id.build();
        for _ in 0..reps {
            let span = self.tr.begin("prepare.golden", id.name(), 0);
            let prep = Prepared::new(&w, model).map_err(|e| format!("{id} on {model}: {e}"))?;
            self.tr.end(span);
            self.preps.insert((id, model.name()), prep);
        }
        Ok(())
    }

    fn func(&mut self, f: &[&str]) -> Result<(), String> {
        let [w, isa] = f else {
            return Err("func needs <workload> <isa>".into());
        };
        let id = workload_id(w)?;
        let isa = match *isa {
            "va32" => Isa::Va32,
            "va64" => Isa::Va64,
            other => return Err(format!("unknown isa {other}")),
        };
        let w = id.build();
        let span = self.tr.begin("func.prepare", id.name(), 0);
        let prep = FuncPrepared::new(&w, isa).map_err(|e| format!("{id} on {isa}: {e}"))?;
        self.tr.end(span);
        drop(black_box(prep));
        Ok(())
    }

    fn svf(&mut self, f: &[&str]) -> Result<(), String> {
        let [cid, w, hardened, n, seed] = f else {
            return Err("svf needs <cid> <workload> <0|1> <n> <seed>".into());
        };
        let (cid, id) = (num(cid, "cid")?, workload_id(w)?);
        let hardened = *hardened == "1";
        let (n, seed): (usize, u64) = (num(n, "site count")?, num(seed, "seed")?);
        let Workload {
            module,
            input,
            expected_output,
            ..
        } = id.build();
        let wl = id.name();
        let cell = self.tr.begin("campaign.svf", wl, cid);
        let module = if hardened {
            let span = self.tr.begin("ft.harden", wl, cid);
            let h = vulnstack_ft::harden(&module).map_err(|e| format!("harden {wl}: {e}"))?;
            self.tr.end(span);
            h
        } else {
            module
        };
        let span = self.tr.begin("svf.golden", wl, cid);
        let golden = vulnstack_llfi::golden_run(&module, &input);
        self.tr.end(span);
        if golden.output != expected_output {
            return Err(format!("{wl}: golden interpretation output differs"));
        }
        let name = if hardened {
            "svf.hardened.inject"
        } else {
            "svf.inject"
        };
        let mut tally = Tally::default();
        for fault in vulnstack_llfi::draw_faults(&golden, n, seed) {
            let span = self.tr.begin(name, wl, cid);
            let effect = vulnstack_llfi::run_one(&module, &input, &golden, fault);
            self.tr.end(span);
            tally.add(effect);
            self.payloads.push(effect.name().to_string());
        }
        self.tr.end(cell);
        let vf = tally.vf();
        self.cells.push(Cell {
            cid,
            report: format!(
                "{wl} SVF: SDC {} Crash {} detected {} total {}",
                pct(vf.sdc),
                pct(vf.crash),
                pct(vf.detected),
                pct(vf.total())
            ),
        });
        Ok(())
    }

    /// Streams the run's record payloads through the bounded sink with
    /// no journal, cycling them until at least `MIN_RECORDS` went through.
    fn sink(&mut self) -> Result<(), String> {
        const MIN_RECORDS: usize = 50_000;
        if self.payloads.is_empty() {
            return Err("sink: no payloads recorded yet".into());
        }
        let feed: Vec<String> = self
            .payloads
            .iter()
            .cycle()
            .take(MIN_RECORDS.max(self.payloads.len()))
            .cloned()
            .collect();
        let expected = feed.len() as u64;
        let mut seen = 0u64;
        let span = self.tr.begin("sink.stream", "-", 0);
        let ((), summary) = vulnstack_core::sink::stream(
            None,
            StreamOpts::from_env(),
            |_, p: &str| seen += black_box(p.len()).min(1) as u64,
            |h| {
                for (i, p) in feed.into_iter().enumerate() {
                    h.push_done(i as u64, p);
                }
            },
        )
        .map_err(|e| format!("sink: {e}"))?;
        self.tr.end(span);
        drop(black_box(summary));
        if seen != expected {
            return Err(format!("sink folded {seen} of {expected} records"));
        }
        self.counts.sink_records = expected;
        Ok(())
    }

    /// Appends the run's record payloads to a fresh journal under `dir`
    /// and flushes it, as the daemon journals every settled record.
    fn journal(&mut self, f: &[&str]) -> Result<(), String> {
        let [dir] = f else {
            return Err("journal needs <dir>".into());
        };
        let path = Path::new(dir).join("ledger.journal");
        let fp = Fingerprint {
            engine: "perfbench-ledger".to_string(),
            workload: "-".to_string(),
            config: "-".to_string(),
            structure: "-".to_string(),
            seed: 0,
            samples: self.payloads.len() as u64,
            params: String::new(),
            version: 1,
        };
        let journal = Journal::create(&path, &fp).map_err(|e| e.to_string())?;
        let span = self.tr.begin("journal.append", "-", 0);
        for (i, p) in self.payloads.iter().enumerate() {
            journal
                .append_done(i as u64, p)
                .map_err(|e| e.to_string())?;
        }
        journal.flush().map_err(|e| e.to_string())?;
        self.tr.end(span);
        drop(journal);
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        self.counts.journal_records = self.payloads.len() as u64;
        Ok(())
    }
}

fn execute(plan: &str, run: &mut Run) -> Result<(), String> {
    for (no, line) in plan.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = fields.split_first() else {
            continue;
        };
        let r = match cmd {
            "avf" => run.avf(args),
            "pruned" => run.pruned(args),
            "prep" => run.prep(args),
            "func" => run.func(args),
            "svf" => run.svf(args),
            "sink" => run.sink(),
            "journal" => run.journal(args),
            other => Err(format!("unknown command {other}")),
        };
        r.map_err(|e| format!("plan line {}: {e}", no + 1))?;
    }
    Ok(())
}

fn result_json(run: &Run, wall_s: f64) -> String {
    let mut s = String::from("{\"cells\":[");
    for (i, c) in run.cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"cid\":{},\"report\":\"{}\"}}", c.cid, esc(&c.report));
    }
    s.push_str("],\"preps\":[");
    for (i, ((id, model), p)) in run.preps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"model\":\"{model}\",\"golden_cycles\":{},\
             \"snapshots\":{},\"interval_cycles\":{}}}",
            id.name(),
            p.golden.cycles,
            p.checkpoints.len(),
            p.checkpoints.interval()
        );
    }
    let c = &run.counts;
    let p = &c.prune;
    let _ = write!(
        s,
        "],\"counts\":{{\"avf.injections\":{},\"snapshot.restores\":{},\
         \"snapshot.restore_distance_cycles_sum\":{},\"prune.cells\":{},\
         \"prune.sites\":{},\"prune.dead_masked\":{},\"prune.static_dead\":{},\
         \"prune.pilot_runs\":{},\"prune.memo_hits\":{},\"prune.singleton_runs\":{},\
         \"prune.early_terminated\":{},\"prune.runaway_terminated\":{},\
         \"prune.l1d_run_site_s\":{:.9},\"sink.records\":{},\"journal.records\":{},\
         \"probe.inject_s\":{:.9},\"probe.distance_cycles\":{},\"trace.spans\":{},\"trace.span_cost_s\":{:.12},\
         \"trace.wall_s\":{:.6}}},\"spans\":[",
        c.avf_injections,
        c.restores,
        c.restore_distance_cycles,
        c.prune_cells,
        p.sites,
        p.dead_masked,
        p.static_dead,
        p.pilot_runs,
        p.memo_hits,
        p.singleton_runs,
        p.early_terminated,
        p.runaway_terminated,
        c.prune_l1d_run_site_s,
        c.sink_records,
        c.journal_records,
        c.probe_inject_s,
        c.probe_distance_cycles,
        run.tr.spans.len(),
        Tracer::span_cost_s(),
        wall_s,
    );
    for (i, ((name, wl), (count, total, own))) in run.tr.totals().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{name}\",\"workload\":\"{wl}\",\"count\":{count},\
             \"total_s\":{total:.9},\"self_s\":{own:.9}}}"
        );
    }
    s.push_str("]}");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [plan_path, trace_path] = args.as_slice() else {
        eprintln!("usage: perfbench-tracer <plan-file> <trace-json-out>");
        return ExitCode::from(2);
    };
    let plan = match std::fs::read_to_string(plan_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: read {plan_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut run = Run {
        tr: Tracer::new(),
        preps: BTreeMap::new(),
        cells: Vec::new(),
        payloads: Vec::new(),
        counts: Counts::default(),
    };
    if let Err(e) = execute(&plan, &mut run) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let wall_s = run.tr.t0.elapsed().as_secs_f64();
    if let Err(e) = std::fs::write(trace_path, run.tr.chrome_trace()) {
        eprintln!("error: write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&run, wall_s));
    ExitCode::SUCCESS
}
