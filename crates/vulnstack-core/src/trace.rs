//! Campaign observability: throughput metrics and timeline export.
//!
//! PR 2's campaign engine (checkpoint restore + work stealing) made
//! injection campaigns fast; this module makes them **measurable**, which
//! is the precondition for tuning them further. A [`CampaignMetrics`]
//! collector is threaded through the campaign executor
//! ([`crate::campaign::Campaign::run`]) and the injection engines and
//! accumulates, thread-safely:
//!
//! * per-worker site counts and busy time (load-balance visibility);
//! * one timeline **span** per fault site (worker, site index, start/end),
//!   exportable as a Chrome-trace / Perfetto JSON timeline;
//! * a power-of-two histogram of **checkpoint restore distance** (cycles
//!   simulated between the restored snapshot and the injection point —
//!   the quantity the adaptive checkpoint interval trades memory
//!   against);
//! * the **extinct-early-exit rate** (injections classified Masked
//!   without simulating to completion) and **watchdog expiries** (faulty
//!   runs that hung until the commit watchdog fired).
//!
//! Everything serializes by hand (the workspace carries no serialization
//! dependency): [`MetricsReport::to_json`] for `results/*.metrics.json`,
//! [`MetricsReport::chrome_trace_json`] for `results/*.trace.json`
//! (load either in `chrome://tracing` or <https://ui.perfetto.dev>).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::memquota::{MemQuota, Participation};

/// One scheduled unit of work (a fault site) on the campaign timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Worker that ran the site.
    pub worker: usize,
    /// Input index of the site (sampling order).
    pub index: usize,
    /// Start, microseconds since the collector was created.
    pub start_us: u64,
    /// End, microseconds since the collector was created.
    pub end_us: u64,
}

/// Thread-safe metrics collector for one campaign (or a sequence of
/// campaigns sharing a timeline).
#[derive(Debug)]
pub struct CampaignMetrics {
    label: String,
    start: Instant,
    sites: AtomicU64,
    extinct_early: AtomicU64,
    watchdog_expiries: AtomicU64,
    pruned_dead: AtomicU64,
    early_terminated: AtomicU64,
    /// Bucket `i` counts restore distances `d` with `bit_length(d) == i`
    /// (i.e. `d == 0` → bucket 0, `1..=1` → 1, `2..=3` → 2, ...).
    restore_hist: Mutex<[u64; 64]>,
    spans: Mutex<Vec<Span>>,
    /// Memory-quota registration for the span timeline — the second
    /// rung of the degradation ladder (after lifetime-trace rings):
    /// under quota pressure new spans are dropped (counted below) while
    /// the scalar counters stay exact.
    spans_quota: Participation,
    spans_shed: AtomicU64,
}

impl CampaignMetrics {
    /// Creates a collector; `label` names the campaign in reports. The
    /// span timeline registers with the global memory quota
    /// ([`MemQuota::global`]) as a sheddable participant.
    pub fn new(label: &str) -> CampaignMetrics {
        CampaignMetrics::with_quota(label, MemQuota::global())
    }

    /// [`CampaignMetrics::new`] against an explicit quota account (tests
    /// use this to exercise shedding without touching the process-global
    /// environment-configured account).
    pub fn with_quota(label: &str, quota: &MemQuota) -> CampaignMetrics {
        CampaignMetrics {
            label: label.to_string(),
            start: Instant::now(),
            sites: AtomicU64::new(0),
            extinct_early: AtomicU64::new(0),
            watchdog_expiries: AtomicU64::new(0),
            pruned_dead: AtomicU64::new(0),
            early_terminated: AtomicU64::new(0),
            restore_hist: Mutex::new([0; 64]),
            spans: Mutex::new(Vec::new()),
            spans_quota: quota.register("metrics-spans", true),
            spans_shed: AtomicU64::new(0),
        }
    }

    /// Microseconds elapsed since the collector was created.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Records one completed fault-site span. The site *count* is always
    /// exact; the span itself is optional payload — under memory-quota
    /// pressure it is shed (see [`MetricsReport::spans_shed`]) instead of
    /// growing the timeline unboundedly.
    pub fn record_span(&self, worker: usize, index: usize, start_us: u64, end_us: u64) {
        self.sites.fetch_add(1, Ordering::Relaxed);
        if self.spans_quota.should_shed() {
            // Selected as a reclaim victim: drop the retained timeline
            // (the oldest data this collector holds), keep the scalars.
            let mut spans = self.spans.lock().expect("unpoisoned");
            let bytes = spans.capacity() * std::mem::size_of::<Span>();
            self.spans_shed
                .fetch_add(spans.len() as u64, Ordering::Relaxed);
            *spans = Vec::new();
            self.spans_quota.shed(bytes);
        }
        if !self.spans_quota.try_claim(std::mem::size_of::<Span>()) {
            self.spans_shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.spans.lock().expect("unpoisoned").push(Span {
            worker,
            index,
            start_us,
            end_us,
        });
    }

    /// Records the cycle distance between the restored checkpoint and the
    /// injection cycle of one run.
    pub fn record_restore_distance(&self, cycles: u64) {
        let bucket = (64 - cycles.leading_zeros()) as usize; // bit length
        self.restore_hist.lock().expect("unpoisoned")[bucket.min(63)] += 1;
    }

    /// Records an injection that exited early because the fault went
    /// extinct (classified Masked without simulating to completion).
    pub fn record_extinct_early(&self) {
        self.extinct_early.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a faulty run that hung until the commit watchdog expired.
    pub fn record_watchdog_expiry(&self) {
        self.watchdog_expiries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a site classified Masked by the pruning layer without any
    /// simulation (dead def-use interval or un-armed LSQ entry).
    pub fn record_pruned_dead(&self) {
        self.pruned_dead.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injection ended early because its architectural state
    /// re-converged with the golden checkpoint at the same cycle.
    pub fn record_early_terminated(&self) {
        self.early_terminated.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the collected metrics into a serializable report.
    pub fn report(&self) -> MetricsReport {
        let spans = self.spans.lock().expect("unpoisoned").clone();
        let workers = spans.iter().map(|s| s.worker + 1).max().unwrap_or(0);
        let mut per_worker = vec![WorkerReport::default(); workers];
        for s in &spans {
            let w = &mut per_worker[s.worker];
            w.sites += 1;
            w.busy_us += s.end_us.saturating_sub(s.start_us);
        }
        let restore_hist = *self.restore_hist.lock().expect("unpoisoned");
        MetricsReport {
            label: self.label.clone(),
            // At least 1µs: a snapshot taken within the clock's
            // resolution must still yield a finite, nonzero throughput.
            wall_us: self.now_us().max(1),
            sites: self.sites.load(Ordering::Relaxed),
            extinct_early: self.extinct_early.load(Ordering::Relaxed),
            watchdog_expiries: self.watchdog_expiries.load(Ordering::Relaxed),
            pruned_dead: self.pruned_dead.load(Ordering::Relaxed),
            early_terminated: self.early_terminated.load(Ordering::Relaxed),
            spans_shed: self.spans_shed.load(Ordering::Relaxed),
            per_worker,
            restore_hist,
            spans,
        }
    }
}

/// Per-worker accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerReport {
    /// Fault sites this worker ran.
    pub sites: u64,
    /// Microseconds spent inside site simulations.
    pub busy_us: u64,
}

/// An immutable snapshot of one campaign's metrics.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Campaign label.
    pub label: String,
    /// Wall-clock microseconds from collector creation to the snapshot.
    pub wall_us: u64,
    /// Total fault sites run.
    pub sites: u64,
    /// Sites classified Masked via the extinct early exit.
    pub extinct_early: u64,
    /// Sites whose faulty run expired the commit watchdog.
    pub watchdog_expiries: u64,
    /// Sites classified Masked by the pruning layer with zero simulation.
    pub pruned_dead: u64,
    /// Injections ended early by golden-state re-convergence.
    pub early_terminated: u64,
    /// Timeline spans shed under memory-quota pressure: the per-worker
    /// accounting and the Chrome trace below cover only the *retained*
    /// spans when this is nonzero (the `sites` count stays exact).
    pub spans_shed: u64,
    /// Per-worker accounting, indexed by worker id.
    pub per_worker: Vec<WorkerReport>,
    /// Restore-distance histogram (bucket `i` = bit length of distance).
    pub restore_hist: [u64; 64],
    /// Every site span, in completion order.
    pub spans: Vec<Span>,
}

impl MetricsReport {
    /// Sites per second over the wall clock.
    pub fn throughput(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.sites as f64 / (self.wall_us as f64 / 1e6)
    }

    /// Fraction of sites that exited via the extinct early exit.
    pub fn extinct_rate(&self) -> f64 {
        if self.sites == 0 {
            return 0.0;
        }
        self.extinct_early as f64 / self.sites as f64
    }

    /// Mean restore distance in cycles, approximated from the histogram
    /// (each bucket contributes its geometric midpoint).
    pub fn mean_restore_distance(&self) -> f64 {
        let mut n = 0u64;
        let mut acc = 0.0;
        for (b, &c) in self.restore_hist.iter().enumerate() {
            if c == 0 {
                continue;
            }
            n += c;
            let mid = if b == 0 {
                0.0
            } else {
                1.5 * f64::powi(2.0, b as i32 - 1)
            };
            acc += mid * c as f64;
        }
        if n == 0 {
            0.0
        } else {
            acc / n as f64
        }
    }

    /// Serializes the report as a JSON object (the `*.metrics.json`
    /// schema; see DESIGN.md).
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .per_worker
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "{{\"id\":{i},\"sites\":{},\"busy_secs\":{:.6}}}",
                    w.sites,
                    w.busy_us as f64 / 1e6
                )
            })
            .collect();
        let hist: Vec<String> = self
            .restore_hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lo = if b == 0 { 0u64 } else { 1u64 << (b - 1) };
                let hi = if b == 0 { 0u64 } else { (1u64 << b) - 1 };
                format!("{{\"lo\":{lo},\"hi\":{hi},\"n\":{c}}}")
            })
            .collect();
        format!(
            "{{\"label\":{},\"wall_secs\":{:.6},\"sites\":{},\
             \"throughput_per_sec\":{:.3},\"extinct_early\":{},\
             \"extinct_early_rate\":{:.6},\"watchdog_expiries\":{},\
             \"pruned_dead\":{},\"early_terminated\":{},\"spans_shed\":{},\
             \"mean_restore_distance_cycles\":{:.1},\
             \"restore_distance_hist\":[{}],\"workers\":[{}]}}",
            json_string(&self.label),
            self.wall_us as f64 / 1e6,
            self.sites,
            self.throughput(),
            self.extinct_early,
            self.extinct_rate(),
            self.watchdog_expiries,
            self.pruned_dead,
            self.early_terminated,
            self.spans_shed,
            self.mean_restore_distance(),
            hist.join(","),
            workers.join(","),
        )
    }

    /// Serializes the campaign timeline in the Chrome trace event format
    /// (Perfetto-compatible): one complete (`"ph":"X"`) event per fault
    /// site, one named thread per worker.
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + 8);
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(&format!("vulnstack campaign: {}", self.label))
        ));
        for w in 0..self.per_worker.len() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":\"site {}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"index\":{}}}}}",
                s.index,
                s.worker,
                s.start_us,
                s.end_us.saturating_sub(s.start_us).max(1),
                s.index,
            ));
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Writes `<stem>.metrics.json` and `<stem>.trace.json` under `dir`.
    /// Both writes are atomic (temp file + rename,
    /// [`crate::report::write_atomic`]): a crash mid-write can never leave
    /// torn JSON in `results/`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation or writes).
    pub fn write_files(&self, dir: &str, stem: &str) -> std::io::Result<(String, String)> {
        std::fs::create_dir_all(dir)?;
        let metrics_path = format!("{dir}/{stem}.metrics.json");
        let trace_path = format!("{dir}/{stem}.trace.json");
        crate::report::write_atomic(&metrics_path, self.to_json().as_bytes())?;
        crate::report::write_atomic(&trace_path, self.chrome_trace_json().as_bytes())?;
        Ok((metrics_path, trace_path))
    }
}

/// Minimal JSON string escaping (labels are ASCII in practice).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_per_worker() {
        let m = CampaignMetrics::new("test");
        m.record_span(0, 0, 0, 100);
        m.record_span(1, 1, 0, 250);
        m.record_span(0, 2, 100, 150);
        let r = m.report();
        assert_eq!(r.sites, 3);
        assert_eq!(r.per_worker.len(), 2);
        assert_eq!(r.per_worker[0].sites, 2);
        assert_eq!(r.per_worker[0].busy_us, 150);
        assert_eq!(r.per_worker[1].busy_us, 250);
    }

    #[test]
    fn restore_histogram_buckets_by_bit_length() {
        let m = CampaignMetrics::new("test");
        for d in [0u64, 1, 2, 3, 4, 1000] {
            m.record_restore_distance(d);
        }
        let r = m.report();
        assert_eq!(r.restore_hist[0], 1); // 0
        assert_eq!(r.restore_hist[1], 1); // 1
        assert_eq!(r.restore_hist[2], 2); // 2, 3
        assert_eq!(r.restore_hist[3], 1); // 4
        assert_eq!(r.restore_hist[10], 1); // 1000 (512..=1023)
        assert!(r.mean_restore_distance() > 0.0);
    }

    #[test]
    fn rates_and_throughput() {
        let m = CampaignMetrics::new("test");
        for i in 0..4 {
            m.record_span(0, i, 0, 10);
        }
        m.record_extinct_early();
        m.record_watchdog_expiry();
        let r = m.report();
        assert!((r.extinct_rate() - 0.25).abs() < 1e-12);
        assert_eq!(r.watchdog_expiries, 1);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn json_outputs_are_well_formed_enough() {
        let m = CampaignMetrics::new("qsort \"A72\" RF");
        m.record_span(0, 0, 5, 25);
        m.record_restore_distance(300);
        let r = m.report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"A72\\\""), "label must be escaped: {j}");
        assert!(j.contains("\"sites\":1"));
        let ct = r.chrome_trace_json();
        assert!(ct.contains("\"traceEvents\""));
        assert!(ct.contains("\"ph\":\"X\""));
        assert!(ct.contains("\"ph\":\"M\""));
        // Balanced braces is a cheap sanity proxy for JSON validity here.
        for s in [&j, &ct] {
            let open = s.matches('{').count();
            let close = s.matches('}').count();
            assert_eq!(open, close, "unbalanced braces");
        }
    }

    #[test]
    fn span_timeline_sheds_under_quota_pressure_but_counts_stay_exact() {
        // Budget fits only a couple of spans; the rest must shed.
        let quota = MemQuota::with_limit(3 * std::mem::size_of::<Span>());
        let m = CampaignMetrics::with_quota("shed", &quota);
        for i in 0..100 {
            m.record_span(0, i, 0, 10);
        }
        let r = m.report();
        assert_eq!(r.sites, 100, "site count is never shed");
        assert!(r.spans_shed > 0, "pressure must shed spans");
        assert!(
            (r.spans.len() as u64) + r.spans_shed >= 100,
            "every span is either retained or counted shed"
        );
        assert!(quota.shedding_started());
        assert!(r.to_json().contains("\"spans_shed\":"));
    }

    #[test]
    fn write_files_produces_both_artifacts() {
        let m = CampaignMetrics::new("unit");
        m.record_span(0, 0, 0, 10);
        let dir = std::env::temp_dir().join("vulnstack-trace-test");
        let dir = dir.to_str().unwrap();
        let (mp, tp) = m.report().write_files(dir, "unit").unwrap();
        assert!(std::fs::metadata(&mp).unwrap().len() > 0);
        assert!(std::fs::metadata(&tp).unwrap().len() > 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
