//! `RunStatus::Timeout` classification through the LLFI path: a faulty
//! run that burns its whole dynamic-instruction budget (the software
//! layer's watchdog) must count as a Crash-class record in campaign
//! aggregates and as a `watchdog_expiries` metric — a hang is a
//! vulnerability observation, not a harness failure.

use vulnstack_core::trace::CampaignMetrics;
use vulnstack_core::{FaultEffect, RunOpts};
use vulnstack_llfi::{draw_faults, golden_run, run_one, svf_campaign};
use vulnstack_vir::builder::ModuleBuilder;
use vulnstack_vir::interp::{Interpreter, RunStatus, SwFault};
use vulnstack_vir::Module;

/// A countdown loop over a memory counter. Most high-bit flips on the
/// loaded or decremented counter value turn the remaining trip count
/// into ~2^k iterations — far past the faulty-run budget — so the
/// module reliably produces watchdog expiries under injection.
fn countdown_module(iters: i32) -> Module {
    let mut mb = ModuleBuilder::new("countdown");
    let g = mb.global_words("counter", &[iters]);
    let mut f = mb.function("main", 0);
    let body = f.new_block();
    let done = f.new_block();
    let p = f.global_addr(g);
    f.br(body);
    f.switch_to(body);
    let v = f.load32(p, 0);
    let next = f.sub(v, 1);
    f.store32(next, p, 0);
    let more = f.ne(next, 0);
    f.cond_br(more, body, done);
    f.switch_to(done);
    f.sys_exit(0);
    f.ret(None);
    mb.finish_function(f);
    mb.finish().unwrap()
}

/// Finds a fault whose injected run times out (scans the first loop
/// iterations for a high-bit flip that inflates the counter).
fn find_timeout_fault(module: &Module, budget: u64) -> SwFault {
    for target in 0..40 {
        let fault = SwFault::flip(target, 30);
        let out = Interpreter::new(module)
            .with_budget(budget)
            .with_fault(fault)
            .run()
            .unwrap();
        if out.status == RunStatus::Timeout {
            return fault;
        }
    }
    panic!("no injected run timed out — the countdown module lost its hang mode");
}

#[test]
fn watchdog_expiry_classifies_as_crash() {
    let module = countdown_module(50);
    let golden = golden_run(&module, &[]);
    assert_eq!(golden.status, RunStatus::Exited(0));
    let fault = find_timeout_fault(&module, golden.budget);
    assert_eq!(run_one(&module, &[], &golden, fault), FaultEffect::Crash);
}

#[test]
fn campaign_aggregates_count_expiries_inside_the_crash_class() {
    let module = countdown_module(50);
    let golden = golden_run(&module, &[]);
    let (n, seed, threads) = (40, 7, 4);

    // Ground truth: replay the campaign's exact fault stream one run at
    // a time and count the true timeouts.
    let expected_timeouts = draw_faults(&golden, n, seed)
        .into_iter()
        .filter(|&f| {
            let out = Interpreter::new(&module)
                .with_budget(golden.budget)
                .with_fault(f)
                .run()
                .unwrap();
            out.status == RunStatus::Timeout
        })
        .count() as u64;
    assert!(
        expected_timeouts >= 1,
        "seed {seed} must produce at least one watchdog expiry"
    );

    let metrics = CampaignMetrics::new("svf-campaign");
    let opts = RunOpts {
        metrics: Some(&metrics),
        ..RunOpts::new(threads)
    };
    let tally = svf_campaign(&module, &[], &[], n, seed, &opts)
        .unwrap()
        .tally;
    let report = metrics.report();
    assert_eq!(report.watchdog_expiries, expected_timeouts);
    assert!(
        tally.crash >= expected_timeouts,
        "every expiry is a Crash-class record: {tally:?}"
    );
    assert_eq!(tally.total() as usize, n);
}
