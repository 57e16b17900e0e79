#!/usr/bin/env python3
"""Campaign benchmark for vulnstack: four workloads, untraced or traced.

BENCHMARK.json gates avf-pruned, pvf-svf and serve-tenants; avf-sampled
runs the same way but spreads too widely across seeds to be gated, and
its traced run feeds the per-layer ledger of the OoO core.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --steady N --workload W [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

Run from the root of a vulnstack checkout; it builds the `vulnstack`
binary from source first, and for --trace 1 the per-layer tracer
(`perfbench/tracer`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md
for the workloads, the metrics and the steadiness rules.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("avf-sampled", "avf-pruned", "pvf-svf", "serve-tenants")

# The (workload, core, sites per structure) cells of the AVF workloads:
# both ISAs, both L2 sizes, and both checkpoint regimes (qsort/A72 keeps
# 512-cycle spacing; rijndael/A9 outgrows the snapshot cap and spaces
# them 4096 apart). About 4% of rijndael/A9 sites hang until the
# watchdog, at ~50x the median cost, so its site count is kept small:
# the run's spread across seeds grows with the square root of it.
PAIRS = (("qsort", "A72", 600), ("rijndael", "A9", 40))
STRUCTURES = ("RF", "LSQ", "L1i", "L1d", "L2")
PRUNED_STRUCTURES = ("RF", "LSQ", "L1d")
# avf-pruned runs qsort/A72's RF cells on fewer sites than the others:
# 0.7% of its RF sites hang until the watchdog (~300 ms, 400x the median
# site) and are not pruned, so at 600 sites those cells took a third of a
# run and most of its spread across seeds.
PRUNED_SITES = {("qsort", "RF"): 150}
PVF_RUNS = tuple((isa, mode) for isa in ("va32", "va64") for mode in ("wd", "woi", "wi"))
SVF_WORKLOADS = ("qsort", "rijndael")

# Work per run. One "round" is a fixed set of campaigns; a run makes
# max(1, round(seconds / ROUND_SECONDS)) rounds, so the same --seconds
# always means the same work. Sized on a 2-vCPU host for ~20 s runs; a
# serve-tenants run stays at one round up to --seconds 44, because its
# traced replay of a second round would take a run near its 180-s limit
# on a slow host.
PVF_SITES = 100          # sites per pvf invocation
SVF_SITES = 1000         # sites per svf invocation
# Sites per daemon campaign, per structure. LSQ, L1d and L2 campaigns
# cost about the same (~0.8 s of one core on qsort/A72). RF and L1i
# campaigns are kept short: 0.7% of qsort's RF sites and 0.1% of its L1i
# sites hang until the watchdog at ~300 ms, 400x the median site, so a
# run's cost across seeds varies with how much of it those two take (at
# 130 RF and 1200 L1i sites per campaign, one seed's campaigns cost 23%
# more than another's on one core).
SERVE_SITES = {"RF": 30, "LSQ": 1000, "L1i": 250, "L1d": 770, "L2": 1200}
SERVE_CAMPAIGNS = 20     # campaigns per tenant per round
ROUND_SECONDS = {"avf-sampled": 4, "avf-pruned": 2.9, "pvf-svf": 6.5, "serve-tenants": 30}
# Set-up repetitions per run; the median is reported.
SETUP_REPS = {"avf-sampled": 5, "avf-pruned": 3, "pvf-svf": 9, "serve-tenants": 9}
# A daemon campaign not done after this long fails; a daemon that has not
# answered `shutdown` and exited this long after it is killed.
CAMPAIGN_TIMEOUT_S = 60
STOP_TIMEOUT_S = 20

KNOBS = ("VULNSTACK_CKPTS", "VULNSTACK_CKPT_INTERVAL", "VULNSTACK_EARLY_TERM",
         "VULNSTACK_FAULTS", "VULNSTACK_JOURNAL_FLUSH", "VULNSTACK_MEM_QUOTA",
         "VULNSTACK_PRUNE", "VULNSTACK_REQUIRE_SPEEDUP", "VULNSTACK_SEED",
         "VULNSTACK_SINK_CAP", "VULNSTACK_THREADS", "VULNSTACK_WATCHDOG")

END_TO_END = {"setup_s": "s", "inj_per_s": "1/s", "peak_rss_mib": "MiB",
              "campaign_p50_s": "s", "ok_frac": "frac"}


class Failure(Exception):
    """A set-up problem that leaves no measurement to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The environment of every child: no VULNSTACK_* knob is inherited;
    the only one set is the worker count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VULNSTACK_")}
    env["VULNSTACK_THREADS"] = str(nproc())
    return env


def derive(seed, *tags):
    """A campaign seed derived from the run seed and the campaign's place."""
    text = "/".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ---------------------------------------------------------------- build

class Paths:
    def __init__(self):
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target")
        self.target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
        self.vulnstack = os.path.join(self.target, "release", "vulnstack")
        self.tracer = os.path.join(self.target, "release", "perfbench-tracer")
        self.out = os.path.join(ROOT, ".bench_out")


def build(paths, need_tracer):
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise Failure(f"{ROOT} is not a vulnstack checkout (no Cargo.toml or crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=paths.target)
    steps = [["cargo", "build", "--release", "--offline", "-p", "vulnstack", "--bin", "vulnstack"]]
    if need_tracer:
        steps.append(["cargo", "build", "--release", "--offline", "--manifest-path",
                      os.path.join(HERE, "tracer", "Cargo.toml")])
    for argv in steps:
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise Failure(f"{' '.join(argv)} failed:\n{r.stdout[-3000:]}")


# ---------------------------------------------------------------- processes

class Proc:
    """One finished child: wall time, exit status, rusage, output."""

    def __init__(self, argv, wall, code, ru, out, err):
        self.argv, self.wall, self.code, self.out, self.err = argv, wall, code, out, err
        self.rss_mib = ru.ru_maxrss / 1024.0
        self.cpu = ru.ru_utime + ru.ru_stime


def run_proc(argv, scratch):
    """Runs argv to completion; the wall time spans spawn to reap."""
    so, se = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    with open(so, "wb") as fo, open(se, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(so) as fo, open(se) as fe:
        return Proc(argv, wall, p.returncode, ru, fo.read(), fe.read())


# ---------------------------------------------------------------- checks

class Checker:
    """Output checks. Each operation (an injection for the CLI workloads,
    a campaign for serve-tenants) passes or fails; reports are compared
    with digests pinned per campaign (perfbench/digests.json)."""

    def __init__(self, flip_first=False):
        self.flip_first = flip_first
        with open(DIGESTS) as f:
            self.pinned = json.load(f)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checked_pins = 0
        self.unpinned = 0

    def flip(self, text):
        """Self-test hook: flip one bit of one digit of the first report."""
        if not self.flip_first:
            return text
        self.flip_first = False
        i = text.index('"masked":') + len('"masked":')
        return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]

    def pinned_equal(self, key, digest):
        want = self.pinned.get(key)
        if want is None:
            self.unpinned += 1
            return True
        self.checked_pins += 1
        return want == digest

    def op(self, weight, ok, what):
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.errors.append(what)

    def proc_ok(self, p):
        return p.code == 0 and "quarantin" not in p.err and "panick" not in p.err


def avf_key(w, m, st, n, seed):
    return f"avf {w} {m} {st} n={n} seed={seed}"


def split_report(text):
    """`(workload, plan, {structure: entry text})` of an avf --json report."""
    m = re.fullmatch(r'\{"workload":"([^"]+)","plan":"([^"]+)","structures":\[(.*)\]\}\n',
                     text, re.S)
    if not m:
        return None
    entries = {}
    for e in re.split(r',(?=\{"structure":")', m.group(3)):
        sm = re.match(r'\{"structure":"([^"]+)"', e)
        if not sm:
            return None
        entries[sm.group(1)] = e
    return m.group(1), m.group(2), entries


def check_avf_report(chk, text, w, m, plan, structures, n, seed):
    """Every structure entry must hold n injections and match the pinned
    sampled entry, so a pruned report must equal the sampled tallies."""
    parts = split_report(chk.flip(text))
    if not parts or parts[0] != w or parts[1] != plan or list(parts[2]) != list(structures):
        return False
    ok = True
    for st, entry in parts[2].items():
        injections = json.loads(entry)["models"][0]["injections"]
        ok &= injections == n
        ok &= chk.pinned_equal(avf_key(w, m, st, n, seed), sha(entry))
    return ok


# ---------------------------------------------------------------- CLI workloads

def avf_cells(workload, seed, seconds):
    """(round, workload, model, sites, campaign seed) of every avf campaign
    of a run; avf-sampled and avf-pruned share the seeds of their rounds."""
    k = rounds(workload, seconds)
    return [(i, w, m, n, derive(seed, "avf", w, m, i)) for i in range(k) for (w, m, n) in PAIRS]


def pruned_cells(seed, seconds):
    """(round, workload, model, structure, sites, campaign seed) of every
    avf-pruned campaign of a run."""
    return [(i, w, m, st, PRUNED_SITES.get((w, st), n), s)
            for i, w, m, n, s in avf_cells("avf-pruned", seed, seconds)
            for st in PRUNED_STRUCTURES]


def cli_invocations(workload, seed, seconds, paths, scratch):
    """The run's campaign invocations: (argv, operations, check) where
    check(chk, proc) validates the output."""
    vs = paths.vulnstack
    inv = []
    if workload == "avf-sampled":
        for i, w, m, n, s in avf_cells(workload, seed, seconds):
            out = os.path.join(scratch, f"avf-{w}-{s}.json")
            argv = [vs, "avf", w, "--model", m, "--plan", "sampled", "--faults", str(n),
                    "--seed", str(s), "--json", out]

            def check(chk, p, w=w, m=m, n=n, s=s):
                return check_avf_report(chk, p.report, w, m, "sampled", STRUCTURES, n, s)
            inv.append((argv, n * len(STRUCTURES), check, ("avf", i, w, m, s)))
    elif workload == "avf-pruned":
        for i, w, m, st, n, s in pruned_cells(seed, seconds):
            out = os.path.join(scratch, f"pruned-{w}-{st}-{s}.json")
            argv = [vs, "avf", w, "--model", m, "--structure", st, "--plan", "pruned",
                    "--faults", str(n), "--seed", str(s), "--json", out]

            def check(chk, p, w=w, m=m, n=n, st=st, s=s):
                return check_avf_report(chk, p.report, w, m, "pruned", (st,), n, s)
            inv.append((argv, n, check, ("pruned", i, w, m, st, s)))
    elif workload == "pvf-svf":
        for i in range(rounds(workload, seconds)):
            for w in SVF_WORKLOADS:
                for isa, mode in PVF_RUNS:
                    s = derive(seed, "pvf", w, isa, mode, i)
                    argv = [vs, "pvf", w, "--isa", isa, "--mode", mode,
                            "--faults", str(PVF_SITES), "--seed", str(s)]
                    key = f"pvf {w} {isa} {mode} n={PVF_SITES} seed={s}"
                    inv.append((argv, PVF_SITES, stdout_check(key),
                                ("pvf", i, w, isa, mode, s)))
                for hardened in (False, True):
                    s = derive(seed, "svf", w, hardened, i)
                    argv = [vs, "svf", w, "--faults", str(SVF_SITES), "--seed", str(s)]
                    argv += ["--hardened"] if hardened else []
                    key = f"svf {w} hardened={int(hardened)} n={SVF_SITES} seed={s}"
                    inv.append((argv, SVF_SITES, stdout_check(key),
                                ("svf", i, w, hardened, s)))
    return inv


def stdout_check(key):
    def check(chk, p):
        return chk.pinned_equal(key, sha(p.report))
    return check


def setup_argv(argv):
    """The same invocation with --faults 0 and no report file."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--json":
            i += 2
            continue
        out.append(argv[i])
        if argv[i] == "--faults":
            out.append("0")
            i += 2
            continue
        i += 1
    return out


def shape(argv):
    """An invocation's set-up shape: --faults 0, seed-independent."""
    a = setup_argv(argv)
    a[a.index("--seed") + 1] = "0"
    return tuple(a)


def distinct_setups(inv):
    return list(dict.fromkeys(shape(argv) for argv, _, _, _ in inv))


def run_cli(workload, seed, seconds, paths, scratch, chk):
    inv = cli_invocations(workload, seed, seconds, paths, scratch)
    shapes = distinct_setups(inv)
    run_proc([paths.vulnstack, "list"], scratch)  # warm the binary's page cache
    k = rounds(workload, seconds)
    reps = SETUP_REPS[workload]
    by_shape = {a: [] for a in shapes}
    procs = []
    for i in range(k):
        # The set-up repetitions are spread over the rounds, so that a slow
        # spell of the host meets only some of them.
        for _ in range(sum(1 for j in range(reps) if j * k // reps == i)):
            for a in shapes:
                p = run_proc(list(a), scratch)
                if not chk.proc_ok(p):
                    raise Failure(f"set-up invocation failed: {' '.join(a)}\n{p.err}")
                by_shape[a].append(p.wall)
        for argv, ops, check, tag in inv:
            if tag[1] != i:
                continue
            p = run_proc(argv, scratch)
            p.report = p.out.strip()
            if "--json" in argv:
                try:
                    with open(argv[argv.index("--json") + 1]) as f:
                        p.report = f.read()
                except OSError:
                    p.report = ""
            ok = chk.proc_ok(p) and check(chk, p)
            chk.op(ops, ok, f"{' '.join(argv[1:])}: exit {p.code} {p.err.strip()[-300:]}")
            procs.append((p, ops, tag))
    # Each shape's median over the repetitions, summed: one slow spawn
    # moves only its own shape's sample.
    setup_of = {a: median(w) for a, w in by_shape.items()}
    walls = [p.wall for p, _, _ in procs]
    done = sum(ops for _, ops, _ in procs)
    # A CLI "campaign" is one round: the workload's invocations, one per
    # cell, back to back.
    rounds_of = {}
    for p, _, tag in procs:
        rounds_of[tag[1]] = rounds_of.get(tag[1], 0.0) + p.wall
    campaign = median(list(rounds_of.values()))
    metrics = {
        "setup_s": sum(setup_of.values()),
        "inj_per_s": done / sum(walls),
        "peak_rss_mib": max(p.rss_mib for p, _, _ in procs),
        "campaign_p50_s": campaign,
    }
    detail = {"setup_samples": reps, "campaigns": len(rounds_of),
              "invocations": len(procs), "injections": done,
              "cpu_s": sum(p.cpu for p, _, _ in procs), "shapes": len(shapes),
              "walls": [round(p.wall, 4) for p, _, _ in procs],
              "cpus": [round(p.cpu, 3) for p, _, _ in procs]}
    return metrics, detail, procs, setup_of


def pvf_inject_ms(procs, setup_of, mode):
    """Per-injection PVF cost: each pvf invocation's wall time minus its
    --faults 0 wall time, over its site count."""
    costs = [(p.wall - setup_of[shape(p.argv)]) / ops for p, ops, tag in procs
             if tag[0] == "pvf" and tag[4] == mode]
    return 1e3 * sum(costs) / len(costs) if costs else 0.0


# ---------------------------------------------------------------- daemon

class Conn:
    """One line-JSON RPC connection to the daemon. With a timeout, a read
    that waits longer raises instead of hanging on a wedged daemon."""

    def __init__(self, path, timeout=None):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")
        self.next_id = 0

    def send(self, verb, **fields):
        self.next_id += 1
        msg = dict(id=self.next_id, verb=verb, **fields)
        self.sock.sendall((json.dumps(msg, separators=(",", ":")) + "\n").encode())
        return self.next_id

    def read(self):
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    """A `vulnstack serve` child with a fresh state dir and a Unix socket.
    Stopped with the `shutdown` verb and reaped; killed only if it does not
    exit by itself."""

    def __init__(self, paths, state):
        os.makedirs(state)
        self.sock = os.path.relpath(os.path.join(state, "d.sock"), ROOT)
        self.err = open(os.path.join(state, "daemon.err"), "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [paths.vulnstack, "serve", "--state", state, "--listen", "unix:" + self.sock],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=self.err)
        self.rusage = None

    def wait_ready(self, timeout=30.0):
        """Seconds from spawn until the daemon answers `ping`."""
        while True:
            if self.proc.poll() is not None:
                raise Failure("daemon exited during start-up")
            try:
                c = Conn(self.sock, timeout=timeout)
            except OSError:
                if time.perf_counter() - self.t0 > timeout:
                    raise Failure("daemon did not come up")
                # Start-up takes ~3 ms: a 1-ms poll would round it up by
                # up to a poll period and make the figure bimodal.
                time.sleep(0.0001)
                continue
            try:
                rid = c.send("ping")
                while c.read().get("id") != rid:
                    pass
            except (OSError, ValueError) as e:
                raise Failure(f"daemon did not answer ping: {e!r}")
            ready = time.perf_counter() - self.t0
            c.close()
            return ready

    def stop(self):
        if self.rusage is not None:
            return
        try:
            c = Conn(self.sock, timeout=STOP_TIMEOUT_S)
            c.send("shutdown")
            try:
                c.read()
            except (OSError, ValueError):
                pass
            c.close()
        except OSError:
            pass
        deadline = time.time() + STOP_TIMEOUT_S
        while time.time() < deadline:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.01)
        else:
            self.proc.kill()
            pid, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = ru
        self.err.close()


def serve_specs(seed, seconds):
    """Each tenant's fixed campaign sequence over the five structures of
    the one qsort/A72 golden run (the tenants start two structures apart)."""
    k = rounds("serve-tenants", seconds) * SERVE_CAMPAIGNS
    seq = {}
    for offset, tenant in enumerate(("high", "normal")):
        sts = [STRUCTURES[(i + 2 * offset) % len(STRUCTURES)] for i in range(k)]
        seq[tenant] = [dict(engine="avf", workload="qsort", model="A72", structure=st,
                            faults=SERVE_SITES[st], seed=derive(seed, "serve", tenant, i),
                            priority=tenant) for i, st in enumerate(sts)]
    return seq


def tenant_loop(sock, specs, out):
    """Closed loop: submit, subscribe, wait for done, then the next. A
    campaign that is not done within CAMPAIGN_TIMEOUT_S ends the loop."""
    c = Conn(sock, timeout=CAMPAIGN_TIMEOUT_S)
    try:
        for spec in specs:
            rec = dict(spec=spec, records=[], times=[])
            t_submit = time.perf_counter()
            sid = c.send("submit", spec=spec)
            handle, sub_id, done = None, None, None
            while done is None:
                msg = c.read()
                now = time.perf_counter()
                if now - t_submit > CAMPAIGN_TIMEOUT_S:
                    raise TimeoutError(f"campaign not done after {CAMPAIGN_TIMEOUT_S} s")
                if msg.get("event") == "record":
                    rec["times"].append(now)
                    rec["records"].append((msg["index"], msg["payload"]))
                elif msg.get("event") == "done":
                    done = msg["result"]
                elif msg.get("id") == sid:
                    if not msg.get("ok"):
                        raise Failure(f"submit refused: {msg}")
                    rec["submit_s"] = now - t_submit
                    handle = msg["handle"]
                    sub_id = c.send("subscribe", handle=handle)
                elif msg.get("id") == sub_id and not msg.get("ok"):
                    raise Failure(f"subscribe refused: {msg}")
            rec.update(t_submit=t_submit, t_done=time.perf_counter(), result=done)
            out.append(rec)
    except Exception as e:  # reported by the caller; the daemon is stopped there
        out.append(dict(error=repr(e)))
    finally:
        c.close()


def spawn_ready(paths, state):
    """Seconds from spawning a daemon until it answers `ping`."""
    d = Daemon(paths, state)
    try:
        return d.wait_ready()
    finally:
        d.stop()


def run_serve(seed, seconds, paths, scratch, chk):
    # Set-up samples: the timed daemon's, and those of extra daemons
    # spawned half before and half after the closed loop.
    extra = SETUP_REPS["serve-tenants"] - 1
    ready = [spawn_ready(paths, os.path.join(scratch, f"setup-{i}")) for i in range(extra // 2)]
    specs = serve_specs(seed, seconds)
    d = Daemon(paths, os.path.join(scratch, "state"))
    results = {"high": [], "normal": []}
    try:
        ready.append(d.wait_ready())
        threads = [threading.Thread(target=tenant_loop, args=(d.sock, specs[t], results[t]))
                   for t in ("high", "normal")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        d.stop()
    # After a tenant failed, the daemon is suspect: no more are spawned.
    if not any("error" in rec for recs in results.values() for rec in recs):
        ready += [spawn_ready(paths, os.path.join(scratch, f"setup-{i}"))
                  for i in range(extra // 2, extra)]
    campaigns = []
    for tenant in ("high", "normal"):
        for rec in results[tenant]:
            if "error" in rec:
                # The campaigns the tenant did not finish count as failed.
                missing = len(specs[tenant]) - (len(results[tenant]) - 1)
                chk.op(missing, False, f"tenant {tenant}: {rec['error']}")
                continue
            rec["tenant"] = tenant
            campaigns.append(rec)
    if not campaigns or {r["tenant"] for r in campaigns} != {"high", "normal"}:
        raise Failure(f"a tenant finished no campaign: {chk.errors}")
    # Reference campaigns through the CLI, outside the timed window: one
    # per structure, byte-compared with the daemon's report.
    refs = {}
    for rec in campaigns:
        st = rec["spec"]["structure"]
        if st not in refs:
            refs[st] = rec
    ref_procs = []
    for st, rec in refs.items():
        sp = rec["spec"]
        out = os.path.join(scratch, f"ref-{st}.json")
        p = run_proc([paths.vulnstack, "avf", "qsort", "--model", "A72", "--structure", st,
                      "--plan", "sampled", "--faults", str(sp["faults"]), "--seed",
                      str(sp["seed"]), "--json", out], scratch)
        rec["cli_report"] = None
        if p.code == 0:
            with open(out) as f:
                rec["cli_report"] = f.read()
        ref_procs.append(p)
    for rec in campaigns:
        sp, res = rec["spec"], rec["result"]
        report = res.get("report", "")
        ok = (res.get("state") == "done" and res.get("quarantined") == 0
              and len(rec["records"]) == sp["faults"]
              and sorted(i for i, _ in rec["records"]) == list(range(sp["faults"]))
              and check_avf_report(chk, report, "qsort", "A72", "sampled",
                                   (sp["structure"],), sp["faults"], sp["seed"]))
        if "cli_report" in rec:
            ok &= rec["cli_report"] == report
        chk.op(1, ok, f"daemon campaign {sp['structure']} seed {sp['seed']}: "
                      f"{res.get('state')} {res.get('message', '')}")
    t0 = min(r["t_submit"] for r in campaigns)
    t1 = max(r["t_done"] for r in campaigns)
    wall = t1 - t0
    injections = sum(len(r["records"]) for r in campaigns)
    # Latencies count the campaigns submitted while both tenants were
    # active; after the faster tenant's last `done` the other runs alone,
    # and how many campaigns fall in that tail varies from run to run.
    both = min(max(r["t_done"] for r in campaigns if r["tenant"] == t)
               for t in ("high", "normal"))
    steady = [r for r in campaigns if r["t_submit"] < both]
    lat = [r["t_done"] - r["t_submit"] for r in steady]
    first = [r["times"][0] - r["t_submit"] for r in steady]
    ru = d.rusage
    cpu = ru.ru_utime + ru.ru_stime
    by = {t: median([r["t_done"] - r["t_submit"] for r in steady if r["tenant"] == t])
          for t in ("high", "normal")}
    gaps = [b - a for r in campaigns for a, b in zip(r["times"], r["times"][1:])]
    metrics = {
        "setup_s": median(ready),
        "inj_per_s": injections / wall,
        # The daemon's own RSS is a per-layer figure (serve.peak_rss_mib);
        # the gated figure is the CLI reference campaigns'.
        "peak_rss_mib": max(p.rss_mib for p in ref_procs),
        "campaign_p50_s": median(lat),
    }
    # Per campaign, the first record comes ~0.12 s after `submit` when the
    # other tenant is preparing too and ~0.19 s when its workers are busy;
    # the run's median flips between the two, so it is not gated.
    layer = {
        "serve.first_record_p50_s": median(first),
        "fair.high_over_normal": by["high"] / by["normal"],
        "serve.submit_ms": 1e3 * median([r["submit_s"] for r in campaigns]),
        "serve.record_gap_ms": 1e3 * median(gaps),
        "serve.cpu_ms_per_inj": 1e3 * cpu / injections,
        "serve.cpu_util": cpu / (wall * nproc()),
        "serve.peak_rss_mib": ru.ru_maxrss / 1024.0,
    }
    detail = {"setup_samples": len(ready), "campaigns": len(lat), "submitted": len(campaigns),
              "first_record_samples": len(first), "injections": injections,
              "wall_s": wall, "daemon_cpu_s": cpu}
    return metrics, detail, layer, campaigns


# ---------------------------------------------------------------- traced run

def tracer_plan(workload, seed, seconds, scratch, serve_campaigns=None):
    lines = []
    cid = 0
    if workload == "avf-sampled":
        for _, w, m, n, s in avf_cells(workload, seed, seconds):
            cid += 1
            lines.append(f"avf {cid} {w} {m} {','.join(STRUCTURES)} {n} {s}")
        lines.append("sink")
    elif workload == "avf-pruned":
        for _, w, m, st, n, s in pruned_cells(seed, seconds):
            cid += 1
            lines.append(f"pruned {cid} {w} {m} {st} {n} {s}")
        lines.append("sink")
    elif workload == "pvf-svf":
        for w in SVF_WORKLOADS:
            for isa in ("va32", "va64"):
                lines.append(f"func {w} {isa}")
        for i in range(rounds(workload, seconds)):
            for w in SVF_WORKLOADS:
                for hardened in (False, True):
                    cid += 1
                    s = derive(seed, "svf", w, hardened, i)
                    lines.append(f"svf {cid} {w} {int(hardened)} {SVF_SITES} {s}")
        lines.append("sink")
    elif workload == "serve-tenants":
        lines.append(f"prep qsort A72 {SETUP_REPS[workload]}")
        for spec in serve_campaigns:
            cid += 1
            lines.append(f"avf {cid} qsort A72 {spec['structure']} {spec['faults']} "
                         f"{spec['seed']}")
        journal_dir = os.path.join(scratch, "journal")
        os.makedirs(journal_dir, exist_ok=True)
        lines.append(f"journal {journal_dir}")
        lines.append("sink")
    return lines


def layer_metrics(workload, res, procs, setups, serve_layer):
    """Per-layer metrics from the tracer's spans and counts. A layer the
    workload does not run reads 0."""
    spans = {}
    by_wl = {}
    for s in res["spans"]:
        a = spans.setdefault(s["name"], [0, 0.0, 0.0])
        a[0] += s["count"]
        a[1] += s["total_s"]
        a[2] += s["self_s"]
        by_wl[(s["name"], s["workload"])] = (s["count"], s["total_s"])
    cnt = res["counts"]

    def mean(name, scale=1.0):
        c, t = spans.get(name, [0, 0.0, 0.0])[:2]
        return scale * t / c if c else 0.0

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    preps = res["preps"]
    restores = cnt["snapshot.restores"]
    # Restore and prefix are timed in the tracer's probe pass over every
    # few sites; the probed sites' own injections are the denominator.
    probed = cnt["probe.inject_s"]
    prefix = total("ooo.prefix")
    m = {
        "prepare.golden_s": mean("prepare.golden"),
        "snapshot.count": sum(p["snapshots"] for p in preps),
        "snapshot.interval_cycles": (sum(p["interval_cycles"] for p in preps) / len(preps)
                                     if preps else 0),
        "snapshot.restore_us": mean("snapshot.restore", 1e6),
        "snapshot.restore_distance_cycles": (cnt["snapshot.restore_distance_cycles_sum"]
                                             / restores if restores else 0),
        "ooo.prefix_us": mean("ooo.prefix", 1e6),
        "ooo.kcycles_per_s": cnt["probe.distance_cycles"] / 1e3 / prefix if prefix else 0,
        "avf.injections": cnt["avf.injections"],
    }
    for st in STRUCTURES:
        m[f"avf.{st}.inject_ms"] = mean(f"avf.{st}.inject", 1e3)
    m["avf.fault_run_frac"] = ((probed - total("snapshot.restore") - prefix) / probed
                               if probed else 0)
    cells = cnt["prune.cells"]
    m["prune.build_s"] = total("prune.build") / cells if cells else 0
    for k in ("sites", "dead_masked", "static_dead", "pilot_runs", "memo_hits",
              "singleton_runs", "early_terminated", "runaway_terminated"):
        m[f"prune.{k}"] = cnt[f"prune.{k}"]
    sites = cnt["prune.sites"]
    m["prune.useful_frac"] = ((cnt["prune.dead_masked"] + cnt["prune.memo_hits"]) / sites
                              if sites else 0)
    m["prune.sim_ms"] = mean("prune.site.sim", 1e3)
    # In avf-pruned the only unpruned injections are the L1d replays.
    m["prune.overhead_frac"] = (cnt["prune.l1d_run_site_s"] / total("avf.L1d.inject") - 1
                                if workload == "avf-pruned" and total("avf.L1d.inject") else 0)
    m["func.prepare_s"] = mean("func.prepare")
    for mode in ("wd", "woi", "wi"):
        m[f"pvf.{mode.upper()}.inject_ms"] = pvf_inject_ms(procs, setups, mode)
    m["svf.golden_s"] = mean("svf.golden")
    m["svf.inject_us"] = mean("svf.inject", 1e6)
    m["ft.harden_s"] = mean("ft.harden")
    m["svf.hardened.inject_us"] = mean("svf.hardened.inject", 1e6)
    m["sink.record_us"] = (1e6 * total("sink.stream") / cnt["sink.records"]
                           if cnt["sink.records"] else 0)
    m["journal.append_us"] = (1e6 * total("journal.append") / cnt["journal.records"]
                              if cnt["journal.records"] else 0)
    for k in ("serve.first_record_p50_s", "fair.high_over_normal", "serve.submit_ms",
              "serve.record_gap_ms", "serve.cpu_ms_per_inj", "serve.cpu_util",
              "serve.peak_rss_mib"):
        m[k] = serve_layer.get(k, 0.0) if serve_layer else 0.0
    m["serve.prep_share"] = (m["prepare.golden_s"] / m["serve.first_record_p50_s"]
                             if workload == "serve-tenants" else 0.0)
    # What tracing adds to the replay: recording its spans (their count
    # times the cost of one span, calibrated after the replay) and the
    # restore/prefix probe pass, which the untraced run does not do.
    m["trace.overhead_frac"] = ((cnt["trace.spans"] * cnt["trace.span_cost_s"] + total("avf.probe"))
                                / cnt["trace.wall_s"])
    self_s = {name: a[2] for name, a in spans.items()}
    return m, by_wl, self_s


def run_tracer(paths, plan_lines, scratch, name):
    plan = os.path.join(scratch, "plan.txt")
    with open(plan, "w") as f:
        f.write("\n".join(plan_lines) + "\n")
    os.makedirs(paths.out, exist_ok=True)
    trace = os.path.join(paths.out, f"trace-{name}.json")
    p = run_proc([paths.tracer, plan, trace], scratch)
    if p.code != 0:
        raise Failure(f"tracer failed: {p.err.strip()[-2000:]}")
    return json.loads(p.out.strip().splitlines()[-1]), trace, p


def untraced_reports(workload, procs, campaigns):
    """The untraced reports in the order the tracer plan replays them."""
    if workload == "serve-tenants":
        return [c["result"].get("report") for c in campaigns]
    if workload == "pvf-svf":
        return [p.report for p, _, tag in procs if tag[0] == "svf"]
    return [p.report for p, _, _ in procs]


def cross_layer_row(by_wl, procs, setup_of):
    """Cost of one injection at each layer, per program: SVF on the IR
    interpreter, PVF on the functional core, AVF on the OoO core."""
    row = {}
    for (name, wl), (count, total) in by_wl.items():
        if name.startswith("svf.") and name.endswith(".inject"):
            row.setdefault(wl, {})[f"{name}_us"] = 1e6 * total / count
        elif name.startswith("avf.") and name.endswith(".inject"):
            row.setdefault(wl, {})[f"{name}_ms"] = 1e3 * total / count
    pvf = {}
    for p, ops, tag in procs:
        if tag[0] == "pvf":
            key = (tag[2], f"pvf.{tag[4].upper()}.{tag[3]}.inject_ms")
            pvf.setdefault(key, []).append(1e3 * (p.wall - setup_of[shape(p.argv)]) / ops)
    for (wl, key), costs in pvf.items():
        row.setdefault(wl, {})[key] = sum(costs) / len(costs)
    return row


def run_workload(workload, seed, seconds, trace, paths, chk):
    scratch = os.path.join(paths.out, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        if workload == "serve-tenants":
            e2e, detail, serve_layer, campaigns = run_serve(seed, seconds, paths, scratch, chk)
            procs, setup_of = [], {}
        else:
            e2e, detail, procs, setup_of = run_cli(workload, seed, seconds, paths, scratch, chk)
            serve_layer, campaigns = None, None
        e2e["ok_frac"] = (chk.attempted - chk.failed) / chk.attempted if chk.attempted else 0.0
        if not trace:
            return e2e, detail
        detail["untraced"] = dict(e2e)
        specs = [c["spec"] for c in campaigns] if campaigns else None
        plan = tracer_plan(workload, seed, seconds, scratch, specs)
        res, trace_path, tp = run_tracer(paths, plan, scratch, f"{workload}-{seed}")
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        detail["traced_wall_s"] = tp.wall
        detail["untraced_wall_s"] = (detail.get("wall_s") or sum(p.wall for p, _, _ in procs))
        same = [c["report"] for c in res["cells"]] == untraced_reports(workload, procs, campaigns)
        chk.op(0, same, "traced replay reports differ from the untraced reports")
        layer, by_wl, detail["self_s"] = layer_metrics(workload, res, procs, setup_of,
                                                       serve_layer)
        detail["cross_layer"] = cross_layer_row(by_wl, procs, setup_of)
        detail["counts"] = {k: layer[k] for k in COUNTED}
        return layer, detail
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# Per-layer counts that repeat exactly for a seed (one worker).
COUNTED = ("snapshot.count", "snapshot.interval_cycles", "snapshot.restore_distance_cycles",
           "avf.injections", "prune.sites", "prune.dead_masked", "prune.static_dead",
           "prune.pilot_runs", "prune.memo_hits", "prune.singleton_runs",
           "prune.early_terminated", "prune.runaway_terminated")


def units_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    special = {"ooo.kcycles_per_s": "kcycles/s", "fair.high_over_normal": "ratio",
               "serve.prep_share": "frac", "serve.cpu_util": "frac",
               "serve.cpu_ms_per_inj": "ms"}
    if name in special:
        return special[name]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mib", "MiB"),
                         ("_frac", "frac"), ("_per_s", "1/s"), ("_cycles", "cycles")):
        if name.endswith(suffix):
            return unit
    return "count"


def one_run(args, paths):
    """One measured run; prints its result line and returns the exit code."""
    chk = Checker(flip_first=args.flip_first_report)
    try:
        metrics, detail = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                       paths, chk)
    except Failure as e:
        log(f"error: {e}")
        return 2
    env = child_env()
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "workers": int(env["VULNSTACK_THREADS"]),
        "knobs": {k: env.get(k, "unset") for k in KNOBS},
        "cleared_from_caller": sorted(k for k in os.environ if k.startswith("VULNSTACK_")),
        "pinned_reports_checked": chk.checked_pins, "unpinned_reports": chk.unpinned,
    }
    samples = {"setup_s": detail.get("setup_samples"),
               "serve.first_record_p50_s": detail.get("first_record_samples"),
               "campaign_p50_s": detail.get("campaigns")}
    detail["samples"] = {k: n for k, n in samples.items() if n and k in metrics}
    print(json.dumps({"provenance": provenance, "detail": detail}, sort_keys=True))
    for e in chk.errors:
        log(f"check failed: {e}")
    if args.trace:
        log(f"traced replay {detail['traced_wall_s']:.1f} s on one worker vs untraced "
            f"campaigns {detail['untraced_wall_s']:.1f} s on {nproc()}; tracing overhead "
            f"(span recording plus the restore/prefix probe pass) "
            f"{metrics['trace.overhead_frac']:.2e} of the traced time")
    for name, value in metrics.items():
        n = f" (n={samples[name]})" if name in samples and samples[name] else ""
        log(f"{args.workload:14s} {name:34s} {value:14.6f} {units_of(name)}{n}")
    result = {"correct": not chk.errors, "attempted": chk.attempted, "failed": chk.failed,
              "metrics": {k: {"value": v, "unit": units_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not chk.errors else 1


def child_result(argv):
    """Runs this script as a child; returns (exit code, last-line JSON)."""
    p = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv, cwd=ROOT,
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]), lines
    except (IndexError, ValueError):
        return p.returncode, None, lines


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    return tuple(statistics.quantiles(xs, n=4)) if len(xs) > 1 else (xs[0],) * 3


def steady(args):
    """Two sets of back-to-back runs of one workload on unchanged code,
    with the same seeds (--seed onwards, one per run) in each set, the
    second set after the first. For every metric: each set's median,
    quartiles and IQR/median, and by how much the second set's median is
    worse than the first's (for the metrics BENCHMARK.json gates)."""
    per_set = max(1, args.steady // 2)
    sets = [{}, {}]
    for i in range(2 * per_set):
        seed = args.seed + i % per_set
        code, res, _ = child_result(["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if code != 0 or res is None:
            log(f"run with seed {seed} failed (exit {code})")
            return 1
        for k, v in res["metrics"].items():
            sets[i // per_set].setdefault(k, []).append(v["value"])
        log(f"set {i // per_set + 1} seed {seed}: "
            + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            gated = {m["name"]: m for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        gated = {}
    print(f"{'metric':34s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'worse by':>9s} {'bound':>6s}")
    for k in sets[0]:
        medians = []
        for n, values in enumerate(sets, 1):
            q1, med, q3 = quartiles(values[k])
            medians.append(med)
            spread = (q3 - q1) / med if med else 0.0
            worse, bound = "", ""
            if n == 2 and k in gated and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = f"{change if gated[k]['better'] == 'lower' else -change:+9.4f}"
                bound = f"{gated[k]['bound']:6.2f}"
            print(f"{k:34s} {n:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{worse:>9s} {bound:>6s}")
    return 0


def run_all(args):
    """Every workload once; one table of every metric, plus (traced) the
    cross-layer cost of one injection."""
    rows, row, counts = [], {}, {}
    status = 0
    for w in WORKLOADS:
        code, res, lines = child_result(["--workload", w, "--seed", str(args.seed),
                                         "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)])
        if code != 0 or res is None:
            log(f"{w}: exit {code}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        for k, v in res["metrics"].items():
            rows.append((w, k, v["value"], v["unit"], detail["samples"].get(k, "")))
        if "counts" in detail:
            counts[w] = detail["counts"]
        # The first workload that times a layer for a program keeps it
        # (avf-sampled for the OoO core).
        for wl, costs in detail.get("cross_layer", {}).items():
            for k, v in costs.items():
                row.setdefault(wl, {}).setdefault(k, v)
    print(f"{'workload':14s} {'metric':34s} {'value':>14s} {'unit':10s} n")
    for w, k, v, u, n in rows:
        print(f"{w:14s} {k:34s} {v:14.6f} {u:10s} {n}")
    for w, c in counts.items():
        print(f"exact counts {w}: {json.dumps(c, sort_keys=True)}")
    if row:
        keys = sorted({k for costs in row.values() for k in costs})
        print("\ncost of one injection per layer (traced):")
        print(f"{'':34s}" + "".join(f"{wl:>12s}" for wl in sorted(row)))
        for k in keys:
            print(f"{k:34s}" + "".join(f"{row[wl].get(k, float('nan')):12.3f}"
                                       for wl in sorted(row)))
    return status


def selftest():
    """A report with one flipped byte must fail its check, count against
    ok_frac and make the run exit nonzero."""
    argv = ["--workload", "avf-sampled", "--seed", "1", "--seconds", "10", "--trace", "0"]
    code, res, _ = child_result(argv + ["--flip-first-report"])
    want = PAIRS[0][2] * len(STRUCTURES)
    ok = (code == 1 and res is not None and res["correct"] is False
          and res["failed"] == want and res["metrics"]["ok_frac"]["value"] < 1.0)
    print(f"selftest: flipped report -> exit {code}, failed "
          f"{res and res['failed']} (want {want}): {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run the four workloads once")
    ap.add_argument("--steady", type=int, metavar="N",
                    help="two sets of N/2 back-to-back runs of --workload, same seeds")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--flip-first-report", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    # A terminated run still unwinds, so every daemon is shut down and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    paths = Paths()
    try:
        build(paths, need_tracer=bool(args.trace))
    except Failure as e:
        log(f"error: {e}")
        return 2
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.steady:
        return steady(args)
    return one_run(args, paths)


if __name__ == "__main__":
    sys.exit(main())
