#!/usr/bin/env python3
"""The repository benchmark: irdl-opt end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload oneshot_bytecode --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout. It builds irdl-opt and the
benchmark's own tool (perfbench/irdl_perfbench.exe) with dune, generates the
workload's inputs from --seed, runs the real irdl-opt executable on them for
--seconds, checks every output against the generator's known answer, and
prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb; times in reference seconds, scaled by a yardstick timed
between the invocations); with --trace 1 they are the per-layer ones from
the traced in-process run, whose Chrome trace-event JSON lands in
perfbench/_work/<workload>/trace.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

import oracle

WORKLOADS = ["oneshot_text", "oneshot_bytecode", "lit_split_jobs", "server_roundtrip"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OPT = os.path.join(ROOT, "_build", "default", "bin", "irdl_opt.exe")
TOOL = os.path.join(ROOT, "_build", "default", "perfbench", "irdl_perfbench.exe")
CALIB = os.path.join(ROOT, "_build", "default", "perfbench", "calib.exe")
# Times are reported in reference seconds: scaled by CALIB_REF_S over the
# median time of the yardstick (calib.exe on CALIB_LINES lines) timed
# between the program's invocations. See README.md, "Reference seconds".
CALIB_LINES = 50000
CALIB_REF_S = 0.35  # the yardstick's time on a 2-vCPU Xeon VM at its usual speed
CALIB_BEFORE = 2
# Set-up takes ~10-50 ms, so a run reports the median of many, spread over
# the run: some before the timed invocations and more after each one.
SETUP_BEFORE, SETUP_BETWEEN = 5, 2
# A server run starts this many servers in turn, so that its medians are
# taken over several processes, as a one-shot run's are: the speed of one
# process can differ from the next by 30% and more for its whole life.
SERVER_STARTS = 6
MIN_TIMED = 3  # one-shot invocations timed per run, even past --seconds
SERVER_MIN_SAMPLES = 1000  # so that p99 has at least ten samples beyond it
SERVER_PASSES_PER_SECOND = 1.0  # a pass of 200 requests takes ~0.4-1.0 s


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cores():
    return len(os.sched_getaffinity(0))


def build():
    for f in ["dune-project", os.path.join("bin", "irdl_opt.ml")]:
        if not os.path.exists(os.path.join(ROOT, f)):
            die(f"run from the root of the irdl source tree ({f} is missing)")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    if not shutil.which(dune[0]):
        die("dune is not installed")
    r = subprocess.run(
        dune + ["build", "--root", ROOT, "--profile", "release",
                "./bin/irdl_opt.exe", "./perfbench/irdl_perfbench.exe",
                "./perfbench/calib.exe"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        die("build failed")


# Every irdl-opt process is started through launch.py; see there why.
LAUNCH = [sys.executable, os.path.join(BENCH_DIR, "launch.py")]


def spawn(cmd, cwd, out, err):
    """Run one process to completion: (wall seconds, exit code, peak RSS in
    KiB from the kernel's accounting of the exited child)."""
    r = subprocess.run(LAUNCH + ["run", out, err, cwd, "--"] + cmd,
                       stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if r.returncode != 0:
        die(f"launch.py failed: {r.stderr[-300:]}")
    d = json.loads(r.stdout)
    return d["wall_s"], d["code"], d["maxrss_kb"]


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Yardstick:
    """Times the yardstick (calib.exe) in the gaps between the program's
    invocations, so that [scale] can turn the times of a run into
    reference seconds."""

    def __init__(self, work):
        self.work = work
        self.times = []

    def tick(self, n=1):
        for _ in range(n):
            wall, code, _ = spawn([CALIB, str(CALIB_LINES)], self.work,
                                  os.path.join(self.work, "calib.stdout"),
                                  os.path.join(self.work, "calib.stderr"))
            if code != 0:
                die(f"calib.exe exited with {code}")
            self.times.append(wall)

    def scale(self, res, names):
        """Adds to [res] each time metric of [names] in reference seconds,
        keeping the measured one as <name>_raw."""
        calib = statistics.median(self.times)
        res.update(calib_s=calib, calib_samples=len(self.times), calibs=self.times)
        for k in names:
            res[k + "_raw"] = res[k]
            res[k] = res[k] * CALIB_REF_S / calib
        return res


class Run:
    """Counts every checked operation; failures keep their first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {'; '.join(problems)}")
        return not problems


# ---------------------------------------------------------------------------
# One-shot workloads
# ---------------------------------------------------------------------------

def oneshot_commands(workload, jobs):
    """(command on the input, command on an empty input, expected stdout file).
    An empty module prints as one newline; a lit run prints nothing."""
    if workload == "oneshot_text":
        base, inp, expected = [OPT, "--corpus", "--generic"], "module.mlir", "module.mlir"
    elif workload == "oneshot_bytecode":
        base, inp, expected = [OPT, "-d", "corpus.irdlbc", "--generic"], "module.irdlbc", "module.mlir"
    else:
        base = [OPT, "--corpus", "--split-input-file", "--verify-diagnostics",
                "--jobs", str(jobs)]
        inp, expected = "lit.mlir", None
    return base + [inp], base + ["empty.mlir"], expected


def run_oneshot(workload, work, seconds, run, jobs, min_timed=MIN_TIMED):
    cmd, setup_cmd, expected_file = oneshot_commands(workload, jobs)
    expected = read(os.path.join(work, expected_file)) if expected_file else b""
    out, err = os.path.join(work, "stdout"), os.path.join(work, "stderr")

    def invoke(c, want):
        wall, code, rss = spawn(c, work, out, err)
        run.check(" ".join(c[1:]), oracle.check_invocation(code, read(out), read(err), want))
        return wall, rss

    empty_out = b"\n" if expected_file else b""

    def setup(n):
        return [invoke(setup_cmd, empty_out)[0] for _ in range(n)]

    yard = Yardstick(work)
    setups = setup(SETUP_BEFORE)
    invoke(cmd, expected)  # warm-up, discarded
    yard.tick(CALIB_BEFORE)
    walls, rsss = [], []
    # Stop when the next invocation would end past --seconds.
    deadline = time.perf_counter() + seconds
    t = time.perf_counter()
    while len(walls) < min_timed or 2 * time.perf_counter() - t < deadline:
        t = time.perf_counter()
        wall, rss = invoke(cmd, expected)
        walls.append(wall)
        rsss.append(rss)
        setups += setup(SETUP_BETWEEN)
        yard.tick()
    return yard.scale({
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rsss) / 1024,
        "samples": len(walls),
        "walls": walls,
    }, ["wall_s", "setup_s"])


# ---------------------------------------------------------------------------
# Resident server
# ---------------------------------------------------------------------------

SOCK = "srv.sock"


def start_server(work, jobs, run):
    """Start irdl-opt --listen; return (launcher, seconds from spawn to the
    first answered ping), or (None, None) if it never answered."""
    p = subprocess.Popen(
        LAUNCH + ["serve", os.path.join(work, "server.stderr"), work, SOCK, "--",
                  OPT, "--corpus", "--generic", "--listen", SOCK, "--jobs", str(jobs)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    p.stderr_path = os.path.join(work, "server.stderr")
    ready = json.loads(p.stdout.readline() or '{"ready_s": null}')
    if ready["ready_s"] is None:
        stop_server(p)
        run.check("server start", ["server never answered a ping"])
        return None, None
    run.check("ping", [] if ready["status"] == "ok" else [f"ping: {ready['status']}"])
    return p, ready["ready_s"]


def stop_server(p, run=None):
    """SIGTERM (graceful drain), then the peak RSS of the exited server in
    KiB (0 once already stopped). A server that exits with another code
    than 0, crashed or stopped, fails a check of [run]."""
    if p.returncode is not None:
        return 0
    try:
        p.stdin.write("stop\n")
        p.stdin.close()
    except OSError:
        pass  # the launcher is gone: its server was stopped with it
    line = p.stdout.readline()
    p.wait()
    res = json.loads(line) if line else {"code": None, "maxrss_kb": 0}
    if run is not None and res["code"] != 0:
        with open(p.stderr_path, "rb") as f:
            tail = f.read()[-300:].decode(errors="replace")
        run.check("server exit", [f"server exit code {res['code']}: {tail!r}"])
    return res["maxrss_kb"]


def serve_pass(path, reqs, clients):
    """Every request of [reqs] once, from [clients] closed-loop clients that
    this one process drives: a client sends its next request only once its
    last one was answered, and each request is a full connect-send-receive
    round trip, as irdl-opt --connect makes it. Returns (seconds, [(request,
    decoded response or None, latency)])."""
    sel = selectors.DefaultSelector()
    todo = iter(reqs)
    done = []

    def send_next():
        for rq in todo:
            t0 = time.perf_counter()
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                s.sendall(rq["frame"])
            except OSError:
                s.close()
                done.append((rq, None, 0.0))
                continue
            s.setblocking(False)
            sel.register(s, selectors.EVENT_READ, [rq, t0, b""])
            return

    t_start = time.perf_counter()
    for _ in range(clients):
        send_next()
    while sel.get_map():
        events = sel.select(timeout=30)
        if not events:  # the server stalled: what is left fails
            for key in list(sel.get_map().values()):
                sel.unregister(key.fileobj)
                key.fileobj.close()
                done.append((key.data[0], None, 0.0))
            done += [(rq, None, 0.0) for rq in todo]
            break
        for key, _ in events:
            rq, t0, buf = key.data
            try:
                chunk = key.fileobj.recv(1 << 20)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            buf += chunk
            key.data[2] = buf
            n = oracle.response_length(buf)
            complete = bool(n) and len(buf) >= n
            if chunk and not complete and n is not None:
                continue
            dt = time.perf_counter() - t0
            sel.unregister(key.fileobj)
            key.fileobj.close()
            done.append((rq, oracle.decode_response(buf[:n]) if complete else None, dt))
            send_next()
    sel.close()
    return time.perf_counter() - t_start, done


def run_server(work, seconds, run, jobs, clients):
    """Serve the request list from SERVER_STARTS servers in turn, each
    started, warmed up by one pass, timed over its share of the passes and
    stopped; the figures are medians over all of them."""
    with open(os.path.join(work, "requests.json")) as f:
        reqs = [oracle.prepared(rq) for rq in json.load(f)]
    path = os.path.relpath(os.path.join(work, SOCK), ROOT)
    # A fixed number of passes rather than a deadline: a server's peak RSS
    # grows with the requests it has served, so it is only comparable
    # between runs that served the same number.
    per_server = max(round(seconds * SERVER_PASSES_PER_SECOND / SERVER_STARTS),
                     -(-SERVER_MIN_SAMPLES // (len(reqs) * SERVER_STARTS)))
    setups, rsss, passes, latencies = [], [], [], []

    def one_pass(timed):
        """A pass is every request of the list once; its answers are
        checked after it, outside its time."""
        wall, done = serve_pass(path, reqs, clients)
        for rq, rs, dt in done:
            if run.check(f"request {rq['id']} ({rq['kind']})",
                         oracle.check_response(rs, rq)) and timed:
                latencies.append(dt)
        return wall

    yard = Yardstick(work)
    yard.tick(CALIB_BEFORE)
    for _ in range(SERVER_STARTS):
        server, ready = start_server(work, jobs, run)
        if server is None:
            return None
        setups.append(ready)
        try:
            one_pass(False)  # warm-up, discarded
            for _ in range(per_server):
                passes.append(one_pass(True))
                yard.tick()  # between passes, while the server idles
        finally:
            rsss.append(stop_server(server, run))
    latencies.sort()
    n = len(latencies)
    return yard.scale({
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rsss) / 1024,
        "req_per_s": n / sum(passes),
        "p50_ms": 1000 * statistics.median(latencies) if n else 0.0,
        "p99_ms": 1000 * latencies[min(n - 1, int(0.99 * n))] if n else 0.0,
        "samples": n,
        "passes": len(passes),
        "requests_per_pass": len(reqs),
        "walls": passes,
    }, ["wall_s", "setup_s"])


# ---------------------------------------------------------------------------
# Traced per-layer run
# ---------------------------------------------------------------------------

def run_traced(workload, work, seconds, run, jobs, e2e_wall):
    """Alternate untraced and traced in-process runs of the tool until
    --seconds are spent; per-layer metrics are the medians of the traced
    runs, trace.overhead the ratio of the traced and untraced medians."""
    traced, plain = [], []
    modes = [("plain", plain), ("traced", traced)]
    # Stop when the next pair of runs would end past --seconds.
    deadline = time.perf_counter() + seconds
    t = time.perf_counter()
    while len(traced) < 2 or 2 * time.perf_counter() - t < deadline:
        t = time.perf_counter()
        modes.reverse()  # alternate which runs first
        for mode, into in modes:
            out = os.path.join(work, f"layers-{mode}.json")
            cmd = [TOOL, "trace", workload, work, str(jobs), mode, out]
            r = subprocess.run(cmd, cwd=work, stdin=subprocess.DEVNULL,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            problems = [] if r.returncode == 0 else [
                f"exit {r.returncode}: {r.stderr.decode(errors='replace')[-300:]}"]
            if not problems:
                with open(out) as f:
                    res = json.load(f)
                problems = res.pop("problems")
                into.append(res)
                if workload == "server_roundtrip":
                    check_replayed_responses(work, run)
            run.check(f"traced run ({mode})", problems)
        if run.failed:
            break
    if not traced or not plain:
        return {}
    names = traced[0]["metrics"].keys()
    metrics = {k: statistics.median(t["metrics"][k] for t in traced) for k in names}
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / plain_wall
    metrics["trace.unattributed_s"] = e2e_wall - metrics["trace.layers_s"]
    del metrics["trace.layers_s"]
    return metrics


def check_replayed_responses(work, run):
    """Every response of the in-process server replay, against the
    generator's answers."""
    with open(os.path.join(work, "requests.json")) as f:
        reqs = json.load(f)
    with open(os.path.join(work, "responses.json")) as f:
        for rs in json.load(f):
            rs["output"] = bytes.fromhex(rs.pop("output_hex"))
            rq = reqs[rs["index"]]
            run.check(f"replayed request {rq['id']} ({rq['kind']})",
                      oracle.check_response(rs, rq))


# ---------------------------------------------------------------------------

def environment():
    def probe(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except OSError:
            return ""
    info = json.loads(probe([TOOL, "info"]) or "{}")
    info["nproc"] = os.cpu_count()
    info["cores_available"] = cores()
    info["commit"] = (probe(["git", "rev-parse", "--short", "HEAD"])
                      if os.path.isdir(os.path.join(ROOT, ".git")) else "") or "unknown"
    return info


def run_workload(workload, seed, seconds, trace):
    jobs = max(1, min(2, cores()))
    clients = jobs
    work = os.path.join(BENCH_DIR, "_work", workload)
    os.makedirs(work, exist_ok=True)
    r = subprocess.run([TOOL, "gen", workload, str(seed), work], cwd=work,
                       stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        die("input generation failed")
    with open(os.path.join(work, "inputs.json")) as f:
        inputs = json.load(f)
    run = Run()
    if workload == "server_roundtrip":
        e2e = run_server(work, seconds if not trace else min(seconds, 2), run, jobs, clients)
    else:
        # The traced run needs only one timed invocation (for
        # trace.unattributed_s); its --seconds go to the traced replay.
        e2e = (run_oneshot(workload, work, seconds, run, jobs) if not trace
               else run_oneshot(workload, work, 0, run, jobs, min_timed=1))
    info = environment()
    info.update(workload=workload, seed=seed, seconds=seconds, jobs=jobs,
                server_domains=jobs, clients=clients, inputs=inputs)
    if e2e is None:
        metrics = {}
    elif trace:
        metrics = run_traced(workload, work, seconds, run, jobs, e2e["wall_s_raw"])
    else:
        metrics = {k: e2e[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    report(workload, info, e2e, metrics, run, trace)
    return run, metrics


# Units of the summary-only metrics; the rest are declared in BENCHMARK.json.
UNITS = {"req_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms"}


def load_units():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            b = json.load(f)
    except OSError:
        return
    for m in b["end_to_end"] + b["per_layer"]:
        UNITS[m["name"]] = m["unit"]


def unit(name):
    return UNITS.get(name, "")


def report(workload, info, e2e, metrics, run, trace):
    print(f"== {workload}: seed {info['seed']}, nproc {info['nproc']}, "
          f"recommended domains {info.get('recommended_domain_count')}, "
          f"jobs {info['jobs']}, clients {info['clients']}, commit {info['commit']}, "
          f"OCaml {info.get('ocaml_version')}")
    print(f"   inputs: {json.dumps(info['inputs'])}")
    if e2e:
        for k in ("wall_s", "setup_s", "peak_rss_mb", "req_per_s", "p50_ms", "p99_ms"):
            if k not in e2e:
                print(f"   {k:<14} n/a (one-shot workload: one invocation per operation)")
                continue
            extra = ""
            if k == "wall_s":
                extra = (f"  (median of {e2e['passes']} passes of {e2e['requests_per_pass']} requests)"
                         if "passes" in e2e else f"  (median of {e2e['samples']} invocations)")
            if k in ("wall_s", "setup_s"):
                extra += f"  (reference seconds; measured {e2e[k + '_raw']:.6g} s)"
            if k in ("p50_ms", "p99_ms", "req_per_s"):
                extra = f"  (n={e2e['samples']})"
            print(f"   {k:<14} {e2e[k]:.6g} {unit(k)}{extra}")
        print(f"   calib_s        {e2e['calib_s']:.6g} s  (median of {e2e['calib_samples']}; "
              f"the reference machine takes {CALIB_REF_S} s)")
    print(f"   fail_ratio     {run.failed / max(1, run.attempted):.6g}  "
          f"({run.failed} of {run.attempted} operations)")
    for r in run.reasons:
        print(f"   FAILED {r}")
    if trace:
        for k, v in metrics.items():
            print(f"   {k:<34} {v:.6g} {unit(k)}")
        if metrics.get("parser.mb_per_s"):
            print(f"   ROADMAP: parser.mb_per_s {metrics['parser.mb_per_s']:.4g} MB/s "
                  f"(the parser item's target is >=3x this)")
        if metrics.get("bytecode_decode.speedup_vs_text"):
            print(f"   ROADMAP: bytecode_decode.speedup_vs_text "
                  f"{metrics['bytecode_decode.speedup_vs_text']:.4g}x (consider deleting "
                  f"IR-module bytecode once text parse comes within ~1.5x)")
        cov = metrics.get("trace.coverage", 0)
        if cov < 0.95:
            print(f"   WARNING trace.coverage {cov:.3f} is below 0.95")
        print(f"   trace: {os.path.relpath(os.path.join(BENCH_DIR, '_work', workload, 'trace.json'), ROOT)}")
    with open(os.path.join(BENCH_DIR, "_work", workload, "result.json"), "w") as f:
        json.dump({"info": info, "e2e": e2e, "metrics": metrics,
                   "attempted": run.attempted, "failed": run.failed,
                   "reasons": run.reasons}, f, indent=1)


def main():
    # Killed from outside: unwind, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    load_units()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        run, m = run_workload(w, args.seed, args.seconds, args.trace)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{w}." if args.workload == "all" else ""
        for k, v in m.items():
            metrics[prefix + k] = {"value": v, "unit": unit(k)}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
