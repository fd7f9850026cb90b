"""Start the program under test from a small interpreter.

Linux reports in a child's ru_maxrss the larger of its own peak RSS and its
parent's peak at the time of the exec, because a vfork'ed child shares the
parent's memory until then. The driver (run.py) holds inputs and expected
outputs in memory, so it starts every irdl-opt process through this script,
whose own peak is a few MB; ru_maxrss then measures irdl-opt alone.

    launch.py run OUT ERR CWD -- CMD...
        runs CMD to completion (stdout to OUT, stderr to ERR) and prints
        {"wall_s": ..., "code": ..., "maxrss_kb": ...}
    launch.py serve ERR CWD SOCK -- CMD...
        starts the server CMD, pings SOCK (relative to CWD) until it
        answers and prints {"ready_s": ..., "status": ...} ("ready_s" is
        null if it never answered); then, on a line (or end of input) on
        stdin, sends SIGTERM, waits and prints {"code": ..., "maxrss_kb": ...}
"""

import json
import os
import signal
import subprocess
import sys
import time

import oracle

PING = oracle.encode_request([("id", "ping"), ("kind", "ping")], b"")


def reap(p, timeout):
    """Wait for [p]; SIGKILL it after [timeout] seconds. (code, maxrss_kb)."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            return os.waitstatus_to_exitcode(status), ru.ru_maxrss
        if time.perf_counter() > deadline:
            os.kill(p.pid, signal.SIGKILL)
        time.sleep(0.002)


def run(out, err, cwd, cmd):
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": ru.ru_maxrss}


def serve(err, cwd, sock, cmd):
    path = os.path.join(cwd, sock)
    if os.path.exists(path):
        os.unlink(path)
    t0 = time.perf_counter()
    with open(err, "wb") as fe:
        p = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=fe)
    os.chdir(cwd)  # AF_UNIX paths are capped: connect by the short name
    ready = {"ready_s": None, "status": ""}
    while time.perf_counter() - t0 < 30:
        rs = oracle.roundtrip(sock, PING)
        if rs is not None:
            ready = {"ready_s": time.perf_counter() - t0, "status": rs["status"]}
            break
        if os.wait4(p.pid, os.WNOHANG)[0]:
            p.returncode = -1  # exited; nothing left to reap
            break
        time.sleep(0.001)
    print(json.dumps(ready), flush=True)
    sys.stdin.readline()
    if p.returncode is not None:
        return {"code": p.returncode, "maxrss_kb": 0}
    # Signals go through os.kill, not Popen, whose poll would reap the
    # server and lose its rusage.
    pid, status, ru = os.wait4(p.pid, os.WNOHANG)
    if pid:  # it exited on its own while serving
        return {"code": os.waitstatus_to_exitcode(status), "maxrss_kb": ru.ru_maxrss}
    os.kill(p.pid, signal.SIGTERM)
    code, maxrss = reap(p, 20)
    return {"code": code, "maxrss_kb": maxrss}


def main():
    mode, args = sys.argv[1], sys.argv[2:]
    sep = args.index("--")
    opts, cmd = args[:sep], args[sep + 1:]
    res = run(*opts, cmd) if mode == "run" else serve(*opts, cmd)
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
