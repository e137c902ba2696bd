#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 12 --trace 0

Workloads: fuzz, reduce, juliet, serve.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it carries the run's detail (machine fingerprint, speed probes,
sample counts, workload-specific figures).  Build output goes to stderr.

The workload runs at the product's default parallelism: COMPDIFF_JOBS is
removed from the environment.

While fuzz, reduce or juliet runs, each of its processes is moved to the
next vCPU every ALTERNATE_S seconds, and processes that run at the same
time are kept on different vCPUs. On a host whose vCPUs run at different
and changing speeds, a process that stays on one vCPU takes that vCPU's
speed for the whole run; rotating gives every run the average of all of
them. Serve is left alone: its client and daemon already use both vCPUs,
and rotating them did not make it steadier.
"""

import argparse
import os
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("fuzz", "reduce", "juliet", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ("./perfbench/bench.exe", "./bin/compdiff_cli.exe")
ALTERNATE_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args(argv)
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    return a


def environment():
    env = dict(os.environ)
    env.pop("COMPDIFF_JOBS", None)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: no dune-project here; run from the root of a checkout")
    r = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if r.returncode != 0:
        sys.exit("run.py: build failed")


def session_pids(sid):
    """Processes whose session id is sid."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        if int(stat.rpartition(")")[2].split()[3]) == sid:
            yield int(name)


def rotate_cpus(sid, stop):
    """Every ALTERNATE_S seconds until stop is set, move each process of
    session sid to the next allowed CPU, the k-th process (by pid) k CPUs
    further on than the first."""
    cpus = sorted(os.sched_getaffinity(0))
    i = 0
    while len(cpus) > 1 and not stop.wait(ALTERNATE_S):
        i += 1
        for k, pid in enumerate(sorted(session_pids(sid))):
            cpu = cpus[(i + k) % len(cpus)]
            try:
                for tid in os.listdir("/proc/%d/task" % pid):
                    os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass  # the thread or process ended meanwhile


def run(a, env):
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--cli", os.path.join("_build", "default", "bin", "compdiff_cli.exe"),
        "--spawned-at", "%.6f" % time.time(),
    ]
    # own process group, so a timeout can stop the daemon and set-up
    # sample processes the benchmark starts along with it
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    stop = threading.Event()
    mover = threading.Thread(target=rotate_cpus, args=(p.pid, stop))
    if a.workload != "serve":
        mover.start()
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("run.py: workload timed out")
    finally:
        stop.set()
        if mover.is_alive():
            mover.join()
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # exit 1 = a correctness check failed (the result line says so);
    # any other failure prints no result
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return p.returncode


def main(argv):
    a = parse_args(argv)
    env = environment()
    build(env)
    return run(a, env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
