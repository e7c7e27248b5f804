"""latflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; latflow is imported from its ``src``.
Each run spawns a fresh single-process Python (``worker.py``) that runs the
workload as a closed loop with one client for about S seconds and checks
every answer; set-up is timed for one set-up-only worker after each round,
and after the body until ten set-ups are timed.

Times (``wall_s``, ``cpu_s``, ``setup_s`` and ``units_per_s``) are given
in reference seconds (see ``hostspeed.py``): raw seconds times the host's
speed over the same span, relative to a fixed reference, sampled with a
pure-Python kernel that runs nothing of latflow.  The raw times and the
host speeds are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead.  The lines before it say
the same in words, with the environment the numbers depend on.  Results
are also appended to ``.perfbench/history.jsonl``; a run whose rational
backend or Python version differs from earlier ones there is marked as
not comparable with them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

from recorder import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run the worker; returns its result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own process group, so that a timeout also stops the worker's children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        rest = proc.stdout.read().decode().splitlines()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError("worker exited with %s before finishing" % proc.returncode)
    if not rest:
        raise BenchError("worker printed no result")
    return json.loads(rest[-1])


def tail_percentile(values):
    """Highest whole percentile with at least ten values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]


def environment(backend):
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src", "latflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "none",
        "src_sha1": digest.hexdigest()[:12],
    }


def comparability(env, record):
    """Append record to the history; say whether earlier runs are comparable."""
    path = os.path.join(ROOT, ".perfbench", "history.jsonl")
    others = set()
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                old = json.loads(line)["env"]
                if (old["backend"], old["python"]) != (env["backend"], env["python"]):
                    others.add("%s/%s" % (old["backend"], old["python"]))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if others:
        return "NOT comparable with earlier runs on %s" % ", ".join(sorted(others))
    return "comparable with earlier runs in %s" % os.path.relpath(path, ROOT)


def end_to_end(args, deadline):
    result = spawn(args, deadline)
    setups = [raw * speed for raw, speed in result["setups"]]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rounds = result["rounds"]
    # Throughput and per-round times are totals over the whole body divided
    # by the rounds run, not medians of rounds, so that every second of the
    # body counts once.  Each round's times are in reference seconds.
    walls = [r["wall"] * r["speed"] for r in rounds]
    cpus = [r["cpu"] * r["speed"] for r in rounds]
    wall = sum(walls) / len(walls)
    metrics = {
        "units_per_s": (result["units"] / wall, "1/s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(cpus) / len(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "units_per_s": "%d units per round" % result["units"],
        "wall_s": "body time per round",
        "cpu_s": "per round, run process and reaped children",
        "setup_s": "median of set-ups",
        "peak_rss_mb": "largest of the run's processes",
    }
    for name, values, what in (("wall_s", walls, "rounds"), ("cpu_s", cpus, "rounds"),
                               ("setup_s", setups, "set-ups")):
        tail = tail_percentile(values)
        notes[name] += "; %d %s, median %.4f s, %s" % (
            len(values), what, statistics.median(values),
            "p%d %.4f s" % tail if tail else "no percentile with 10 beyond it")
    raw = {"wall_s": [r["wall"] for r in rounds], "cpu_s": [r["cpu"] for r in rounds],
           "setup_s": [t for t, _ in result["setups"]]}
    for name, values in raw.items():
        notes[name] += "; raw median %.4f s" % statistics.median(values)
    speeds = [r["speed"] for r in rounds]
    notes["wall_s"] += "; host speed %.3f (%.3f-%.3f over rounds)" % (
        statistics.median(speeds), min(speeds), max(speeds))
    return result, metrics, notes


def traced(args, deadline):
    result = spawn(args, deadline)
    metrics = {name: (value, Recorder.unit(name))
               for name, value in sorted(result["layer"].items())}
    return result, metrics, {}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="float-sweep, exact-certify, lemma-sweep or float-sweep-mp")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed body")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "latflow", "__init__.py")):
        print("error: no latflow sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        result, metrics, notes = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    env = environment(result["backend"])
    attempted = result["units"] * len(result["rounds"])
    failed = result["failed"]
    print("# latflow benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env: " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    print("# " + comparability(env, record))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-44s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    print("%-44s %14.6g %-6s  (%d of %d units)" % ("fail_frac", failed / attempted, "ratio",
                                                  failed, attempted))
    for problem in result["problems"]:
        print("# FAILED: " + problem)
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
