"""One benchmark run in a fresh interpreter.

Sets up (imports latflow from the checkout's ``src`` and builds the
workload's inputs from the seed), prints ``ready``, then runs rounds of the
workload back to back for about ``--seconds`` seconds, checks every answer
and prints one JSON summary line.  With ``--setup-only`` it exits right
after ``ready``; set-up is timed that way, by the worker between rounds
and after them.  Rounds and set-ups sample the host's speed while they
run (``hostspeed.Sampler``), so that their times can be given in
reference seconds.

With ``--trace 1`` rounds alternate between untraced and traced, starting
untraced.  Every round's output must equal the first round's byte for byte,
which also shows that tracing does not change what the program computes.
The spans of the last traced round are written to
``.perfbench/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

MIN_SETUPS = 10  # set-ups timed per untraced run, the median is reported
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)  # the checkout's latflow, never an installed copy

import latflow  # noqa: E402
import hostspeed  # noqa: E402
from recorder import Recorder  # noqa: E402
from workloads import Workload, run_task  # noqa: E402


def _cpu():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def setup_probe(workload):
    """[seconds from spawning a set-up-only worker to its ready line, host
    speed sampled by this process meanwhile]."""
    sampler = hostspeed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload",
                               workload.name, "--seed", str(workload.seed), "--setup-only"],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe exited with %s" % proc.returncode)
    return [ready, sampler.speed()]


def _round(workload, recorder, first, failed_by_label):
    """Run one round; returns its record."""
    if recorder is not None:
        recorder.reset()
        recorder.install()
    sampler = hostspeed.Sampler()
    try:
        with sampler:
            cpu0 = _cpu()
            t0 = time.perf_counter()
            outcomes = [run_task(task) for task in workload.tasks]
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
    finally:
        unrestored = recorder.uninstall() if recorder is not None else []

    problems = ["recorder left %s patched" % ", ".join(unrestored)] if unrestored else []
    out_bytes = 0
    for task, outcome in zip(workload.tasks, outcomes):
        task.collect(outcome)
        out_bytes += sum(len(data) for data in outcome.files.values())
        bad, found = task.check(outcome)
        if task.label not in first:
            first[task.label] = outcome
        elif outcome.fingerprint() != first[task.label].fingerprint():
            bad, found = task.units, found + ["%s: output differs from the first round" % task.label]
        if unrestored:
            bad = task.units
        failed_by_label.setdefault(task.label, []).append(bad)
        problems += found
    record = {"wall": wall, "cpu": cpu, "speed": sampler.speed(), "traced": recorder is not None,
              "problems": problems}
    if recorder is not None:
        record["layer"] = recorder.layer_metrics(workload.trials)
        record["layer"]["cli.out_bytes"] = out_bytes
    return record


def body(workload, seconds, trace, spans_path):
    """Rounds for about `seconds`; untraced runs also time one set-up
    after each round, so that set-up samples span the whole run."""
    recorder = Recorder() if trace else None
    first = {}
    failed_by_label = {}
    rounds = []
    setups = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_round(workload, recorder if traced else None, first, failed_by_label))
        if not trace:
            setups.append(setup_probe(workload))
        enough = len(rounds) >= (2 if trace else 1)
        median_wall = statistics.median(r["wall"] for r in rounds)
        # stop where the body ends nearest to the requested length
        if enough and time.perf_counter() - start + median_wall / 2 >= seconds:
            break
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(setup_probe(workload))

    if recorder is not None:
        recorder.write_spans(spans_path)  # the last traced round
    problems = [p for r in rounds for p in r.pop("problems")]
    # untimed checks on seed-independent inputs, once per run; a failure
    # fails every unit of the timed task it covers
    for task, covers in workload.verification(first):
        outcome = task.collect(run_task(task))
        bad, found = task.check(outcome)
        if bad or found:
            problems += found or ["%s failed" % task.label]
            units = next(t.units for t in workload.tasks if t.label == covers)
            failed_by_label[covers] = [units] * len(rounds)
    return rounds, setups, problems, sum(sum(v) for v in failed_by_label.values())


def layer_summary(rounds):
    """Median of each per-layer metric over the traced rounds, plus the
    tracing overhead (traced minus untraced median round wall time, both
    in reference seconds)."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r["wall"] * r["speed"] for r in rounds if not r["traced"]]
    keys = traced[0]["layer"]
    out = {k: statistics.median(r["layer"][k] for r in traced) for k in keys}
    traced_wall = statistics.median(r["wall"] * r["speed"] for r in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(plain)
    out["trace.overhead_frac"] = out["trace.overhead_s"] / statistics.median(plain)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if os.path.dirname(os.path.abspath(latflow.__file__)) != os.path.join(SRC, "latflow"):
        raise SystemExit("latflow was imported from %s, not from %s" % (latflow.__file__, SRC))
    out_root = os.path.join(ROOT, ".perfbench", "out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    workload = Workload(args.workload, args.seed, out_root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    spans_path = os.path.join(ROOT, ".perfbench", "spans-%s.csv" % args.workload)
    rounds, setups, problems, failed = body(workload, args.seconds, bool(args.trace), spans_path)
    result = {
        "units": workload.units,
        "rounds": rounds,
        "setups": setups,
        "failed": failed,
        "problems": problems[:20],
        "backend": latflow.Rat.__module__.split(".")[0],
    }
    if args.trace:
        result["layer"] = layer_summary(rounds)
        for r in rounds:
            r.pop("layer", None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
