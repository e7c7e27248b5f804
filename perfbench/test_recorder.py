"""The span recorder must be invisible to the program it traces.

    python3 -m pytest perfbench/test_recorder.py

Traced and untraced runs of small versions of every workload's commands
must leave byte-identical output, and uninstalling the recorder must put
back every function and method it replaced.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import latflow  # noqa: E402
from latflow import algebra, constructions, weights  # noqa: E402
from recorder import Recorder  # noqa: E402
from workloads import CliTask, CorrespondenceBatch, correspondence_instances, run_task  # noqa: E402

SMALL_COMMANDS = [
    ["equidist", "--imax", "4", "--samples", "20", "--grid", "random", "--seed", "5"],
    ["equidist", "--imax", "3", "--samples", "20", "--threads", "2"],
    ["nondiv", "--eps", "0.05,0.2", "--imax", "4", "--samples", "20"],
    ["twist", "--t", "0,1", "--indices", "4", "--samples", "20", "--grid", "random", "--seed", "5"],
    ["constructions", "--scan-tail", "5/2", "--scan-weights", "10", "--threshold"],
    ["constructions", "--gamma", "2,3"],
    ["improvability", "--weights", "10,10;100,100", "--samples", "10"],
    ["lemma-verify", "--rep", "wedge:4:2", "--config-sizes", "2", "--trials", "2", "--seed", "5"],
    ["lemma-verify", "--rep", "adjoint:3", "--config-sizes", "2", "--trials", "1", "--seed", "5"],
]


def _bindings():
    """Every name bound in a latflow module or in the wrapped classes."""
    owners = [m for name, m in sys.modules.items()
              if name == "latflow" or name.startswith("latflow.")]
    owners += [weights.RepSpace, algebra.ExactMatrix]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def _tasks(out_root):
    tasks = [CliTask("c%d" % i, argv, 1, None, str(out_root)) for i, argv in enumerate(SMALL_COMMANDS)]
    tasks.append(CorrespondenceBatch("batch", correspondence_instances(random.Random(5), 20)))
    return tasks


def _outputs(tasks, recorder=None):
    if recorder is not None:
        recorder.install()
    try:
        outcomes = [run_task(task) for task in tasks]
    finally:
        if recorder is not None:
            assert recorder.uninstall() == []
    for task, outcome in zip(tasks, outcomes):
        task.collect(outcome)
        assert outcome.rc == 0, outcome.stderr
    return [outcome.fingerprint() for outcome in outcomes]


def test_traced_outputs_are_byte_identical(tmp_path):
    tasks = _tasks(tmp_path)
    plain = _outputs(tasks)
    recorder = Recorder()
    traced = _outputs(tasks, recorder)
    assert traced == plain
    m = recorder.layer_metrics(trials=3)
    for name in ("cli.overhead_s", "linalg.lll_reduce.calls", "lattice.enum.exact.calls",
                 "lattice.enum.float.calls", "diophantine.auto.calls",
                 "weights.group_matrix.wedge.calls", "weights.group_matrix.adjoint.calls",
                 "constructions.threshold.scans_per_call", "experiments.pool.wall_s",
                 "backend.rat.calls"):
        assert m[name] > 0, name


def test_uninstall_restores_every_original():
    before = _bindings()
    recorder = Recorder()
    recorder.install()
    try:
        assert _bindings() != before
    finally:
        assert recorder.uninstall() == []
    assert _bindings() == before


def test_calls_through_imported_names_are_recorded():
    # constructions imports window_primal_soluble by name; patching only
    # the defining module would miss these calls
    recorder = Recorder()
    recorder.install()
    try:
        constructions.varying_first_weight_scan((latflow.Rat(5, 2),), (10,), latflow.Rat(19, 20))
    finally:
        recorder.uninstall()
    m = recorder.layer_metrics(trials=0)
    assert m["constructions.scan.calls"] == 1
    assert m["diophantine.primal.calls"] == 100
    assert m["lattice.enum.exact.calls"] == 100


def test_self_time_excludes_child_spans():
    recorder = Recorder()
    recorder.install()
    try:
        latflow.cli.main(["constructions", "--gamma", "2,3"])
    finally:
        recorder.uninstall()
    m = recorder.layer_metrics(trials=0)
    total = recorder.end[0] - recorder.start[0]
    assert recorder.names[recorder.name_id[0]] == "cli.main"
    assert 0 < m["cli.overhead_s"] < total
