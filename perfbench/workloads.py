"""The benchmark workloads: what one round runs, how many units it
completes, and how each answer is checked.

A round runs a workload's tasks back to back in this process.  Most tasks
are CLI commands run through ``latflow.cli.main(argv)`` with ``--out``; the
correspondence batch of ``exact-certify`` has no CLI entry and calls
``diophantine.correspondence_check`` directly.  Every latflow function is
looked up at call time, so a recorder installed for a traced round sees
the calls.

Units are counted from the configuration, never from calls, so a change
that needs fewer internal calls per answer shows as a gain.  A task whose
answer is wrong, or whose command exits non-zero, fails all of its units;
in the correspondence batch each instance is a unit of its own.

Exact answers are compared with values recorded from latflow 0.1.0, the
code this benchmark was written against, at the sizes set below
(``expected.json``).  Inputs that depend on the seed (random grids, lemma
points, the correspondence batch) are checked by the command's own gates,
by the two-route cross-check, and by repeating bit for bit in every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback

import latflow
import latflow.cli
import latflow.diophantine

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

NAMES = ("float-sweep", "exact-certify", "lemma-sweep", "float-sweep-mp")

# sizes of one round
SAMPLES = 500  # float-sweep and float-sweep-mp, per command
BATCH = 300  # exact-certify correspondence instances
MP_THREADS = 2
# Gates of the random-grid commands.  The Siegel transform has infinite
# variance in the plane, so over seeds the relative gap and the defect of
# a SAMPLES-point average have tails like 1/(SAMPLES * t^2): the largest
# of 860 seeds at 500 samples were 0.29 and 0.47.  The gates sit where
# about one seed in 10^5 would fail; the averages themselves are checked
# against recorded values on the equispaced grid (see verification).
GAP_TOL = 5.0
DEFECT_TOL = 5.0
REL_TOL = 1e-9
SIEGEL_REFERENCE = 16.0 / 3.0  # tent of radius 2, height 1 in the plane
IMAX = 8  # indices 1..8 of the schedule "i"
LEMMA_CONFIGS = (  # (label, argv tail, trials)
    ("adjoint4", ["--rep", "adjoint:4", "--config-sizes", "2,1", "--growth", "1:1,1:2"], 10),
    ("adjoint5", ["--rep", "adjoint:5", "--config-sizes", "3,1", "--growth", "1:1,1:2"], 3),
    ("wedge63", ["--rep", "wedge:6:3", "--config-sizes", "4,2", "--growth", "1:1,1:2"], 3),
    ("wedge52", ["--rep", "wedge:5:2", "--config-sizes", "3"], 20),
)


class Outcome:
    """What a task left behind: exit code, captured text and --out files."""

    def __init__(self, rc, stdout, stderr, files=None, value=None):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.files = files or {}
        self.value = value

    def fingerprint(self):
        parts = [self.stdout.encode()]
        for name in sorted(self.files):
            parts.append(name.encode() + b"\0" + self.files[name])
        return b"\0\0".join(parts)

    def report(self, command):
        return json.loads(self.files[command + ".json"])

    def csv_rows(self, command):
        lines = self.files[command + ".csv"].decode().splitlines()
        return [line.split(",") for line in lines[2:]]


class CliTask:
    """One CLI command; check_answer(task, outcome) returns a list of problems."""

    def __init__(self, label, argv, units, check, out_root):
        self.label = label
        self.units = units
        self.check_answer = check
        self.outdir = os.path.join(out_root, label)
        self.argv = argv + ["--out", self.outdir]

    def execute(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = latflow.cli.main(self.argv)
        return Outcome(rc, out.getvalue(), err.getvalue())

    def collect(self, outcome):
        # a failed command may have written nothing this round
        if outcome.rc == 0:
            for name in sorted(os.listdir(self.outdir)):
                with open(os.path.join(self.outdir, name), "rb") as fh:
                    outcome.files[name] = fh.read()
        return outcome

    def check(self, outcome):
        """(failed units, problems)."""
        if outcome.rc != 0:
            return self.units, ["%s: exit %s: %s" % (self.label, outcome.rc, outcome.stderr.strip())]
        try:
            problems = self.check_answer(self, outcome)
        except (KeyError, IndexError, ValueError, TypeError) as e:
            problems = ["%s: unreadable output: %r" % (self.label, e)]
        return (self.units if problems else 0), problems


class CorrespondenceBatch:
    """Seeded window instances cross-checked by both solubility routes."""

    def __init__(self, label, instances):
        self.label = label
        self.instances = instances
        self.units = len(instances)

    def execute(self):
        answers = []
        for xi, window in self.instances:
            try:
                rep = latflow.diophantine.correspondence_check(xi, window)
            except (latflow.RouteDisagreement, latflow.BudgetExceeded) as e:
                answers.append(e)
                continue
            answers.append(rep)
        return Outcome(0, "", "", value=answers)

    def collect(self, outcome):
        text = []
        for rep in outcome.value or ():
            if isinstance(rep, Exception):
                text.append("error %r" % (rep,))
            else:
                text.append(repr((rep.ok, rep.primal_soluble, rep.dual_soluble,
                                  rep.primal_witness, rep.dual_witness)))
        outcome.stdout = "\n".join(text)
        return outcome

    def check(self, outcome):
        if outcome.rc != 0:
            return self.units, ["%s: %s" % (self.label, outcome.stderr.strip())]
        problems = []
        for (xi, window), rep in zip(self.instances, outcome.value):
            if isinstance(rep, Exception) or not rep.ok:
                problems.append("%s: instance %r %r: %r" % (self.label, xi, window, rep))
        return len(problems), problems


def correspondence_instances(rng, count):
    """The generator of acceptance criterion 03."""
    out = []
    for _ in range(count):
        k = rng.choice((1, 2, 3))
        xi = tuple(latflow.Rat(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k))
        w = latflow.WindowSpec(
            tuple(rng.randint(1, 6) for _ in range(k)),
            latflow.Rat(rng.randint(1, 8), 8),
        )
        out.append((xi, w))
    return out


# -- answer checks ---------------------------------------------------------------


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_equidist(samples):
    def check(task, o):
        rep = o.report("equidist")
        rows = rep["rows"]
        problems = []
        if [r["index"] for r in rows] != list(range(1, IMAX + 1)):
            problems.append("indices %r" % [r["index"] for r in rows])
        for r in rows:
            if r["count"] != samples or not _close(r["reference"], SIEGEL_REFERENCE):
                problems.append("row %r" % r)
            # every unimodular planar lattice has a nonzero point in the
            # tent's support, so a zero average means points were lost
            if not (math.isfinite(r["average"]) and r["average"] > 0):
                problems.append("average %r" % r)
        if not (rep["ok"] and rows[-1]["rel_gap"] <= GAP_TOL):
            problems.append("gap gate failed: %r" % rows[-1])
        return ["%s: %s" % (task.label, p) for p in problems]

    return check


def _check_frozen_floats(command, key):
    """Averages equal to the recorded ones within REL_TOL, other fields exactly."""
    def check(task, o):
        rows = o.report(command)["rows"]
        want = EXPECTED[key]
        problems = []
        if len(rows) != len(want):
            problems.append("%d rows, want %d" % (len(rows), len(want)))
        for got, exp in zip(rows, want):
            for field, value in exp.items():
                ok = (_close(got[field], value) if isinstance(value, float) and value != 0.0
                      else got[field] == value)
                if not ok:
                    problems.append("%s %r, want %r" % (field, got[field], value))
        return ["%s: %s" % (task.label, p) for p in problems]

    return check


def _check_twist(samples, indices):
    def check(task, o):
        rep = o.report("twist")
        problems = []
        if not (rep["t0_exact"] and rep["ok"]):
            problems.append("gate failed: t0_exact=%r ok=%r" % (rep["t0_exact"], rep["ok"]))
        keys = [(r["index"], r["t"]) for r in rep["rows"]]
        if keys != [(i, t) for i in indices for t in (0.0, 1.0)]:
            problems.append("rows %r" % keys)
        for r in rep["rows"]:
            if r["t"] == 0.0 and r["defect"] != 0.0:
                problems.append("t=0 defect %r" % r["defect"])
            if r["skipped"] != 0 or r["used"] != samples:
                problems.append("samples used %r skipped %r" % (r["used"], r["skipped"]))
        return ["%s: %s" % (task.label, p) for p in problems]

    return check


def _check_nondiv(task, o):
    rows = [[r["index"], r["eps"], r["count"], r["below"], r["fraction"]]
            for r in o.report("nondiv")["rows"]]
    if rows != EXPECTED["nondiv"]:
        return ["%s: rows differ from the recorded ones" % task.label]
    return []


def _check_scan(key):
    """Scan rows, insoluble points and threshold equal to the recorded ones."""
    def check(task, o):
        rep = o.report("constructions")
        want = EXPECTED[key]
        problems = []
        scan = rep["scan"]
        if len(scan["rows"]) != want["rows"]:
            problems.append("%d rows, want %d" % (len(scan["rows"]), want["rows"]))
        if sum(1 for r in scan["rows"] if r[2]) != want["soluble"]:
            problems.append("soluble count differs")
        if scan["insoluble"] != want["insoluble"]:
            problems.append("insoluble points %r" % scan["insoluble"])
        if rep.get("threshold") != want.get("threshold"):
            problems.append("threshold %r, want %r" % (rep.get("threshold"), want.get("threshold")))
        return ["%s: %s" % (task.label, p) for p in problems]

    return check


def _check_improvability(task, o):
    rep = o.report("improvability")
    rows = [[r["mu"], r["prefix"], r["hits"], r["count"], r["fraction"]] for r in rep["rows"]]
    problems = []
    if rows != EXPECTED["improvability"]:
        problems.append("fractions %r" % [r[4] for r in rows])
    if rep["monotone"] is not True:
        problems.append("not monotone")
    return ["%s: %s" % (task.label, p) for p in problems]


def _check_gamma(task, o):
    rep = o.report("constructions")
    got = {k: rep[k] for k in ("staircase", "h", "upper", "avoidance", "ok")}
    if got != EXPECTED["gamma"] or "all certificates valid: yes" not in o.stdout:
        return ["%s: certificates differ from the recorded ones" % task.label]
    return []


def _check_lemma(trials):
    def check(task, o):
        rep = o.report("lemma-verify")
        ok = (rep["ok"] is True and rep["failures"] == [] and rep["alignment_ok"] is True
              and rep["containment_ok"] is True and rep["trials"] == trials
              and len(o.csv_rows("lemma-verify")) == trials
              and "all checks passed" in o.stdout)
        return [] if ok else ["%s: lemma checks failed: %s" % (task.label, o.stdout.strip())]

    return check


def _check_lemma_frozen(task, o):
    if o.csv_rows("lemma-verify") != EXPECTED["lemma_seed0"]:
        return ["%s: trial rows differ from the recorded ones" % task.label]
    return []


def _check_same_rows(reference):
    def check(task, o):
        if o.report("equidist")["rows"] != reference.report("equidist")["rows"]:
            return ["%s: rows differ from the single-process rows" % task.label]
        return []

    return check


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Tasks of one round, plus untimed checks run once after the body."""

    def __init__(self, name, seed, out_root):
        if name not in NAMES:
            raise ValueError("unknown workload %r; choose from %s" % (name, ", ".join(NAMES)))
        self.name = name
        self.seed = seed
        self.out_root = out_root
        self.tasks = getattr(self, "_" + name.replace("-", "_"))()
        self.units = sum(t.units for t in self.tasks)
        # lemma trials per round, the base of weights.group_matrix.per_trial
        self.trials = self.units if name == "lemma-sweep" else 0

    def _cli(self, label, argv, units, check):
        return CliTask(label, argv, units, check, self.out_root)

    def _equidist(self, label, threads, check):
        return self._cli(label, ["equidist", "--imax", str(IMAX), "--samples", str(SAMPLES),
                                 "--grid", "random", "--seed", str(self.seed),
                                 "--gap-tol", str(GAP_TOL), "--threads", str(threads)],
                         SAMPLES * IMAX, check)

    def _float_commands(self, threads):
        return [
            self._equidist("equidist", threads, _check_equidist(SAMPLES)),
            self._cli("nondiv", ["nondiv", "--eps", "0.05,0.2", "--imax", str(IMAX),
                                 "--samples", str(SAMPLES), "--threads", str(threads)],
                      SAMPLES * IMAX, _check_nondiv),
        ]

    def _float_sweep(self):
        # twist: one unit per sample and index, plus one per sheared t != 0
        return self._float_commands(1) + [
            self._cli("twist", ["twist", "--t", "0,1", "--indices", "4,8",
                                "--samples", str(SAMPLES), "--grid", "random",
                                "--seed", str(self.seed), "--defect-tol", str(DEFECT_TOL)],
                      SAMPLES * 2 * 2, _check_twist(SAMPLES, (4, 8))),
        ]

    def _float_sweep_mp(self):
        return self._float_commands(MP_THREADS)

    def _exact_certify(self):
        # unit: one window instance whose answer is reported
        scan = ["constructions", "--scan-tail"]
        return [
            self._cli("threshold", scan + ["5/2", "--scan-weights", "10,100", "--threshold",
                                           "--expect-soluble"], 200, _check_scan("threshold")),
            self._cli("control", scan + ["2", "--scan-weights", "10,100"], 200,
                      _check_scan("control")),
            self._cli("wide", scan + ["5/2", "--scan-weights", "10,100,1000,10000",
                                      "--expect-soluble"], 400, _check_scan("wide")),
            self._cli("improvability", ["improvability"], 100 * 6, _check_improvability),
            self._cli("gamma", ["constructions", "--gamma", "2,3,5,7"], 1, _check_gamma),
            CorrespondenceBatch("correspondence",
                                correspondence_instances(random.Random(self.seed), BATCH)),
        ]

    def _lemma_sweep(self):
        return [
            self._cli(label, ["lemma-verify"] + argv + ["--trials", str(trials),
                                                        "--seed", str(self.seed)],
                      trials, _check_lemma(trials))
            for label, argv, trials in LEMMA_CONFIGS
        ]

    def verification(self, outcomes):
        """Untimed (task, label of the timed task it covers) pairs, run once
        after the body on seed-independent inputs; for float-sweep-mp also
        the single-process run of the same seed.  outcomes maps task labels
        to the first round's outcomes."""
        if self.name in ("float-sweep", "float-sweep-mp"):
            mp = self.name == "float-sweep-mp"
            # indices up to 6 only: the equispaced grid holds s = 0, whose
            # translates at higher indices are slow to enumerate
            small = ["--samples", "100", "--threads", str(MP_THREADS if mp else 1)]
            pairs = [
                (self._cli("verify-equidist", ["equidist", "--imax", "6"] + small,
                           0, _check_frozen_floats("equidist", "equidist_equispaced")),
                 "equidist"),
            ]
            if mp:
                # the timed multi-process rows must match one process bit for bit
                pairs.append((self._equidist("verify-single", 1,
                                             _check_same_rows(outcomes["equidist"])),
                              "equidist"))
            else:
                pairs.append((self._cli("verify-twist", ["twist", "--t", "0,1", "--indices",
                                                         "4,6"] + small,
                                        0, _check_frozen_floats("twist", "twist_equispaced")),
                              "twist"))
            return pairs
        if self.name == "exact-certify":
            return [(FrozenBatch("verify-correspondence"), "correspondence")]
        label, argv, _ = LEMMA_CONFIGS[0]
        return [(self._cli("verify-lemma", ["lemma-verify"] + argv + ["--trials", "4", "--seed", "0"],
                           0, _check_lemma_frozen), label)]


class FrozenBatch(CorrespondenceBatch):
    """Criterion 03's own instances, with answers recorded from latflow 0.1.0."""

    def __init__(self, label):
        super().__init__(label, correspondence_instances(random.Random(303), 100))

    def check(self, outcome):
        failed, problems = super().check(outcome)
        got = [[r.primal_soluble, r.dual_soluble] for r in outcome.value or ()
               if not isinstance(r, Exception)]
        if got != EXPECTED["correspondence_seed303"]:
            problems.append("%s: answers differ from the recorded ones" % self.label)
        return failed, problems


def run_task(task):
    """Execute one task; an exception escaping the program becomes a failed
    outcome with its traceback, so one bad answer does not stop the run."""
    try:
        return task.execute()
    except Exception:  # noqa: BLE001 - boundary: report and keep running
        return Outcome(-1, "", traceback.format_exc())
