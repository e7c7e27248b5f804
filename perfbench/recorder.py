"""Span recorder for traced benchmark runs, installed from outside latflow.

The recorder wraps public functions of the latflow modules and records one
span per call: name, start, end and the span that was open when the call
began.  Several modules import functions by name (``from .lattice import
enumerate_basis_in_box``), so a wrapper is bound to every module-level
name in ``latflow.*`` that refers to the original function; patching only
the defining module would miss those calls.  Two methods are wrapped on
their classes: ``RepSpace.group_matrix`` and ``ExactMatrix.__matmul__``.
``backend.rat`` is only counted, because timing each of its calls would
cost more than the call itself.

Spans are kept in flat arrays in memory during a round, turned into
per-layer metrics (``layer_metrics``) after it, and can be written out as
CSV (``write_spans``) once the run is over.  Only calls made on the
thread that installed the recorder are expected: process-pool workers are
separate processes, and what they call is not recorded.
"""

from __future__ import annotations

import resource
import sys
import time
from array import array

_perf = time.perf_counter


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Recorder:
    """Spans of one traced round; ``install``/``uninstall`` bracket it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patches = []
        self.reset()

    # -- span storage ------------------------------------------------------

    def reset(self):
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra = array("q")
        self.nested = array("b")
        self._stack = []
        self._depth = [0] * len(self.names)
        self.rat_calls = 0

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.nested.append(1 if self._depth[nid] else 0)
        self.extra.append(0)
        self.end.append(0.0)
        self._depth[nid] += 1
        stack.append(idx)
        self.start.append(_perf())
        return idx

    def _close(self, idx, extra):
        self.end[idx] = _perf()
        self.extra[idx] = extra
        self._depth[self.name_id[idx]] -= 1
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, extra=None):
        """Wrap fn; name is a string or a function of (args, kwargs);
        extra, if given, maps (args, kwargs, result) to an int."""
        rec = self
        static = rec._nid(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = rec._open(static if static is not None else rec._nid(name(args, kwargs)))
            value = 0
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    value = extra(args, kwargs, result)
                return result
            finally:
                rec._close(idx, value)

        wrapper.__wrapped__ = fn
        return wrapper

    def _experiment(self, fn, name):
        """Experiment function: extra = child CPU microseconds * 2 + pooled,
        where pooled means the call asked for more than one worker."""
        rec = self
        nid = rec._nid(name)

        def wrapper(*args, **kwargs):
            pooled = 1 if kwargs.get("threads", 1) > 1 else 0
            cpu0 = _child_cpu()
            idx = rec._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx, int((_child_cpu() - cpu0) * 1e6) * 2 + pooled)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        rec = self

        def wrapper(*args, **kwargs):
            rec.rat_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _wrappers(self):
        """(owner, attribute, wrapper); owner is a module or a class."""
        from latflow import (algebra, backend, cli, constructions, diophantine,
                             experiments, lattice, linalg, sequences, weights)

        def enum_name(args, kwargs):
            return "lattice.enum." + _arg(args, kwargs, 2, "backend", "exact")

        def enum_extra(args, kwargs, result):
            return len(result) * 2 + (1 if _arg(args, kwargs, 4, "first_only", False) else 0)

        def solubility_extra(cost):
            def extra(args, kwargs, result):
                route = _arg(args, kwargs, 2, "route", "auto")
                limit = _arg(args, kwargs, 3, "direct_limit", 20_000)
                both = route == "auto" and cost(args[1] if len(args) > 1 else kwargs["window"]) <= limit
                return (2 if both else 0) + (1 if result[0] else 0)
            return extra

        def rep_name(args, kwargs):
            return "weights.group_matrix." + args[0].kind

        S = self._span
        out = [
            (linalg, "lll_reduce", S(linalg.lll_reduce, "linalg.lll_reduce")),
            (linalg, "gram_schmidt", S(linalg.gram_schmidt, "linalg.gram_schmidt")),
            (linalg, "rref", S(linalg.rref, "linalg.rref")),
            (linalg, "det", S(linalg.det, "linalg.det")),
            (lattice, "enumerate_basis_in_box",
             S(lattice.enumerate_basis_in_box, enum_name, enum_extra)),
            (lattice, "siegel_transform", S(lattice.siegel_transform, "lattice.siegel_transform")),
            (lattice, "shortest_sup_norm", S(lattice.shortest_sup_norm, "lattice.shortest_sup_norm")),
            (diophantine, "window_primal_soluble",
             S(diophantine.window_primal_soluble, "diophantine.primal",
               solubility_extra(diophantine._primal_direct_cost))),
            (diophantine, "window_dual_soluble",
             S(diophantine.window_dual_soluble, "diophantine.dual",
               solubility_extra(diophantine._dual_direct_cost))),
            (diophantine, "correspondence_check",
             S(diophantine.correspondence_check, "diophantine.correspondence_check")),
            (constructions, "varying_first_weight_scan",
             S(constructions.varying_first_weight_scan, "constructions.scan")),
            (constructions, "scan_radius_threshold",
             S(constructions.scan_radius_threshold, "constructions.threshold")),
            (weights, "hypothesis_space", S(weights.hypothesis_space, "weights.hypothesis_space")),
            (weights.RepSpace, "group_matrix", S(weights.RepSpace.group_matrix, rep_name)),
            (algebra.ExactMatrix, "__matmul__", S(algebra.ExactMatrix.__matmul__, "algebra.matmul")),
            (algebra, "expanding_diagonal",
             S(algebra.expanding_diagonal, "algebra.expanding_diagonal")),
            (sequences, "layered_presentation",
             S(sequences.layered_presentation, "sequences.layered_presentation")),
            (experiments, "translate_lattice",
             S(experiments.translate_lattice, "experiments.translate_lattice")),
            (cli, "main", S(cli.main, "cli.main")),
            (backend, "rat", self._counted(backend.rat)),
        ]
        for name in ("equidistribution_siegel", "nondivergence_scan",
                     "shear_invariance_scan", "improvability_scan"):
            out.append((experiments, name,
                        self._experiment(getattr(experiments, name), "experiments." + name)))
        # every other latflow function the CLI calls gets a span too, so that
        # the self time of cli.main is parsing, printing and file output only
        done = {getattr(owner, attr) for owner, attr, _ in out}
        for attr, obj in sorted(vars(cli).items()):
            mod = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type) and obj not in done
                    and mod.startswith("latflow.") and mod != "latflow.cli"):
                out.append((sys.modules[mod], attr,
                            S(obj, mod.split(".", 1)[1] + "." + attr)))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "latflow" or name.startswith("latflow."))]
        for owner, attr, wrapper in self._wrappers():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name in [k for k, v in vars(mod).items() if v is original]:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        """Put every original back; returns the names left unrestored."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                for owner, attr, original in patches
                if vars(owner).get(attr) is not original]

    def write_spans(self, path):
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,extra\n")
            for i in range(len(self.start)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, self.names[self.name_id[i]], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.extra[i]))

    # -- metrics ---------------------------------------------------------------

    @staticmethod
    def unit(metric):
        """Unit of a per-layer metric, read off its name."""
        last = metric.rsplit(".", 1)[-1]
        if last in ("self_s", "total_s", "wall_s", "child_cpu_s", "overhead_s"):
            return "s"
        if last == "out_bytes":
            return "bytes"
        if last.endswith(("_ratio", "_frac")) or last.startswith("per_") or "_per_" in last:
            return "ratio"
        return "count"

    def layer_metrics(self, trials):
        """Per-layer metrics of the recorded round (see BENCHMARK.json)."""
        n = len(self.start)
        parent, extra = self.parent, self.extra
        sname = [self.names[k] for k in self.name_id]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = {}
        total = {}
        self_s = {}
        for i in range(n):
            nm = sname[i]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
            if not self.nested[i]:
                total[nm] = total.get(nm, 0.0) + dur[i]

        def under(child_name, parent_name):
            return sum(1 for i in range(n) if sname[i] == child_name
                       and parent[i] >= 0 and sname[parent[i]] == parent_name)

        def spans(nm):
            return [i for i in range(n) if sname[i] == nm]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}

        def put(nm, *kinds):
            for kind in kinds:
                src = {"calls": calls, "self_s": self_s, "total_s": total}[kind]
                m[nm + "." + kind] = src.get(nm, 0)

        put("linalg.lll_reduce", "calls", "self_s")
        put("linalg.gram_schmidt", "calls")
        m["linalg.gram_schmidt.per_lll"] = ratio(
            under("linalg.gram_schmidt", "linalg.lll_reduce"), calls.get("linalg.lll_reduce", 0))
        put("linalg.rref", "calls", "self_s")
        put("linalg.det", "calls", "self_s")

        put("lattice.enum.float", "calls", "self_s")
        m["lattice.enum.float.points"] = sum(extra[i] >> 1 for i in spans("lattice.enum.float"))
        put("lattice.enum.exact", "calls", "self_s")
        first = [i for i in spans("lattice.enum.exact") if extra[i] & 1]
        m["lattice.enum.exact.hit_ratio"] = ratio(sum(1 for i in first if extra[i] >> 1), len(first))
        put("lattice.siegel_transform", "calls", "total_s")
        put("lattice.shortest_sup_norm", "calls")
        m["lattice.shortest_sup_norm.enum_per_call"] = ratio(
            under("lattice.enum.float", "lattice.shortest_sup_norm")
            + under("lattice.enum.exact", "lattice.shortest_sup_norm"),
            calls.get("lattice.shortest_sup_norm", 0))

        auto = 0
        for side in ("primal", "dual"):
            nm = "diophantine." + side
            put(nm, "calls", "total_s")
            idx = spans(nm)
            m[nm + ".soluble_ratio"] = ratio(sum(extra[i] & 1 for i in idx), len(idx))
            auto += sum(1 for i in idx if extra[i] & 2)
        m["diophantine.auto.calls"] = auto

        put("constructions.scan", "calls", "total_s")
        m["constructions.threshold.scans_per_call"] = ratio(
            under("constructions.scan", "constructions.threshold"),
            calls.get("constructions.threshold", 0))

        put("weights.group_matrix.adjoint", "calls", "self_s")
        put("weights.group_matrix.wedge", "calls", "self_s")
        m["weights.group_matrix.per_trial"] = ratio(
            calls.get("weights.group_matrix.adjoint", 0) + calls.get("weights.group_matrix.wedge", 0),
            trials)
        put("weights.hypothesis_space", "calls", "total_s")

        put("algebra.matmul", "calls", "self_s")
        put("algebra.expanding_diagonal", "calls")
        put("sequences.layered_presentation", "total_s")

        pool_wall = pool_cpu = 0.0
        for name in ("equidistribution_siegel", "nondivergence_scan",
                     "shear_invariance_scan", "improvability_scan"):
            nm = "experiments." + name
            put(nm, "total_s")
            for i in spans(nm):
                pool_cpu += (extra[i] >> 1) / 1e6
                if extra[i] & 1:
                    pool_wall += dur[i]
        put("experiments.translate_lattice", "calls", "self_s")
        m["experiments.pool.wall_s"] = pool_wall
        m["experiments.pool.child_cpu_s"] = pool_cpu

        m["cli.overhead_s"] = self_s.get("cli.main", 0.0)
        m["backend.rat.calls"] = self.rat_calls
        m["trace.spans"] = n
        return m
