"""Command line front end for the experiment drivers and exact checks.

Exit codes: 0 on success, 1 when a checked property fails (including a
dual-route disagreement or an enumeration budget blow-up), 2 on usage
errors.  Tables are CSV with the first line '# latflow-csv v1'; a run
with --out also writes <command>.json (the full report) and a
manifest.json echoing the resolved configuration together with a
git-blob-style sha1 content hash of it.

Every flag is declared once, in the _FLAGS table.  A subcommand takes
the flags named by the keys of its *_DEFAULTS dict (see _COMMANDS), and
the keys of a JSON --config file are the same flag names, with dashes as
underscores, and each value has the type its flag gives (see
_CONFIG_TYPES); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from dataclasses import fields, is_dataclass

from . import __version__
from .algebra import ExactMatrix
from .backend import BudgetExceeded, Rat, rat
from .constructions import (
    THRESHOLD_STEP,
    block_transport_witness,
    scan_radius_threshold,
    staircase_unimodular,
    unit_lower_elimination,
    unit_triangular_avoidance_check,
    varying_first_weight_scan,
)
from . import weights
from .diophantine import Curve, RouteDisagreement
from .experiments import (
    ImprovabilityRow,
    NondivergenceRow,
    ShearRow,
    SiegelRow,
    equidistribution_siegel,
    improvability_scan,
    nondivergence_scan,
    shear_invariance_scan,
)
from .lattice import Tent
from .sequences import RateSchedule, layered_presentation
from .weights import (
    ClosedForm,
    GrowthSpec,
    RepSpace,
    curve_hypothesis_fixed_check,
    lemma_reports,
    weight_alignment_check,
)

CSV_TAG = "# latflow-csv v1"


# -- serialization helpers ------------------------------------------------


def _git_blob_sha1(data: bytes) -> str:
    # same digest `git hash-object` would assign the bytes
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Rat):
        return str(obj)
    if isinstance(obj, ExactMatrix):
        return [[str(x) for x in row] for row in obj.rows]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset, range)):
        return [_jsonify(v) for v in obj]
    return str(obj)


def _row_table(row_type, rows):
    """CSV header and rows of a list of row_type dataclasses, in field order."""
    names = [f.name for f in fields(row_type)]
    return names, [[getattr(r, name) for name in names] for r in rows]


def _manifest(command, cfg):
    # hash the computational config only: where the files land is not
    # part of what was computed
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(
        _jsonify(hashed), sort_keys=True, separators=(",", ":")
    ).encode()
    return {
        "tool": "latflow",
        "version": __version__,
        "csv_schema": "latflow-csv v1",
        "command": command,
        "config": _jsonify(cfg),
        "content_hash": _git_blob_sha1(blob),
        "python": sys.version.split()[0],
    }


def _emit(command, cfg, header, rows, report):
    """Print the table; with --out also write csv + json + manifest.

    The table is one set of lines.  Printed, each ends in LF; in the CSV
    file the tag line ends in LF and the others in CRLF.  No cell holds a
    comma, a quote or a line end, so no cell is quoted."""
    if header is not None:
        lines = [",".join(header)] + [",".join(str(x) for x in row) for row in rows]
        print(CSV_TAG)
        print("\n".join(lines))
    out = cfg.get("out")
    if not out:
        return
    os.makedirs(out, exist_ok=True)
    if header is not None:
        with open(os.path.join(out, command + ".csv"), "w", newline="") as fh:
            fh.write(CSV_TAG + "\n" + "".join(line + "\r\n" for line in lines))
    with open(os.path.join(out, command + ".json"), "w") as fh:
        json.dump(_jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(_manifest(command, cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- flag parsing ----------------------------------------------------------

_SWITCH = {"action": "store_true", "default": None}

# every flag once, as add_argument keywords; a flag without a type is kept
# as the string given, and a switch stays None (not False) when absent
_FLAGS = {
    "config": {"help": "JSON config file; flags override it"},
    "out": {"help": "output directory for csv/json/manifest"},
    "grid": {"choices": ["equispaced", "random"]},
    "seed": {"type": int},
    "threads": {"type": int},
    "budget": {"type": int, "help": "enumeration node budget"},
    "curve": {"help": "comma-separated polynomials in s"},
    "domain": {"help": "parameter interval a,b (default 0,1)"},
    "sequence": {"help": "comma-separated closed forms in i"},
    "indices": {"help": "explicit index list, e.g. 4,6,8"},
    "imax": {"type": int, "help": "use indices ordered_from..imax"},
    "samples": {"type": int},
    "tent_center": {},
    "tent_radius": {"type": float},
    "tent_height": {"type": float},
    "weights": {"help": "rows 'a,b;c,d;...'"},
    "mu": {"help": "window radii, comma separated rationals"},
    "doubled": _SWITCH,
    "gap_tol": {"type": float, "help": "gate: final-index relative gap at most this"},
    "eps": {"help": "thresholds, comma separated"},
    "frac_tol": {"help": "gate: every escape fraction at most this"},
    "t": {"help": "shear amounts, comma separated"},
    "defect_tol": {"type": float,
                   "help": "gate: final-index defect at most tol * sup f"},
    "rep": {"help": "wedge:n:d or adjoint:n"},
    "config_sizes": {"help": "block sizes m1,m2,... (decreasing)"},
    "growth": {"help": "per-layer forms 'c:p,c:p' ('+' joins monomials)"},
    "trials": {"type": int},
    "gamma": {"help": "integer weights a,b,... for the staircase"},
    "lead": {"type": int, "help": "leading ones in the transport witness"},
    "scan_tail": {"help": "fixed tail weights for the first-weight scan"},
    "scan_weights": {"help": "first weights to sweep"},
    "scan_mu": {"help": "window radius"},
    "threshold": {**_SWITCH, "help": "bisect the all-soluble radius threshold"},
    "expect_soluble": {**_SWITCH,
                       "help": "gate: fail when any grid point is insoluble"},
    "check_at": {"help": "indices for the exp identity check"},
    "err_tol": {"type": float},
}


# the JSON types a config value may take: the type its flag gives on the
# command line, where a float flag also takes a JSON integer and a bool is
# never a number; nothing is converted
_CONFIG_TYPES = {
    "store_true": ((bool,), "a boolean"),
    str: ((str,), "a string"),
    int: ((int,), "int"),
    float: ((int, float), "float"),
}


def _merged(ns, defaults):
    """Resolve flags against the optional JSON config file; flags win, and
    a config value of null counts as absent."""
    cfg = {}
    if ns.config:
        with open(ns.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object, not %r" % (cfg,))
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(unknown))
    out = {}
    for key, dv in defaults.items():
        v = getattr(ns, key)
        if v is None and cfg.get(key) is not None:
            v = cfg[key]
            flag = _FLAGS[key]
            types, name = _CONFIG_TYPES[flag.get("action", flag.get("type", str))]
            if type(v) not in types:
                raise ValueError("config key %s wants %s, got %r" % (key, name, v))
        out[key] = dv if v is None else v
    return out


def _require(cfg, key):
    if cfg[key] is None:
        raise ValueError("missing --%s" % key.replace("_", "-"))
    return cfg[key]


def _tolerance(cfg, key):
    """The gate tolerance cfg[key], a rational when its flag is text, or
    None when absent.  NaN or a negative tolerance is a usage error, not a
    gate that fails."""
    tol = cfg[key]
    if isinstance(tol, str):
        tol = rat(tol)
    if tol is not None and not tol >= 0:
        raise ValueError("--%s must be at least 0, got %s" % (key.replace("_", "-"), cfg[key]))
    return tol


def _split_list(text, sep=","):
    return [t.strip() for t in text.split(sep) if t.strip()]


def _list_flag(cfg, key, kind=str, sep=","):
    """The items of the list flag cfg[key], each read by kind.  A missing
    or empty list is a usage error, raised before any table is printed."""
    items = _split_list(_require(cfg, key), sep)
    if not items:
        raise ValueError("--%s wants at least one value, got %r" % (key.replace("_", "-"), cfg[key]))
    return [kind(t) for t in items]


def _weight_rows(cfg):
    """Rows of rational weights, '10,10;100,100'."""
    return [tuple(map(rat, _split_list(r))) for r in _list_flag(cfg, "weights", sep=";")]


def _parse_curve(cfg):
    dom = _list_flag(cfg, "domain", rat) if cfg["domain"] is not None else [0, 1]
    if len(dom) != 2:
        raise ValueError("--domain wants two endpoints")
    curve = Curve.parse(_require(cfg, "curve"), tuple(dom))
    if not curve.affine_span_full():
        print("note: the curve lies in a proper affine subspace; the theorem's "
              "hypothesis fails", file=sys.stderr)
    return curve


def _curve_schedule_indices(cfg):
    """The curve, the rate schedule and the index list of a sweep, parsed
    in that order."""
    curve = _parse_curve(cfg)
    schedule = RateSchedule.parse(_require(cfg, "sequence"))
    if cfg["indices"] is not None:
        return curve, schedule, _list_flag(cfg, "indices", int)
    if cfg["imax"] is None:
        raise ValueError("need --indices or --imax")
    lo = schedule.ordered_from()
    if cfg["imax"] < lo:
        raise ValueError("--imax must be at least %d, the first ordered index, got %d" % (lo, cfg["imax"]))
    return curve, schedule, list(range(lo, cfg["imax"] + 1))


def _parse_growth(cfg):
    """Layers comma-separated; monomials '+'-separated, each c:p."""
    layers = []
    for part in _list_flag(cfg, "growth"):
        monos = []
        for m in part.split("+"):
            c, sep, p = m.partition(":")
            if not sep:
                raise ValueError("growth monomial %r wants c:p" % m)
            monos.append((c, p))
        layers.append(ClosedForm(tuple(monos)))
    return GrowthSpec(tuple(layers))


def _parse_rep(text):
    parts = text.split(":")
    if parts[0] == "wedge" and len(parts) == 3:
        return RepSpace(int(parts[1]), "wedge", int(parts[2]))
    if parts[0] == "adjoint" and len(parts) == 2:
        return RepSpace(int(parts[1]), "adjoint")
    raise ValueError("rep must be wedge:n:d or adjoint:n; got %r" % text)


def _build_tent(cfg, n):
    center = (
        _list_flag(cfg, "tent_center", float)
        if cfg["tent_center"] is not None
        else [0.0] * n
    )
    if len(center) != n:
        raise ValueError("tent center wants %d coordinates" % n)
    return Tent(tuple(center), cfg["tent_radius"], cfg["tent_height"])


def _experiment_kwargs(cfg):
    if cfg["threads"] < 1:
        raise ValueError("--threads must be at least 1, got %d" % cfg["threads"])
    kw = {"threads": cfg["threads"], "grid": cfg["grid"], "seed": cfg["seed"]}
    if cfg.get("budget") is not None:
        # a budget below one node would report every walk as a blow-up
        if cfg["budget"] < 1:
            raise ValueError("--budget must be at least 1, got %d" % cfg["budget"])
        kw["budget"] = cfg["budget"]
    return kw


# -- subcommands -----------------------------------------------------------

_GRID_FLAGS = {"grid": "equispaced", "seed": 0, "threads": 1, "budget": None}
_OUT_FLAGS = {"out": None}

IMPROVABILITY_DEFAULTS = dict(
    curve="s,s^2",
    domain=None,
    weights="10,10;100,100;1000,1000;10000,10000;100000,100000;1000000,1000000",
    mu="1/2",
    samples=100,
    **_GRID_FLAGS,
    **_OUT_FLAGS,
)


def _cmd_improvability(cfg):
    curve = _parse_curve(cfg)
    rows = improvability_scan(
        curve,
        _weight_rows(cfg),
        _list_flag(cfg, "mu", rat),
        cfg["samples"],
        **_experiment_kwargs(cfg),
    )
    # fractions cannot increase with the prefix length: each longer prefix
    # intersects one more event
    monotone = True
    by_mu = {}
    for r in rows:
        by_mu.setdefault(str(r.mu), []).append(r)
    for seq in by_mu.values():
        seq.sort(key=lambda r: r.prefix)
        for a, b in zip(seq, seq[1:]):
            if b.fraction > a.fraction:
                monotone = False
    header, table = _row_table(ImprovabilityRow, rows)
    report = {"rows": rows, "monotone": monotone}
    _emit("improvability", cfg, header, table, report)
    print("monotone in prefix length: %s" % ("yes" if monotone else "NO"))
    return 0 if monotone else 1


EQUIDIST_DEFAULTS = dict(
    curve="s",
    domain=None,
    sequence="i",
    indices=None,
    imax=8,
    samples=2000,
    tent_center=None,
    tent_radius=2,
    tent_height=1,
    doubled=None,
    gap_tol=None,
    **_GRID_FLAGS,
    **_OUT_FLAGS,
)


def _cmd_equidist(cfg):
    curve, schedule, indices = _curve_schedule_indices(cfg)
    tol = _tolerance(cfg, "gap_tol")
    tent = _build_tent(cfg, curve.k + 1)
    rows = equidistribution_siegel(
        curve,
        schedule,
        indices,
        cfg["samples"],
        tent,
        doubled=bool(cfg["doubled"]),
        **_experiment_kwargs(cfg),
    )
    header, table = _row_table(SiegelRow, rows)
    ok = True
    # asymptotic statement: gate the largest index only, in any listed order
    last = max(rows, key=lambda r: r.index)
    if tol is not None:
        ok = last.rel_gap <= tol
    report = {"rows": rows, "gap_tol": cfg["gap_tol"], "ok": ok}
    _emit("equidist", cfg, header, table, report)
    if cfg["gap_tol"] is not None:
        print(
            "final rel gap %.6f vs tol %s: %s"
            % (last.rel_gap, cfg["gap_tol"], "ok" if ok else "FAIL")
        )
    return 0 if ok else 1


NONDIV_DEFAULTS = dict(
    curve="s",
    domain=None,
    sequence="i",
    indices=None,
    imax=8,
    samples=2000,
    eps="0.05",
    frac_tol=None,
    **_GRID_FLAGS,
    **_OUT_FLAGS,
)


def _cmd_nondiv(cfg):
    curve, schedule, indices = _curve_schedule_indices(cfg)
    tol = _tolerance(cfg, "frac_tol")
    rows = nondivergence_scan(
        curve,
        schedule,
        indices,
        _list_flag(cfg, "eps", float),
        cfg["samples"],
        **_experiment_kwargs(cfg),
    )
    header, table = _row_table(NondivergenceRow, rows)
    ok = True
    if tol is not None:
        ok = all(r.fraction <= tol for r in rows)
    report = {"rows": rows, "frac_tol": cfg["frac_tol"], "ok": ok}
    _emit("nondiv", cfg, header, table, report)
    if cfg["frac_tol"] is not None:
        worst = max(r.fraction for r in rows)
        print(
            "worst escape fraction %s vs tol %s: %s"
            % (worst, cfg["frac_tol"], "ok" if ok else "FAIL")
        )
    return 0 if ok else 1


TWIST_DEFAULTS = dict(
    curve="s",
    domain=None,
    sequence="i",
    indices=None,
    imax=8,
    t="0,1",
    samples=1000,
    tent_center=None,
    tent_radius=2,
    tent_height=1,
    defect_tol=None,
    **_GRID_FLAGS,
    **_OUT_FLAGS,
)


def _cmd_twist(cfg):
    curve, schedule, indices = _curve_schedule_indices(cfg)
    tol = _tolerance(cfg, "defect_tol")
    tent = _build_tent(cfg, curve.k + 1)
    rows = shear_invariance_scan(
        curve,
        schedule,
        indices,
        _list_flag(cfg, "t", float),
        cfg["samples"],
        tent,
        **_experiment_kwargs(cfg),
    )
    header, table = _row_table(ShearRow, rows)
    # t = 0 is the untwisted average itself; its defect must be exact zero
    exact_zero = all(r.defect == 0.0 for r in rows if r.t == 0.0)
    ok = exact_zero
    if tol is not None:
        last = max(r.index for r in rows)
        ok = exact_zero and all(
            r.defect <= tol * r.sup_f
            for r in rows
            if r.index == last and r.t != 0.0
        )
    report = {
        "rows": rows,
        "defect_tol": cfg["defect_tol"],
        "t0_exact": exact_zero,
        "ok": ok,
    }
    _emit("twist", cfg, header, table, report)
    print("t=0 defect exactly zero: %s" % ("yes" if exact_zero else "NO"))
    return 0 if ok else 1


LEMMA_DEFAULTS = dict(
    rep=None,
    config_sizes=None,
    growth=None,
    trials=20,
    seed=0,
    curve=None,
    domain=None,
    **_OUT_FLAGS,
)


def _random_support_points(rng, n, m1):
    """m1+1 small integer points supported on the first m1 coordinates,
    redrawn until they affinely span that copy of R^m1."""
    while True:
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(m1)) + (0,) * (n - 1 - m1)
            for _ in range(m1 + 1)
        ]
        if weights._points_ok(pts, n, m1):
            return pts


def _cmd_lemma_verify(cfg):
    rep = _parse_rep(_require(cfg, "rep"))
    # an empty list is refused by the block sizes' own check
    sizes = weights.validate_block_sizes(rep.n, _split_list(_require(cfg, "config_sizes")))
    k = len(sizes)
    if cfg["growth"] is not None:
        growth = _parse_growth(cfg)
    elif k == 1:
        growth = GrowthSpec.simple([(1, 1)])
    else:
        raise ValueError("missing --growth (one c:p layer per block)")
    if growth.k != k:
        raise ValueError("growth has %d layers for %d blocks" % (growth.k, k))
    if cfg["curve"] is not None:
        curve = _parse_curve(cfg)
    else:
        # moment curve: always affinely full, so a fair default
        curve = Curve.parse(
            ", ".join("s^%d" % (j + 1) for j in range(rep.n - 1))
        )
    trials = cfg["trials"]
    if trials < 0:
        raise ValueError("--trials must be at least 0, got %d" % trials)
    weights._check_curve_dim(rep, curve)
    rng = random.Random(cfg["seed"])

    failures = []
    trial_rows = []
    for t in range(trials):
        pts = _random_support_points(rng, rep.n, sizes[0])
        main_rep, span_rep = lemma_reports(rep, sizes, growth, pts, require_spanning=False)
        trial_rows.append(
            [t, main_rep.ok, main_rep.hypothesis_dim, span_rep.ok, span_rep.hypothesis_dim]
        )
        if not main_rep.ok:
            failures.append(("projection", t, main_rep))
        if not span_rep.ok:
            failures.append(("spanning", t, span_rep))
    alignment = weight_alignment_check(rep, sizes)
    if not alignment.ok:
        failures.append(("alignment", -1, alignment))
    containment = curve_hypothesis_fixed_check(rep, sizes, growth, curve)
    if not containment.ok:
        failures.append(("containment", -1, containment))

    header = ["trial", "projection_ok", "hypothesis_dim", "spanning_ok", "spanning_dim"]
    report = {
        "rep": cfg["rep"],
        "config": list(sizes),
        "growth": [[str(c) + ":" + str(p) for c, p in layer.terms] for layer in growth.layers],
        "trials": trials,
        "alignment_ok": alignment.ok,
        "containment_ok": containment.ok,
        "failures": [(kind, t, r) for kind, t, r in failures],
        "ok": not failures,
    }
    _emit("lemma-verify", cfg, header, trial_rows, report)
    print(
        "%d trials, alignment %s, containment %s -> %s"
        % (
            trials,
            "ok" if alignment.ok else "FAIL",
            "ok" if containment.ok else "FAIL",
            "all checks passed" if not failures else "%d FAILURES" % len(failures),
        )
    )
    return 0 if not failures else 1


CONSTRUCTIONS_DEFAULTS = dict(
    gamma=None,
    lead=1,
    scan_tail=None,
    scan_weights="10,100,1000,10000",
    scan_mu="19/20",
    threshold=None,
    expect_soluble=None,
    **_OUT_FLAGS,
)


def _cmd_constructions(cfg):
    if cfg["gamma"] is None and cfg["scan_tail"] is None:
        raise ValueError("need --gamma or --scan-tail")

    if cfg["gamma"] is not None:
        gamma_weights = _list_flag(cfg, "gamma", int)
        gamma = staircase_unimodular(gamma_weights)
        h, upper = unit_lower_elimination(gamma)
        structural, enumerated = unit_triangular_avoidance_check(h)
        witness = block_transport_witness(gamma_weights, cfg["lead"])
        print("staircase for weights %s (det %s):" % (gamma_weights, gamma.det()))
        for row in gamma.rows:
            print("  " + "  ".join(str(x) for x in row))
        print("unit lower eliminator h:")
        for row in h.rows:
            print("  " + "  ".join(str(x) for x in row))
        print(
            "h avoids the open unit box: structural=%s enumerated=%s"
            % (structural, enumerated)
        )
        print("block transport checks: %s" % witness.checks)
        ok = structural and enumerated and witness.ok
        report = {
            "weights": gamma_weights,
            "staircase": gamma,
            "h": h,
            "upper": upper,
            "avoidance": {"structural": structural, "enumerated": enumerated},
            "transport": witness,
            "ok": ok,
        }
        _emit("constructions", cfg, None, None, report)
        print("all certificates valid: %s" % ("yes" if ok else "NO"))
        return 0 if ok else 1

    tail = tuple(_list_flag(cfg, "scan_tail", rat))
    first_weights = _list_flag(cfg, "scan_weights", rat)
    mu = rat(cfg["scan_mu"])
    if cfg["threshold"]:
        # the threshold runs the one full scan, at mu, and hands it back
        thr, _, scan = scan_radius_threshold(tail, first_weights, mu)
        report = {"scan": scan, "threshold": thr}
        print("all-soluble radius threshold (to %s): %s" % (THRESHOLD_STEP, thr))
    else:
        scan = varying_first_weight_scan(tail, first_weights, mu)
        report = {"scan": scan}
    header = ["first_weight", "point", "soluble"]
    table = [[w, " ".join(str(c) for c in p), sol] for w, p, sol in scan.rows]
    _emit("constructions", cfg, header, table, report)
    print("radius %s, tail %s: %d insoluble of %d"
          % (mu, ",".join(map(str, tail)), len(scan.insoluble), len(scan.rows)))
    if cfg["expect_soluble"] and not scan.all_soluble:
        return 1
    return 0


LAYERED_DEFAULTS = dict(sequence=None, check_at="5,10", err_tol=1e-9, **_OUT_FLAGS)


def _cmd_layered(cfg):
    schedule = RateSchedule.parse(_require(cfg, "sequence"))
    tol = _tolerance(cfg, "err_tol")
    pres = layered_presentation(schedule)
    checks = _list_flag(cfg, "check_at", int)
    errs = {i: pres.exp_identity_error(i) for i in checks}
    ok = all(e <= tol for e in errs.values())
    header = ["index", "exp_identity_error"]
    table = [[i, errs[i]] for i in checks]
    report = {
        "n": pres.n,
        "block_sizes": list(pres.block_sizes),
        "layers": [str(f) for f in pres.growth.layers],
        "anchored": [str(f) for f in pres.anchored],
        "residual": list(pres.residual),
        "errors": {str(i): errs[i] for i in checks},
        "ok": ok,
    }
    print("blocks %s, layers %s, residual %s" % (
        list(pres.block_sizes),
        [str(f) for f in pres.growth.layers],
        [str(x) for x in pres.residual],
    ))
    _emit("layered", cfg, header, table, report)
    return 0 if ok else 1


# -- parser ----------------------------------------------------------------

# name -> (help, defaults, handler); a subcommand's flags are the keys of
# its defaults, so --config and the command line accept the same names
_COMMANDS = {
    "improvability": ("window hit fractions along weight rows",
                      IMPROVABILITY_DEFAULTS, _cmd_improvability),
    "equidist": ("Siegel averages vs the integral reference",
                 EQUIDIST_DEFAULTS, _cmd_equidist),
    "nondiv": ("fractions of samples with a short lattice vector",
               NONDIV_DEFAULTS, _cmd_nondiv),
    "twist": ("aligned averages under an extra shear", TWIST_DEFAULTS, _cmd_twist),
    "lemma-verify": ("randomized checks of the projection lemmas",
                     LEMMA_DEFAULTS, _cmd_lemma_verify),
    "constructions": ("staircase certificates and window scans",
                      CONSTRUCTIONS_DEFAULTS, _cmd_constructions),
    "layered": ("layered normal form of a rate schedule",
                LAYERED_DEFAULTS, _cmd_layered),
}


# parse_args leaves a parser as it was, so one parser serves every call in
# a process; a parser built per call leaves hundreds of objects in
# reference cycles for the garbage collector
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latflow",
        description="expanding lattice translates along polynomial curves: "
        "experiments and exact certificates",
    )
    parser.add_argument("--version", action="version", version="latflow " + __version__)
    sub = parser.add_subparsers(dest="cmd")
    for cmd, (help_text, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        for name in ("config", *defaults):
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if ns.cmd is None:
        parser.print_usage(sys.stderr)
        return 2
    _, defaults, handler = _COMMANDS[ns.cmd]
    try:
        return handler(_merged(ns, defaults))
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (RouteDisagreement, BudgetExceeded, AssertionError) as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
