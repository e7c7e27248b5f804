import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import latflow

from latflow import cli
from latflow.cli import CSV_TAG, _build_parser, main
from latflow.backend import Rat
from latflow.constructions import (
    THRESHOLD_STEP,
    block_transport_witness,
    staircase_unimodular,
    unit_lower_elimination,
    varying_first_weight_scan,
)

import _brute


def test_unknown_command_is_usage_error(capsys):
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


def test_bad_sequence_is_usage_error(capsys):
    assert main(["layered", "--sequence", "i - i^2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, index",
    [
        (["nondiv", "--sequence", "i^3", "--imax", "10", "--samples", "5"], 9),
        (["twist", "--sequence", "i^3", "--indices", "10", "--samples", "5"], 10),
        (["equidist", "--indices", "710", "--samples", "2"], 710),
        (["nondiv", "--sequence", "i^400", "--indices", "10", "--samples", "5"], 10),
        (["nondiv", "--curve", "s, s^2", "--sequence", "i^2, i^2", "--indices", "20",
          "--samples", "2"], 20),
        (["layered", "--sequence", "i^3", "--check-at", "10"], 10),
        (["layered", "--sequence", "i^400", "--check-at", "10"], 10),
    ],
)
def test_rate_overflow_is_usage_error(capsys, argv, index):
    # the rate, its exp or the product of the weights leaves the float range
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: expansion rates at index %d overflow a float" % index in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["layered", "--sequence", "1/0*i, 1"],
        ["improvability", "--weights", "10,10", "--mu", "1/2,1/0"],
        ["constructions", "--scan-tail", "1/0", "--scan-weights", "10"],
        ["lemma-verify", "--rep", "adjoint:3", "--config-sizes", "1", "--curve", "s, 1/0*s^2"],
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: zero denominator in '1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cmd, config, message",
    [
        ("improvability", {"mu": [0.5], "weights": "10,10", "samples": 5},
         "config key mu wants a string, got [0.5]"),
        ("improvability", {"samples": [5]}, "config key samples wants int, got [5]"),
        ("layered", [1, 2], "config file must hold a JSON object"),
        ("improvability", {"mu": 0.5}, "config key mu wants a string, got 0.5"),
        ("improvability", {"curve": ["s", "s^2"]},
         "config key curve wants a string, got ['s', 's^2']"),
        ("layered", {"sequence": 5}, "config key sequence wants a string, got 5"),
        ("lemma-verify", {"rep": "adjoint:3", "config_sizes": "1", "growth": ["1:1", 5]},
         "config key growth wants a string, got ['1:1', 5]"),
        ("layered", {"sequence": {"kind": "rate-schedule"}},
         "config key sequence wants a string, got {'kind': 'rate-schedule'}"),
        ("equidist", {"doubled": "false"}, "config key doubled wants a boolean, got 'false'"),
        # nothing is converted: no truncation, and a bool is never a number
        ("improvability", {"samples": 2.9, "weights": "10,10"},
         "config key samples wants int, got 2.9"),
        ("improvability", {"samples": True}, "config key samples wants int, got True"),
        ("equidist", {"tent_radius": True}, "config key tent_radius wants float, got True"),
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, cmd, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([cmd, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_empty_table_keeps_its_header(capsys):
    assert main(["lemma-verify", "--rep", "adjoint:3", "--config-sizes", "2", "--trials", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        CSV_TAG, "trial,projection_ok,hypothesis_dim,spanning_ok,spanning_dim"
    ]


def _empty(flag, value):
    return "%s wants at least one value, got %r" % (flag, value)


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["improvability", "--mu", "", "--samples", "5"], _empty("--mu", "")),
        (["improvability", "--mu", ",", "--samples", "5"], _empty("--mu", ",")),
        (["improvability", "--weights", ";", "--samples", "5"], _empty("--weights", ";")),
        (["nondiv", "--eps", "", "--imax", "3", "--samples", "5"], _empty("--eps", "")),
        (["nondiv", "--imax", "2", "--samples", "5", "--eps", ","], _empty("--eps", ",")),
        # not "max() arg is an empty sequence" after the header
        (["nondiv", "--imax", "2", "--samples", "5", "--eps", ",", "--frac-tol", "0.1"],
         _empty("--eps", ",")),
        (["nondiv", "--indices", ",", "--samples", "5"], _empty("--indices", ",")),
        (["nondiv", "--imax", "0", "--samples", "5"],
         "--imax must be at least 1, the first ordered index, got 0"),
        (["twist", "--t", "", "--imax", "3", "--samples", "5"], _empty("--t", "")),
        (["twist", "--indices", "2", "--samples", "5", "--t", ","], _empty("--t", ",")),
        # not a gate passed with "0 insoluble of 0"
        (["constructions", "--scan-tail", "5/2", "--scan-weights", ",", "--expect-soluble"],
         _empty("--scan-weights", ",")),
        (["layered", "--sequence", "i^2, i", "--check-at", ","], _empty("--check-at", ",")),
    ],
    ids=["improvability-mu", "improvability-mu-comma", "improvability-weights", "nondiv-eps",
         "nondiv-eps-comma", "nondiv-eps-frac-tol", "nondiv-indices", "nondiv-imax", "twist-t",
         "twist-t-comma", "constructions-scan-weights", "layered-check-at"],
)
def test_empty_list_flag_is_usage_error(capsys, argv, shown):
    # refused before any table is printed, by a message that names the flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % shown


def test_layered_prints_csv(capsys):
    assert main(["layered", "--sequence", "i^2, i^2, i, 5"]) == 0
    out = capsys.readouterr().out
    assert CSV_TAG in out
    assert "blocks [3, 2]" in out


def test_improvability_small(capsys):
    rc = main(
        [
            "improvability",
            "--weights",
            "10,10",
            "--samples",
            "10",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "monotone in prefix length: yes" in out


def test_constructions_gamma(capsys):
    assert main(["constructions", "--gamma", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "staircase for weights [2, 3]" in out
    assert "all certificates valid: yes" in out


def test_constructions_json_writes_every_matrix_as_rows_of_strings(tmp_path, capsys):
    # an ExactMatrix is a dataclass too: the report must hold its rows, not
    # a {"rows": ...} object, at the top level and inside the witness
    out = str(tmp_path / "gamma")
    assert main(["constructions", "--gamma", "2,3", "--out", out]) == 0
    with open(os.path.join(out, "constructions.json")) as fh:
        report = json.load(fh)
    staircase = staircase_unimodular((2, 3))
    h, upper = unit_lower_elimination(staircase)
    witness = block_transport_witness((2, 3), 1)
    matrices = {"staircase": staircase, "h": h, "upper": upper}
    matrices.update({"transport." + key: getattr(witness, key) for key in (
        "staircase", "h", "upper", "diag", "diag_mirror", "q_mirror", "g")})
    for key, matrix in matrices.items():
        got = report
        for part in key.split("."):
            got = got[part]
        assert got == [[str(x) for x in row] for row in matrix.rows], key
    assert report["transport"]["g"] == [["1", "-1/3", "-1/3"], ["0", "1", "0"], ["0", "0", "1"]]
    assert report["transport"]["checks"]["q_in_mirror_block"] is True


def test_table_bytes_are_pinned(tmp_path, capfdbinary):
    # the CSV file's tag line ends in LF and its csv.writer rows in CRLF;
    # the printed table ends every line in LF
    out = str(tmp_path / "layered")
    assert main(["layered", "--sequence", "i^2, i^2, i, 5", "--out", out]) == 0
    with open(os.path.join(out, "layered.csv"), "rb") as fh:
        assert fh.read() == (
            b"# latflow-csv v1\nindex,exp_identity_error\r\n5,0.0\r\n10,0.0\r\n"
        )
    assert capfdbinary.readouterr().out == (
        b"blocks [3, 2], layers ['i', 'i^2 - i'], residual ['0', '0', '0', '5']\n"
        b"# latflow-csv v1\nindex,exp_identity_error\n5,0.0\n10,0.0\n"
    )


def test_constructions_scan_gate(capsys):
    # the integer-weight control keeps insoluble grid points at 19/20,
    # so the solubility gate trips
    args = ["constructions", "--scan-tail", "2", "--scan-weights", "10"]
    assert main(args) == 0  # report only
    assert main(args + ["--expect-soluble"]) == 1
    args = ["constructions", "--scan-tail", "5/2", "--scan-weights", "10"]
    capsys.readouterr()
    assert main(args + ["--expect-soluble"]) == 0
    # the tail is printed as --scan-tail takes it, on either rational backend
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "radius 19/20, tail 5/2: 0 insoluble of 100"


@pytest.mark.parametrize(
    "argv, threshold, last",
    [
        (["--scan-tail", "5/2", "--scan-weights", "10,100"], "103/128",
         "radius 19/20, tail 5/2: 0 insoluble of 200"),
        (["--scan-tail", "2", "--scan-weights", "10,100"], "1",
         "radius 19/20, tail 2: 8 insoluble of 200"),
        (["--scan-tail", "7", "--scan-weights", "10", "--scan-mu", "1/2"], "1/2",
         "radius 1/2, tail 7: 0 insoluble of 100"),
    ],
    ids=["all-soluble-at-mu", "insoluble-at-mu", "soluble-at-the-bottom"],
)
def test_threshold_output_is_the_two_scan_reference(tmp_path, capsys, monkeypatch,
                                                     argv, threshold, last):
    # one scan at --scan-mu seeds the bisection and is the scan printed;
    # stdout, CSV and JSON are those of a full scan at --scan-mu plus a
    # bisection by one full scan per radius
    def run(name):
        out = tmp_path / name
        assert main(["constructions"] + argv + ["--threshold", "--out", str(out)]) == 0
        return [capsys.readouterr().out.encode()] + [
            (out / f).read_bytes() for f in ("constructions.csv", "constructions.json")]

    got = run("one")

    def two_scans(tail, first_weights, mu):
        return _brute.threshold_by_two_scans(
            varying_first_weight_scan, tail, first_weights, mu, Rat(1, 2), Rat(1), THRESHOLD_STEP)

    monkeypatch.setattr(cli, "scan_radius_threshold", two_scans)
    assert got == run("two")
    lines = got[0].decode().splitlines()
    assert lines[0] == "all-soluble radius threshold (to 1/128): %s" % threshold
    assert lines[-1] == last


def test_equidist_gate(capsys, tmp_path):
    out = str(tmp_path / "run")
    base = [
        "equidist",
        "--samples",
        "60",
        "--imax",
        "3",
        "--grid",
        "random",
        "--out",
        out,
    ]
    assert main(base + ["--gap-tol", "0.9"]) == 0
    for name in ("equidist.csv", "equidist.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "equidist.csv")) as fh:
        assert fh.readline().rstrip() == CSV_TAG
    assert main(base + ["--gap-tol", "1e-12"]) == 1


def test_gap_tol_gates_the_largest_index_in_any_order(capsys):
    # the gate reads the row of the largest index, not the last one listed
    verdicts = []
    for indices in ("4,8", "8,4"):
        argv = ["equidist", "--indices", indices, "--samples", "50", "--gap-tol", "1"]
        assert main(argv) == 1
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
    assert verdicts[0] == verdicts[1] == "final rel gap 86.005721 vs tol 1.0: FAIL"


def test_manifest_hash_is_config_stable(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert (
            main(
                [
                    "layered",
                    "--sequence",
                    "2*i, i, 3",
                    "--out",
                    out,
                ]
            )
            == 0
        )
    m1 = json.load(open(os.path.join(out1, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    # the hash covers the computational config only, not the out path
    assert m1["content_hash"] == m2["content_hash"]
    assert m1["config"]["sequence"] == m2["config"]["sequence"]
    assert m1["csv_schema"] == "latflow-csv v1"
    assert len(m1["content_hash"]) == 40


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 10, "weights": "10,10", "mu": "1/2"}))
    rc = main(["improvability", "--config", str(cfg), "--samples", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ",5,"  in out or ",5\n" in out  # count column reflects the override
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["improvability", "--config", str(bad)]) == 2


def test_lemma_verify_cli(capsys):
    rc = main(
        [
            "lemma-verify",
            "--rep",
            "wedge:3:2",
            "--config-sizes",
            "2,1",
            "--growth",
            "1:1,1:2",
            "--trials",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_lemma_verify_refuses_a_wrong_curve_before_the_trials(monkeypatch, capsys):
    # the curve's dimension is checked before any trial runs
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the curve was checked")

    monkeypatch.setattr(cli, "lemma_reports", no_trials)
    argv = ["lemma-verify", "--rep", "adjoint:6", "--config-sizes", "3", "--curve", "s",
            "--trials", "30"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: curve must map into Q^5"


def test_lemma_verify_rank_tests_each_draw_once(monkeypatch, capsys):
    # the CLI's draw loop tests each draw for spanning, and lemma_reports
    # does not test the accepted ones again: every rank is a draw's
    from latflow import linalg, weights

    calls = {"points_ok": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weights, "_points_ok", counted("points_ok", weights._points_ok))
    monkeypatch.setattr(linalg, "rank", counted("rank", linalg.rank))
    argv = ["lemma-verify", "--rep", "adjoint:4", "--config-sizes", "2,1", "--growth", "1:1,1:2",
            "--trials", "10"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("all checks passed")
    assert calls == {"points_ok": 13, "rank": 13}  # 13 draws for 10 trials at seed 0


# the lemma-sweep benchmark configs at seed 0 with fewer trials: trial rows
# (trial, projection_ok, hypothesis_dim, spanning_ok, spanning_dim) as
# recorded from the rational elimination these replace
_LEMMA_ROWS = [
    (["--rep", "adjoint:4", "--config-sizes", "2,1", "--growth", "1:1,1:2", "--trials", "3"],
     ["0,True,1,True,1", "1,True,1,True,1", "2,True,1,True,1"]),
    (["--rep", "adjoint:5", "--config-sizes", "3,1", "--growth", "1:1,1:2", "--trials", "2"],
     ["0,True,1,True,1", "1,True,1,True,1"]),
    (["--rep", "wedge:6:3", "--config-sizes", "4,2", "--growth", "1:1,1:2", "--trials", "2"],
     ["0,True,0,True,0", "1,True,0,True,0"]),
    (["--rep", "wedge:5:2", "--config-sizes", "3", "--trials", "3"],
     ["0,True,0,True,0", "1,True,0,True,0", "2,True,0,True,0"]),
]


@pytest.mark.parametrize("argv, rows", _LEMMA_ROWS, ids=["adjoint4", "adjoint5", "wedge63", "wedge52"])
def test_lemma_verify_rows_are_pinned(tmp_path, capsys, argv, rows):
    out = str(tmp_path / "lemma")
    assert main(["lemma-verify"] + argv + ["--seed", "0", "--out", out]) == 0
    trials = len(rows)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "%d trials, alignment ok, containment ok -> all checks passed" % trials
    )
    with open(os.path.join(out, "lemma-verify.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "trial,projection_ok,hypothesis_dim,spanning_ok,spanning_dim"
    assert lines[2:] == rows
    with open(os.path.join(out, "lemma-verify.json")) as fh:
        report = json.load(fh)
    assert (report["ok"], report["alignment_ok"], report["containment_ok"]) == (True, True, True)
    assert report["trials"] == trials and report["failures"] == []


def test_twist_cli_exact_zero_gate(capsys):
    rc = main(
        [
            "twist",
            "--samples",
            "30",
            "--indices",
            "3",
            "--t",
            "0,0.5",
            "--grid",
            "random",
        ]
    )
    assert rc == 0
    assert "t=0 defect exactly zero: yes" in capsys.readouterr().out


def test_nondiv_cli(tmp_path):
    out = str(tmp_path / "nd")
    rc = main(
        [
            "nondiv",
            "--samples",
            "50",
            "--imax",
            "3",
            "--eps",
            "0.05,0.2",
            "--frac-tol",
            "1",
            "--out",
            out,
        ]
    )
    assert rc == 0
    with open(os.path.join(out, "nondiv.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_TAG
    assert lines[1].split(",") == ["index", "eps", "count", "below", "fraction"]
    assert len(lines) == 2 + 3 * 2  # indices 1..3 x two eps values


@pytest.mark.parametrize("eps, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")])
def test_nondiv_threshold_must_be_finite_and_positive(tmp_path, capsys, eps, shown):
    # a NaN threshold would print rows and write a bare NaN into nondiv.json
    out = tmp_path / "nd"
    assert main(["nondiv", "--eps", "0.1," + eps, "--imax", "2", "--samples", "4",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: eps must be finite and > 0, got %s" % shown in err
    assert "Traceback" not in err
    assert not (out / "nondiv.json").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["nondiv", "--imax", "3", "--samples", "5"], {"budget": 0}),
        (["nondiv", "--imax", "3", "--samples", "5"], {"budget": -5}),
        (["improvability", "--samples", "3"], {"budget": 0}),
    ],
)
def test_budget_below_one_node_is_usage_error(tmp_path, capsys, argv, config):
    # not a verification failure (exit 1): no walk can fit in such a budget
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    flag = ["--budget", str(config["budget"])]
    for extra in (flag, ["--config", str(path)]):
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --budget must be at least 1, got %d" % config["budget"])


_TENT_RUN = ["--imax", "2", "--samples", "5"]


@pytest.mark.parametrize(
    "argv, key, value, shown",
    [
        (["equidist"] + _TENT_RUN, "tent_height", 0.0, "tent height must be finite and > 0, got 0.0"),
        # a negative reference would make the gap gate unfailable
        (["equidist", "--gap-tol", "0.01"] + _TENT_RUN, "tent_height", -1.0,
         "tent height must be finite and > 0, got -1.0"),
        (["equidist"] + _TENT_RUN, "tent_height", math.nan, "tent height must be finite and > 0, got nan"),
        (["equidist"] + _TENT_RUN, "tent_height", math.inf, "tent height must be finite and > 0, got inf"),
        (["twist"] + _TENT_RUN, "tent_height", math.nan, "tent height must be finite and > 0, got nan"),
        (["equidist"] + _TENT_RUN, "tent_radius", math.inf, "tent radius must be finite and > 0, got inf"),
        (["twist"] + _TENT_RUN, "tent_radius", 0.0, "tent radius must be finite and > 0, got 0.0"),
        (["equidist"] + _TENT_RUN, "tent_center", "nan,0", "tent center must be finite, got (nan, 0.0)"),
        (["twist"] + _TENT_RUN, "tent_center", "0,-inf", "tent center must be finite, got (0.0, -inf)"),
    ],
)
def test_tent_not_finite_and_positive_is_usage_error(tmp_path, capsys, argv, key, value, shown):
    # refused when the tent is built: no traceback, no NaN rows, no gate
    # that cannot fail
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    flag = ["--%s=%s" % (key.replace("_", "-"), value)]
    for extra in (flag, ["--config", str(path)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + shown)


def test_negative_trials_is_usage_error(tmp_path, capsys):
    argv = ["lemma-verify", "--rep", "adjoint:4", "--config-sizes", "2,1", "--growth", "1:1,1:2"]
    out = tmp_path / "lemma"
    assert main(argv + ["--trials", "-2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: --trials must be at least 0, got -2" in captured.err
    assert not out.exists()
    # no trials still runs the alignment and containment checks
    assert main(argv + ["--trials", "0"]) == 0
    assert "0 trials, alignment ok, containment ok -> all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("sizes", ["3", "4", "0", "-1"])
def test_lemma_verify_block_size_out_of_range_is_usage_error(sizes):
    # checked before the first draw: no draw of m1 >= n - 1 or m1 < 0
    # coordinates passes the rank test, so a redraw loop would never end;
    # run in a child process so that a hang fails on the timeout
    src = os.path.dirname(os.path.dirname(latflow.__file__))
    argv = ["lemma-verify", "--rep", "adjoint:3", "--config-sizes=" + sizes, "--trials", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "latflow.cli"] + argv,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: block sizes must lie in [1, n)")


@pytest.mark.parametrize(
    "argv, shown",
    [
        # not "missing --growth (one c:p layer per block)"
        (["--config-sizes", "3,3"], "block sizes must be strictly decreasing"),
        # not "growth has 1 layers for 0 blocks"
        (["--config-sizes", "", "--growth", "1:1"], "need at least one block size"),
    ],
)
def test_lemma_verify_checks_block_sizes_before_the_growth(capsys, argv, shown):
    assert main(["lemma-verify", "--rep", "wedge:6:3"] + argv + ["--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % shown


@pytest.mark.parametrize(
    "argv, shown",
    [
        # the default moment curve of n = 1 has no component; the rep is refused first
        (["lemma-verify", "--rep", "adjoint:1", "--config-sizes", "1", "--trials", "1"],
         "a representation of SL(n) needs n >= 2, got n = 1"),
        (["lemma-verify", "--rep", "adjoint:0", "--config-sizes", "1", "--trials", "1"],
         "a representation of SL(n) needs n >= 2, got n = 0"),
        (["lemma-verify", "--rep", "wedge:1:1", "--config-sizes", "1", "--trials", "1"],
         "a representation of SL(n) needs n >= 2, got n = 1"),
        # not "basis is not unimodular (det = 0.0)"
        (["twist", "--indices", "2", "--samples", "5", "--t", "inf"], "shear t must be finite, got inf"),
        (["twist", "--indices", "2", "--samples", "5", "--t", "0,nan"], "shear t must be finite, got nan"),
        # not "point/window dimension mismatch"
        (["improvability", "--weights", "10", "--samples", "3"],
         "weight row 1 (10) has 1 weights; the curve has dimension 2"),
    ],
)
def test_input_refused_by_name_is_usage_error(capsys, argv, shown):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % shown


_SMALL = ["--imax", "2", "--samples", "5"]


@pytest.mark.parametrize(
    "argv, config, shown",
    [
        (["equidist", "--gap-tol", "nan"] + _SMALL, None, "--gap-tol must be at least 0, got nan"),
        (["equidist", "--gap-tol=-1"] + _SMALL, None, "--gap-tol must be at least 0, got -1.0"),
        (["equidist"] + _SMALL, {"gap_tol": math.nan}, "--gap-tol must be at least 0, got nan"),
        (["twist", "--defect-tol=-0.5"] + _SMALL, None, "--defect-tol must be at least 0, got -0.5"),
        (["twist"] + _SMALL, {"defect_tol": math.nan}, "--defect-tol must be at least 0, got nan"),
        (["nondiv", "--frac-tol=-1/2"] + _SMALL, None, "--frac-tol must be at least 0, got -1/2"),
        (["nondiv"] + _SMALL, {"frac_tol": "-1"}, "--frac-tol must be at least 0, got -1"),
        (["layered", "--sequence", "i", "--err-tol", "nan"], None,
         "--err-tol must be at least 0, got nan"),
        (["layered", "--sequence", "i"], {"err_tol": -1e-9}, "--err-tol must be at least 0, got -1e-09"),
        (["nondiv", "--threads", "-4"] + _SMALL, None, "--threads must be at least 1, got -4"),
        (["nondiv", "--threads", "0"] + _SMALL, None, "--threads must be at least 1, got 0"),
        (["improvability", "--samples", "3"], {"threads": 0}, "--threads must be at least 1, got 0"),
    ],
)
def test_nan_or_negative_tolerance_and_no_threads_are_usage_errors(
    tmp_path, capsys, argv, config, shown
):
    # a NaN tolerance fails every gate and a negative one every gate but an
    # exact zero: both read as failed verifications (exit 1) unless refused
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + shown)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["improvability", "--weights", "10,10;100,100", "--samples", "6"],
        ["equidist", "--imax", "3", "--samples", "6", "--grid", "random", "--gap-tol", "9"],
        ["nondiv", "--imax", "3", "--samples", "20", "--eps", "0.05,0.2"],
        ["twist", "--indices", "4", "--samples", "6", "--grid", "random"],
        ["lemma-verify", "--rep", "adjoint:4", "--config-sizes", "2,1", "--growth", "1:1,1:2",
         "--trials", "2"],
        ["constructions", "--scan-tail", "5/2", "--scan-weights", "10", "--threshold"],
        ["layered", "--sequence", "2*i, i, 3"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_file_is_the_printed_table_with_crlf_rows(tmp_path, capfdbinary, argv):
    # one table, two renderings: the tag line ends in LF in both, every other
    # line in LF on stdout and in CRLF in the file; no cell is quoted
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    data = (out / (argv[0] + ".csv")).read_bytes()
    tag, sep, rest = data.partition(b"\n")
    assert tag == CSV_TAG.encode() and sep
    rows = rest.split(b"\r\n")
    assert len(rows) > 2 and rows[-1] == b""
    assert not any(b"\r" in r or b"\n" in r or b'"' in r for r in rows)
    printed = capfdbinary.readouterr().out
    table = b"\n".join([tag] + rows)
    assert printed.startswith(table) or b"\n" + table in printed


# -- the CLI surface, pinned flag by flag ----------------------------------

_S, _I, _F, _T = (None, "store"), (int, "store"), (float, "store"), (None, "store_true")

_GRID = {"grid": _S, "seed": _I, "threads": _I, "budget": _I}
_CURVE = {"curve": _S, "domain": _S}
_SCHEDULE = {"sequence": _S, "indices": _S, "imax": _I}
_TENT = {"tent_center": _S, "tent_radius": _F, "tent_height": _F}
_IO = {"config": _S, "out": _S}

# subcommand -> dest -> (argparse type, action); every default is None
SURFACE = {
    "improvability": {
        **_CURVE, "weights": _S, "mu": _S, "samples": _I, **_GRID, **_IO,
    },
    "equidist": {
        **_CURVE, **_SCHEDULE, "samples": _I, **_TENT, "doubled": _T,
        "gap_tol": _F, **_GRID, **_IO,
    },
    "nondiv": {
        **_CURVE, **_SCHEDULE, "samples": _I, "eps": _S, "frac_tol": _S,
        **_GRID, **_IO,
    },
    "twist": {
        **_CURVE, **_SCHEDULE, "t": _S, "samples": _I, **_TENT,
        "defect_tol": _F, **_GRID, **_IO,
    },
    "lemma-verify": {
        "rep": _S, "config_sizes": _S, "growth": _S, "trials": _I,
        "seed": _I, **_CURVE, **_IO,
    },
    "constructions": {
        "gamma": _S, "lead": _I, "scan_tail": _S, "scan_weights": _S,
        "scan_mu": _S, "threshold": _T, "expect_soluble": _T, **_IO,
    },
    "layered": {"sequence": _S, "check_at": _S, "err_tol": _F, **_IO},
}

_ACTIONS = {"store": argparse._StoreAction, "store_true": argparse._StoreTrueAction}


def _subparsers():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_subcommands_and_flags_are_pinned():
    subs = _subparsers()
    assert sorted(subs) == sorted(SURFACE)
    for name, flags in SURFACE.items():
        actions = [a for a in subs[name]._actions if a.dest != "help"]
        assert sorted(a.dest for a in actions) == sorted(flags), name
        for a in actions:
            typ, action = flags[a.dest]
            assert a.option_strings == ["--" + a.dest.replace("_", "-")], (name, a.dest)
            assert a.type is typ, (name, a.dest)
            assert type(a) is _ACTIONS[action], (name, a.dest)
            assert a.default is None, (name, a.dest)
            want = ["equispaced", "random"] if a.dest == "grid" else None
            assert a.choices == want, (name, a.dest)


def _resolved(tmp_path, argv):
    out = str(tmp_path / argv[0])
    assert main(argv + ["--out", out]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    return manifest["config"], manifest["content_hash"]


_GRID_ARGV = ["--grid", "random", "--seed", "3", "--threads", "1", "--budget", "10000000"]

# one argv per subcommand that sets every flag, and the resolved value types
FULL_ARGV = {
    "improvability": (
        ["--curve", "s, s^2", "--domain", "0,1", "--weights", "10,10",
         "--mu", "1/2", "--samples", "4", *_GRID_ARGV],
        dict(curve=str, domain=str, weights=str, mu=str, samples=int,
             grid=str, seed=int, threads=int, budget=int, out=str),
    ),
    "equidist": (
        ["--curve", "s", "--domain", "0,1", "--sequence", "i", "--indices", "2",
         "--imax", "3", "--samples", "4", "--tent-center", "0,0",
         "--tent-radius", "2", "--tent-height", "1", "--doubled",
         "--gap-tol", "100", *_GRID_ARGV],
        dict(curve=str, domain=str, sequence=str, indices=str, imax=int,
             samples=int, tent_center=str, tent_radius=float,
             tent_height=float, doubled=bool, gap_tol=float, grid=str,
             seed=int, threads=int, budget=int, out=str),
    ),
    "nondiv": (
        ["--curve", "s", "--domain", "0,1", "--sequence", "i", "--indices", "2",
         "--imax", "3", "--samples", "4", "--eps", "0.05", "--frac-tol", "1",
         *_GRID_ARGV],
        dict(curve=str, domain=str, sequence=str, indices=str, imax=int,
             samples=int, eps=str, frac_tol=str, grid=str, seed=int,
             threads=int, budget=int, out=str),
    ),
    "twist": (
        ["--curve", "s", "--domain", "0,1", "--sequence", "i", "--indices", "2",
         "--imax", "3", "--t", "0,0.5", "--samples", "4", "--tent-center", "0,0",
         "--tent-radius", "2", "--tent-height", "1", "--defect-tol", "100",
         *_GRID_ARGV],
        dict(curve=str, domain=str, sequence=str, indices=str, imax=int, t=str,
             samples=int, tent_center=str, tent_radius=float,
             tent_height=float, defect_tol=float, grid=str, seed=int,
             threads=int, budget=int, out=str),
    ),
    "lemma-verify": (
        ["--rep", "wedge:3:2", "--config-sizes", "2,1", "--growth", "1:1,1:2",
         "--trials", "1", "--seed", "0", "--curve", "s, s^2", "--domain", "0,1"],
        dict(rep=str, config_sizes=str, growth=str, trials=int, seed=int,
             curve=str, domain=str, out=str),
    ),
    "constructions": (
        ["--gamma", "2,3", "--lead", "1", "--scan-tail", "2", "--scan-weights",
         "10", "--scan-mu", "19/20", "--threshold", "--expect-soluble"],
        dict(gamma=str, lead=int, scan_tail=str, scan_weights=str, scan_mu=str,
             threshold=bool, expect_soluble=bool, out=str),
    ),
    "layered": (
        ["--sequence", "i^2, i", "--check-at", "5", "--err-tol", "1e-9"],
        dict(sequence=str, check_at=str, err_tol=float, out=str),
    ),
}


@pytest.mark.parametrize("cmd", sorted(FULL_ARGV))
def test_cli_full_argv_resolves_to_pinned_types(tmp_path, capsys, cmd):
    argv, types = FULL_ARGV[cmd]
    cfg, _ = _resolved(tmp_path, [cmd] + argv)
    assert {k: type(v) for k, v in cfg.items()} == types


def test_cli_defaults_keep_their_types(tmp_path, capsys):
    # an int default stays an int; only an explicit --tent-radius is a float
    cfg, _ = _resolved(tmp_path, ["equidist", "--imax", "2", "--samples", "20",
                                  "--tent-radius", "2"])
    assert cfg["tent_radius"] == 2.0 and type(cfg["tent_radius"]) is float
    assert cfg["tent_height"] == 1 and type(cfg["tent_height"]) is int
    assert cfg["imax"] == 2 and cfg["samples"] == 20 and cfg["budget"] is None


@pytest.mark.parametrize(
    "argv, content_hash",
    [
        (["layered", "--sequence", "2*i, i, 3"],
         "feb2aac71ce5d2ccac946bb34f683f0994196466"),
        (["equidist", "--imax", "2", "--samples", "20", "--tent-radius", "2"],
         "08245fc48e02d7f320687a8a5bb10038700183a2"),
        (["constructions", "--scan-tail", "2", "--scan-weights", "10"],
         "e7c937d9b739158a0a66520c43339cb92975841d"),
    ],
)
def test_cli_content_hash_is_frozen(tmp_path, capsys, argv, content_hash):
    assert _resolved(tmp_path, argv)[1] == content_hash


@pytest.mark.parametrize(
    "argv, noted",
    [
        (["improvability", "--curve", "s,2*s", "--weights", "10,10", "--samples", "4"], True),
        (["improvability", "--curve", "s,s^2", "--weights", "10,10", "--samples", "4"], False),
        (["nondiv", "--imax", "2", "--samples", "4"], False),  # the default curve s
    ],
)
def test_curve_off_the_hypothesis_gets_a_stderr_note(capsys, argv, noted):
    # the paper's theorem needs a curve not in a proper affine subspace; the
    # note goes to stderr only, so rows and hashes do not see it
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert ("proper affine subspace" in err) is noted
    assert "proper affine subspace" not in out
