"""CLI front end: golden files, exit codes, determinism, text rendering."""

import json
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

from ewm.cli import run

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = DATA / "golden"


def run_cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ewm.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


@pytest.mark.parametrize(
    "args,golden",
    [
        (["general", "--input", str(DATA / "sl6.json")], "sl6.general.json"),
        (["general", "--input", str(DATA / "so7.json")], "so7.general.json"),
        (
            ["general", "--input", str(DATA / "sl3_parabolic.json"), "--allow-nonunique"],
            "sl3_parabolic.general.json",
        ),
        (["solvable", "--input", str(DATA / "sl3_solvable.json")], "sl3_solvable.solvable.json"),
        (["solvable", "--input", str(DATA / "n0.json")], "n0.solvable.json"),
        (["roots", "--input", str(DATA / "b3_roots.json")], "b3.roots.json"),
        (["check", "--input", str(DATA / "so7.json")], "so7.check.json"),
    ],
)
def test_golden_outputs(args, golden):
    proc = run_cli(args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")


def test_byte_determinism():
    a = run_cli(["general", "--input", str(DATA / "sl6.json")])
    b = run_cli(["general", "--input", str(DATA / "sl6.json")])
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_stdin_input():
    text = (DATA / "sl3_solvable.json").read_text()
    proc = run_cli(["solvable"], stdin=text)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["generators"]) == 4


def test_sl6_generator_payload():
    proc = run_cli(["general", "--input", str(DATA / "sl6.json")])
    doc = json.loads(proc.stdout)
    gens = [(tuple(g["lambda"]), tuple(g["chi"])) for g in doc["generators"]]
    assert gens == [
        ((0, 0, 1, 0, 0), (-1,)),
        ((1, 0, 0, 1, 0), (-1,)),
        ((0, 1, 0, 0, 1), (-1,)),
        ((0, 1, 0, 0, 0), (0,)),
        ((1, 0, 1, 0, 1), (-1,)),
        ((0, 0, 0, 1, 0), (0,)),
    ]
    assert doc["meta"]["tool"] == "ewm"


def test_so7_diagnostic_and_text():
    proc = run_cli(["general", "--input", str(DATA / "so7.json")])
    doc = json.loads(proc.stdout)
    assert any(
        d["code"] == "NECESSARY_PASSED_NOT_IN_SIGMA" for d in doc["diagnostics"]
    )
    text = run_cli(["general", "--input", str(DATA / "so7.json"), "--format", "text"])
    assert "(ϖ2, ψ1 − 2ψ3)" in text.stdout
    assert "(ϖ3, ψ1 − ψ3)" in text.stdout


def test_roots_count():
    proc = run_cli(["roots"], stdin='{"mode": "roots", "group": [{"family": "B", "rank": 3}]}')
    doc = json.loads(proc.stdout)
    assert len(doc["pos_roots"]) == 9


def test_nonunique_exit_code_without_flag():
    proc = run_cli(["general", "--input", str(DATA / "sl3_parabolic.json")])
    assert proc.returncode == 4


def test_nonunique_report_contents():
    proc = run_cli(
        ["general", "--input", str(DATA / "sl3_parabolic.json"), "--allow-nonunique"]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    (entry,) = doc["nonunique"]["entries"]
    assert entry["particular"][0] == -1
    assert sum(entry["particular"][1:]) == 1
    assert entry["homogeneous"] == [[0, 1, -1]]


def test_schema_error_missing_field():
    proc = run_cli(["general"], stdin='{"mode": "general", "group": [{"family": "A", "rank": 2}]}')
    assert proc.returncode == 2
    assert "pi_L" in proc.stderr


def test_schema_error_bad_json():
    proc = run_cli(["general"], stdin="{not json")
    assert proc.returncode == 2


def test_schema_error_mode_mismatch():
    text = (DATA / "sl6.json").read_text()
    proc = run_cli(["solvable"], stdin=text)
    assert proc.returncode == 2


def test_math_error_exit_code():
    # asserted spherical root failing the necessary test -> exit 3
    doc = {
        "mode": "general",
        "group": [{"family": "A", "rank": 1}],
        "pi_L": [],
        "char_space_K": {"free_rank": 1},
        "omega_bar": {"1": [1]},
        "codomain": {"free_rank": 1},
        "iota": [[1]],
        "xi3_prime": [{"mu": [1]}],
        "sigma_simple": [1],
    }
    proc = run_cli(["general"], stdin=json.dumps(doc))
    assert proc.returncode == 3


def test_check_mode_reports():
    proc = run_cli(["check", "--input", str(DATA / "so7.json")])
    doc = json.loads(proc.stdout)
    assert doc["pi12"] == [1, 3]
    assert doc["kernel_iota"] == [[2, 0, -2]]
    reports = {r["alpha"]: r for r in doc["necessary"]}
    assert reports[1]["classification"] == "NecessaryPassed"
    assert reports[1]["asserted_spherical"] is False
    assert reports[3]["classification"] == "NecessaryPassed"
    assert reports[3]["asserted_spherical"] is True


def test_unknown_mode_rejected():
    proc = run_cli(["roots"], stdin='{"mode": "nonsense"}')
    assert proc.returncode == 2


def _so7_with(edit):
    doc = json.loads((DATA / "so7.json").read_text(encoding="utf-8"))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit,pointer",
    [
        (lambda d: d.update(group=[5]), "/group/0"),
        (lambda d: d["group"][0].update(rank=True), "/group/0"),
        (lambda d: d["omega_bar"].update(x=[1, 0]), "/omega_bar/x"),
        (lambda d: d["codomain"].update(moduli=5), "/codomain/moduli"),
        (lambda d: d["codomain"].update(names=3), "/codomain/names"),
        (lambda d: d["char_space_K"].update(names=["ψ1"]), "/char_space_K/names"),
        (lambda d: d.update(sigma_simple=[True]), "/sigma_simple"),
        (lambda d: d.update(xi3_prime=5), "/xi3_prime"),
    ],
    ids=["group-int", "rank-bool", "omega-bar-key", "moduli-int", "names-int",
         "names-short", "sigma-bool", "xi3-int"],
)
def test_malformed_document_exits_2_with_pointer(edit, pointer, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(_so7_with(edit))))
    assert run(["general"]) == 2
    assert f"schema error at {pointer}:" in capsys.readouterr().err
