"""CLI front end: golden files, exit codes, determinism, text and JSON rendering."""

import itertools
import json
import math
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

import ewm.cli
from ewm.cli import MAX_RANK, _parse_group, emit_output, run
from ewm.errors import MathError, SchemaError
from ewm.rootsys import CartanType, build_root_system

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


def _run_in_process(args, monkeypatch, capsys, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", StringIO(stdin))
    code = run(args)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "args,golden,code",
    [
        (["general", "--input", str(DATA / "sl6.json")], "sl6.general.txt", 0),
        (["general", "--input", str(DATA / "so7.json")], "so7.general.txt", 0),
        (["general", "--input", str(DATA / "sl3_parabolic.json"), "--allow-nonunique"],
         "sl3_parabolic.general.txt", 0),
        (["general", "--input", str(DATA / "sl3_parabolic.json")],
         "sl3_parabolic.general.txt", 4),
        (["solvable", "--input", str(DATA / "sl3_solvable.json")],
         "sl3_solvable.solvable.txt", 0),
        (["solvable", "--input", str(DATA / "n0.json")], "n0.solvable.txt", 0),
        (["roots", "--input", str(DATA / "b3_roots.json")], "b3.roots.txt", 0),
        (["check", "--input", str(DATA / "so7.json")], "so7.check.txt", 0),
    ],
)
def test_text_golden_outputs(args, golden, code, monkeypatch, capsys):
    got = _run_in_process(args + ["--format", "text"], monkeypatch, capsys)
    assert got == (code, (GOLDEN / golden).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "name,code",
    [("so7", 3), ("sl6", 0)],
)
def test_strict_turns_warnings_into_exit_3(name, code, monkeypatch, capsys):
    """so7 carries a LIFT_SENSITIVE warning, sl6 none; the output is the
    same document either way."""
    got = _run_in_process(["general", "--strict", "--input", str(DATA / f"{name}.json")],
                          monkeypatch, capsys)
    assert got == (code, (GOLDEN / f"{name}.general.json").read_text(encoding="utf-8"))


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


def test_simple_root_outside_lattice_exits_3():
    """G2 with active roots alpha_2 and 3alpha_1 + 2alpha_2, in general form:
    alpha_1 is not in the weight lattice, which the third-family solve meets
    before the necessary diagnostics do."""
    doc = {
        "mode": "general",
        "group": [{"family": "G", "rank": 2}],
        "pi_L": [],
        "char_space_K": {"free_rank": 2},
        "codomain": {"free_rank": 2},
        "iota": [[1, 0], [0, 1]],
        "omega_bar": {"1": [1, 0], "2": [0, 1]},
        "xi3_prime": [{"mu": [-3, 2]}, {"mu": [0, 1]}],
        "sigma_simple": [1, 2],
    }
    proc = run_cli(["general"], stdin=json.dumps(doc))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("inconsistent input:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("exc", MathError.__subclasses__(), ids=lambda c: c.__name__)
def test_every_math_error_exits_3(exc, monkeypatch, capsys):
    def raise_it(doc):
        raise exc("planted")

    monkeypatch.setattr(ewm.cli, "parse_general", raise_it)
    monkeypatch.setattr(sys, "stdin", StringIO((DATA / "so7.json").read_text()))
    assert run(["general"]) == 3
    assert "inconsistent input: planted" in capsys.readouterr().err


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


def test_check_reports_roots_outside_the_weight_lattice(monkeypatch, capsys):
    """On A2 with iota = [[2, 0]] into Z and one module weight 8, the weight
    lattice is 4Z x Z, so neither alpha_1 = (2, -1) nor alpha_2 = (-1, 2)
    lies in it: both reports say so and carry no functional values."""
    doc = {"mode": "general", "group": [{"family": "A", "rank": 2}], "pi_L": [],
           "char_space_K": {"free_rank": 1}, "omega_bar": {"1": [0], "2": [0]},
           "codomain": {"free_rank": 1}, "iota": [[2, 0]],
           "xi3_prime": [{"mu": [8]}], "sigma_simple": []}
    code, out = _run_in_process(["check"], monkeypatch, capsys, json.dumps(doc))
    assert code == 0
    got = json.loads(out)
    assert got["lambda_basis"] == [[4, 0], [0, 1]]
    assert [(r["alpha"], r["in_lambda"], r["rho_values"], r["classification"])
            for r in got["necessary"]] == [(1, False, None, "NecessaryFailed"),
                                           (2, False, None, "NecessaryFailed")]


def test_check_text_shows_intermediates(monkeypatch, capsys):
    """The text rendering of `check` carries what the JSON document does: the
    simple roots met by the first two families, and each basis row of the
    kernel of iota over the fundamental weights."""
    code, out = _run_in_process(["check", "--input", str(DATA / "so7.json"),
                                 "--format", "text"], monkeypatch, capsys)
    assert code == 0
    lines = out.splitlines()
    assert "pi12 (simple roots met by Xi1 and Xi2): alpha_1, alpha_3" in lines
    assert lines[lines.index("kernel of iota basis:") + 1] == "  2ϖ1 − 2ϖ3"


_DENSE_IOTA = [[1, -5, 3, -8, -7, 8, -6, 2], [9, -8, 7, -3, -8, -7, 4, 4],
               [-7, -2, -7, 8, 4, -8, 9, -6], [-2, 9, -8, 9, 9, 3, -8, -2],
               [-8, 8, -5, 0, 4, -5, 8, -6], [9, 0, 8, -4, -6, 9, 9, -3]]


def test_check_dense_iota_kernel(monkeypatch, capsys):
    """A rank-8 `check` with a dense 6x8 iota (entries in -9..9, of rank 6)
    prints a basis of the whole integer kernel: two vectors, each killed by
    iota, whose 2x2 minors are coprime, so no multiple of a kernel vector is
    missing.  A factorization whose coefficients grew without check kept
    this run going for over two minutes."""
    doc = {"mode": "general", "group": [{"family": "A", "rank": 8}], "pi_L": [],
           "char_space_K": {"free_rank": 1},
           "omega_bar": {str(i): [0] for i in range(1, 9)},
           "codomain": {"free_rank": 6}, "iota": _DENSE_IOTA,
           "xi3_prime": [{"mu": [1, 0, 0, 0, 0, 0]}], "sigma_simple": []}
    code, out = _run_in_process(["check"], monkeypatch, capsys, json.dumps(doc))
    assert code == 0
    kernel = json.loads(out)["kernel_iota"]
    assert len(kernel) == 2
    for k in kernel:
        assert all(sum(map(int.__mul__, row, k)) == 0 for row in _DENSE_IOTA)
    u, v = kernel
    assert math.gcd(*(u[i] * v[j] - u[j] * v[i]
                      for i, j in itertools.combinations(range(8), 2))) == 1


_ZERO_CODOMAIN = {
    "mode": "general",
    "group": [{"family": "A", "rank": 2}],
    "pi_L": [],
    "char_space_K": {"free_rank": 2},
    "omega_bar": {"1": [1, 0], "2": [0, 1]},
    "codomain": {"free_rank": 0},
    "iota": [],
}


@pytest.mark.parametrize(
    "mode,keys",
    [("check", ["kernel_iota", "lambda_basis"]), ("general", ["lambda_basis"])],
    ids=["check", "general"],
)
def test_zero_dimensional_codomain(mode, keys, monkeypatch, capsys):
    """With S trivial, as for the horospherical G/U, iota maps onto the zero
    group: its kernel and the weight lattice are all of X(T)."""
    code, out = _run_in_process([mode], monkeypatch, capsys, json.dumps(_ZERO_CODOMAIN))
    assert code == 0
    doc = json.loads(out)
    for key in keys:
        assert doc[key] == [[1, 0], [0, 1]]


_NO_XI3_EQUATIONS = {
    "mode": "general",
    "group": [{"family": "A", "rank": 1}],
    "pi_L": [1],
    "char_space_K": {"free_rank": 1},
    "omega_bar": {},
    "codomain": {"free_rank": 1},
    "iota": [[1]],
    "xi2_prime": [{"lambda_L": [0], "chi": [1]}],
    "xi3_prime": [{"mu": [2]}],
}


def test_xi3_system_without_equations_is_not_unique(monkeypatch, capsys):
    """Pi12 is empty, so the third-family system has no equations: adding the
    second-family generator (0, e1) to a solution leaves it solved."""
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(_NO_XI3_EQUATIONS)))
    assert run(["general"]) == 3
    assert "positive-dimensional" in capsys.readouterr().err
    doc = dict(_NO_XI3_EQUATIONS, unique_expected=False)
    code, out = _run_in_process(["general"], monkeypatch, capsys, json.dumps(doc))
    assert code == 4
    (entry,) = json.loads(out)["nonunique"]["entries"]
    assert entry["homogeneous"] == [[1]]


def test_shared_parser_keeps_no_state(monkeypatch, capsys):
    """The argument parser is built once per process: a bad mode still exits
    2, and a `--strict` run leaves no `--strict` behind for the next run."""
    with pytest.raises(SystemExit) as e:
        run(["nonsense"])
    assert e.value.code == 2
    capsys.readouterr()
    so7 = ["general", "--input", str(DATA / "so7.json")]
    assert _run_in_process(so7 + ["--strict"], monkeypatch, capsys)[0] == 3
    assert _run_in_process(so7, monkeypatch, capsys)[0] == 0


def test_import_loads_no_locale():
    """The argument parser is built on the first `run`, not at import:
    building it loads `locale` through `gettext`."""
    code = ("import sys; before = set(sys.modules); import ewm.cli; "
            "print(sorted({'locale', '_locale'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("mode", [[], {}, ["roots"], 1, None])
def test_non_string_mode_rejected(mode, monkeypatch, capsys):
    """A mode that is not a string, hashable or not, is a schema error."""
    doc = json.dumps({"mode": mode, "group": [{"family": "A", "rank": 1}]})
    monkeypatch.setattr(sys, "stdin", StringIO(doc))
    assert run(["roots"]) == 2
    assert capsys.readouterr().err.startswith("schema error at /mode: unknown mode")


def test_roots_builds_no_lookup_members(monkeypatch, capsys):
    """`ewm roots` lists the positive roots and never asks a membership or
    split question, so the lazy lookup members of a type built only for it
    stay unbuilt."""
    group = [{"family": "B", "rank": 11}, {"family": "G", "rank": 2}, {"family": "A", "rank": 7}]
    doc = json.dumps({"mode": "roots", "group": group})
    assert _run_in_process(["roots"], monkeypatch, capsys, doc)[0] == 0
    rs = build_root_system(CartanType((("B", 11), ("G", 2), ("A", 7))))
    assert "coords" not in vars(rs) and "packed" not in vars(rs)


def test_unknown_mode_rejected():
    proc = run_cli(["roots"], stdin='{"mode": "nonsense"}')
    assert proc.returncode == 2


def _doc_with(name, edit):
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    edit(doc)
    return doc


def _nondominant_lambda_L(d):
    d["xi2_prime"][0]["lambda_L"] = {"1": 1, "2": -1, "4": 1}


def _empty_xi2(d):
    d["xi2_prime"] = []


@pytest.mark.parametrize(
    "base,edit,pointer",
    [
        ("so7.json", lambda d: d.update(group=[5]), "/group/0"),
        ("so7.json", lambda d: d["group"][0].update(rank=True), "/group/0"),
        ("so7.json", lambda d: d["omega_bar"].update(x=[1, 0]), "/omega_bar/x"),
        ("so7.json", lambda d: d["codomain"].update(moduli=5), "/codomain/moduli"),
        ("so7.json", lambda d: d["codomain"].update(names=3), "/codomain/names"),
        ("so7.json", lambda d: d["char_space_K"].update(names=["ψ1"]), "/char_space_K/names"),
        ("so7.json", lambda d: d.update(sigma_simple=[True]), "/sigma_simple"),
        ("so7.json", lambda d: d.update(xi3_prime=5), "/xi3_prime"),
        ("sl6.json", _nondominant_lambda_L, "/xi2_prime/0/lambda_L"),
        ("so7.json", lambda d: d["omega_bar"].update({"01": [9, 9]}), "/omega_bar/01"),
        ("so7.json", lambda d: d["omega_bar"].update({" 1 ": [9, 9]}), "/omega_bar/ 1 "),
        ("so7.json", lambda d: d["omega_bar"].update({"0_2": [9, 9]}), "/omega_bar/0_2"),
        ("so7.json", lambda d: d["omega_bar"].update({"\u0661": [9, 9]}),
         "/omega_bar/\u0661"),
        ("sl6.json", lambda d: d["xi2_prime"][0]["lambda_L"].update({"04": 0}),
         "/xi2_prime/0/lambda_L"),
        ("so7.json", lambda d: d["xi3_prime"][1]["lift"].update({"+1": 3}),
         "/xi3_prime/1/lift"),
        ("so7.json", lambda d: d["omega_bar"].pop("3"), "/omega_bar/3"),
        ("sl6.json", lambda d: d["xi2_prime"][0].update(lambda_L=[0, 0, 1, 0, 0]),
         "/xi2_prime/0/lambda_L"),
    ],
    ids=["group-int", "rank-bool", "omega-bar-key", "moduli-int", "names-int",
         "names-short", "sigma-bool", "xi3-int", "lambda-L-nondominant",
         "omega-bar-leading-zero", "omega-bar-spaces", "omega-bar-underscore",
         "omega-bar-non-ascii-digit", "lambda-L-leading-zero", "lift-plus-sign",
         "omega-bar-missing", "lambda-L-outside-levi"],
)
def test_malformed_document_exits_2_with_pointer(base, edit, pointer, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(_doc_with(base, edit))))
    assert run(["general"]) == 2
    assert f"schema error at {pointer}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,key",
    [
        ('"sigma_simple": [3],', '"sigma_simple": [3], "sigma_simple": [],', "sigma_simple"),
        ('"1": [1, 0],', '"1": [1, 0], "1": [9, 9],', "1"),
    ],
    ids=["top-level", "nested"],
)
def test_duplicate_object_key_exits_2(old, new, key, monkeypatch, capsys):
    """Raw text, since a dict cannot hold the duplicate: `json.loads` alone
    would keep the last value."""
    text = (DATA / "so7.json").read_text(encoding="utf-8")
    assert old in text
    monkeypatch.setattr(sys, "stdin", StringIO(text.replace(old, new)))
    assert run(["general"]) == 2
    assert f"duplicate key {key!r}" in capsys.readouterr().err


def test_nondominant_third_family_exits_3(monkeypatch, capsys):
    """Without its second family, sl3_parabolic's third-family weight is not
    dominant: the input contradicts the generation theorem."""
    doc = _doc_with("sl3_parabolic.json", _empty_xi2)
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(doc)))
    assert run(["general"]) == 3
    assert "inconsistent input:" in capsys.readouterr().err


def test_exit_codes_hold_under_optimize(tmp_path):
    """The dominance checks are typed errors, not asserts, so `python -O`
    exits with the same codes."""
    for base, edit, code in (("sl6.json", _nondominant_lambda_L, 2),
                             ("sl3_parabolic.json", _empty_xi2, 3)):
        path = tmp_path / base
        path.write_text(json.dumps(_doc_with(base, edit)), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-O", "-m", "ewm.cli", "general",
                               "--input", str(path)], capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""


def _no_root_system(ctype):
    raise AssertionError(f"root system of {ctype} built before the document was checked")


_A100 = [{"family": "A", "rank": 100}]


@pytest.mark.parametrize(
    "mode,doc,pointer",
    [
        ("roots", {"mode": "roots", "group": [{"family": "A", "rank": 129}]}, "/group"),
        ("general", _doc_with("sl6.json", lambda d: d.update(group=_A100, iota=[[1]])),
         "/iota"),
        ("solvable", {"mode": "solvable", "group": _A100, "active_roots": [],
                      "codomain": {"free_rank": 1}, "iota": [[1]]}, "/iota"),
    ],
    ids=["rank-cap", "general-iota-shape", "solvable-iota-shape"],
)
def test_rejected_before_root_system_is_built(mode, doc, pointer, monkeypatch, capsys):
    monkeypatch.setattr(ewm.cli, "build_root_system", _no_root_system)
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(doc)))
    assert run([mode]) == 2
    assert f"schema error at {pointer}:" in capsys.readouterr().err


def test_rank_cap_is_on_total_rank():
    assert _parse_group({"group": [{"family": "A", "rank": MAX_RANK}]}, "").rank == MAX_RANK
    with pytest.raises(SchemaError) as e:
        _parse_group({"group": [{"family": "A", "rank": MAX_RANK - 1},
                                {"family": "G", "rank": 2}]}, "")
    assert e.value.pointer == "/group"


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_rerenders_to_its_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert emit_output(json.loads(text), "json") == text


@pytest.mark.parametrize(
    "group",
    [[("A", 28), ("A", 1)], [("E", 8), ("A", 16)], [("D", 22), ("A", 2)]],
    ids=["A28xA1", "E8xA16", "D22xA2"],
)
def test_roots_output_is_json_dumps(group, monkeypatch, capsys):
    doc = {"mode": "roots", "group": [{"family": f, "rank": n} for f, n in group]}
    code, out = _run_in_process(["roots"], monkeypatch, capsys, stdin=json.dumps(doc))
    assert code == 0
    # Lists of lines, so that a failure's diff stays cheap on ~100k lines.
    assert out.splitlines(True) == _dumps(json.loads(out)).splitlines(True)


def test_renderer_matches_json_dumps_on_random_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.integers(min_value=-2**80, max_value=2**80)
    text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té\u2028ϖ'),
                             st.characters()), max_size=6)
    int_lists = st.lists(ints, max_size=5)
    rows = st.one_of(int_lists, int_lists.map(tuple),
                     st.lists(st.one_of(ints, st.booleans()), max_size=5))
    leaves = st.one_of(st.none(), st.booleans(), ints, text, rows, st.lists(rows, max_size=4))
    docs = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(text, inner, max_size=4)), max_leaves=12)

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(doc=docs)
    def check(doc):
        assert emit_output(doc, "json") == _dumps(doc)

    check()


def test_renderer_matches_json_dumps_on_small_int_matrices():
    """Int matrices whose entries mostly lie in or just outside the small-int
    table's range -9..9, with a few large ints and bools mixed in."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table = st.integers(min_value=-9, max_value=9)
    entries = st.one_of(table, table, table, st.integers(min_value=-12, max_value=12),
                        st.integers(min_value=-2**70, max_value=2**70), st.booleans())
    rows = st.one_of(st.lists(entries, min_size=1, max_size=6),
                     st.lists(entries, min_size=1, max_size=6).map(tuple))
    matrices = st.one_of(st.lists(rows, min_size=1, max_size=5),
                         st.lists(rows, min_size=1, max_size=5).map(tuple))
    docs = st.dictionaries(st.sampled_from(["cartan", "pos_roots", "m"]),
                           st.one_of(matrices, st.lists(matrices, max_size=2)), max_size=3)

    @hypothesis.settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @hypothesis.given(doc=docs)
    def check(doc):
        assert emit_output(doc, "json") == _dumps(doc)

    check()


@pytest.mark.parametrize("doc", [
    {"m": [[9, -9, 0], [8, -8, 1]]},
    {"m": [[9, -9, 0], [10, -10, 1], [-1, 99, -100]]},
    {"m": [[1, -2, 3], [4, 2**70, -5]], "n": [[-(2**70)], [7]]},
    {"m": [[1, 0], [0, True]], "n": [[False, 1]]},
    {"m": [(1, -2), (0, 10)], "n": ((3, -9), [4, 5])},
], ids=["pm9", "pm10", "big-int-row", "bool-row", "tuple-rows"])
def test_renderer_small_int_rows_and_fallback(doc):
    assert emit_output(doc, "json") == _dumps(doc)


def test_roots_text_lists_one_root_per_line(monkeypatch, capsys):
    doc = {"mode": "roots", "group": [{"family": "E", "rank": 8}, {"family": "A", "rank": 16}]}
    code, out = _run_in_process(["roots", "--format", "text"], monkeypatch, capsys,
                                stdin=json.dumps(doc))
    rs = build_root_system(CartanType((("E", 8), ("A", 16))))
    assert code == 0
    assert out.splitlines() == [f"positive roots ({len(rs.pos_roots)}):"] + [
        "  " + " ".join(str(x) for x in r.coeffs) for r in rs.pos_roots]


@pytest.mark.parametrize("doc", [{"x": 0.5}, [1, 0.5], [[1, 2.0]], {"x": {1, 2}}],
                         ids=["float", "float-in-int-list", "float-in-matrix", "set"])
def test_renderer_rejects_non_json_types(doc):
    with pytest.raises(TypeError):
        emit_output(doc, "json")


_NOT_UTF8 = b'{"mode": "roots", "group": [{"family": "B", "rank": 3}], "note": "\xff"}'


@pytest.mark.parametrize("flags", [[], ["-X", "utf8"]], ids=["default", "utf8-mode"])
def test_non_utf8_input_exits_2(flags, tmp_path):
    """From a file the read fails; on stdin the byte may arrive as a
    surrogate, which fails when the input is hashed.  Neither is a traceback."""
    path = tmp_path / "roots.json"
    path.write_bytes(_NOT_UTF8)
    cmd = [sys.executable, *flags, "-m", "ewm.cli", "roots"]
    for proc in (subprocess.run(cmd + ["--input", str(path)], capture_output=True),
                 subprocess.run(cmd, input=_NOT_UTF8, capture_output=True)):
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"schema error at /:")
        assert b"Traceback" not in proc.stderr


def _lift_not_a_lift(d):
    d["xi3_prime"][0]["lift"] = [0, 0]


@pytest.mark.parametrize(
    "edit,message",
    [
        (_lift_not_a_lift, "supplied lift for module weight 1 is not a lift"),
        (lambda d: d.update(unique_expected=True),
         "solution family for module weight 1 is positive-dimensional"),
    ],
    ids=["bad-lift", "unique-expected"],
)
def test_module_weights_are_named_1_based(edit, message, monkeypatch, capsys):
    """Like the `mu` of a `nonunique` entry, error messages count module
    weights from 1."""
    doc = _doc_with("sl3_parabolic.json", edit)
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(doc)))
    assert run(["general"]) == 3
    assert f"inconsistent input: {message}" in capsys.readouterr().err


_LONG_INT = ('{"mode": "roots", "group": [{"family": "A", "rank": '
             + "1" * 5000 + "}]}").encode()
_DEEP = b"[" * 200_000


@pytest.mark.parametrize("text", [_LONG_INT, _DEEP], ids=["long-int-literal", "deep-nesting"])
def test_unparseable_json_exits_2(text):
    """CPython's JSON decoder rejects an integer literal of more than 4,300
    digits with a plain ValueError and too-deep nesting with RecursionError;
    both are invalid JSON at `/`, not a traceback."""
    proc = subprocess.run([sys.executable, "-m", "ewm.cli", "roots"], input=text,
                          capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"schema error at /:")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "roots,message",
    [
        ([[1, 0], [1, 0]], "[1, 0] repeats an earlier active root"),
        ([[1, 0], [1, 0], [1, 1]], "[1, 0] repeats an earlier active root"),
        ([[1, 0], [1, 2]], "[1, 2] is not a positive root"),
    ],
    ids=["repeated", "repeated-then-bijection", "not-positive"],
)
def test_bad_active_root_exits_2_with_pointer(roots, message, monkeypatch, capsys):
    doc = {"mode": "solvable", "group": [{"family": "A", "rank": 2}], "active_roots": roots}
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(doc)))
    assert run(["solvable"]) == 2
    assert capsys.readouterr().err == f"schema error at /active_roots/1: {message}\n"


@pytest.mark.parametrize(
    "field,indices,pointer,message",
    [
        ("pi_L", [2, 2], "/pi_L/1", "2 repeats an earlier simple root"),
        ("pi_L", [2, 1, 2], "/pi_L/2", "2 repeats an earlier simple root"),
        ("sigma_simple", [3, 3], "/sigma_simple/1", "3 repeats an earlier simple root"),
    ],
    ids=["pi_L", "pi_L-late", "sigma_simple"],
)
def test_repeated_index_exits_2_with_pointer(field, indices, pointer, message,
                                             monkeypatch, capsys):
    doc = json.loads((DATA / "so7.json").read_text(encoding="utf-8"))
    doc[field] = indices
    monkeypatch.setattr(sys, "stdin", StringIO(json.dumps(doc)))
    assert run(["general"]) == 2
    assert capsys.readouterr().err == f"schema error at {pointer}: {message}\n"
