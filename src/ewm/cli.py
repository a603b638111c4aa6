"""Command-line front end.

Reads a JSON input document (file or stdin), dispatches to the general or
strongly solvable pipeline or to the helper queries, and emits deterministic
JSON (or a human-readable text rendering).  Simple-root indices are 1-based in
files, 0-based inside the library.

Exit codes: 0 success, 2 schema error, 3 mathematical inconsistency,
4 non-unique solution family without --allow-nonunique.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from typing import Any, Optional, Sequence

from . import __version__
from .core import (
    IOTA_SHAPE,
    Biweight,
    GeneralDatum,
    MonoidResult,
    NonUnique,
    compute_monoid,
    kernel_iota,
    lambda_lattice,
    necessary_reports,
    solve_xi3,
)
from .errors import EwmError, MathError, SchemaError
from .intlin import CharSpace, CharVec, IntMatrix
from .rootsys import CartanType, RootVec, WeightVec, build_root_system
from .solvable import SolvableDatum, solvable_monoid

__all__ = ["main", "run", "parse_input", "emit_output"]

# Largest total rank a document may ask for, checked before any root system
# is built: the positive roots of A_n number n(n+1)/2, each of length n.
MAX_RANK = 128


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _need(doc: dict, key: str, pointer: str) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected an object with field {key!r}", pointer)
    if key not in doc:
        raise SchemaError(f"missing required field {key!r}", f"{pointer}/{key}")
    return doc[key]


def _list_field(doc: dict, key: str) -> list:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise SchemaError(f"{key} must be a list", f"/{key}")
    return raw


def _is_int(x: Any) -> bool:
    """A JSON integer; `true`/`false` are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_group(doc: dict, pointer: str) -> CartanType:
    raw = _need(doc, "group", pointer)
    if not isinstance(raw, list) or not raw:
        raise SchemaError("group must be a non-empty list of factors", f"{pointer}/group")
    factors = []
    for k, f in enumerate(raw):
        fam = _need(f, "family", f"{pointer}/group/{k}")
        n = _need(f, "rank", f"{pointer}/group/{k}")
        if not isinstance(fam, str) or not _is_int(n):
            raise SchemaError("factor needs string family and integer rank",
                              f"{pointer}/group/{k}")
        factors.append((fam, n))
    try:
        ctype = CartanType(tuple(factors))
    except EwmError as e:
        raise SchemaError(str(e), f"{pointer}/group")
    if ctype.rank > MAX_RANK:
        raise SchemaError(f"total rank {ctype.rank} exceeds the limit {MAX_RANK}",
                          f"{pointer}/group")
    return ctype


def _parse_char_space(raw: Any, pointer: str) -> CharSpace:
    if not isinstance(raw, dict):
        raise SchemaError("character space must be an object", pointer)
    free = raw.get("free_rank", 0)
    moduli = raw.get("moduli", [])
    names = raw.get("names")
    if not _is_int(free) or free < 0:
        raise SchemaError("free_rank must be a non-negative integer",
                          f"{pointer}/free_rank")
    if not isinstance(moduli, list) or not all(_is_int(m) and m >= 2 for m in moduli):
        raise SchemaError("moduli must be a list of integers >= 2", f"{pointer}/moduli")
    if names is not None and (
        not isinstance(names, list)
        or len(names) != free + len(moduli)
        or not all(isinstance(x, str) for x in names)
    ):
        raise SchemaError("names must be a list of one string per coordinate",
                          f"{pointer}/names")
    return CharSpace(
        free_rank=free,
        moduli=tuple(moduli),
        names=tuple(names) if names is not None else None,
    )


def _int_list(raw: Any, n: int, what: str, pointer: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != n or not all(_is_int(x) for x in raw):
        raise SchemaError(f"{what} must have {n} integer entries", pointer)
    return tuple(raw)


def _index_key(key: str, rank: int, pointer: str) -> int:
    """The 0-based index named by a sparse-map key: the canonical decimal
    spelling of an integer in 1..rank, so no two keys name one index."""
    if not (key.isascii() and key.isdigit() and key == str(int(key))
            and 1 <= int(key) <= rank):
        raise SchemaError(f"bad index {key!r}: expected a decimal in 1..{rank} "
                          "without sign, spaces or leading zeros", pointer)
    return int(key) - 1


def _parse_weight(raw: Any, rank: int, pointer: str) -> WeightVec:
    """A weight as a dense coefficient array or a sparse {1-based index: coeff}."""
    if isinstance(raw, list):
        return WeightVec(_int_list(raw, rank, "weight", pointer))
    if isinstance(raw, dict):
        coeffs = [0] * rank
        for k, v in raw.items():
            i = _index_key(k, rank, pointer)
            if not _is_int(v):
                raise SchemaError(f"coefficient at index {k} must be an integer", pointer)
            coeffs[i] = v
        return WeightVec(tuple(coeffs))
    raise SchemaError("weight must be an array or an index map", pointer)


def _parse_char(raw: Any, space: CharSpace, pointer: str) -> CharVec:
    return CharVec(space, _int_list(raw, space.dim, "character", pointer))


def _parse_indices(raw: Any, rank: int, pointer: str) -> frozenset[int]:
    if not isinstance(raw, list) or not all(
        _is_int(i) and 1 <= i <= rank for i in raw
    ):
        raise SchemaError(f"expected a list of indices in 1..{rank}", pointer)
    for k, i in enumerate(raw):
        if i in raw[:k]:
            raise SchemaError(f"{i} repeats an earlier simple root", f"{pointer}/{k}")
    return frozenset(i - 1 for i in raw)


def _parse_iota(raw: Any, rank: int, dim: int, pointer: str) -> IntMatrix:
    if (
        not isinstance(raw, list)
        or len(raw) != dim
        or not all(isinstance(r, list) and len(r) == rank for r in raw)
        or not all(_is_int(x) for r in raw for x in r)
    ):
        raise SchemaError(IOTA_SHAPE.format(dim, rank), pointer)
    return IntMatrix.from_rows(raw, rank)


def parse_general(doc: dict) -> GeneralDatum:
    ctype = _parse_group(doc, "")
    rank = ctype.rank
    pi_L = _parse_indices(_need(doc, "pi_L", ""), rank, "/pi_L")
    space_K = _parse_char_space(_need(doc, "char_space_K", ""), "/char_space_K")
    codomain = _parse_char_space(_need(doc, "codomain", ""), "/codomain")
    iota = _parse_iota(_need(doc, "iota", ""), rank, codomain.dim, "/iota")
    raw_ob = _need(doc, "omega_bar", "")
    if not isinstance(raw_ob, dict):
        raise SchemaError("omega_bar must be an index map", "/omega_bar")
    omega_bar = sorted(
        (_index_key(k, rank, f"/omega_bar/{k}"), _parse_char(v, space_K, f"/omega_bar/{k}"))
        for k, v in raw_ob.items())
    xi2 = []
    for k, entry in enumerate(_list_field(doc, "xi2_prime")):
        lam = _parse_weight(_need(entry, "lambda_L", f"/xi2_prime/{k}"), rank,
                            f"/xi2_prime/{k}/lambda_L")
        chi = _parse_char(_need(entry, "chi", f"/xi2_prime/{k}"), space_K,
                          f"/xi2_prime/{k}/chi")
        xi2.append((lam, chi))
    xi3 = []
    for k, entry in enumerate(_list_field(doc, "xi3_prime")):
        mu = _parse_char(_need(entry, "mu", f"/xi3_prime/{k}"), codomain,
                         f"/xi3_prime/{k}/mu")
        lift: Optional[WeightVec] = None
        if "lift" in entry:
            lift = _parse_weight(entry["lift"], rank, f"/xi3_prime/{k}/lift")
        xi3.append((mu, lift))
    sigma = _parse_indices(doc.get("sigma_simple", []), rank, "/sigma_simple")
    unique_expected = doc.get("unique_expected", True)
    if not isinstance(unique_expected, bool):
        raise SchemaError("unique_expected must be a boolean", "/unique_expected")
    return GeneralDatum(
        rs=build_root_system(ctype),
        pi_L=pi_L,
        char_space_K=space_K,
        omega_bar=tuple(omega_bar),
        codomain=codomain,
        iota=iota,
        xi2_prime=tuple(xi2),
        xi3_prime=tuple(xi3),
        sigma_simple=sigma,
        unique_expected=unique_expected,
    )


def parse_solvable(doc: dict) -> SolvableDatum:
    ctype = _parse_group(doc, "")
    rank = ctype.rank
    raw_roots = _need(doc, "active_roots", "")
    if not isinstance(raw_roots, list):
        raise SchemaError("active_roots must be a list", "/active_roots")
    roots = [RootVec(_int_list(r, rank, "root", f"/active_roots/{k}"))
             for k, r in enumerate(raw_roots)]
    if "codomain" in doc or "iota" in doc:
        codomain = _parse_char_space(_need(doc, "codomain", ""), "/codomain")
        iota = _parse_iota(_need(doc, "iota", ""), rank, codomain.dim, "/iota")
    else:
        # default: S = T, iota the identity on the weight lattice
        codomain = CharSpace(free_rank=rank, names=tuple(_labels("ϖ", rank)))
        iota = IntMatrix.from_rows(
            [[int(i == j) for j in range(rank)] for i in range(rank)]
        )
    return SolvableDatum(rs=build_root_system(ctype), active_roots=tuple(roots),
                         codomain=codomain, iota=iota)


def _unique_keys(pairs: list) -> dict:
    """A JSON object; a repeated key is an error, where `json.loads` alone
    would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise SchemaError(f"duplicate key {dup!r}", "")
    return obj


def parse_input(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and CPython's cap on the digits
        # of an integer literal; RecursionError too-deep nesting
        raise SchemaError(f"invalid JSON: {e}", "")
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object", "")
    mode = _need(doc, "mode", "")
    if not isinstance(mode, str) or mode not in _RUNNERS:
        raise SchemaError(f"unknown mode {mode!r}", "/mode")
    return doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _gen_json(bw: Biweight) -> dict:
    return {"lambda": list(bw.lam.coeffs), "chi": list(bw.chi.coords), "origin": bw.origin}


def _monoid_json(result: MonoidResult) -> dict:
    return {
        "generators": [_gen_json(b) for b in result.generators],
        "lambda_basis": [list(b) for b in result.lambda_basis],
        "sigma_used": [i + 1 for i in result.sigma_used],
        "diagnostics": [
            {
                "severity": dg.severity,
                "code": dg.code,
                "message": dg.message,
                "data": dict(dg.data),
            }
            for dg in result.diagnostics
        ],
    }


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _terms(coeffs: Sequence[int], names: Sequence[str]) -> str:
    """A signed sum such as `ϖ1 − 2ϖ3`, or `0`."""
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        sign = ("+ " if c > 0 else "− ") if terms else ("" if c > 0 else "−")
        mag = "" if abs(c) == 1 else str(abs(c))
        terms.append(f"{sign}{mag}{name}")
    return " ".join(terms) if terms else "0"


# Decimal spellings of the small ints that fill root and Cartan rows.
_SMALL = {i: int.__repr__(i) for i in range(-9, 10)}


def _rows(sep: str, m: Sequence[Sequence[int]]) -> list[str]:
    try:
        return [sep.join(map(_SMALL.__getitem__, r)) for r in m]
    except KeyError:
        return [sep.join(map(int.__repr__, r)) for r in m]


def _json(v: Any, ind: str) -> str:
    """`v` as `json.dumps(v, sort_keys=True, indent=2, ensure_ascii=True)`
    writes it when nested at indent `ind`, without the pure-Python encoder
    that call runs.  Dict keys must be strings."""
    if isinstance(v, str):
        return json.encoder.encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = ind + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = (f"{inner}{json.encoder.encode_basestring_ascii(k)}: {_json(x, inner)}"
                 for k, x in sorted(v.items()))
        return "{\n" + ",\n".join(items) + "\n" + ind + "}"
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    if not v:
        return "[]"
    types = set(map(type, v))
    if types == {int}:
        body, = _rows(",\n" + inner, [v])
        return f"[\n{inner}{body}\n{ind}]"
    if (types <= {list, tuple} and all(v)
            and set(map(type, itertools.chain.from_iterable(v))) == {int}):
        deep = inner + "  "
        body = f"\n{inner}],\n{inner}[\n{deep}".join(_rows(",\n" + deep, v))
        return f"[\n{inner}[\n{deep}{body}\n{inner}]\n{ind}]"
    return "[\n" + ",\n".join(inner + _json(x, inner) for x in v) + "\n" + ind + "]"


def emit_output(doc: dict, fmt: str, chi_names: Optional[Sequence[str]] = None) -> str:
    """Render an output document.  JSON mode writes the same bytes as
    `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)` plus a
    newline.  Text mode writes each generator character over `chi_names`, the
    coordinate names of its space (`e1`, `e2`, ... when it has none)."""
    if fmt == "json":
        return _json(doc, "") + "\n"
    lines = []
    if "pos_roots" in doc:
        lines.append(f"positive roots ({len(doc['pos_roots'])}):")
        lines += ["  " + r for r in _rows(" ", doc["pos_roots"])]
    if "generators" in doc:
        lines.append(f"generators ({len(doc['generators'])}):")
        for g in doc["generators"]:
            lam = _terms(g["lambda"], _labels("ϖ", len(g["lambda"])))
            chi = _terms(g["chi"], chi_names or _labels("e", len(g["chi"])))
            lines.append(f"  ({lam}, {chi})   [{g['origin']}]")
    if "nonunique" in doc:
        lines.append("solution family is not unique:")
        for e in doc["nonunique"]["entries"]:
            lines.append(
                f"  module weight {e['mu']}: particular {e['particular']}, "
                f"relations {e['homogeneous']}"
            )
    if "pi12" in doc:
        lines.append("pi12 (simple roots met by Xi1 and Xi2): "
                     + (", ".join(f"alpha_{a}" for a in doc["pi12"]) or "none"))
    if "kernel_iota" in doc:
        lines.append("kernel of iota basis:")
        for b in doc["kernel_iota"]:
            lines.append("  " + _terms(b, _labels("ϖ", len(b))))
    if "necessary" in doc:
        lines.append("necessary-condition reports:")
        for r in doc["necessary"]:
            lines.append(
                f"  alpha_{r['alpha']}: {r['classification']}"
                + (f", rho = {r['rho_values']}" if r.get("rho_values") else "")
            )
    if "lambda_basis" in doc:
        lines.append("weight lattice basis:")
        for b in doc["lambda_basis"]:
            lines.append("  " + _terms(b, _labels("ϖ", len(b))))
    for dg in doc.get("diagnostics", []):
        lines.append(f"[{dg['severity']}] {dg['code']}: {dg['message']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# What a subcommand returns: its exit code, its output document, and the
# coordinate names of its generator characters for the text rendering.
_Ran = tuple[int, dict, Optional[tuple[str, ...]]]


def _run_general(doc: dict) -> _Ran:
    d = parse_general(doc)
    xi3 = solve_xi3(d)
    if not isinstance(xi3, NonUnique):
        return 0, _monoid_json(compute_monoid(d)), d.char_space_K.names
    out = _monoid_json(MonoidResult(
        generators=d.xi12,
        lambda_basis=tuple(lambda_lattice(d)),
        sigma_used=tuple(sorted(d.sigma_simple)),
        diagnostics=(),
    ))
    out["nonunique"] = {
        "entries": [
            {
                "mu": idx + 1,
                "particular": list(part),
                "homogeneous": [list(h) for h in hom],
            }
            for idx, part, hom in xi3.entries
        ],
        "xi12_size": xi3.xi12_size,
    }
    return 4, out, d.char_space_K.names


def _run_solvable(doc: dict) -> _Ran:
    d = parse_solvable(doc)
    result = solvable_monoid(d)
    out = {
        "generators": [_gen_json(b) for b in result.generators],
        "pi_map": [
            {"root": list(r.coeffs), "simple": i + 1} for r, i in result.pi_map
        ],
        "phi": [list(c.coords) for c in result.phi],
        "sigma_used": [i + 1 for i in result.sigma],
        "diagnostics": [],
    }
    return 0, out, d.codomain.names


def _run_roots(doc: dict) -> _Ran:
    ctype = _parse_group(doc, "")
    rs = build_root_system(ctype)
    out = {
        "rank": rs.rank,
        "cartan": [list(r) for r in rs.cartan],
        "pos_roots": [list(r.coeffs) for r in rs.pos_roots],
    }
    return 0, out, None


def _run_check(doc: dict) -> _Ran:
    """Validation-only run of the general pipeline: lattice, kernel, and the
    necessary-condition reports, without solving for the third family."""
    d = parse_general(doc)
    reports = [
        {
            "alpha": r.alpha + 1,
            "classification": r.classification,
            "in_lambda": r.in_lambda,
            "rho_values": list(r.rho_values) if r.rho_values else None,
            "asserted_spherical": r.alpha in d.sigma_simple,
        }
        for r in necessary_reports(d)
    ]
    out = {
        "pi12": [a + 1 for a in d.pi12],
        "kernel_iota": [list(b) for b in kernel_iota(d)],
        "lambda_basis": [list(b) for b in lambda_lattice(d)],
        "necessary": reports,
        "diagnostics": [],
    }
    return 0, out, None


_RUNNERS = {
    "general": _run_general,
    "solvable": _run_solvable,
    "roots": _run_roots,
    "check": _run_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first `run`: building it loads `locale` through `gettext`."""
    p = argparse.ArgumentParser(
        prog="ewm", description="extended weight monoid of a spherical homogeneous space")
    p.add_argument("mode", choices=list(_RUNNERS))
    p.add_argument("--input", default="-", help="input JSON file, - for stdin")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--allow-nonunique", action="store_true",
                   help="report a non-unique solution family instead of failing")
    return p


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        # Stdin may carry undecodable bytes as surrogates; they fail here.
        input_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 2
    except UnicodeError as e:
        print(f"schema error at /: input is not UTF-8: {e}", file=sys.stderr)
        return 2

    try:
        doc = parse_input(text)
        # `check` re-reads a general-mode document; everything else must match.
        allowed = ("general", "check") if args.mode == "check" else (args.mode,)
        if doc["mode"] not in allowed:
            raise SchemaError(
                f"document mode {doc['mode']!r} does not match subcommand "
                f"{args.mode!r}", "/mode")
        code, out, chi_names = _RUNNERS[args.mode](doc)
    except SchemaError as e:
        print(f"schema error at {e.pointer or '/'}: {e}", file=sys.stderr)
        return 2
    except MathError as e:
        print(f"inconsistent input: {e}", file=sys.stderr)
        return 3
    except EwmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if code == 4 and args.allow_nonunique:
        code = 0
    if args.strict and any(
        dg.get("severity") == "warning" for dg in out.get("diagnostics", [])
    ):
        code = max(code, 3)

    out["meta"] = {
        "tool": "ewm",
        "version": __version__,
        "input_sha256": input_sha256,
    }
    sys.stdout.write(emit_output(out, args.format, chi_names))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
