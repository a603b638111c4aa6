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
import hashlib
import json
import sys
from typing import Any, Optional

from . import __version__
from .core import (
    Biweight,
    GeneralDatum,
    MonoidResult,
    NonUnique,
    check_necessary,
    compute_xi1,
    compute_xi2,
    compute_monoid,
    kernel_iota,
    lambda_lattice,
    pi12,
    solve_xi3,
    xi12_at,
)
from .errors import (
    BijectionFailure,
    DataInconsistency,
    EwmError,
    Inconsistent,
    NoExpression,
    NoLift,
    PiMapError,
    SchemaError,
    UniquenessViolated,
)
from .intlin import CharSpace, CharVec, IntMatrix
from .rootsys import CartanType, RootVec, WeightVec, build_root_system
from .solvable import SolvableDatum, solvable_monoid

__all__ = ["main", "run", "parse_input", "emit_output"]

_MATH_ERRORS = (
    Inconsistent,
    BijectionFailure,
    UniquenessViolated,
    DataInconsistency,
    PiMapError,
    NoLift,
    NoExpression,
)


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
        return CartanType(tuple(factors))
    except EwmError as e:
        raise SchemaError(str(e), f"{pointer}/group")


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


def _parse_weight(raw: Any, rank: int, pointer: str) -> WeightVec:
    """A weight as a dense coefficient array or a sparse {1-based index: coeff}."""
    if isinstance(raw, list):
        if len(raw) != rank or not all(_is_int(x) for x in raw):
            raise SchemaError(f"weight must have {rank} integer entries", pointer)
        return WeightVec(tuple(raw))
    if isinstance(raw, dict):
        coeffs = [0] * rank
        for k, v in raw.items():
            try:
                i = int(k)
            except ValueError:
                raise SchemaError(f"bad index {k!r}", pointer)
            if not (1 <= i <= rank) or not _is_int(v):
                raise SchemaError(f"index {k} out of range 1..{rank}", pointer)
            coeffs[i - 1] = v
        return WeightVec(tuple(coeffs))
    raise SchemaError("weight must be an array or an index map", pointer)


def _parse_char(raw: Any, space: CharSpace, pointer: str) -> CharVec:
    if not isinstance(raw, list) or len(raw) != space.dim:
        raise SchemaError(f"character must have {space.dim} integer entries", pointer)
    if not all(_is_int(x) for x in raw):
        raise SchemaError("character entries must be integers", pointer)
    return CharVec(space, tuple(raw))


def _parse_indices(raw: Any, rank: int, pointer: str) -> frozenset[int]:
    if not isinstance(raw, list) or not all(
        _is_int(i) and 1 <= i <= rank for i in raw
    ):
        raise SchemaError(f"expected a list of indices in 1..{rank}", pointer)
    return frozenset(i - 1 for i in raw)


def _parse_iota(raw: Any, rank: int, dim: int, pointer: str) -> IntMatrix:
    if (
        not isinstance(raw, list)
        or len(raw) != dim
        or not all(isinstance(r, list) and len(r) == rank for r in raw)
        or not all(_is_int(x) for r in raw for x in r)
    ):
        raise SchemaError(
            f"iota must be a {dim}x{rank} integer matrix (rows over the "
            "fundamental-weight columns)", pointer)
    return IntMatrix.from_rows(raw)


def parse_general(doc: dict) -> GeneralDatum:
    ctype = _parse_group(doc, "")
    rs = build_root_system(ctype)
    rank = rs.rank
    pi_L = _parse_indices(_need(doc, "pi_L", ""), rank, "/pi_L")
    space_K = _parse_char_space(_need(doc, "char_space_K", ""), "/char_space_K")
    codomain = _parse_char_space(_need(doc, "codomain", ""), "/codomain")
    iota = _parse_iota(_need(doc, "iota", ""), rank, codomain.dim, "/iota")
    raw_ob = _need(doc, "omega_bar", "")
    if not isinstance(raw_ob, dict):
        raise SchemaError("omega_bar must be an index map", "/omega_bar")
    omega_bar = []
    for k, v in raw_ob.items():
        try:
            i = int(k)
        except ValueError:
            raise SchemaError(f"bad index {k!r}", f"/omega_bar/{k}")
        if not (1 <= i <= rank):
            raise SchemaError(f"index {i} out of range", f"/omega_bar/{k}")
        omega_bar.append((i - 1, _parse_char(v, space_K, f"/omega_bar/{k}")))
    omega_bar.sort(key=lambda ic: ic[0])
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
        rs=rs,
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
    rs = build_root_system(ctype)
    rank = rs.rank
    raw_roots = _need(doc, "active_roots", "")
    if not isinstance(raw_roots, list):
        raise SchemaError("active_roots must be a list", "/active_roots")
    pos = set(rs.pos_roots)
    roots = []
    for k, r in enumerate(raw_roots):
        if (
            not isinstance(r, list)
            or len(r) != rank
            or not all(_is_int(x) for x in r)
        ):
            raise SchemaError(f"root must have {rank} integer entries",
                              f"/active_roots/{k}")
        rv = RootVec(tuple(r))
        if rv not in pos:
            raise SchemaError(f"{r} is not a positive root", f"/active_roots/{k}")
        roots.append(rv)
    if "codomain" in doc or "iota" in doc:
        codomain = _parse_char_space(_need(doc, "codomain", ""), "/codomain")
        iota = _parse_iota(_need(doc, "iota", ""), rank, codomain.dim, "/iota")
    else:
        # default: S = T, iota the identity on the weight lattice
        codomain = CharSpace(
            free_rank=rank, names=tuple(f"ϖ{i + 1}" for i in range(rank))
        )
        iota = IntMatrix.from_rows(
            [[int(i == j) for j in range(rank)] for i in range(rank)]
        )
    return SolvableDatum(rs=rs, active_roots=tuple(roots), codomain=codomain, iota=iota)


def parse_input(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}", "")
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object", "")
    mode = _need(doc, "mode", "")
    if mode not in ("general", "solvable", "roots", "check"):
        raise SchemaError(f"unknown mode {mode!r}", "/mode")
    return doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _weight_json(w: WeightVec) -> list:
    return list(w.coeffs)


def _char_json(c: CharVec) -> list:
    return list(c.coords)


def _gen_json(bw: Biweight) -> dict:
    return {
        "lambda": _weight_json(bw.lam),
        "chi": _char_json(bw.chi),
        "origin": bw.origin,
    }


def _diag_json(diags) -> list:
    return [
        {
            "severity": dg.severity,
            "code": dg.code,
            "message": dg.message,
            "data": dict(dg.data),
        }
        for dg in diags
    ]


def _weight_text(w: WeightVec) -> str:
    terms = []
    for i, c in enumerate(w.coeffs):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        term = f"{mag}ϖ{i + 1}"
        if not terms:
            terms.append(term if c > 0 else f"−{term}")
        else:
            terms.append(f"{'+' if c > 0 else '−'} {term}")
    return " ".join(terms) if terms else "0"


def _char_text(c: CharVec) -> str:
    names = c.space.names
    terms = []
    for i, v in enumerate(c.coords):
        if v == 0:
            continue
        name = names[i] if names else f"e{i + 1}"
        mag = "" if abs(v) == 1 else str(abs(v))
        term = f"{mag}{name}"
        if not terms:
            terms.append(term if v > 0 else f"−{term}")
        else:
            terms.append(f"{'+' if v > 0 else '−'} {term}")
    return " ".join(terms) if terms else "0"


def emit_output(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    lines = []
    if "pos_roots" in doc:
        lines.append(f"positive roots ({len(doc['pos_roots'])}):")
        for r in doc["pos_roots"]:
            lines.append("  " + " ".join(str(x) for x in r))
    if "generators" in doc:
        lines.append(f"generators ({len(doc['generators'])}):")
        for g in doc["generators"]:
            lam = _weight_text(WeightVec(tuple(g["lambda"])))
            chi = g["_chi_text"]
            lines.append(f"  ({lam}, {chi})   [{g['origin']}]")
    if "nonunique" in doc:
        lines.append("solution family is not unique:")
        for e in doc["nonunique"]["entries"]:
            lines.append(
                f"  module weight {e['mu']}: particular {e['particular']}, "
                f"relations {e['homogeneous']}"
            )
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
            lines.append("  " + _weight_text(WeightVec(tuple(b))))
    for dg in doc.get("diagnostics", []):
        lines.append(f"[{dg['severity']}] {dg['code']}: {dg['message']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _meta(text: str) -> dict:
    return {
        "tool": "ewm",
        "version": __version__,
        "input_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def _run_general(doc: dict, text: str, allow_nonunique: bool) -> tuple[int, dict]:
    d = parse_general(doc)
    xi1 = compute_xi1(d)
    xi2 = compute_xi2(d)
    xi3 = solve_xi3(d)
    if isinstance(xi3, NonUnique):
        out = {
            "generators": [dict(_gen_json(b), _chi_text=_char_text(b.chi))
                           for b in xi1 + xi2],
            "lambda_basis": [list(b) for b in lambda_lattice(d)],
            "sigma_used": sorted(i + 1 for i in d.sigma_simple),
            "nonunique": {
                "entries": [
                    {
                        "mu": idx + 1,
                        "particular": list(part),
                        "homogeneous": [list(h) for h in hom],
                    }
                    for idx, part, hom in xi3.entries
                ],
                "xi12_size": xi3.xi12_size,
            },
            "diagnostics": [],
            "meta": _meta(text),
        }
        return (0 if allow_nonunique else 4), out
    result = compute_monoid(d)
    out = {
        "generators": [dict(_gen_json(b), _chi_text=_char_text(b.chi))
                       for b in result.generators],
        "lambda_basis": [list(b) for b in result.lambda_basis],
        "sigma_used": [i + 1 for i in result.sigma_used],
        "diagnostics": _diag_json(result.diagnostics),
        "meta": _meta(text),
    }
    return 0, out


def _run_solvable(doc: dict, text: str) -> tuple[int, dict]:
    d = parse_solvable(doc)
    result = solvable_monoid(d)
    out = {
        "generators": [dict(_gen_json(b), _chi_text=_char_text(b.chi))
                       for b in result.generators],
        "pi_map": [
            {"root": list(r.coeffs), "simple": i + 1} for r, i in result.pi_map
        ],
        "phi": [list(c.coords) for c in result.phi],
        "sigma_used": [i + 1 for i in result.sigma],
        "diagnostics": [],
        "meta": _meta(text),
    }
    return 0, out


def _run_roots(doc: dict, text: str) -> tuple[int, dict]:
    ctype = _parse_group(doc, "")
    rs = build_root_system(ctype)
    out = {
        "rank": rs.rank,
        "cartan": [list(r) for r in rs.cartan],
        "pos_roots": [list(r.coeffs) for r in rs.pos_roots],
        "meta": _meta(text),
    }
    return 0, out


def _run_check(doc: dict, text: str) -> tuple[int, dict]:
    """Validation-only run of the general pipeline: lattice, kernel, and the
    necessary-condition reports, without solving for the third family."""
    d = parse_general(doc)
    xi12 = compute_xi1(d) + compute_xi2(d)
    reports = []
    for a in sorted(pi12(xi12)):
        if len(xi12_at(xi12, a)) != 1 or not d.xi3_prime:
            continue
        r = check_necessary(d, a)
        reports.append(
            {
                "alpha": a + 1,
                "classification": r.classification,
                "in_lambda": r.in_lambda,
                "rho_values": list(r.rho_values) if r.rho_values else None,
                "asserted_spherical": a in d.sigma_simple,
            }
        )
    out = {
        "pi12": sorted(a + 1 for a in pi12(xi12)),
        "kernel_iota": [list(b) for b in kernel_iota(d)],
        "lambda_basis": [list(b) for b in lambda_lattice(d)],
        "necessary": reports,
        "diagnostics": [],
        "meta": _meta(text),
    }
    return 0, out


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ewm",
        description="extended weight monoid of a spherical homogeneous space",
    )
    parser.add_argument("mode", choices=["general", "solvable", "roots", "check"])
    parser.add_argument("--input", default="-", help="input JSON file, - for stdin")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    parser.add_argument("--allow-nonunique", action="store_true",
                        help="report a non-unique solution family instead of failing")
    args = parser.parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 2

    try:
        doc = parse_input(text)
        # `check` re-reads a general-mode document; everything else must match.
        allowed = ("general", "check") if args.mode == "check" else (args.mode,)
        if doc["mode"] not in allowed:
            raise SchemaError(
                f"document mode {doc['mode']!r} does not match subcommand "
                f"{args.mode!r}", "/mode")
        if args.mode == "general":
            code, out = _run_general(doc, text, args.allow_nonunique)
        elif args.mode == "solvable":
            code, out = _run_solvable(doc, text)
        elif args.mode == "roots":
            code, out = _run_roots(doc, text)
        else:
            code, out = _run_check(doc, text)
    except SchemaError as e:
        print(f"schema error at {e.pointer or '/'}: {e}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as e:
        print(f"inconsistent input: {e}", file=sys.stderr)
        return 3
    except EwmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.strict and any(
        dg.get("severity") == "warning" for dg in out.get("diagnostics", [])
    ):
        code = max(code, 3)

    if args.format == "json":
        for g in out.get("generators", []):
            g.pop("_chi_text", None)
        sys.stdout.write(emit_output(out, "json"))
    else:
        sys.stdout.write(emit_output(out, "text"))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
