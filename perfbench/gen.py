"""Seeded input generators for the four workloads.

A run is split into shards, each executed by a fresh interpreter.  Every
generator here is a pure function of (seed, shard index): the same pair always
yields the same documents.  Each shard of a workload has a fixed composition --
the same strata of Cartan types and sizes -- and the seed only chooses within
each stratum (which roots, which Levi subset, which subspace, which order).
That keeps the cost of a shard nearly seed-independent, so medians and
percentiles from different seeds are comparable.

Generation uses the library under test (root systems, the pi-map check), so it
runs in the parent process, before and outside every timed region; the shard
process receives only the finished documents.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction

from ewm.errors import EwmError
from ewm.intlin import CharSpace, IntMatrix
from ewm.rootsys import CartanType, RootVec, build_root_system
from ewm.solvable import SolvableDatum, validate_pi

# ---------------------------------------------------------------------------
# cli-data: the checked-in documents and their golden outputs
# ---------------------------------------------------------------------------

CLI_DOCS = (
    (["general", "--input", "data/sl6.json"], "data/golden/sl6.general.json"),
    (["general", "--input", "data/so7.json"], "data/golden/so7.general.json"),
    (["general", "--input", "data/sl3_parabolic.json", "--allow-nonunique"],
     "data/golden/sl3_parabolic.general.json"),
    (["check", "--input", "data/so7.json"], "data/golden/so7.check.json"),
    (["solvable", "--input", "data/n0.json"], "data/golden/n0.solvable.json"),
    (["solvable", "--input", "data/sl3_solvable.json"],
     "data/golden/sl3_solvable.solvable.json"),
    (["roots", "--input", "data/b3_roots.json"], "data/golden/b3.roots.json"),
)
CLI_CYCLES_PER_SHARD = 20


def _rng(workload: str, seed: int, shard: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{shard}")


def cli_data_shard(seed: int, shard: int) -> dict:
    """Round-robin over the seven documents, in a seeded order per cycle."""
    rng = _rng("cli-data", seed, shard)
    docs = []
    for argv, golden in CLI_DOCS:
        with open(golden, "r", encoding="utf-8") as fh:
            docs.append({"argv": argv, "golden": fh.read(),
                         "type": _doc_type(argv[2])})
    items = []
    for _ in range(CLI_CYCLES_PER_SHARD):
        order = list(range(len(docs)))
        rng.shuffle(order)
        items.extend(order)
    return {"docs": docs, "items": items, "warmup": list(range(len(docs)))}


def _doc_type(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        group = json.load(fh)["group"]
    return _type_key([(f["family"], f["rank"]) for f in group])


def _type_key(factors) -> str:
    return "x".join(f"{fam}{n}" for fam, n in factors)


# ---------------------------------------------------------------------------
# solvable-sweep: strongly solvable datums, iota the identity
# ---------------------------------------------------------------------------

SWEEP_TYPES = (
    ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("A", 8),
    ("B", 4), ("B", 5), ("B", 6), ("C", 4), ("C", 5), ("C", 6),
    ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
)


def _echelon(vectors, target=None):
    """Exact elimination over Q on the columns [v_1 ... v_k | target].

    Returns (rank of the v_j, coefficients expressing target, or None when
    target is outside their span or no target was given)."""
    k = len(vectors)
    n = len(vectors[0]) if vectors else 0
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(target[i] if target else 0)]
            for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if target is None or any(rows[i][k] != 0 for i in range(r, n)):
        return r, None
    coeffs = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        coeffs[c] = rows[i][k]
    return r, coeffs


def _identity_datum(rs, roots) -> SolvableDatum:
    n = rs.rank
    return SolvableDatum(
        rs=rs,
        active_roots=tuple(roots),
        codomain=CharSpace(free_rank=n),
        iota=IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]),
    )


def _admissible(rs, roots) -> bool:
    """validate_pi passes; the active roots are linearly independent, so that
    the general pipeline sees freely generated module weights; and every
    simple root in their supports is an integer combination of them.

    The last condition is necessary because spherical roots lie in the weight
    lattice, which for iota the identity is the span of the active roots.
    validate_pi alone accepts G2 with active roots alpha_2 and 3alpha_1 +
    2alpha_2, where alpha_1 is outside that span; to_general then asserts
    alpha_1 as a simple spherical root and compute_monoid rejects the datum
    with DataInconsistency."""
    vecs = [r.coeffs for r in roots]
    if _echelon(vecs)[0] != len(roots):
        return False
    for i in sorted({i for v in vecs for i, c in enumerate(v) if c}):
        coeffs = _echelon(vecs, [int(j == i) for j in range(rs.rank)])[1]
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            return False
    try:
        return not validate_pi(_identity_datum(rs, roots))
    except EwmError:
        return False


def grow_active(rs, k: int, rng: random.Random) -> list[RootVec]:
    """k active roots, grown from a seeded set of simple roots by adding
    seeded non-simple roots that keep the datum admissible."""
    simples = [r for r in rs.pos_roots if r.height == 1]
    higher = [r for r in rs.pos_roots if r.height > 1]
    for _ in range(40):
        act = rng.sample(simples, k - rng.randint(0, k // 2))
        for _ in range(60):
            if len(act) == k:
                return act
            beta = rng.choice(higher)
            if beta not in act and _admissible(rs, act + [beta]):
                act.append(beta)
    return rng.sample(simples, k)


def solvable_sweep_shard(seed: int, shard: int) -> dict:
    """Two datums per type: about half the rank active, and the full rank."""
    rng = _rng("solvable-sweep", seed, shard)
    docs = []
    for fam, n in SWEEP_TYPES:
        rs = build_root_system(CartanType(((fam, n),)))
        for k in ((n + 1) // 2, n):
            act = grow_active(rs, k, rng)
            docs.append({
                "mode": "solvable",
                "group": [{"family": fam, "rank": n}],
                "active_roots": [list(r.coeffs) for r in act],
            })
    rng.shuffle(docs)
    warm = [{"mode": "solvable", "group": [{"family": fam, "rank": n}],
             "active_roots": [[int(j == 0) for j in range(n)]]}
            for fam, n in SWEEP_TYPES]
    return {"docs": docs, "items": list(range(len(docs))), "warmup": warm}


# ---------------------------------------------------------------------------
# lie-exceptional: sufficient-test queries at the Lie-algebra level
# ---------------------------------------------------------------------------

LIE_TYPES = (("D", 5), ("D", 6), ("D", 7), ("E", 6), ("E", 7), ("E", 8))
LIE_STRATA = 6
# Cap on |p_u| * |ideal|, the number of brackets the ideal closure needs; it
# keeps one query below about 0.1 s at this commit.
LIE_PROXY_CAP = 350


def _neg(r):
    return [-c for c in r]


def _e(alpha: int, n: int) -> tuple:
    return tuple(int(j == alpha) for j in range(n))


def fixed_queries() -> list[dict]:
    """The test suite's three queries, with their known verdicts."""
    a5 = []

    def low(i, j):  # E_{i+3, j} in sl6, as a negative root of A5
        return [-1 if j - 1 <= kk <= i + 1 else 0 for kk in range(5)]

    for i, j in ((1, 1), (2, 2), (3, 3)):
        a5.append([[low(i, j), 1]])
    for i, j in ((1, 2), (1, 3), (2, 3)):
        a5.append([[low(i, j), 1], [low(j, i), 1]])
    b3 = [
        [[[-1, -1, 0], 1], [[0, 0, -1], 1]],
        [[[-1, -1, -1], 1], [[0, -1, -1], 2]],
        [[[-1, -1, -2], 1], [[0, -1, -2], 1]],
    ]
    return [
        {"group": [["A", 5]], "levi": [1, 2, 4, 5], "alpha": 3, "h_u": a5,
         "s_prime": [], "expect": "Spherical"},
        {"group": [["A", 2]], "levi": [1], "alpha": 2,
         "h_u": [[[[0, -1], 1], [[-1, -1], -1]]], "s_prime": [],
         "expect": "Spherical"},
        {"group": [["B", 3]], "levi": [2], "alpha": 1, "h_u": b3,
         "s_prime": [[[[0, 1, 0], 1]], [[[0, -1, 0], 1]]],
         "expect": "Inconclusive"},
    ]


@functools.lru_cache(maxsize=None)
def lie_candidates(fam: str, n: int) -> list[tuple[int, tuple, int]]:
    """(proxy, S, alpha) for every S of one or two simple roots outside the
    Levi and alpha in S, sorted by proxy and capped."""
    pos = [r.coeffs for r in build_root_system(CartanType(((fam, n),))).pos_roots]
    pos_set = set(pos)
    out = []
    for size in (1, 2):
        for S in itertools.combinations(range(n), size):
            p_u = [r for r in pos if any(r[i] for i in S)]
            for alpha in S:
                ideal = {_e(alpha, n)}
                frontier = list(ideal)
                while frontier:
                    new = []
                    for v in frontier:
                        for g in p_u:
                            s = tuple(x + y for x, y in zip(v, g))
                            if s in pos_set and s not in ideal:
                                ideal.add(s)
                                new.append(s)
                    frontier = new
                proxy = len(p_u) * len(ideal)
                if proxy <= LIE_PROXY_CAP:
                    out.append((proxy, S, alpha))
    out.sort()
    return out


def _lie_query(fam, n, S, alpha, rng) -> dict:
    """h_u: a seeded subspace of p_u.  One query in three gets an h_u that
    contains the whole ideal, so both verdicts occur."""
    pos = [r.coeffs for r in build_root_system(CartanType(((fam, n),))).pos_roots]
    p_u = [r for r in pos if any(r[i] for i in S)]
    chosen = [r for r in p_u if rng.random() < 0.5]
    if rng.random() < 1 / 3:
        # every root of the ideal lies in p_u and has a positive alpha part
        chosen = [r for r in p_u if r[alpha] > 0 or r in chosen]
    h_u = [[[_neg(r), 1]] for r in chosen]
    for _ in range(2):
        a, b = rng.sample(p_u, 2)
        h_u.append([[_neg(a), 1], [_neg(b), rng.choice((-1, 1, 2))]])
    levi = [i + 1 for i in range(n) if i not in S]
    return {"group": [[fam, n]], "levi": levi, "alpha": alpha + 1, "h_u": h_u,
            "s_prime": [], "expect": None}


def lie_exceptional_shard(seed: int, shard: int) -> dict:
    """The three fixed queries plus one query per (type, proxy stratum).
    E8 has a single candidate under the cap, so its six queries differ only in
    h_u; they are the slowest sixth of the shard and hold its 90th
    percentile, which therefore measures the E8 algebra build."""
    rng = _rng("lie-exceptional", seed, shard)
    docs = fixed_queries()
    warm = list(fixed_queries())
    for fam, n in LIE_TYPES:
        cands = lie_candidates(fam, n)
        _, S0, a0 = cands[0]
        warm.append(_lie_query(fam, n, S0, a0, random.Random(0)))
        for j in range(LIE_STRATA):
            lo = j * len(cands) // LIE_STRATA
            hi = max(lo + 1, (j + 1) * len(cands) // LIE_STRATA)
            # the seed picks among the stratum's candidates that share the
            # proxy of its middle one, so a stratum costs the same every seed
            mid = cands[(lo + hi - 1) // 2][0]
            _, S, alpha = rng.choice([c for c in cands[lo:hi] if c[0] == mid])
            docs.append(_lie_query(fam, n, S, alpha, rng))
    rng.shuffle(docs)
    return {"docs": docs, "items": list(range(len(docs))), "warmup": warm}


# ---------------------------------------------------------------------------
# roots-cold: large, distinct Cartan types
# ---------------------------------------------------------------------------

# Size classes: the main factors of each item, made distinct by one or two
# tag factors of rank at most 2, which add only a few percent to the cost.
ROOTS_CLASSES = (
    (("A", 20),), (("A", 22),), (("A", 24),), (("B", 16),), (("B", 20),),
    (("C", 18),), (("D", 18),), (("D", 22),),
    (("E", 8), ("A", 16)), (("E", 7), ("D", 12)), (("E", 6), ("C", 14)),
    (("F", 4), ("A", 18)), (("G", 2), ("B", 18)), (("A", 12), ("D", 12)),
    (("D", 20),),
)
ROOTS_TAGS = (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2))
# The largest class fills the top fifth of a shard with near-equal items, one
# tag each, so that the 90th percentile falls inside one tight cluster.
ROOTS_TOP = (("A", 28),)
ROOTS_TOP_ITEMS = 4


def roots_cold_shard(seed: int, shard: int, used: set) -> dict:
    """One type per size class plus ROOTS_TOP_ITEMS of the top class, in a
    seeded order.  No type repeats within a shard, so every build in its
    process misses the cache; across the run a type repeats only once its
    class's variants are used up."""
    rng = _rng("roots-cold", seed, shard)
    picks = []
    for main in ROOTS_CLASSES:
        variants = [tuple(sorted(main + tags)) for k in (1, 2)
                    for tags in itertools.combinations_with_replacement(ROOTS_TAGS, k)]
        picks.append((main, variants))
    top = [tuple(sorted(ROOTS_TOP + (tag,))) for tag in ROOTS_TAGS]
    picks += [(ROOTS_TOP, top)] * ROOTS_TOP_ITEMS
    docs = []
    in_shard: set = set()
    for main, variants in picks:
        fresh = [v for v in variants if v not in used and v not in in_shard]
        key = rng.choice(fresh or [v for v in variants if v not in in_shard])
        used.add(key)
        in_shard.add(key)
        factors = _tagged(main, key)
        rng.shuffle(factors)
        docs.append({"mode": "roots",
                     "group": [{"family": f, "rank": n} for f, n in factors]})
    rng.shuffle(docs)
    warm = [{"mode": "roots", "group": [{"family": "A", "rank": 1}]}]
    return {"docs": docs, "items": list(range(len(docs))), "warmup": warm}


def _tagged(main, key) -> list:
    """The factors of `key` (a sorted multiset containing `main`)."""
    rest = list(key)
    for f in main:
        rest.remove(f)
    return list(main) + rest


def doc_type_key(doc: dict) -> str:
    group = doc["group"]
    if group and isinstance(group[0], dict):
        return _type_key([(f["family"], f["rank"]) for f in group])
    return _type_key(group)


def make_shard(workload: str, seed: int, shard: int, state: dict) -> dict:
    if workload == "cli-data":
        job = cli_data_shard(seed, shard)
        types = [job["docs"][i]["type"] for i in job["items"]]
    else:
        if workload == "solvable-sweep":
            job = solvable_sweep_shard(seed, shard)
        elif workload == "lie-exceptional":
            job = lie_exceptional_shard(seed, shard)
        else:
            job = roots_cold_shard(seed, shard, state.setdefault("used", set()))
        types = [doc_type_key(job["docs"][i]) for i in job["items"]]
    job["types"] = types
    job["workload"] = workload
    return job
