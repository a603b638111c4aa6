"""One shard of a workload, run in a fresh interpreter.

Reads a job (documents, item order, warm-up set) as JSON on stdin, and writes
one JSON result line on stdout.  Set-up time runs from `import ewm.cli` to the
end of the untimed warm-up.  Then each item runs in a closed loop, timed on
its own; its correctness gate runs right after, outside the timed region and
with tracing paused.  Every time is reported raw and normalised to the
reference host speed (see hostspeed.py).

Run from the root of an ewm checkout with `src` on PYTHONPATH; `run.py` does
both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

import spans
from hostspeed import HostSpeed


# ---------------------------------------------------------------------------
# workloads: prepare (set-up), run (timed), check (gate)
#
# Library functions are imported inside `run`, at call time, so that a traced
# run calls the wrappers `spans.Tracer.install` put in place after set-up.
# ---------------------------------------------------------------------------

def _cli(argv, stdin_text=None):
    """In-process `ewm` with stdout captured: (exit code, stdout)."""
    import ewm.cli

    buf = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(buf):
            code = ewm.cli.run(list(argv))
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


class CliData:
    def __init__(self, job):
        self.docs = job["docs"]
        self.warm = [self.docs[i] for i in job["warmup"]]

    def item(self, idx):
        return self.docs[idx]

    def run(self, doc):
        return _cli(doc["argv"])

    def check(self, doc, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if text != doc["golden"]:
            return f"stdout differs from the golden file for {' '.join(doc['argv'])}"
        return None


class SolvableSweep:
    def __init__(self, job):
        from ewm.cli import parse_solvable

        self.datums = [parse_solvable(doc) for doc in job["docs"]]
        self.warm = [parse_solvable(doc) for doc in job["warmup"]]

    def item(self, idx):
        return self.datums[idx]

    def run(self, d):
        from ewm.core import compute_monoid
        from ewm.solvable import solvable_monoid, to_general

        return solvable_monoid(d), compute_monoid(to_general(d))

    def check(self, d, out):
        closed, general = out

        def gens(result):
            return sorted((g.lam.coeffs, g.chi.coords) for g in result.generators)

        if gens(closed) != gens(general):
            return "closed form and general pipeline disagree"
        expected = d.rank + len(closed.phi)
        if len(closed.generators) != expected:
            return f"{len(closed.generators)} generators, rank formula says {expected}"
        return None


class _Span:
    """Exact row-echelon span of sparse vectors {basis key: Fraction}."""

    def __init__(self):
        self.rows = []  # (pivot key, row)

    def reduce(self, vec):
        v = {k: Fraction(c) for k, c in vec.items() if c}
        for p, row in self.rows:
            c = v.get(p)
            if c:
                for k, x in row.items():
                    y = v.get(k, 0) - c * x
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if v:
            p = min(v, key=repr)
            inv = 1 / v[p]
            self.rows.append((p, {k: x * inv for k, x in v.items()}))

    def contains(self, vec):
        return not self.reduce(vec)


class LieExceptional:
    JACOBI_TRIPLES = 12

    def __init__(self, job):
        from ewm.rootsys import CartanType, build_root_system

        self.docs = job["docs"]
        self.warm = job["warmup"]
        self.ctypes = {}
        for q in self.docs + self.warm:
            key = json.dumps(q["group"])
            if key not in self.ctypes:
                self.ctypes[key] = CartanType(tuple((f, n) for f, n in q["group"]))
                build_root_system(self.ctypes[key])
        self.jacobi_done = set()

    def item(self, idx):
        return self.docs[idx]

    def run(self, q):
        from ewm.chevalley import build_algebra, root_vector
        from ewm.core import check_sufficient_lie
        from ewm.rootsys import build_root_system

        alg = build_algebra(build_root_system(self.ctypes[json.dumps(q["group"])]))
        outside = [i - 1 for i in range(1, alg.rs.rank + 1) if i not in q["levi"]]
        p_u = [root_vector(alg, tuple(-c for c in r.coeffs))
               for r in alg.rs.pos_roots if any(r.coeffs[i] for i in outside)]

        def vec(terms):
            v = root_vector(alg, tuple(terms[0][0])).scale(terms[0][1])
            for root, c in terms[1:]:
                v = v + root_vector(alg, tuple(root)).scale(c)
            return v

        h_u = [vec(t) for t in q["h_u"]]
        s_prime = [vec(t) for t in q["s_prime"]]
        verdict = check_sufficient_lie(alg, q["alpha"] - 1, p_u, h_u, s_prime)
        return alg, p_u, h_u, s_prime, verdict

    def check(self, q, out):
        """Known verdicts; the ideal, found independently as a set of root
        spaces, is stable under [p_u, .]; the verdict recomputed from it; and
        the Jacobi identity, once per type and shard."""
        from ewm.chevalley import bracket, root_vector

        alg, p_u, h_u, s_prime, verdict = out
        if q["expect"] is not None and verdict != q["expect"]:
            return f"verdict {verdict}, expected {q['expect']}"
        # [e_-g, e_-b] is a nonzero multiple of e_-(g+b) exactly when g + b
        # is a root, so the ideal of e_-alpha is spanned by the root vectors
        # of the roots reached from alpha by adding roots of p_u.
        n = alg.rs.rank
        pos = [r.coeffs for r in alg.rs.pos_roots]
        pos_set = set(pos)
        outside = [i for i in range(n) if i + 1 not in q["levi"]]
        pu_roots = [r for r in pos if any(r[i] for i in outside)]
        alpha = tuple(int(j == q["alpha"] - 1) for j in range(n))
        ideal = {alpha}
        frontier = [alpha]
        while frontier:
            frontier = [s for b in frontier for g in pu_roots
                        for s in [tuple(x + y for x, y in zip(b, g))]
                        if s in pos_set and s not in ideal]
            ideal.update(frontier)
        ideal_vecs = [root_vector(alg, tuple(-c for c in b)) for b in ideal]
        keys = {("e", tuple(-c for c in b)) for b in ideal}
        for a in p_u:
            for v in ideal_vecs:
                if any(k not in keys for k, _ in bracket(alg, a, v).items):
                    return "the ideal is not stable under bracketing with p_u"
        h_span = _Span()
        for v in h_u:
            h_span.add(v.as_dict())
        if all(h_span.contains(v.as_dict()) for v in ideal_vecs):
            want = "NotSpherical"
        elif all(bracket(alg, root_vector(alg, tuple(-c for c in alpha)), s).is_zero()
                 for s in s_prime):
            want = "Spherical"
        else:
            want = "Inconclusive"
        if verdict != want:
            return f"verdict {verdict}, independent check gives {want}"
        key = json.dumps(q["group"])
        if key not in self.jacobi_done:
            self.jacobi_done.add(key)
            return self._jacobi(alg, random.Random(key))
        return None

    def _jacobi(self, alg, rng):
        """Jacobi identity on sampled root-vector triples (beta, gamma, delta)
        with beta + gamma a root and beta + gamma + delta a root or zero, so
        that no term vanishes for trivial reasons."""
        from ewm.chevalley import bracket, root_vector

        pos = [r.coeffs for r in alg.rs.pos_roots]
        roots = pos + [tuple(-c for c in r) for r in pos]
        root_set = set(roots)
        zero = (0,) * alg.rs.rank
        found = 0
        while found < self.JACOBI_TRIPLES:
            b, g, d = rng.sample(roots, 3)
            bg = tuple(x + y for x, y in zip(b, g))
            bgd = tuple(x + y for x, y in zip(bg, d))
            if bg not in root_set or (bgd not in root_set and bgd != zero):
                continue
            found += 1
            x, y, z = (root_vector(alg, r) for r in (b, g, d))
            total = (bracket(alg, x, bracket(alg, y, z))
                     + bracket(alg, y, bracket(alg, z, x))
                     + bracket(alg, z, bracket(alg, x, y)))
            if not total.is_zero():
                return f"Jacobi identity fails on {b}, {g}, {d}"
        return None


class RootsCold:
    def __init__(self, job):
        self.texts = [json.dumps(doc) for doc in job["docs"]]
        self.warm = [json.dumps(doc) for doc in job["warmup"]]

    def item(self, idx):
        return self.texts[idx]

    def run(self, text):
        return _cli(["roots"], stdin_text=text)

    def check(self, text, out):
        from ewm.rootsys import positive_root_count

        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        roots = json.loads(stdout)["pos_roots"]
        offset = 0
        counts = []
        for f in json.loads(text)["group"]:
            lo, hi = offset, offset + f["rank"]
            counts.append(sum(1 for r in roots if any(r[lo:hi])))
            if counts[-1] != positive_root_count(f["family"], f["rank"]):
                return f"{counts[-1]} positive roots in factor {f}"
            offset = hi
        if sum(counts) != len(roots):
            return "a positive root spans two factors"
        return None


RUNNERS = {
    "cli-data": CliData,
    "solvable-sweep": SolvableSweep,
    "lie-exceptional": LieExceptional,
    "roots-cold": RootsCold,
}


# ---------------------------------------------------------------------------
# the ROADMAP baseline rows, reproduced from this command
# ---------------------------------------------------------------------------

def probe_cases():
    """(name, callable, untimed repetitions) for each reproduced row."""
    from ewm.chevalley import build_algebra
    from ewm.cli import parse_solvable
    from ewm.core import compute_monoid
    from ewm.rootsys import CartanType, build_root_system
    from ewm.solvable import to_general

    def cli(*argv):
        return lambda: _cli(argv)

    def general(n):
        d = parse_solvable({"mode": "solvable", "group": [{"family": "A", "rank": n}],
                            "active_roots": [[int(i == j) for j in range(n)]
                                             for i in range(n)]})
        return lambda: compute_monoid(to_general(d))

    def algebra(n):
        rs = build_root_system(CartanType((("E", n),)))
        return lambda: build_algebra(rs)

    return [
        ("sl6", cli("general", "--input", "data/sl6.json"), 10),
        ("so7", cli("general", "--input", "data/so7.json"), 20),
        ("sl3_parabolic", cli("general", "--input", "data/sl3_parabolic.json",
                              "--allow-nonunique"), 20),
        ("a4", general(4), 10),
        ("a8", general(8), 3),
        ("e6_build", algebra(6), 5),
        ("e7_build", algebra(7), 3),
        ("e8_build", algebra(8), 2),
    ]


def run_probe(tracer):
    """Untraced: mean ms per case.  Traced: exact SNF counts per case."""
    out = {}
    for k, (name, fn, reps) in enumerate(probe_cases()):
        if tracer is None:
            fn()
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            out[f"probe.{name}_ms"] = (time.perf_counter() - t0) * 1000 / reps
        else:
            tracer.begin_item(spans.PROBE_BASE + k)
            fn()
            tracer.end_item()
            if not name.endswith("_build"):
                item = spans.PROBE_BASE + k
                m = tracer.layer_metrics(lambda it, item=item: it == item)
                out[f"probe.{name}_snf_calls"] = m["intlin.snf_calls"]
                if name == "sl6":
                    out["probe.sl6_snf_distinct"] = m["intlin.snf_distinct"]
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    job = json.load(sys.stdin)
    speed = HostSpeed()
    speed.sample(force=True)
    t0 = time.perf_counter()
    import ewm.cli  # noqa: F401  (set-up starts with this import)

    runner = RUNNERS[job["workload"]](job)
    warm_out = [runner.run(w) for w in runner.warm]
    t_setup = time.perf_counter()
    speed.sample(force=True)
    failures = []
    for w, out in zip(runner.warm, warm_out):
        err = runner.check(w, out)
        if err:
            failures.append(f"warm-up: {err}")
    del warm_out

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    intervals = []
    for pos, idx in enumerate(job["items"]):
        item = runner.item(idx)
        speed.sample()
        if tracer:
            tracer.begin_item(pos)
        ts = time.perf_counter()
        try:
            out = runner.run(item)
            err = None
        except Exception:  # an item that raises counts as failed; keep going
            err = traceback.format_exc(limit=3)
        te = time.perf_counter()
        if tracer:
            tracer.end_item()
        intervals.append((ts, te))
        if err is None:
            try:
                err = runner.check(item, out)
            except Exception:
                err = "gate raised: " + traceback.format_exc(limit=3)
        if err:
            failures.append(f"item {pos}: {err}")

    speed.sample(force=True)
    result = {
        "setup_s": speed.normalise(t0, t_setup) / 1000,
        "raw_setup_s": t_setup - t0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "times_ms": [speed.normalise(ts, te) for ts, te in intervals],
        "raw_times_ms": [(te - ts) * 1000 for ts, te in intervals],
        "kernel_ms": speed.kernel_ms,
        "failures": failures,
    }
    if job.get("probe"):
        result["probe"] = run_probe(tracer)
    if tracer:
        result["layers"] = tracer.layer_metrics(lambda it: 0 <= it < spans.PROBE_BASE)
        result["absent"] = tracer.absent
        os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
        tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
