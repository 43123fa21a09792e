"""The four benchmark workloads: seeded inputs, the timed library calls, and
the checks on their outputs.

Every call into the package goes through an attribute of the `qrationals`
namespace at call time, so the tracer in `tracer.py` sees it once it has
rebound that name.  Inputs depend only on the seed; the package sees only the
generated inputs.

Two checks apply to every case.  An independent one compares two sides that
the package computes by different routes (exact jets against closed forms,
weighted mediants against continued fractions) or that the benchmark
computes itself (the value N(1)/D(1) against x, the Stern–Brocot node set).
A stored one compares a hash of the case's exact outputs with
`digests.json`, so a changed output fails even where no closed form exists
(the order-2 and order-3 jets of `deform-deep`).
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import qrationals as Q

# The seed selects one of INPUT_SETS input sets, each with stored digests.
INPUT_SETS = 32

IDENTITY_DEPTH = 10
IDENTITY_CHECKED = {4: 2008, 5: 1976}
TREE_DEPTH = 12
TREE_NODES = 2 ** (TREE_DEPTH + 1) - 1
REQUESTS = 100


def digest(*parts) -> str:
    """32-bit hex digest of a tuple of ints, strings and Fractions."""
    text = repr(tuple(str(p) if isinstance(p, Fraction) else p for p in parts))
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed % INPUT_SETS}")


def _stratum(rng: random.Random, k: int, n: int) -> float:
    """A uniform draw from the k-th of n equal strata of [0, 1).

    Stratifying keeps the spread of input sizes the same from seed to seed,
    so percentiles move with the program rather than with the draw.
    """
    return (k + rng.random()) / n


def _poly_at_one(coeffs: list[str]) -> int:
    return sum(int(c) for c in coeffs)


@dataclass
class Check:
    """Outcome of one timed pass: per-case pass flags, the digest units
    (each a digest and the cases it covers) and the input's work size."""

    ok: list[bool]
    units: list[tuple[str, list[int]]]
    work: dict


class Identities:
    name = "identities"
    per_case = False

    def inputs(self, seed: int):
        return IDENTITY_DEPTH

    def timed(self, depth, latencies_ms):
        return Q.identity_sweep(depth)

    def check(self, depth, res) -> Check:
        checked = {m: res["checked"].get(m, 0) for m in IDENTITY_CHECKED}
        n = sum(IDENTITY_CHECKED.values())
        bad = len(res["failures"]) + sum(abs(checked[m] - IDENTITY_CHECKED[m])
                                         for m in IDENTITY_CHECKED)
        bad = min(bad, n)
        ok = [False] * bad + [True] * (n - bad)
        failures = tuple(tuple(str(v) for v in f) for f in res["failures"])
        unit = digest(depth, tuple(sorted(checked.items())), failures)
        return Check(ok, [(unit, list(range(n)))], {"lineages": n})


def stern_brocot(depth: int) -> list[tuple[int, Fraction]]:
    """(depth, value) of every Stern–Brocot node strictly between 0 and 1,
    to the given depth, by plain Farey mediants."""
    out = []

    def rec(lo: Fraction, hi: Fraction, d: int):
        if d > depth:
            return
        mid = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        out.append((d, mid))
        rec(lo, mid, d + 1)
        rec(mid, hi, d + 1)

    rec(Fraction(0), Fraction(1), 0)
    out.sort()
    return out


class TreeEquivalence:
    name = "tree-equivalence"
    per_case = False

    def inputs(self, seed: int):
        return TREE_DEPTH

    def timed(self, depth, latencies_ms):
        return Q.equivalence_mismatches(depth)

    def check(self, depth, mismatches) -> Check:
        nodes = stern_brocot(depth)
        bad = set(mismatches)
        ok = [v not in bad for _, v in nodes]
        ok += [False] * len(bad - {v for _, v in nodes})
        units = []
        for d in range(depth + 1):
            idx = [i for i, (nd, _) in enumerate(nodes) if nd == d]
            polys = []
            for i in idx:
                js = Q.qrational_to_json(Q.deform(nodes[i][1]))
                polys.append((js["a"], js["b"], tuple(js["num"]), tuple(js["den"])))
            units.append((digest(d, tuple(polys)), idx))
        return Check(ok, units, {"nodes": len(nodes)})


class DeriveWide:
    """`qrat derive --order 2` on distinct inputs: reduced a/b with b
    log-uniform in [500, 5000] and a uniform in [−b, 2b]."""

    name = "derive-wide"
    per_case = True

    def inputs(self, seed: int) -> list[tuple[int, int]]:
        rng = _rng(self.name, seed)
        out = []
        for k in range(REQUESTS):
            b = min(5000, max(500, round(500 * 10 ** _stratum(rng, k, REQUESTS))))
            while True:
                a = rng.randint(-b, 2 * b)
                if math.gcd(a, b) == 1:
                    break
            out.append((a, b))
        rng.shuffle(out)
        return out

    def timed(self, inputs, latencies_ms):
        results = []
        clock = time.perf_counter
        for a, b in inputs:
            t0 = clock()
            try:
                x = Fraction(a, b)
                qr = Q.deform(x)
                e1 = Q.derivative_at_one(qr.deform, 1)
                e2 = Q.derivative_at_one(qr.deform, 2)
                same = e1 == Q.d1_closed(x) and e2 == Q.d2_closed(a, b)
                results.append((same, qr, e1, e2))
            except Exception as exc:  # a raising case is a failed case
                results.append((False, exc, None, None))
            latencies_ms.append((clock() - t0) * 1e3)
        return results

    def check(self, inputs, results) -> Check:
        ok, units = [], []
        for i, ((a, b), (same, qr, e1, e2)) in enumerate(zip(inputs, results)):
            if e1 is None:
                ok.append(False)
                units.append(("", [i]))
                continue
            js = Q.qrational_to_json(qr)
            ok.append(same)
            units.append((digest(a, b, tuple(js["num"]), tuple(js["den"]), e1, e2), [i]))
        return Check(ok, units, {"sum_b_minus_1": sum(b - 1 for _, b in inputs)})


class DeformDeep:
    """Long continued fractions: a few deformations of degree in the hundreds
    with big-integer coefficients, and their exact jets of orders 1 to 3."""

    name = "deform-deep"
    per_case = True
    QUOTIENTS = (1, 1, 2, 3)

    def inputs(self, seed: int) -> list[tuple[int, ...]]:
        rng = _rng(self.name, seed)
        out = []
        for k in range(REQUESTS):
            length = 50 + int(_stratum(rng, k, REQUESTS) * 351)
            terms = (rng.randint(-2, 2),) + tuple(rng.choice(self.QUOTIENTS)
                                                  for _ in range(length))
            out.append(terms)
        rng.shuffle(out)
        return [(terms, cfrac_value(terms)) for terms in out]

    def timed(self, inputs, latencies_ms):
        results = []
        clock = time.perf_counter
        for _, x in inputs:
            t0 = clock()
            try:
                qr = Q.deform(x)
                jets = tuple(Q.derivative_at_one(qr.deform, k) for k in (1, 2, 3))
                results.append((jets[0] == Q.d1_closed(x), qr, jets))
            except Exception as exc:  # a raising case is a failed case
                results.append((False, exc, None))
            latencies_ms.append((clock() - t0) * 1e3)
        return results

    def check(self, inputs, results) -> Check:
        ok, units = [], []
        degree = 0
        for i, ((_, x), (same, qr, jets)) in enumerate(zip(inputs, results)):
            if jets is None:
                ok.append(False)
                units.append(("", [i]))
                continue
            js = Q.qrational_to_json(qr)
            degree += len(js["num"]) - 1 + len(js["den"]) - 1
            value = Fraction(_poly_at_one(js["num"]), _poly_at_one(js["den"]))
            ok.append(same and value == x)
            units.append((digest(tuple(js["num"]), tuple(js["den"]), *jets), [i]))
        work = {"sum_partial_quotients": sum(sum(t[1:]) for t, _ in inputs),
                "sum_output_degree": degree}
        return Check(ok, units, work)


def cfrac_value(terms: tuple[int, ...]) -> Fraction:
    """a_0 + 1/(a_1 + 1/(… + 1/a_m)), by the convergent recurrence
    p_k = a_k·p_{k−1} + p_{k−2} (likewise q_k), evaluated by the benchmark
    itself."""
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for t in terms:
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
    return Fraction(p, q)


WORKLOADS = {w.name: w for w in (Identities(), TreeEquivalence(), DeriveWide(), DeformDeep())}


def digest_key(workload, seed: int) -> str:
    """Key of a seed's stored digests: one set for the fixed sweeps, one per
    input set for the seeded workloads."""
    return str(seed % INPUT_SETS) if workload.per_case else "fixed"
