"""Exact coefficient-recovery experiments: assemble sample systems from the
derivative engine and solve them over the rationals.

fit_d1 recovers (α, β, γ, δ) in  d1 = α·x² + β·x + γ + δ·f(x)²  and fit_d2
recovers the 11 coefficients of the second-derivative ansatz, including the
weight of the lattice-sum column λ(a/b) = s_{1,3}(a, b), the generalized
Dedekind sum Σ_{n<b} B̄_1(n/b)·B̄_3(a·n/b).
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Sequence

from .exact import Rat, _echelon, derivative_at_one
from .qdeform import deform
from .dedekind import s_sum
from .sbtree import _jet_walk

__all__ = [
    "RankDeficientError",
    "fit_d1",
    "fit_d2",
    "default_d1_samples",
    "default_d2_samples",
    "emit_plot_data",
    "plot_data_csv",
]


class RankDeficientError(ValueError):
    """The sample set's feature matrix does not reach full rank; add samples
    with more varied denominators."""


D1_FEATURE_NAMES = ("x^2", "x", "1", "f^2")

D2_FEATURE_NAMES = (
    "1/b^3", "a/b^3", "a^2/b^3", "a^3/b^3",
    "1/b^2", "a/b^2", "a^2/b^2",
    "1/b", "a/b", "1", "lambda",
)


def _d1_features(x: Fraction) -> tuple[Rat, ...]:
    return (x * x, x, Fraction(1), Fraction(1, x.denominator ** 2))


def _d2_features(a: int, b: int) -> tuple[Rat, ...]:
    return (
        Fraction(1, b ** 3), Fraction(a, b ** 3), Fraction(a * a, b ** 3),
        Fraction(a ** 3, b ** 3),
        Fraction(1, b * b), Fraction(a, b * b), Fraction(a * a, b * b),
        Fraction(1, b), Fraction(a, b), Fraction(1),
        s_sum(1, 3, a, b),
    )


def _solve_system(rows: Sequence[tuple[tuple[Rat, ...], Rat]],
                  width: int) -> tuple[Rat, ...]:
    """Reduce the (features | rhs) rows, whose first `width` rank-increasing
    rows fix the coefficients, then demand zero residual on every row."""
    kept = _echelon([(*feats, rhs) for feats, rhs in rows], width)
    if len(kept) < width:
        raise RankDeficientError(
            f"feature matrix rank {len(kept)} < {width}; "
            "add samples with more varied denominators")
    coeffs = [Fraction(r[width], r[p]) for p, r in sorted(kept)]
    for feats, rhs in rows:
        predicted = sum(c * f for c, f in zip(coeffs, feats))
        if predicted != rhs:
            raise ValueError("sample set is inconsistent with the ansatz")
    return tuple(coeffs)


def fit_d1(samples: Sequence[Rat]) -> tuple[Rat, Rat, Rat, Rat]:
    """Recover (α, β, γ, δ) exactly from first derivatives at the samples."""
    rows = []
    for s in samples:
        x = Fraction(s)
        rhs = derivative_at_one(deform(x).deform, 1)
        rows.append((_d1_features(x), rhs))
    return _solve_system(rows, 4)


def fit_d2(samples: Sequence[Rat]) -> tuple[Rat, ...]:
    """Recover the 11 second-derivative ansatz coefficients exactly.

    Coefficient order follows D2_FEATURE_NAMES; the last entry is the weight
    of the lattice-sum column.
    """
    rows = []
    for s in samples:
        x = Fraction(s)
        rhs = derivative_at_one(deform(x).deform, 2)
        rows.append((_d2_features(x.numerator, x.denominator), rhs))
    return _solve_system(rows, 11)


def default_d1_samples() -> list[Fraction]:
    """Four non-integer samples whose feature matrix is full-rank (integers
    alone cannot separate the x² and f² columns)."""
    return [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5)]


def default_d2_samples() -> list[Fraction]:
    """The 17 reduced proper fractions with b ≤ 7, ordered by (b, a).

    The greedy selector inside fit_d2 then picks the lexicographically first
    full-rank subset.  All pool members are tree nodes of small depth.
    """
    return [Fraction(a, b) for b in range(2, 8) for a in range(1, b)
            if math.gcd(a, b) == 1]


# --------------------------------------------------------------------------
# Plot data
# --------------------------------------------------------------------------

def emit_plot_data(depth: int, order: int, start: int = 0) -> list[tuple]:
    """Rows (x, value, b, depth) for every tree node between start and
    start+1 down to the given depth, sorted by x; value is the exact
    derivative of the given order (0 returns the node value itself), read
    off the tree walk modulo (2^W − 1)³ (sbtree._jet_walk), which builds no
    polynomial and checks each node's N(1), D(1) against its reduced a, b.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    rows = []
    for stack in _jet_walk(start, depth):  # in increasing value
        frame = stack[-1]
        b = frame.b
        rows.append((frame.value, Fraction(frame.cleared_jets[order], b ** (order + 1)),
                     b, len(stack) - 3))
    return rows


def _dec(x: Rat) -> str:
    """Exact decimal rendering to 12 places, rounded half away from zero."""
    sign = "-" if x < 0 else ""
    scaled = abs(Fraction(x)) * 10 ** 12
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    digits = f"{whole:013d}"
    return f"{sign}{digits[:-12]}.{digits[-12:]}"


def plot_data_csv(depth: int, order: int, start: int = 0) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "value", "b", "depth"])
    for x, val, b, d in emit_plot_data(depth, order, start):
        writer.writerow([_dec(x), _dec(val), b, d])
    return buf.getvalue()
