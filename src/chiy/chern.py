"""Chern-class calculus on manifolds with truncated-polynomial cohomology.

The ambient ring is Z[x]/(x^{n+1}) with x of degree one, so every cohomology
class is determined by the n+1 scalars multiplying 1, x, ..., x^n.  A
``ChernVector`` holds the scalars of c_1, ..., c_n of the tangent bundle.  A
graded class is a ``TruncatedSeries`` of order n whose coefficient k is the
scalar multiplying x^k.

Newton's identities convert between Chern entries (elementary symmetric
functions of the formal roots) and power sums.  From power sums one obtains
the Todd class exp(sum t_m p_m x^m), where the t_m are the coefficients of
log(x / (1 - e^{-x})).  They have a closed form in the Bernoulli numbers of
x/(e^x - 1) = sum_m B_m x^m / m!: t_0 = 0 and t_m = -B_m / (m m!) for m >= 1.
For the derivative of that logarithm is
1/x - 1/(e^x - 1) = (1 - x/(e^x - 1)) / x = -sum_{m>=1} B_m x^{m-1} / m!,
and the logarithm vanishes at x = 0.  Everything is exact and works unchanged
for rational or polynomial scalars; any other scalar, a float included, is a
``TypeError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .series import TruncatedSeries, _coerce_scalar, bernoulli


class ChernVector:
    """The scalars (c_1, ..., c_n) of the tangent Chern classes c_i = scalar * x^i."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(_coerce_scalar(e) for e in entries)
        if not entries:
            raise ValueError("a Chern vector needs at least one entry")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ChernVector is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def scalar(self, i: int):
        """The scalar of c_i, with c_0 = 1."""
        if i == 0:
            return Fraction(1)
        if not 1 <= i <= self.n:
            raise ValueError(f"c_{i} undefined in dimension {self.n}")
        return self.entries[i - 1]

    def __eq__(self, other):
        if not isinstance(other, ChernVector):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"ChernVector({list(self.entries)!r})"


def chern_to_power_sums(c: ChernVector) -> list:
    """Power sums p_1, ..., p_n of the formal roots via Newton's identities:
    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k."""
    p: list = []
    for k in range(1, c.n + 1):
        acc = k * c.scalar(k) if k % 2 else -k * c.scalar(k)
        for i in range(1, k):
            term = c.scalar(i) * p[k - i - 1]
            acc = acc + term if i % 2 else acc - term
        p.append(acc)
    return p


def power_sums_to_elementary(power_sums, rank: int) -> list:
    """Elementary symmetric functions e_1, ..., e_rank from power sums, via
    k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} p_i with e_0 = 1.

    The entries may be scalars or graded classes; they only need ring
    arithmetic and division by an integer.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if len(power_sums) < rank:
        raise ValueError(f"need {rank} power sums, got {len(power_sums)}")
    e: list = []
    for k in range(1, rank + 1):
        acc = None
        for i in range(1, k + 1):
            term = power_sums[i - 1] if i == k else e[k - i - 1] * power_sums[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        e.append(acc / k)
    return e


@lru_cache(maxsize=None)
def _todd_log_coefficients(order: int) -> tuple[Fraction, ...]:
    # t_0 = 0 and t_m = -B_m / (m m!), the coefficients of log(x / (1 - e^{-x}))
    return (Fraction(0),) + tuple(
        -bernoulli(m) / (m * math.factorial(m)) for m in range(1, order + 1)
    )


def todd_class(c: ChernVector) -> TruncatedSeries:
    """Todd class of the bundle with Chern vector ``c``, as a graded class."""
    t = _todd_log_coefficients(c.n)
    p = chern_to_power_sums(c)
    components = [Fraction(0)]
    for m in range(1, c.n + 1):
        components.append(t[m] * p[m - 1])
    return TruncatedSeries(c.n, components).exp()


def projective_space(n: int) -> ChernVector:
    """Chern vector of P^n: c_i = C(n+1, i)."""
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    return ChernVector([math.comb(n + 1, i) for i in range(1, n + 1)])
