"""The chi_y genus, from Chern data or from Hodge numbers.

chi_p(M) is the Euler characteristic of the sheaf of holomorphic p-forms;
the chi_y genus is the generating polynomial sum_p chi_p y^p.  Two routes
are implemented and deliberately kept independent:

* from Chern data, via Hirzebruch-Riemann-Roch: chi_y is the integral of
  prod_i (1 + y e^{-x_i}) x_i / (1 - e^{-x_i}) over the formal roots x_i.
  The logarithm of that product is n log(1+y) + sum_m s_m(y) p_m, with p_m
  the power sums of the roots, so chi_y is a fixed rational combination
  sum_lambda W_lambda(y) p_lambda of the power-sum Chern numbers
  p_lambda = prod p_m over the partitions lambda of n.  The weights do not
  depend on the manifold: one table per dimension is built and cached, in
  the (y+1)-basis, on integer numerators over one denominator.  A caller
  asks for the coefficients a_j it needs, each an integer combination of
  the p_lambda, and chi_p is read back from all of them;
* from a Hodge diamond, via the signed column sums chi_p = sum_q (-1)^q h^{p,q}.

The expansion of chi_y in powers of (y + 1) packages the genus into the
coefficients a_0, ..., a_n; the even ones A_k = a_{2k} start with the Euler
number A_0 and satisfy the closed form
A_1 = n(3n-5)/24 * c_n[M] + 1/12 * c_1 c_{n-1}[M],
which this module also exposes directly as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

from .chern import ChernVector, _todd_log_coefficients, chern_to_power_sums
from .polynomials import MultivariatePolynomial


@dataclass(frozen=True)
class ChiYPolynomial:
    """chi_y = sum_p chi_p y^p for p = 0..n.

    Formal Chern input can produce non-integral chi_p; that is reported by
    :meth:`integrality_violations`, never rejected.
    """

    chi_p: tuple

    @property
    def n(self) -> int:
        return len(self.chi_p) - 1

    def evaluate(self, y):
        acc = self.chi_p[0]
        power = y if isinstance(y, Fraction) else Fraction(y)
        value = Fraction(1)
        for p in range(1, len(self.chi_p)):
            value = value * power
            acc = acc + self.chi_p[p] * value
        return acc

    def integrality_violations(self) -> list[int]:
        bad = []
        for p, value in enumerate(self.chi_p):
            if isinstance(value, Fraction) and value.denominator != 1:
                bad.append(p)
        return bad


@dataclass(frozen=True)
class MinusOneExpansion:
    """Coefficients a_j of chi_y = sum_j a_j (y+1)^j."""

    coefficients: tuple

    @property
    def n(self) -> int:
        return len(self.coefficients) - 1

    def A(self, k: int):
        """The even coefficient A_k = a_{2k}; zero beyond the polynomial degree."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if 2 * k > self.n:
            return Fraction(0)
        return self.coefficients[2 * k]

    def reconstruct(self) -> ChiYPolynomial:
        """Invert the change of basis back to powers of y."""
        return ChiYPolynomial(_shift(self.coefficients, 1))


def _shift(coefficients, sign):
    """The coefficients of f(y + sign) from those f_i of f(y) = sum_i f_i y^i:
    by the binomial theorem, [y^j] f(y + sign) = sum_{i>=j} C(i, j) sign^(i-j) f_i."""
    n = len(coefficients) - 1
    return tuple(
        sum(
            (math.comb(i, j) * sign ** (i - j) * coefficients[i] for i in range(j + 1, n + 1)),
            coefficients[j],
        )
        for j in range(n + 1)
    )


class HodgeDiamond:
    """A validated (n+1) x (n+1) table of Hodge numbers h^{p,q}."""

    __slots__ = ("table",)

    def __init__(self, table):
        rows = tuple(tuple(row) for row in table)
        size = len(rows)
        if size == 0:
            raise ValueError("empty Hodge table")
        for row in rows:
            if len(row) != size:
                raise ValueError("Hodge table must be square")
            for h in row:
                if not isinstance(h, int) or h < 0:
                    raise ValueError(f"Hodge numbers must be non-negative integers, got {h!r}")
        n = size - 1
        for p in range(size):
            for q in range(size):
                if rows[p][q] != rows[q][p]:
                    raise ValueError(f"Hodge symmetry fails at ({p},{q})")
                if rows[p][q] != rows[n - p][n - q]:
                    raise ValueError(f"Serre duality fails at ({p},{q})")
        object.__setattr__(self, "table", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("HodgeDiamond is immutable")

    def __eq__(self, other):
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self.table == other.table

    __hash__ = None

    @property
    def n(self) -> int:
        return len(self.table) - 1

    def h(self, p: int, q: int) -> int:
        return self.table[p][q]

    @classmethod
    def projective_space(cls, n: int) -> "HodgeDiamond":
        return cls([[1 if p == q else 0 for q in range(n + 1)] for p in range(n + 1)])

    @classmethod
    def from_text(cls, text: str) -> "HodgeDiamond":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise ValueError(f"malformed Hodge table line {line!r}") from exc
        if not rows:
            raise ValueError("no Hodge table rows found")
        return cls(rows)

    @classmethod
    def from_path(cls, path) -> "HodgeDiamond":
        return cls.from_text(Path(path).read_text())


def _partition_products(n: int, factor, one):
    """Yield each partition of n, parts non-increasing and depth first, with
    the product factor(...factor(one, m_1)..., m_k) over its parts m_i.  A
    prefix shared by several partitions has its product computed once."""

    def walk(rest, largest, parts, product):
        if not rest:
            yield parts, product
        for m in range(min(rest, largest), 0, -1):
            yield from walk(rest - m, m, parts + (m,), factor(product, m))

    return walk(n, n, (), one)


@lru_cache(maxsize=None)
def _weight_table(n: int):
    """The weights W_lambda(y) = (1+y)^n prod_m s_m(y)^{k_m} / k_m! of the
    partitions lambda of n in the (y+1)-basis, as ``(D, table)``: ``table``
    maps each lambda to the integers N_lambda[0..n] with
    W_lambda = sum_j N_lambda[j] / D * (y+1)^j, over one denominator D for
    the whole dimension.  Here k_m counts the parts m and
    s_m = t_m + [x^m] log(1 + y e^{-x}).

    As sum_m m k_m = n, W_lambda = prod_m r_m^{k_m} / k_m! with
    r_m = (1+y)^m s_m, written in z = y+1 straight away.  For
    1 + y e^{-x} = z e^{-x} (1 + (e^x - 1)/z), and (e^x - 1)^k / k! =
    sum_m S(m, k) x^m / m! with S the Stirling numbers of the second kind, so
    m! r_m(z) = m! (t_m - [m = 1]) z^m
                + sum_{k=1}^{m} (-1)^{k-1} (k-1)! S(m, k) z^{m-k}.
    These integer rows over m! times the denominator of t_m - [m = 1] are
    multiplied out per partition, each product is brought to lowest terms,
    and all are put over their lcm D.
    """
    t = _todd_log_coefficients(n)
    numerators, scale = [None], [None]  # indexed by the part m >= 1
    stirling = [1]  # S(m, k) for k = 0..m
    for m in range(1, n + 1):
        stirling = [k * a + b for k, a, b in zip(range(m + 1), stirling + [0], [0] + stirling)]
        top = math.factorial(m) * (t[m] - (m == 1))  # [z^m] m! r_m
        d = top.denominator
        low = [(-1) ** (k - 1) * math.factorial(k - 1) * stirling[k] * d for k in range(m, 0, -1)]
        numerators.append(low + [top.numerator])
        scale.append(math.factorial(m) * d)

    def factor(product, m):
        coefficients, den = product
        out = [0] * (len(coefficients) + m)
        for i, a in enumerate(coefficients):
            for j, b in enumerate(numerators[m]):
                out[i + j] += a * b
        return out, den * scale[m]

    products = {}
    for parts, (coefficients, den) in _partition_products(n, factor, ([1], 1)):
        for m in set(parts):
            den *= math.factorial(parts.count(m))
        g = math.gcd(den, *coefficients)
        products[parts] = ([c // g for c in coefficients], den // g)
    denominator = math.lcm(*(den for _, den in products.values()))
    table = {
        parts: tuple(c * (denominator // den) for c in coefficients)
        for parts, (coefficients, den) in products.items()
    }
    return denominator, MappingProxyType(table)


def minus_one_coefficients(c: ChernVector, indices) -> dict:
    """The coefficients a_j of chi_y = sum_j a_j (y+1)^j for each j in
    ``indices``, each in 0..n: a_j = sum_lambda N_lambda[j] p_lambda / D over
    the cached weight table and the power-sum Chern numbers p_lambda of
    ``c``, folded in place on integer numerators.  Rational Chern data give
    ``Fraction`` values, polynomial data polynomials over the same variables."""
    n = c.n
    indices = tuple(indices)
    if not all(0 <= j <= n for j in indices):
        raise ValueError(f"coefficient indices must lie in 0..{n}, got {indices}")
    p = chern_to_power_sums(c)
    denominator, weights = _weight_table(n)

    def rows():
        for parts, p_lambda in _partition_products(n, lambda acc, m: acc * p[m - 1], 1):
            w = weights[parts]
            yield [w[j] for j in indices], p_lambda

    polynomial = next((e for e in c.entries if isinstance(e, MultivariatePolynomial)), None)
    variables = polynomial.variables if polynomial is not None else ()
    a = MultivariatePolynomial.linear_combinations(variables, rows(), denominator)
    if polynomial is None:
        a = [value.constant_value() for value in a]
    return dict(zip(indices, a))


def chi_y_from_chern(c: ChernVector) -> ChiYPolynomial:
    """chi_p via Hirzebruch-Riemann-Roch for every p at once: every a_j of
    :func:`minus_one_coefficients`, moved back to powers of y."""
    a = minus_one_coefficients(c, range(c.n + 1))
    return MinusOneExpansion(tuple(a.values())).reconstruct()


def chi_y_from_hodge(h: HodgeDiamond) -> ChiYPolynomial:
    """chi_p = sum_q (-1)^q h^{p,q}; the independent route used as an oracle."""
    out = []
    for p in range(h.n + 1):
        acc = 0
        for q in range(h.n + 1):
            acc += h.h(p, q) if q % 2 == 0 else -h.h(p, q)
        out.append(Fraction(acc))
    return ChiYPolynomial(tuple(out))


def expand_at_minus_one(chi: ChiYPolynomial) -> MinusOneExpansion:
    """Exact change of basis to powers of y+1: a_j = [z^j] chi_y(z - 1)."""
    return MinusOneExpansion(_shift(chi.chi_p, -1))


def a1_closed_form(c: ChernVector):
    """A_1 = n(3n-5)/24 * c_n[M] + 1/12 * c_1 c_{n-1}[M], straight from the
    coefficient identity; independent of the expansion pipeline."""
    n = c.n
    return Fraction(n * (3 * n - 5), 24) * c.scalar(n) + Fraction(1, 12) * (
        c.scalar(1) * c.scalar(n - 1)
    )


@dataclass(frozen=True)
class PinnedProducts:
    """The four Chern-number values pinned by A_0 and A_1 when both M and a
    hyperplane-like divisor D have the chi_y genus of projective space."""

    euler_m: Fraction  # c_n[M]
    euler_d: Fraction  # c_{n-1}(D)[D]
    c1_cn1_m: Fraction  # c_1 c_{n-1}[M]
    c1_cn2_d: Fraction  # c_1 c_{n-2}(D)[D]


def pinned_products(n: int) -> PinnedProducts:
    if n < 2:
        raise ValueError("needs n >= 2")
    return PinnedProducts(
        euler_m=Fraction(n + 1),
        euler_d=Fraction(n),
        c1_cn1_m=Fraction(n * (n + 1) ** 2, 2),
        c1_cn2_d=Fraction((n - 1) * n**2, 2),
    )
