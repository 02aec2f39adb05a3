"""Bernoulli numbers and truncated power series over exact coefficient rings.

Every series carries an explicit truncation order: a ``TruncatedSeries`` of
order N stores the N+1 coefficients of 1, x, ..., x^N and silently discards
everything above.  Mixing orders is an error, never an implicit coercion.

Coefficients live in one of two exact commutative rings: plain
``fractions.Fraction`` (integers are coerced on input) and
``chiy.polynomials.MultivariatePolynomial``.  Any other scalar, a float
included, is a ``TypeError``, as in the polynomial kernel.  Nothing else here
depends on which ring is in play, so numeric and symbolic computations share
one code path.  Beyond the ring operations a series has only ``exp``: the one
logarithm the package needs, that of the Todd series, has a closed form (see
``chiy.chern``).

The Bernoulli numbers are those of x/(e^x - 1) = sum_m B_m x^m / m!, so
B_1 = -1/2.  The recurrence of :func:`bernoulli` is the coefficient of x^m,
m >= 1, in (e^x - 1)/x * x/(e^x - 1) = 1, which reads
sum_{j=0}^{m} C(m+1, j) B_j / (m+1)! = 0.  All objects are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import MultivariatePolynomial, _as_fraction

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2), computed by the
    recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 and memoized."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("Bernoulli index must be a non-negative integer")
    while len(_BERNOULLI) <= m:
        r = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(r):
            acc += math.comb(r + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (r + 1))
    return _BERNOULLI[m]


def _coerce_scalar(value):
    """An exact ring scalar: a polynomial as it is, an int or a ``Fraction``
    as a ``Fraction``; anything else (a float, say) is a ``TypeError``."""
    return value if isinstance(value, MultivariatePolynomial) else _as_fraction(value)


class TruncatedSeries:
    """A power series truncated above a fixed degree.

    >>> x = TruncatedSeries(3, [0, 1, 0, 0])
    >>> (x.exp() * (-x).exp()).coefficients
    (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    """

    __slots__ = ("order", "coefficients")

    def __init__(self, order: int, coefficients):
        if order < 0:
            raise ValueError("series order must be non-negative")
        coefficients = tuple(_coerce_scalar(c) for c in coefficients)
        if len(coefficients) != order + 1:
            raise ValueError(
                f"order {order} series needs {order + 1} coefficients, got {len(coefficients)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def one(cls, order: int):
        return cls(order, (Fraction(1),) + (Fraction(0),) * order)

    @property
    def constant_term(self):
        return self.coefficients[0]

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"mixed truncation orders {self.order} and {other.order}")

    def _wrap(self, coefficients):
        return type(self)(self.order, coefficients)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return self._wrap(a + b for a, b in zip(self.coefficients, other.coefficients))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return self._wrap(a - b for a, b in zip(self.coefficients, other.coefficients))
        return NotImplemented

    def __neg__(self):
        return self._wrap(-a for a in self.coefficients)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            a, b = self.coefficients, other.coefficients
            out = []
            for k in range(self.order + 1):
                acc = a[0] * b[k]
                for i in range(1, k + 1):
                    acc = acc + a[i] * b[k - i]
                out.append(acc)
            return self._wrap(out)
        # anything that is not a series acts as a ring scalar
        scalar = _coerce_scalar(other)
        return self._wrap(scalar * c for c in self.coefficients)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        if isinstance(scalar, TruncatedSeries):
            return NotImplemented
        scalar = _coerce_scalar(scalar)
        return self._wrap(c / scalar for c in self.coefficients)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coefficients, other.coefficients)
        )

    __hash__ = None

    def exp(self):
        """exp of a series with zero constant term."""
        if not self.constant_term == 0:
            raise ValueError("exp needs a zero constant term")
        result = term = self.one(self.order)
        for k in range(1, self.order + 1):
            term = (term * self) / k
            result = result + term
        return result

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {list(self.coefficients)!r})"
