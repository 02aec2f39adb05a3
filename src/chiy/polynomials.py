"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial carries a fixed, ordered tuple of variable names.  Its
coefficients are stored as integer numerators over one shared positive
denominator, kept reduced by content: the gcd of the denominator and all
numerators is 1 and zero numerators are never stored, so structural equality
is semantic equality.  Each exponent tuple is packed into one ``int`` key: a
field of ``FIELD_BITS`` bits per variable, below a field holding the total
degree, so a monomial product is one integer addition and integer order on
keys is graded lexicographic order.  A polynomial product is then an integer
multiply-accumulate into one dict followed by one gcd pass.  No monomial may
have a total degree above ``MAX_DEGREE``; an operation that would produce one
raises ``OverflowError`` instead of letting a field carry into its neighbour.

The public interface is that of a term map: :attr:`terms` is a read-only
mapping from exponent tuples to ``fractions.Fraction`` coefficients, decoded
once per (immutable) object and cached.  Arithmetic is only defined between
polynomials that declare the same variable tuple; plain ``int`` and
``Fraction`` values coerce to constants, which is what lets these objects
serve as coefficients of the truncated series in :mod:`chiy.series`.

The canonical term order used for display and serialization is graded
lexicographic, highest first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1
MAX_DEGREE = _MASK  # largest total degree a monomial may have


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(value: object) -> tuple[int, int]:
    """Numerator and denominator of an exact rational, without building one."""
    if isinstance(value, int):
        return value, 1
    value = _as_fraction(value)
    return value.numerator, value.denominator


def _degree_overflow(degree: int) -> OverflowError:
    return OverflowError(
        f"total degree {degree} exceeds the packed exponent limit {MAX_DEGREE}"
    )


@lru_cache(maxsize=None)
def _shifts(width: int) -> tuple[int, ...]:
    """Bit offset of each variable's field; the total degree sits above them."""
    return tuple(FIELD_BITS * (width - 1 - i) for i in range(width))


def _pack(exponents: tuple[int, ...]) -> int:
    key = sum(exponents)
    if key > MAX_DEGREE:
        raise _degree_overflow(key)
    for e in exponents:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int, shifts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((key >> s) & _MASK for s in shifts)


def _product(a: dict, b: dict, top: int) -> dict:
    """Numerators of the product of two nonzero numerator maps.  ``top`` is
    the offset of the total-degree field; the product's leading monomial is
    the sum of the leading keys, so checking it bounds every field."""
    degree = (max(a) + max(b)) >> top
    if degree > MAX_DEGREE:
        raise _degree_overflow(degree)
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    if 0 in acc.values():
        return {k: c for k, c in acc.items() if c}
    return acc


def _accumulate(acc: dict, b: dict, factor: int = 1) -> None:
    """acc += factor * b, in place, dropping cancelled terms."""
    get = acc.get
    if factor == 1:
        for k, c in b.items():
            s = get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
    else:
        for k, c in b.items():
            s = get(k, 0) + c * factor
            if s:
                acc[k] = s
            else:
                del acc[k]


class MultivariatePolynomial:
    """Immutable sparse polynomial over the rationals.

    Build values with :meth:`variable`, :meth:`constant` and ordinary
    arithmetic rather than by passing raw term maps:

    >>> c2, c3 = MultivariatePolynomial.generators(("c2", "c3"))
    >>> str(c2 * c2 - 2 * c3 + 1)
    'c2^2 - 2*c3 + 1'
    """

    # _nums: packed key -> nonzero integer numerator; _den: shared positive
    # denominator; _terms: the decoded term map, filled on first use
    __slots__ = ("variables", "_nums", "_den", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        width = len(variables)
        clean = []  # (key, numerator, denominator)
        den = 1
        for exponents, coefficient in terms.items():
            exponents = tuple(exponents)
            if len(exponents) != width:
                raise ValueError(f"exponent tuple {exponents} does not match {width} variables")
            if exponents and min(exponents) < 0:
                raise ValueError("negative exponent")
            p, q = _ratio(coefficient)
            if p:
                clean.append((_pack(exponents), p, q))
                if den % q:
                    den = den * q // math.gcd(den, q)
        # over the lcm of reduced denominators the content is already 1
        nums = {k: p * (den // q) for k, p, q in clean}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MultivariatePolynomial is immutable")

    @classmethod
    def _raw(cls, variables, nums, den):
        # Internal fast path: nums are nonzero and already reduced against den.
        obj = object.__new__(cls)
        object.__setattr__(obj, "variables", variables)
        object.__setattr__(obj, "_nums", nums)
        object.__setattr__(obj, "_den", den if nums else 1)
        return obj

    def __reduce__(self):
        # the immutability guard blocks pickle's default slot restore
        return (type(self)._raw, (self.variables, self._nums, self._den))

    @classmethod
    def _reduced(cls, variables, nums, den):
        """Build from nonzero numerators over ``den``, dividing out the content."""
        if den != 1 and nums:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                den //= g
        return cls._raw(variables, nums, den)

    @classmethod
    def linear_combinations(
        cls, variables: Sequence[str], rows: Iterable, denominator: int = 1
    ) -> tuple["MultivariatePolynomial", ...]:
        """The polynomials sum_r w_r[j] * value_r / ``denominator``, one per
        position j of the integer weight tuples, over the ``(w_r, value_r)``
        pairs of ``rows``.  A value is a polynomial over ``variables`` or an
        exact rational of any denominator.  The rows are consumed one at a
        time and folded in place into one numerator map per output, over the
        common denominator of the values seen so far, and each output is
        reduced by its content once at the end."""
        if not isinstance(denominator, int) or denominator < 1:
            raise ValueError(f"denominator must be a positive integer, got {denominator!r}")
        variables = tuple(variables)
        accs: list[dict[int, int]] = []
        den = 1
        for weights, value in rows:
            if isinstance(value, MultivariatePolynomial):
                if value.variables != variables:
                    raise ValueError(f"mixed variable contexts: {variables} vs {value.variables}")
                nums, d = value._nums, value._den
            else:
                p, d = _ratio(value)
                nums = {0: p} if p else {}
            if not accs:
                accs = [{} for _ in weights]
            if den % d:
                g = d // math.gcd(den, d)  # den * g is the new common denominator
                for acc in accs:
                    for k in acc:
                        acc[k] *= g
                den *= g
            scale = den // d
            for acc, w in zip(accs, weights):
                if w:
                    _accumulate(acc, nums, w * scale)
        return tuple(cls._reduced(variables, acc, den * denominator) for acc in accs)

    # ------------------------------------------------------------------
    # the exact integer form

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from exponent tuples to nonzero ``Fraction``
        coefficients, in canonical order."""
        try:
            return self._terms
        except AttributeError:
            pass
        shifts = _shifts(len(self.variables))
        nums, den = self._nums, self._den
        decoded = MappingProxyType(
            {_unpack(k, shifts): Fraction(nums[k], den) for k in sorted(nums, reverse=True)}
        )
        object.__setattr__(self, "_terms", decoded)
        return decoded

    @property
    def denominator(self) -> int:
        """The shared positive denominator of all coefficients (1 for zero)."""
        return self._den

    def integer_terms(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(numerator, exponents)`` pairs over :attr:`denominator`, in
        canonical order; the numerators have no common factor with it."""
        shifts = _shifts(len(self.variables))
        nums = self._nums
        return [(nums[k], _unpack(k, shifts)) for k in sorted(nums, reverse=True)]

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultivariatePolynomial":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "MultivariatePolynomial":
        return cls.constant(1, variables)

    @classmethod
    def constant(cls, value: object, variables: Sequence[str]) -> "MultivariatePolynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "MultivariatePolynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among the declared variables {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def generators(cls, variables: Sequence[str]) -> tuple["MultivariatePolynomial", ...]:
        variables = tuple(variables)
        return tuple(cls.variable(name, variables) for name in variables)

    # ------------------------------------------------------------------
    # ring structure

    def _check_context(self, other: "MultivariatePolynomial"):
        if other.variables != self.variables:
            raise ValueError(f"mixed variable contexts: {self.variables} vs {other.variables}")

    def _coerce(self, other: object) -> "MultivariatePolynomial | None":
        if isinstance(other, MultivariatePolynomial):
            self._check_context(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MultivariatePolynomial.constant(other, self.variables)
        return None

    def __add__(self, other):
        if isinstance(other, MultivariatePolynomial):
            self._check_context(other)
            b, db = other._nums, other._den
        elif isinstance(other, int):
            # c*den + N_0 keeps the content 1, so no gcd pass is needed
            nums = dict(self._nums)
            s = nums.get(0, 0) + other * self._den
            if s:
                nums[0] = s
            else:
                nums.pop(0, None)
            return self._raw(self.variables, nums, self._den)
        elif isinstance(other, Fraction):
            b, db = ({0: other.numerator} if other else {}), other.denominator
        else:
            return NotImplemented
        a, da = self._nums, self._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g  # scale both to the lcm of the denominators
        # copy one side and fold the other into it, copying whichever side
        # leaves the least work for the Python loop
        if (0 if fb == 1 else len(b)) + len(a) < (0 if fa == 1 else len(a)) + len(b):
            a, b, fa, fb = b, a, fb, fa
        nums = dict(a) if fa == 1 else {k: c * fa for k, c in a.items()}
        _accumulate(nums, b, fb)
        return self._reduced(self.variables, nums, da // g * db)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.variables, {k: -c for k, c in self._nums.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        variables = self.variables
        if isinstance(other, MultivariatePolynomial):
            self._check_context(other)
            if not self._nums or not other._nums:
                return self._raw(variables, {}, 1)
            nums = _product(self._nums, other._nums, FIELD_BITS * len(variables))
            return self._reduced(variables, nums, self._den * other._den)
        if isinstance(other, int):
            if not other:
                return self._raw(variables, {}, 1)
            # gcd(den, c * N) = gcd(den, c) because gcd(den, N) = 1
            g = math.gcd(self._den, other)
            c = other // g
            return self._raw(variables, {k: n * c for k, n in self._nums.items()}, self._den // g)
        if isinstance(other, Fraction):
            if not other:
                return self._raw(variables, {}, 1)
            c = other.numerator
            nums = {k: n * c for k, n in self._nums.items()}
            return self._reduced(variables, nums, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultivariatePolynomial.one(self.variables)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self * (1 / other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MultivariatePolynomial):
            return (
                self.variables == other.variables
                and self._den == other._den
                and self._nums == other._nums
            )
        if isinstance(other, (int, Fraction)):
            value = _as_fraction(other)
            if not value:
                return not self._nums
            return self._den == value.denominator and self._nums == {0: value.numerator}
        return NotImplemented

    __hash__ = None  # mutable-looking equality; not meant for use as dict keys

    def __bool__(self):
        return bool(self._nums)

    # ------------------------------------------------------------------
    # structure queries

    def _field(self, name: str) -> int:
        return _shifts(len(self.variables))[self.variables.index(name)]

    def _occurring(self) -> int:
        """Bitwise or of all keys: a field is nonzero iff its variable occurs."""
        return reduce(or_, self._nums, 0)

    def is_constant(self) -> bool:
        return not any(self._nums)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, raising otherwise."""
        if not self._nums:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._nums[0], self._den)

    def total_degree(self) -> int:
        """Total degree, with the convention that the zero polynomial has degree 0."""
        if not self._nums:
            return 0
        return max(self._nums) >> (FIELD_BITS * len(self.variables))

    def degree_in(self, name: str) -> int:
        shift = self._field(name)
        if not self._nums:
            return 0
        return max((k >> shift) & _MASK for k in self._nums)

    def used_variables(self) -> frozenset[str]:
        used = self._occurring()
        shifts = _shifts(len(self.variables))
        return frozenset(name for name, s in zip(self.variables, shifts) if (used >> s) & _MASK)

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(self, mapping: Mapping[str, object]) -> "MultivariatePolynomial":
        """Replace variables by rationals or polynomials over the same tuple."""
        variables = self.variables
        top = FIELD_BITS * len(variables)
        values = []  # (field offset, value numerators, value denominator)
        for name, value in mapping.items():
            shift = self._field(name)
            if isinstance(value, MultivariatePolynomial):
                if value.variables != variables:
                    raise ValueError("substitution value uses a different variable context")
                values.append((shift, value._nums, value._den))
            else:
                value = _as_fraction(value)
                values.append((shift, {0: value.numerator} if value else {}, value.denominator))
        if not values or not self._nums:
            return self
        # group the terms by their exponents in the replaced variables
        units = [(1 << shift) + (1 << top) for shift, _, _ in values]
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for k, c in self._nums.items():
            es = tuple((k >> shift) & _MASK for shift, _, _ in values)
            kept = k - sum(e * u for e, u in zip(es, units))
            groups.setdefault(es, {})[kept] = c
        degrees = [max(es[j] for es in groups) for j in range(len(values))]
        # value_j = N_j / d_j, so value_j^e = N_j^e d_j^(D_j - e) / d_j^D_j
        powers = [[{0: 1}] for _ in values]
        den = self._den
        for (_, vn, vd), d in zip(values, degrees):
            den *= vd**d
        result: dict[int, int] = {}
        for es, kept in groups.items():
            factor = {0: 1}
            scale = 1
            for j, e in enumerate(es):
                _, vn, vd = values[j]
                table = powers[j]
                while len(table) <= e:
                    table.append(_product(table[-1], vn, top) if table[-1] and vn else {})
                factor = _product(factor, table[e], top) if factor and table[e] else {}
                scale *= vd ** (degrees[j] - e)
            if factor:
                _accumulate(result, _product(kept, factor, top), scale)
        return self._reduced(variables, result, den)

    def evaluate(self, assignment: Mapping[str, object]) -> Fraction:
        """Evaluate at a full rational assignment."""
        used = self._occurring()
        nums = self._nums
        den = self._den
        # occurring variables as (field offset, p, q, D) for the value p/q and
        # the degree D; the value contributes p^e q^(D - e) over q^D, so the
        # sum stays an integer, and D is left 0 at integer points
        point = []
        for name, shift in zip(self.variables, _shifts(len(self.variables))):
            occurs = (used >> shift) & _MASK
            if name not in assignment:
                if occurs:
                    raise ValueError(f"missing value for {name}")
                continue
            p, q = _ratio(assignment[name])
            if occurs:
                d = max((k >> shift) & _MASK for k in nums) if q != 1 else 0
                den *= q**d
                point.append((shift, p, q, d))
        total = 0
        for k, c in nums.items():
            for shift, p, q, d in point:
                e = (k >> shift) & _MASK
                if e:
                    c *= p**e
                if d:
                    c *= q ** (d - e)
            total += c
        return Fraction(total, den)

    def restrict(self, variables: Sequence[str]) -> "MultivariatePolynomial":
        """Re-express over a smaller variable tuple; the dropped variables must
        not occur."""
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        used = self.used_variables()
        for name in self.variables:
            if name not in variables and name in used:
                raise ValueError(f"cannot drop {name}: it occurs in {self}")
        shifts = [self._field(name) for name in variables]
        top = FIELD_BITS * len(self.variables)
        nums = {}
        for k, c in self._nums.items():
            key = k >> top
            for s in shifts:
                key = (key << FIELD_BITS) | ((k >> s) & _MASK)
            nums[key] = c
        return self._raw(variables, nums, self._den)

    # ------------------------------------------------------------------
    # presentation

    def __str__(self):
        if not self._nums:
            return "0"
        pieces = []
        for exps, coeff in self.terms.items():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = str(magnitude) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultivariatePolynomial({self})"

    # ------------------------------------------------------------------
    # serialization (integers as decimal strings, terms in canonical order)

    def to_json_terms(self) -> list[dict]:
        return [
            {
                "coeff_num": str(coeff.numerator),
                "coeff_den": str(coeff.denominator),
                "exponents": list(exps),
            }
            for exps, coeff in self.terms.items()
        ]

    @classmethod
    def from_json_terms(cls, variables: Sequence[str], items: Iterable[Mapping]) -> "MultivariatePolynomial":
        terms = {}
        for item in items:
            coeff = Fraction(int(item["coeff_num"]), int(item["coeff_den"]))
            terms[tuple(int(e) for e in item["exponents"])] = coeff
        return cls(variables, terms)
