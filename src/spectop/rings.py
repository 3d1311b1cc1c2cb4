"""Commutative ring presentations with exact, canonical element arithmetic.

Six presentations are supported:

* ``ModularRing(n)``: residues modulo n, n >= 1.
* ``GaloisFieldRing(p, k)``: the field with p**k elements, realized as
  Z/p[x] modulo an irreducible monic polynomial (verified by brute-force
  factor search at construction).
* ``PolyQuotientRing(p, f)``: Z/p[x] modulo an arbitrary monic f of degree
  >= 1; f may be reducible, so zero divisors are allowed.
* ``ProductRing(factors)``: a finite direct product with componentwise
  operations; nested products are flattened at construction.
* ``LocalizedIntegerRing(p)``: the integers localized at the prime p,
  i.e. fractions a/b in lowest terms with b coprime to p.
* ``EventuallyConstantBitsRing()``: the Boolean ring of 0/1 sequences
  indexed by 1, 2, 3, ... that are eventually constant.  An element is
  stored as the finite set of positions where it differs from its tail
  bit, so every element has a unique normal form.

Every element payload is canonical, hence equality of :class:`Element`
values is structural.  Rings themselves compare structurally and are
immutable; all arithmetic is pure.  Polynomials are coefficient tuples in
ascending degree order with no trailing zeros.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    EmptyProduct,
    NotIrreducible,
    NotPrime,
    RingTooLarge,
    UnsupportedForPresentation,
)

__all__ = [
    "Bits",
    "Element",
    "EventuallyConstantBitsRing",
    "GaloisFieldRing",
    "LocalizedIntegerRing",
    "MAX_RING_ELEMENTS",
    "ModularRing",
    "PolyQuotientRing",
    "ProductRing",
    "Ring",
    "canonical_sorted",
    "factorization",
    "idempotents",
    "is_prime_int",
    "least_irreducible_polynomial",
    "polynomial_text",
    "product_ring",
]


# Finite rings are refused above this many elements: every finite
# computation here scans the elements, often in pairs, so the next sizes
# up already take tens of seconds.
MAX_RING_ELEMENTS = 256


def _check_ring_size(size: int) -> None:
    if size > MAX_RING_ELEMENTS:
        raise RingTooLarge(f"a finite ring with {size} elements exceeds "
                           f"the budget of {MAX_RING_ELEMENTS} elements")


# ---------------------------------------------------------------------------
# integer and polynomial helpers


def smallest_factor(n: int) -> int:
    """The least divisor d >= 2 of n by trial division; n itself when none exists."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime_int(n: int) -> bool:
    return n >= 2 and smallest_factor(n) == n


def factorization(n: int) -> list[tuple[int, int]]:
    """The pairs (p, k) with p^k exactly dividing n, primes ascending; [] for n < 2."""
    out = []
    while n > 1:
        p, k = smallest_factor(n), 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return out


def _ptrim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b, p) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _ptrim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n))


def _pmul(a, b, p) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _prem(a, m, p) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        shift = len(r) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _ptrim(r)


def _monic_polynomials(p: int, degree: int):
    """All monic polynomials of exactly the given degree over Z/p.

    Ordered by ascending integer value of the coefficient vector, which for
    fixed degree is the lexicographic order on coefficients read from the
    most significant one down.
    """
    for digits in itertools.product(range(p), repeat=degree):
        yield tuple(reversed(digits)) + (1,)


def irreducibility_witness(f: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """Return a proper monic factor of f over Z/p, or None if f is irreducible."""
    deg = len(f) - 1
    if deg < 1:
        return f
    for d in range(1, deg // 2 + 1):
        for g in _monic_polynomials(p, d):
            if not _prem(f, g, p):
                return g
    return None


def least_irreducible_polynomial(p: int, degree: int) -> tuple[int, ...]:
    """The first monic irreducible of the given degree over Z/p.

    "First" means smallest coefficient vector, most significant coefficient
    compared first; this makes GF(p**k) a deterministic presentation.
    """
    for f in _monic_polynomials(p, degree):
        if irreducibility_witness(f, p) is None:
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable for p prime


def polynomial_text(coeffs: tuple[int, ...]) -> str:
    """Render a coefficient tuple (ascending degree) as e.g. ``x^2+2x+1``."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class Bits:
    """An eventually constant 0/1 sequence over positions 1, 2, 3, ...

    ``flips`` is the finite set of positions where the value differs from
    ``tail``; minimality of this set is what makes the form canonical.
    """

    flips: frozenset[int]
    tail: int

    def value_at(self, position: int) -> int:
        return self.tail ^ (1 if position in self.flips else 0)

    @property
    def has_finite_support(self) -> bool:
        return self.tail == 0


@dataclass(frozen=True)
class Element:
    """A canonical element of one ring; equality and hashing are structural."""

    ring: "Ring"
    value: object

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.ring != self.ring:
                raise TypeError(
                    f"elements of {self.ring.describe()} and "
                    f"{other.ring.describe()} cannot be combined")
            return other
        if isinstance(other, int):
            return self.ring.element(other)
        raise TypeError(f"cannot interpret {other!r} as a ring element")

    def __add__(self, other):
        o = self._coerce(other)
        return Element(self.ring, self.ring._add(self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ring, self.ring._neg(self.value))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Element(self.ring, self.ring._mul(self.value, o.value))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ring.one
        for bit in bin(exponent)[2:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    @property
    def sort_key(self):
        return self.ring._sort_key(self.value)

    def __str__(self):
        return self.ring._fmt(self.value)

    def __repr__(self):
        return self.ring._fmt(self.value)


def canonical_sorted(elements) -> list[Element]:
    return sorted(elements, key=lambda e: e.sort_key)


# ---------------------------------------------------------------------------
# ring presentations


class Ring:
    """Base class for all presentations.

    Subclasses implement the payload protocol (``_canon``, ``_add``,
    ``_mul``, ``_neg``, ``_fmt``, ``_sort_key``) and the derived
    interface here stays uniform.  Instances are immutable after
    construction and compare structurally through ``key``, a tuple each
    presentation fixes once when it is built.
    """

    is_finite = False
    key: tuple

    # payload protocol -----------------------------------------------------
    def _canon(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _fmt(self, a) -> str:
        raise NotImplementedError

    def _sort_key(self, a):
        raise NotImplementedError

    # uniform interface ----------------------------------------------------
    def element(self, value) -> Element:
        """Coerce ``value`` to a canonical element of this ring."""
        if isinstance(value, Element):
            if value.ring != self:
                raise TypeError("element belongs to a different ring")
            return value
        return Element(self, self._canon(value))

    @cached_property
    def zero(self) -> Element:
        return self.element(0)

    @cached_property
    def one(self) -> Element:
        return self.element(1)

    def elements(self) -> tuple[Element, ...]:
        raise UnsupportedForPresentation(
            f"{self.describe()} is infinite; its elements cannot be listed")

    def describe(self) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.describe()


class ModularRing(Ring):
    """Z/n with residue payloads in ``range(n)``."""

    is_finite = True

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError("modulus must be an integer >= 1")
        _check_ring_size(modulus)
        self.modulus = modulus
        self.key = ("modular", modulus)

    def _canon(self, value):
        if not isinstance(value, int):
            raise ValueError(f"expected an integer residue, got {value!r}")
        return value % self.modulus

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _fmt(self, a):
        return str(a)

    def _sort_key(self, a):
        return a

    @cached_property
    def _elements(self):
        return tuple(Element(self, r) for r in range(self.modulus))

    def elements(self):
        return self._elements

    def describe(self):
        return f"Z/{self.modulus}"


class PolyQuotientRing(Ring):
    """Z/p[x] modulo a monic polynomial of degree >= 1.

    Payloads are trimmed coefficient tuples of degree below the modulus.
    """

    is_finite = True

    def __init__(self, p: int, modulus):
        if not is_prime_int(p):
            raise NotPrime(p, smallest_factor(p))
        mod = _ptrim(c % p for c in modulus)
        if len(mod) < 2:
            raise ValueError("the modulus polynomial must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("the modulus polynomial must be monic")
        _check_ring_size(p ** (len(mod) - 1))
        self.p = p
        self.modulus = mod
        self.degree = len(mod) - 1
        self.key = ("polyquot", p, mod)

    def _canon(self, value):
        if isinstance(value, int):
            value = (value,)
        try:
            cs = tuple(int(c) % self.p for c in value)
        except TypeError:
            raise ValueError(f"expected a coefficient sequence, got {value!r}")
        return _prem(cs, self.modulus, self.p)

    def _add(self, a, b):
        return _padd(a, b, self.p)

    def _mul(self, a, b):
        return _prem(_pmul(a, b, self.p), self.modulus, self.p)

    def _neg(self, a):
        return tuple((-c) % self.p for c in a)

    def _fmt(self, a):
        return polynomial_text(a)

    def _sort_key(self, a):
        return (len(a), a)

    @cached_property
    def _elements(self):
        out = []
        for cs in itertools.product(range(self.p), repeat=self.degree):
            out.append(Element(self, _ptrim(cs)))
        return tuple(canonical_sorted(out))

    def elements(self):
        return self._elements

    def describe(self):
        return f"Z/{self.p}[x]/({polynomial_text(self.modulus)})"


class GaloisFieldRing(PolyQuotientRing):
    """GF(p**k), a polynomial quotient by a verified irreducible modulus.

    With no explicit modulus the deterministic least irreducible of the
    requested degree is used, so ``GaloisFieldRing(2, 2)`` always means
    Z/2[x]/(x^2+x+1).
    """

    def __init__(self, p: int, degree: int | None = None, modulus=None):
        if modulus is None:
            if degree is None or degree < 1:
                raise ValueError("a degree >= 1 is required when no modulus is given")
            if not is_prime_int(p):
                raise NotPrime(p, smallest_factor(p))
            _check_ring_size(p ** degree)
            modulus = least_irreducible_polynomial(p, degree)
        super().__init__(p, modulus)
        self.key = ("galois", p, self.modulus)
        witness = irreducibility_witness(self.modulus, p)
        if witness is not None:
            raise NotIrreducible(polynomial_text(self.modulus), polynomial_text(witness))

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def describe(self):
        if self.modulus == least_irreducible_polynomial(self.p, self.degree):
            return f"GF({self.order})"
        return super().describe()


class ProductRing(Ring):
    """A direct product of >= 2 factors with tuple payloads.

    Nested product factors are flattened, so the factor list is canonical.
    The eventually-constant-bits ring is not allowed as a factor; its
    product structure is not representable here.
    """

    def __init__(self, factors):
        flat: list[Ring] = []
        for f in factors:
            if isinstance(f, ProductRing):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 2:
            raise ValueError("ProductRing needs at least two factors; use product_ring")
        for f in flat:
            if not (f.is_finite or isinstance(f, LocalizedIntegerRing)):
                raise UnsupportedForPresentation(
                    "product factors must be finite rings or localized integers")
        _check_ring_size(math.prod(len(f.elements()) for f in flat if f.is_finite))
        self.factors = tuple(flat)
        self.is_finite = all(f.is_finite for f in self.factors)
        self.key = ("product", tuple(f.key for f in self.factors))

    def _canon(self, value):
        if isinstance(value, int):
            return tuple(f._canon(value) for f in self.factors)
        value = tuple(value)
        if len(value) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} components, got {len(value)}")
        out = []
        for f, v in zip(self.factors, value):
            if isinstance(v, Element):
                v = f.element(v).value
                out.append(v)
            else:
                out.append(f._canon(v))
        return tuple(out)

    def _add(self, a, b):
        return tuple(f._add(x, y) for f, x, y in zip(self.factors, a, b))

    def _mul(self, a, b):
        return tuple(f._mul(x, y) for f, x, y in zip(self.factors, a, b))

    def _neg(self, a):
        return tuple(f._neg(x) for f, x in zip(self.factors, a))

    def _fmt(self, a):
        return "(" + ", ".join(f._fmt(x) for f, x in zip(self.factors, a)) + ")"

    def _sort_key(self, a):
        return tuple(f._sort_key(x) for f, x in zip(self.factors, a))

    @cached_property
    def _elements(self):
        if not self.is_finite:
            return None
        combos = itertools.product(*(f.elements() for f in self.factors))
        return tuple(Element(self, tuple(e.value for e in c)) for c in combos)

    def elements(self):
        if not self.is_finite:
            return super().elements()
        return self._elements

    def component(self, element: Element, index: int) -> Element:
        """Project a product element onto one factor."""
        return self.factors[index].element(element.value[index])

    def describe(self):
        return " * ".join(f.describe() for f in self.factors)


class LocalizedIntegerRing(Ring):
    """Integers localized at a prime p; payloads are ``Fraction`` values.

    Fractions are canonical by construction (lowest terms, positive
    denominator) and the denominator must be coprime to p.
    """

    def __init__(self, p: int):
        if not is_prime_int(p):
            raise NotPrime(p, smallest_factor(p))
        self.p = p
        self.key = ("zloc", p)

    def _canon(self, value):
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise ValueError(f"expected an integer or Fraction, got {value!r}")
        if value.denominator % self.p == 0:
            raise ValueError(
                f"{value} is not in the localization at {self.p}: "
                "its denominator is divisible by the prime")
        return value

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _fmt(self, a):
        return str(a)

    def _sort_key(self, a):
        return (a.denominator, a.numerator)

    def valuation(self, element: Element) -> int:
        """The p-adic valuation of a nonzero element."""
        fr = element.value
        if fr == 0:
            raise ValueError("the zero element has no finite valuation")
        n, v = abs(fr.numerator), 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def describe(self):
        return f"Zloc({self.p})"


class EventuallyConstantBitsRing(Ring):
    """The Boolean ring of eventually constant bit sequences.

    Addition is pointwise XOR, multiplication pointwise AND; every element
    is idempotent.  This ring is infinite and has no enumerable spectrum
    here; it exists to carry non-stabilizing multiplicative chains and a
    flat-but-not-projective cyclic quotient.
    """

    key = ("evbits",)

    def _canon(self, value):
        if isinstance(value, int):
            return Bits(frozenset(), value % 2)
        if isinstance(value, Bits):
            flips, tail = value.flips, value.tail
        elif isinstance(value, tuple) and len(value) == 2:
            flips, tail = value
        else:
            raise ValueError(f"expected Bits or (positions, tail), got {value!r}")
        flips = frozenset(flips)
        if not all(isinstance(i, int) and i >= 1 for i in flips):
            raise ValueError("positions must be integers >= 1")
        if tail not in (0, 1):
            raise ValueError("tail must be 0 or 1")
        return Bits(flips, tail)

    def _add(self, a, b):
        return Bits(a.flips ^ b.flips, a.tail ^ b.tail)

    def _mul(self, a, b):
        tail = a.tail & b.tail
        flips = frozenset(
            i for i in a.flips | b.flips
            if (a.value_at(i) & b.value_at(i)) != tail)
        return Bits(flips, tail)

    def _neg(self, a):
        return a

    def _fmt(self, a):
        inner = ",".join(str(i) for i in sorted(a.flips))
        return "{" + inner + "}:" + str(a.tail)

    def _sort_key(self, a):
        return (a.tail, len(a.flips), tuple(sorted(a.flips)))

    def indicator(self, positions) -> Element:
        """The element that is 1 exactly on the given finite position set."""
        return self.element((frozenset(positions), 0))

    def describe(self):
        return "EvBits"


# ---------------------------------------------------------------------------
# ring-level operations


def product_ring(factors) -> Ring:
    """Componentwise product; a single factor collapses to that factor.

    Nested products are flattened by :class:`ProductRing` itself.
    """
    factors = list(factors)
    if not factors:
        raise EmptyProduct("a product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors)


def idempotents(ring: Ring) -> tuple[Element, ...]:
    """All e with e*e == e, canonically sorted.

    Finite rings are scanned exhaustively.  The localization of the
    integers is a domain, so its only idempotents are 0 and 1; a product
    combines factor idempotents componentwise.  For the bits ring every
    element is idempotent, so no finite list exists.
    """
    if ring.is_finite:
        return tuple(e for e in canonical_sorted(ring.elements()) if e * e == e)
    if isinstance(ring, LocalizedIntegerRing):
        return (ring.zero, ring.one)
    if isinstance(ring, ProductRing):
        combos = itertools.product(*(idempotents(f) for f in ring.factors))
        found = [Element(ring, tuple(e.value for e in c)) for c in combos]
        return tuple(canonical_sorted(found))
    raise UnsupportedForPresentation(
        f"every element of {ring.describe()} is idempotent; the list is infinite")
