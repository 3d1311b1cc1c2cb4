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

A finite ring also owns an :class:`IndexKernel`, built lazily on first
use and never at construction: its elements numbered in canonical order,
with int add and mul tables that the ideal computations read instead of
element arithmetic.  Integers that must be prime are tested by a
deterministic Miller-Rabin, and refused above ``PRIMALITY_BOUND``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

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
    "IndexKernel",
    "LocalizedIntegerRing",
    "MAX_RING_ELEMENTS",
    "ModularRing",
    "PRIMALITY_BOUND",
    "PolyQuotientRing",
    "ProductRing",
    "Record",
    "Ring",
    "canonical_sorted",
    "check_ring_size",
    "factorization",
    "idempotents",
    "is_prime_int",
    "least_irreducible_polynomial",
    "polynomial_text",
    "product_ring",
    "require_prime",
]


# Finite rings are refused above this many elements: every finite
# computation here scans the elements, often in pairs, so the next sizes
# up already take tens of seconds.
MAX_RING_ELEMENTS = 256

# Closed families grow like the power set of the spectrum, so they are
# generated for at most this many points, and the ideals of an infinite
# product are enumerated up to 2 ** MAX_FAMILY_POINTS.
MAX_FAMILY_POINTS = 16

# Miller-Rabin with the first 13 primes as bases decides primality of
# every n below this bound (Sorenson and Webster, 2015); larger integers
# are refused, so no verdict is probabilistic.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981

# NotPrime names the least factor of a composite found by trial division
# up to this bound, which keeps its search short for any input.
FACTOR_SEARCH_BOUND = 10 ** 6


def check_ring_size(size: int) -> None:
    if size > MAX_RING_ELEMENTS:
        raise RingTooLarge(f"a finite ring with {size} elements exceeds "
                           f"the budget of {MAX_RING_ELEMENTS} elements")


# ---------------------------------------------------------------------------
# integer and polynomial helpers


def smallest_factor(n: int, bound: int | None = None) -> int | None:
    """The least divisor d >= 2 of n by trial division; n itself when none
    is at most sqrt(n), and None for n < 2.  With a ``bound`` below sqrt(n)
    only d <= bound are tried, and None means that none of them divides n."""
    limit = math.isqrt(max(n, 0))
    searched = limit if bound is None else min(limit, bound)
    for d in range(2, searched + 1):
        if n % d == 0:
            return d
    return n if searched == limit and n > 1 else None


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n >= PRIMALITY_BOUND with RingTooLarge."""
    if n >= PRIMALITY_BOUND:
        raise RingTooLarge(f"primality is decided only below {PRIMALITY_BOUND}; "
                           f"{n} is too large")
    if n < 2 or any(n % a == 0 for a in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise NotPrime, with a factor found below FACTOR_SEARCH_BOUND if any,
    unless p is prime."""
    if not is_prime_int(p):
        raise NotPrime(p, smallest_factor(p, FACTOR_SEARCH_BOUND), FACTOR_SEARCH_BOUND)


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
# records and elements


_set_field = object.__setattr__


class Record:
    """A frozen record of named fields, with the semantics of a frozen
    dataclass.

    A subclass names its fields in ``__slots__``, in constructor order
    (last ``"__dict__"`` when it caches properties), and the defaults of
    trailing fields in ``_defaults``; fields are given by position or by
    name.  Two records are equal when they are of the same class and their
    compared fields (all but those in ``_uncompared``, at least two) are
    equal in order; a record hashes as the tuple of its compared fields.
    Assigning to a field, or to any other attribute, raises.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # An attrgetter of two or more names returns their values as a tuple.
        cls._key = attrgetter(*(name for name in cls._fields if name not in cls._uncompared))

    def __init__(self, *values, **named):
        fields = self._fields
        try:
            values += tuple(named.pop(name) if name in named else self._defaults[name]
                            for name in fields[len(values):])
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__}() is missing the field {missing}") from None
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, values):
            _set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Bits(Record):
    """An eventually constant 0/1 sequence over positions 1, 2, 3, ...

    ``flips`` is the finite set of positions where the value differs from
    ``tail``; minimality of this set is what makes the form canonical.
    """

    __slots__ = ("flips", "tail")

    def value_at(self, position: int) -> int:
        return self.tail ^ (1 if position in self.flips else 0)

    @property
    def has_finite_support(self) -> bool:
        return self.tail == 0


class Element(Record):
    """A canonical element of one ring; equality and hashing are structural."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value: object):
        # Every arithmetic step builds one, so the fields are set directly.
        _set_field(self, "ring", ring)
        _set_field(self, "value", value)

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
# index kernels of finite rings

def _byte_members(offset: int) -> list[tuple[int, ...]]:
    """For each byte value b, offset plus the index of each bit b sets,
    built by doubling: the values with bit i set extend those without."""
    members = [()]
    for i in range(offset, offset + 8):
        members += [low + (i,) for low in members]
    return members


# For ``IndexKernel.members``: the set bits of each byte value, of each
# byte value as the second byte of a mask, and the digits of a binary text
# as the bytes 0 and 1.
_BYTE_MEMBERS, _HIGH_BYTE_MEMBERS = _byte_members(0), _byte_members(8)
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class IndexKernel:
    """The elements of one finite ring as indices 0..n-1, with int tables.

    Index i stands for ``ring.elements()[i]``.  Every finite presentation
    lists its elements in canonical (sort key) order, so two equal rings
    built apart number their elements alike.  ``add[i][j]`` and
    ``mul[i][j]`` index the sum and the product; each presentation builds
    them from index operations, never pair by pair through payload
    arithmetic.  A set of elements is a bitmask whose bit i stands for
    index i: ``spans[g]`` is the mask of Rg and ``anns[g]`` that of
    Ann(g).  Every finite presentation is a principal ideal ring, so the
    distinct spans are all of its ideals; ``generator_of`` maps each to
    its least generator, the first g in canonical order that spans it.
    """

    def __init__(self, ring: "Ring"):
        self.elements = ring.elements()
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.zero, self.one = self.index[ring.zero], self.index[ring.one]
        self.add, self.mul = ring._tables()

    @staticmethod
    def mask(indices) -> int:
        """The bitmask of distinct indices."""
        return sum(1 << i for i in indices)

    @staticmethod
    def members(mask: int) -> list[int]:
        """The indices of the set bits, ascending.

        A mask of at most 16 bits, such as a point set, is read a byte at a
        time from tables.  A longer one, such as a family's table, is
        filtered by its reversed binary text turned into 0/1 bytes, so the
        scan over its bits runs in C.
        """
        if mask < 65536:
            return [*_BYTE_MEMBERS[mask & 255], *_HIGH_BYTE_MEMBERS[mask >> 8]]
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        return list(itertools.compress(itertools.count(), bits))

    @cached_property
    def one_minus(self) -> list[int]:
        """``one_minus[a]`` indexes 1 - a, the b with a + b = 1."""
        return [row.index(self.one) for row in self.add]

    @cached_property
    def spans(self) -> list[int]:
        return [self.mask(set(row)) for row in self.mul]

    @cached_property
    def generator_of(self) -> dict[int, int]:
        generators = {}
        for g, span in enumerate(self.spans):
            generators.setdefault(span, g)
        return generators

    @cached_property
    def anns(self) -> list[int]:
        return [self.mask(r for r, x in enumerate(row) if x == self.zero)
                for row in self.mul]

    @cached_property
    def radical_powers(self) -> list[int]:
        """``radical_powers[x]`` indexes x^(2^k), 2^k the least power of
        two that is at least the number n of elements.

        x lies in the radical of an ideal I iff x^m lies in I for some
        m <= n: the powers before the first one in I are distinct and lie
        outside I.  As I is an ideal, that holds iff x^(2^k) lies in I.
        """
        powers = list(range(len(self.elements)))
        for _ in range((len(self.elements) - 1).bit_length()):
            powers = [self.mul[x][x] for x in powers]
        return powers


# ---------------------------------------------------------------------------
# ring presentations


class Ring:
    """Base class for all presentations.

    Subclasses implement the payload protocol (``_canon``, ``_add``,
    ``_mul``, ``_neg``, ``_fmt``, ``_sort_key``); the defaults here suit
    number payloads: arithmetic canonicalizes the plain result, ``_fmt``
    is ``str`` and the sort key is the payload.  ``elements()`` refuses an
    infinite ring and returns a finite one's ``_elements``, in canonical
    order.  Instances are immutable after construction and compare
    structurally through ``key``, a tuple each presentation fixes once
    when it is built; its hash is computed once and cached.
    """

    is_finite = False
    key: tuple

    # payload protocol -----------------------------------------------------
    def _canon(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        return self._canon(a + b)

    def _mul(self, a, b):
        return self._canon(a * b)

    def _neg(self, a):
        return self._canon(-a)

    def _fmt(self, a) -> str:
        return str(a)

    def _sort_key(self, a):
        return a

    def _tables(self):
        """The add and mul tables over the indices of ``elements()``."""
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
        if not self.is_finite:
            raise UnsupportedForPresentation(
                f"{self.describe()} is infinite; its elements cannot be listed")
        return self._elements

    @cached_property
    def index_kernel(self) -> IndexKernel:
        """The index kernel of a finite ring, built on first use."""
        return IndexKernel(self)

    def describe(self) -> str:
        raise NotImplementedError

    @cached_property
    def memo(self) -> dict:
        """Facts derived from this instance, each computed once and dropped
        with it: the ``idempotents``, the finite ring's ``ideals``, the
        ``primes``, the ``spectrum`` and the ``sring`` certificate."""
        return {}

    def idempotents(self) -> tuple[Element, ...]:
        """All e with e*e == e, canonically sorted, found once per instance."""
        memo = self.memo
        if "idempotents" not in memo:
            memo["idempotents"] = self._idempotents()
        return memo["idempotents"]

    def _idempotents(self):
        k = self.index_kernel
        return tuple(e for i, e in enumerate(k.elements) if k.mul[i][i] == i)

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.key == other.key)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self.key)

    def __repr__(self):
        return self.describe()


class ModularRing(Ring):
    """Z/n with residue payloads in ``range(n)``."""

    is_finite = True

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError("modulus must be an integer >= 1")
        check_ring_size(modulus)
        self.modulus = modulus
        self.key = ("modular", modulus)

    def _canon(self, value):
        if not isinstance(value, int):
            raise ValueError(f"expected an integer residue, got {value!r}")
        return value % self.modulus

    @cached_property
    def _elements(self):
        return tuple(Element(self, r) for r in range(self.modulus))

    def _tables(self):
        n, r = self.modulus, range(self.modulus)
        return [[(a + b) % n for b in r] for a in r], [[a * b % n for b in r] for a in r]

    def describe(self):
        return f"Z/{self.modulus}"


class PolyQuotientRing(Ring):
    """Z/p[x] modulo a monic polynomial of degree >= 1.

    Payloads are trimmed coefficient tuples of degree below the modulus.
    """

    is_finite = True

    def __init__(self, p: int, modulus):
        require_prime(p)
        mod = _ptrim(c % p for c in modulus)
        if len(mod) < 2:
            raise ValueError("the modulus polynomial must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("the modulus polynomial must be monic")
        check_ring_size(p ** (len(mod) - 1))
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

    def _tables(self):
        # Every element is c + x*h with c constant and h of lower degree,
        # so h comes first in the canonical order (the constant c sits at
        # index c), and each row is filled from rows already built.
        p, elements = self.p, self.elements()
        n = len(elements)
        index = {e.value: i for i, e in enumerate(elements)}
        low = [e.value[0] if e.value else 0 for e in elements]
        high = [index[e.value[1:]] for e in elements]
        times_x = [index[self._canon((0,) + e.value)] for e in elements]
        # c + x*h for every h below degree d-1, the only high parts of sums.
        join = [[index[_ptrim((c,) + e.value)] for c in range(p)]
                for e in elements[:n // p]]
        add = [list(range(n))]
        for i in range(1, n):
            below, c = add[high[i]], low[i]
            add.append([join[below[high[j]]][(c + low[j]) % p] for j in range(n)])
        mul = []
        for g in range(n):
            multiples = [0]  # c*g for the constants c
            for _ in range(p - 1):
                multiples.append(add[multiples[-1]][g])
            row = [0] * n
            for j in range(1, n):  # g*(c + x*h) = c*g + x*(g*h)
                row[j] = add[multiples[low[j]]][times_x[row[high[j]]]]
            mul.append(row)
        return add, mul

    def describe(self):
        return f"Z/{self.p}[x]/({polynomial_text(self.modulus)})"


class GaloisFieldRing(PolyQuotientRing):
    """GF(p**k), a polynomial quotient by a verified irreducible modulus.

    With no explicit modulus the deterministic least irreducible of the
    requested degree is used, so ``GaloisFieldRing(2, 2)`` always means
    Z/2[x]/(x^2+x+1).
    """

    def __init__(self, p: int, degree: int | None = None, modulus=None):
        least = modulus is None
        if least:
            if degree is None or degree < 1:
                raise ValueError("a degree >= 1 is required when no modulus is given")
            require_prime(p)
            check_ring_size(p ** degree)
            modulus = least_irreducible_polynomial(p, degree)
        super().__init__(p, modulus)
        self.key = ("galois", p, self.modulus)
        witness = irreducibility_witness(self.modulus, p)
        if witness is not None:
            raise NotIrreducible(polynomial_text(self.modulus), polynomial_text(witness))
        # Named once here: telling the least irreducible apart is a search.
        least = least or self.modulus == least_irreducible_polynomial(p, self.degree)
        self._name = f"GF({self.order})" if least else super().describe()

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def describe(self):
        return self._name


class ProductRing(Ring):
    """A direct product of >= 2 factors with tuple payloads.

    Nested product factors are flattened, so the factor list is canonical.
    Equal factors are held as one instance, so the facts a factor keeps in
    its memo (its spectrum, ideals and shared component ideals) are found
    once for all of its slots.  The eventually-constant-bits ring is not
    allowed as a factor; its product structure is not representable here.
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
        check_ring_size(math.prod(len(f.elements()) for f in flat if f.is_finite))
        instances: dict[Ring, Ring] = {}
        self.factors = tuple(instances.setdefault(f, f) for f in flat)
        self.is_finite = all(f.is_finite for f in self.factors)
        self.key = ("product", tuple(f.key for f in self.factors))

    def _canon(self, value):
        if isinstance(value, int):
            return tuple(f._canon(value) for f in self.factors)
        value = tuple(value)
        if len(value) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} components, got {len(value)}")
        return tuple(f.element(v).value for f, v in zip(self.factors, value))

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
        combos = itertools.product(*(f.elements() for f in self.factors))
        return tuple(Element(self, tuple(e.value for e in c)) for c in combos)

    def _tables(self):
        # Elements are listed as itertools.product of the factors', so an
        # index is mixed-radix in the factor indices, the first factor most
        # significant, and each table is a product of the factor tables.
        first = self.factors[0].index_kernel
        add, mul = first.add, first.mul
        for f in self.factors[1:]:
            k = f.index_kernel
            add, mul = _product_table(add, k.add), _product_table(mul, k.mul)
        return add, mul

    def component(self, element: Element, index: int) -> Element:
        """Project a product element onto one factor."""
        return self.factors[index].element(element.value[index])

    def _idempotents(self):
        # Each factor lists its idempotents sorted, so their combinations,
        # in the order of itertools.product, are sorted by the tuple of
        # the factors' sort keys, which is the product's sort key.
        combos = itertools.product(*(f.idempotents() for f in self.factors))
        return tuple(Element(self, tuple(e.value for e in c)) for c in combos)

    def describe(self):
        return " * ".join(f.describe() for f in self.factors)


class LocalizedIntegerRing(Ring):
    """Integers localized at a prime p; payloads are ``Fraction`` values.

    Fractions are canonical by construction (lowest terms, positive
    denominator) and the denominator must be coprime to p.
    """

    def __init__(self, p: int):
        require_prime(p)
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

    def _idempotents(self):
        return (self.zero, self.one)

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

    def _idempotents(self):
        raise UnsupportedForPresentation(
            f"every element of {self.describe()} is idempotent; the list is infinite")

    def describe(self):
        return "EvBits"


def _product_table(t, u):
    """The table of R x S from the tables t of R and u of S."""
    size = len(u)
    return [[x * size + y for x in row_t for y in row_u] for row_t in t for row_u in u]


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
    """All e with e*e == e, canonically sorted: ``ring.idempotents()``,
    which each ring finds once and keeps in its memo.

    Finite rings read the diagonal of their mul table.  The localization
    of the integers is a domain, so its only idempotents are 0 and 1; a
    product combines factor idempotents componentwise.  For the bits ring
    every element is idempotent, so no finite list exists.
    """
    return ring.idempotents()
