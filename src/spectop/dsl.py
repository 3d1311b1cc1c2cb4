"""Text descriptions of rings, elements and ideals.

Ring grammar (whitespace is free between tokens):

    Expr  := Atom ( "*" Atom )*
    Atom  := "Z/" nat [ "[x]/(" poly ")" ]
           | "GF(" primepower ")"
           | "Zloc(" prime ")"
           | "EvBits"
    poly  := term ( "+" term )*          monic in x, coefficients 0..p-1
    term  := [ coeff ] "x" [ "^" exp ] | coeff

"*" is left associative and a chain of products denotes one flat product,
so printing a canonical ring and parsing the text round-trips.  GF(p^k)
expands to the quotient by the deterministic least irreducible monic
polynomial of degree k.

Element literals, by presentation, and the lists that hold them:

    Z/n                int  := [ "-" ] nat
    Zloc(p)            int [ "/" int ]            a nonzero denominator
    Z/p[x]/(m), GF(q)  poly                       of any degree
    products           "(" lit ( "," lit )* ")"   one lit per factor
    EvBits             "{" [ nat ( "," nat )* ] "}" ":" ( "0" | "1" )
    gens   := lit ( "," lit )*
    label  := "(" ( gens | p "^" nat | "fin" ) ")", one per factor of an
              infinite product, joined by "x"
    points := label ( ";" label )*

Empty items of a list are skipped, and a number or polynomial ends at the
next "," or ")" of the list around it, or at "/" in a numerator.  The ring
grammar's scanner reads them all; an error position counts from the start
of the whole text given.
"""

from __future__ import annotations

import sys

from .errors import NotPrimePower, ParseError
from .rings import (
    Element,
    EventuallyConstantBitsRing,
    GaloisFieldRing,
    LocalizedIntegerRing,
    ModularRing,
    PolyQuotientRing,
    ProductRing,
    Ring,
    brief,
    check_ring_size,
    factorization,
    product_ring,
    require_prime,
)

__all__ = [
    "parse_element",
    "parse_generators",
    "parse_ideal_label",
    "parse_ideal_labels",
    "parse_ring",
]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect_literal(self, literal: str):
        if not self.try_literal(literal):
            raise ParseError(f"missing {literal!r}", self.pos, (literal,))

    def read_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        end = _digits_end(self.text, start)
        if end == start:
            raise ParseError("expected a number", start, ("digit",))
        self.pos = end
        return _int_at(self.text[start:end], start)

    def read_item(self, stops: str) -> tuple[str, int]:
        """The text from here up to the next stop character or the end,
        without trailing whitespace, and the position where it starts."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            self.pos += 1
        return self.text[start:self.pos].rstrip(), start


def _digits_end(text: str, pos: int) -> int:
    """The end of the run of decimal digits at pos: the characters that
    ``str.isdecimal`` accepts, the same ones ``\\d`` matches in a str."""
    end = pos
    while end < len(text) and text[end].isdecimal():
        end += 1
    return end


def _int_at(digits: str, position: int) -> int:
    """Decimal digits, after an optional minus, as an int; a run longer than
    Python's int-string limit, where ``int`` fails, is refused at its position."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits.lstrip('-'))} digits is longer than "
                         f"the limit of {sys.get_int_max_str_digits()}", position,
                         ("digit",)) from None


def parse_ring(text: str) -> Ring:
    """Parse a ring expression; see the module docstring for the grammar."""
    sc = _Scanner(text)
    factors = [_parse_atom(sc)]
    while sc.try_literal("*"):
        factors.append(_parse_atom(sc))
    if not sc.eof():
        raise ParseError("trailing input", sc.pos, ("*", "end of input"))
    return product_ring(factors)


def _parse_atom(sc: _Scanner) -> Ring:
    sc.skip_ws()
    start = sc.pos
    if sc.try_literal("Z/"):
        n = sc.read_nat()
        if sc.try_literal("[x]/("):
            require_prime(n)
            body, offset = sc.read_item(")")
            sc.expect_literal(")")
            terms = _parse_poly(body, n, offset)
            degree = max(terms, default=0)
            if terms.get(degree) != 1 or degree < 1:
                raise ParseError("the quotient polynomial must be monic of degree >= 1",
                                 offset)
            check_ring_size(n, degree)  # before the coefficients are written out
            return PolyQuotientRing(n, [terms.get(i, 0) for i in range(degree + 1)])
        return ModularRing(n)
    if sc.try_literal("GF("):
        q = sc.read_nat()
        sc.expect_literal(")")
        check_ring_size(q)
        prime_powers = factorization(q)
        if len(prime_powers) != 1:
            raise NotPrimePower(f"{q} is not a prime power")
        return GaloisFieldRing(*prime_powers[0])
    if sc.try_literal("Zloc("):
        p = sc.read_nat()
        sc.expect_literal(")")
        return LocalizedIntegerRing(p)
    if sc.try_literal("EvBits"):
        return EventuallyConstantBitsRing()
    raise ParseError("expected a ring atom", start,
                     ("Z/", "GF(", "Zloc(", "EvBits"))


def _parse_poly(body: str, p: int, offset: int) -> dict[int, int]:
    """The terms of a polynomial as {degree: coefficient mod p}, without
    zero coefficients; nothing is written out up to the degree."""
    coeffs: dict[int, int] = {}
    pos = offset
    for chunk in body.split("+"):
        term = chunk.strip()
        if not term:
            raise ParseError("empty polynomial term", pos)
        parsed = _parse_term(term, pos + len(chunk) - len(chunk.lstrip()))
        if parsed is None:
            raise ParseError(f"bad polynomial term {brief(repr(term))}", pos,
                             ("coefficient", "x", "x^k"))
        coeff, degree = parsed
        coeffs[degree] = (coeffs.get(degree, 0) + coeff) % p
        pos += len(chunk) + 1
    return {d: c for d, c in coeffs.items() if c}


def _parse_term(term: str, at: int = 0) -> tuple[int, int] | None:
    """The coefficient and degree of a term ``coeff[*]``, ``[coeff[*]]x`` or
    ``[coeff[*]]x^exp`` at position ``at``; None for any other text."""
    split = _digits_end(term, 0)
    rest = term[split:]
    if split and rest.startswith("*"):
        rest = rest[1:]
    if rest == "x":
        degree = 1
    elif rest.startswith("x^") and rest[2:].isdecimal():
        degree = _int_at(rest[2:], at + len(term) - len(rest) + 2)
    elif rest or not split:
        return None
    else:
        degree = 0
    return (_int_at(term[:split], at) if split else 1), degree


# ---------------------------------------------------------------------------
# element literals and ideal labels


def _read_all(text: str, read):
    """What ``read`` finds on a scanner over the whole text."""
    sc = _Scanner(text)
    found = read(sc)
    if not sc.eof():
        raise ParseError("trailing input", sc.pos, ("end of input",))
    return found


def parse_element(ring: Ring, text: str) -> Element:
    """Parse one element literal in the syntax of the given presentation."""
    return _read_all(text, lambda sc: _read_element(sc, ring, ""))


def parse_generators(ring: Ring, text: str) -> list[Element]:
    """A comma separated list of element literals; empty text means none."""
    return _read_all(text, lambda sc: _read_list(sc, lambda: _read_element(sc, ring, ","), ","))


def parse_ideal_label(ring: Ring, label: str):
    """Reconstruct an ideal from its canonical label."""
    return _read_all(label, lambda sc: _read_label(sc, ring))


def parse_ideal_labels(ring: Ring, text: str) -> list:
    """The ideals of a semicolon separated list of labels."""
    return _read_all(text, lambda sc: _read_list(sc, lambda: _read_label(sc, ring), ";"))


def _read_list(sc: _Scanner, read, separator: str, closer: str = "") -> list:
    """Items between separators up to the closer, or the end; empty ones are skipped."""
    items: list = []
    while not (sc.try_literal(closer) if closer else sc.eof()):
        if sc.eof():
            raise ParseError(f"missing {closer!r}", sc.pos, (closer,))
        if not sc.try_literal(separator):
            items.append(read())
            if not (sc.eof() or sc.text.startswith((separator, closer or separator), sc.pos)):
                raise ParseError(f"missing {separator!r}", sc.pos,
                                 (separator, closer or "end of input"))
    return items


def _read_element(sc: _Scanner, ring: Ring, stops: str) -> Element:
    return ring.element(_LITERALS[type(ring)](sc, ring, stops))


def _read_integer(sc: _Scanner, ring: Ring, stops: str) -> int:
    sc.skip_ws()
    text, at = sc.read_item(stops)
    digits = text.removeprefix("-")
    if not digits.isdecimal():
        raise ParseError(f"expected an integer, got {brief(repr(text))}", at,
                         ("integer",))
    return _int_at(text, at + len(text) - len(digits))


def _read_fraction(sc: _Scanner, ring: Ring, stops: str):
    numerator = _read_integer(sc, ring, stops + "/")
    if not sc.try_literal("/"):
        return numerator
    sc.skip_ws()
    at = sc.pos
    denominator = _read_integer(sc, ring, stops)
    if denominator == 0:
        raise ParseError("a fraction needs a nonzero denominator", at)
    from fractions import Fraction
    return Fraction(numerator, denominator)


def _read_polynomial(sc: _Scanner, ring: Ring, stops: str) -> Element:
    # Each term by square and multiply: x^k costs about log2(k) products.
    text, at = sc.read_item(stops)
    x = ring.element((0, 1))
    return sum((c * x ** d for d, c in _parse_poly(text, ring.p, at).items()), ring.zero)


def _read_tuple(sc: _Scanner, ring: Ring, stops: str) -> tuple:
    sc.skip_ws()
    start, factors = sc.pos, iter(ring.factors)
    if not sc.try_literal("("):
        raise ParseError("a product element is a (…, …) tuple", start, ("(",))
    # A component past the factors is read as one of the last factor, and counted.
    parts = _read_list(sc, lambda: _read_element(sc, next(factors, ring.factors[-1]), ",)"),
                       ",", ")")
    if len(parts) != len(ring.factors):
        raise ParseError(f"expected {len(ring.factors)} components, got {len(parts)}", start)
    return tuple(part.value for part in parts)


def _read_bits(sc: _Scanner, ring: Ring, stops: str) -> tuple[frozenset[int], int]:
    sc.skip_ws()
    start, runs = sc.pos, []
    valid = sc.try_literal("{")
    while valid and not sc.try_literal("}"):  # which skips the blanks before a position
        run = sc.read_item(",}")
        runs.append(run)
        valid = (not run[0] or run[0].isdecimal()) and (
            sc.try_literal(",") or sc.text.startswith("}", sc.pos))
    tail = valid and sc.try_literal(":") and sc.read_item(stops)[0].lstrip()
    if tail not in ("0", "1"):
        raise ParseError("bits literal looks like {1,3}:0", start, ("{",))
    flips = {_int_at(*run): run[1] for run in reversed(runs) if run[0]}  # first place wins
    if 0 in flips:
        raise ParseError("positions must be integers >= 1", flips[0])
    return frozenset(flips), int(tail)


# The literal reader of each presentation, as ``ideals.ideal_class`` maps it to its ideals.
_LITERALS = {
    ModularRing: _read_integer,
    PolyQuotientRing: _read_polynomial,
    GaloisFieldRing: _read_polynomial,
    LocalizedIntegerRing: _read_fraction,
    ProductRing: _read_tuple,
    EventuallyConstantBitsRing: _read_bits,
}


def _read_label(sc: _Scanner, ring: Ring):
    # ideals is imported on first use, so that parsing rings does not load it.
    from .ideals import BoolIdeal, LocalIdeal, ProductIdeal, ideal_class, ideal_from_generators

    sc.skip_ws()
    start, kind = sc.pos, ideal_class(ring)
    if kind is ProductIdeal:
        parts = [_read_label(sc, ring.factors[0])]
        while len(parts) < len(ring.factors) and sc.try_literal("x"):
            parts.append(_read_label(sc, ring.factors[len(parts)]))
        if len(parts) < len(ring.factors) or sc.try_literal("x"):
            raise ParseError(f"expected {len(ring.factors)} ideal components", start)
        return ProductIdeal(ring, parts)
    if not sc.try_literal("("):
        raise ParseError("an ideal label is parenthesized", start, ("(",))
    if kind is BoolIdeal and sc.try_literal("fin"):
        sc.expect_literal(")")
        return BoolIdeal(ring, None)
    if kind is LocalIdeal and sc.try_literal(f"{ring.p}^"):
        at = sc.pos
        end = sc.pos = _digits_end(sc.text, at)
        if end > at and sc.try_literal(")"):
            return LocalIdeal(ring, _int_at(sc.text[at:end], at))
        sc.pos = at - len(f"{ring.p}^")
    gens = _read_list(sc, lambda: _read_element(sc, ring, ",)"), ",", ")")
    return ideal_from_generators(ring, gens)
