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

Element literals are presentation specific: integers for Z/n, polynomial
expressions for quotient rings, fractions a/b for the localized integers,
"(e1, e2)" tuples for products and "{1,3}:0" support:tail pairs for the
bits ring.
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
    check_ring_size,
    factorization,
    product_ring,
    require_prime,
)

__all__ = [
    "parse_element",
    "parse_generators",
    "parse_ideal_label",
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

    def read_until(self, closer: str) -> tuple[str, int]:
        """Consume text up to (not including) the closing literal."""
        start = self.pos
        idx = self.text.find(closer, self.pos)
        if idx < 0:
            raise ParseError(f"missing {closer!r}", len(self.text), (closer,))
        self.pos = idx + len(closer)
        return self.text[start:idx], start


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
            body, offset = sc.read_until(")")
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
            raise ParseError(f"bad polynomial term {term!r}", pos,
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
# element literals


def parse_element(ring: Ring, text: str) -> Element:
    """Parse one element literal in the syntax of the given presentation."""
    body = text.strip()
    if isinstance(ring, ModularRing):
        return ring.element(_parse_int(body))
    if isinstance(ring, PolyQuotientRing):
        # Each term by square and multiply: x^k costs about log2(k) products.
        x = ring.element((0, 1))
        return sum((c * x ** d for d, c in _parse_poly(body, ring.p, 0).items()), ring.zero)
    if isinstance(ring, LocalizedIntegerRing):
        from fractions import Fraction
        if "/" in body:
            num, _, den = body.partition("/")
            num, den = _parse_int(num), _parse_int(den)
            if den == 0:
                raise ParseError("a fraction needs a nonzero denominator", 0)
            return ring.element(Fraction(num, den))
        return ring.element(_parse_int(body))
    if isinstance(ring, ProductRing):
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("a product element is a (…, …) tuple", 0, ("(",))
        parts = split_top_level(body[1:-1], ",")
        if len(parts) != len(ring.factors):
            raise ParseError(
                f"expected {len(ring.factors)} components, got {len(parts)}", 0)
        comps = [parse_element(f, part) for f, part in zip(ring.factors, parts)]
        return ring.element(tuple(c.value for c in comps))
    if isinstance(ring, EventuallyConstantBitsRing):
        return ring.element(_parse_bits(body))
    raise ParseError(f"no element syntax for {ring.describe()}", 0)


def _parse_bits(body: str) -> tuple[frozenset[int], int]:
    """The support and tail of a bits literal ``{1,3}:0``: decimal positions
    separated by commas, with free whitespace around every token."""
    close = body.find("}")
    head, colon, tail = body[close + 1:].partition(":")
    parts = list(filter(None, (part.strip() for part in body[1:close].split(","))))
    if (not body.startswith("{") or close < 0 or head.strip() or not colon
            or tail.lstrip() not in ("0", "1") or not all(map(str.isdecimal, parts))):
        raise ParseError("bits literal looks like {1,3}:0", 0, ("{",))
    # A run too long to read is refused where it first occurs: an earlier run
    # holding it is at least as long, and is refused first.
    return frozenset(_int_at(d, body.index(d)) for d in parts), int(tail)


def _parse_int(text: str) -> int:
    body = text.strip()
    digits = body.removeprefix("-")
    if not digits.isdecimal():
        raise ParseError(f"expected an integer, got {body!r}", 0, ("integer",))
    return _int_at(body, len(body) - len(digits))


def split_top_level(text: str, separator: str) -> list[str]:
    """Split on a separator, ignoring separators nested in (), {} or []."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (s.strip() for s in parts) if p != ""]


def parse_generators(ring: Ring, text: str) -> list[Element]:
    """A comma separated list of element literals; empty text means none."""
    if not text.strip():
        return []
    return [parse_element(ring, part) for part in split_top_level(text, ",")]


def parse_ideal_label(ring: Ring, label: str):
    """Reconstruct an ideal from its canonical label.

    ``ideals`` is imported here, on first use, so that a program that only
    parses rings does not load it."""
    from .ideals import (
        BoolFiniteSupportIdeal,
        BoolPrincipalIdeal,
        LocalIdeal,
        ProductIdeal,
        ideal_class,
        ideal_from_generators,
    )

    body = label.strip()
    if ideal_class(ring) is ProductIdeal:
        parts = body.split(" x ")
        if len(parts) != len(ring.factors):
            raise ParseError(
                f"expected {len(ring.factors)} ideal components", 0)
        comps = [parse_ideal_label(f, part) for f, part in zip(ring.factors, parts)]
        return ProductIdeal(ring, comps)
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError("an ideal label is parenthesized", 0, ("(",))
    inner = body[1:-1].strip()
    if ideal_class(ring) is BoolPrincipalIdeal and inner == "fin":
        return BoolFiniteSupportIdeal(ring)
    if ideal_class(ring) is LocalIdeal:
        base, caret, exponent = inner.partition("^")
        if caret and base == str(ring.p) and exponent.isdecimal():
            return LocalIdeal(ring, _int_at(exponent, label.index(inner) + len(base) + 1))
    gens = parse_generators(ring, inner)
    return ideal_from_generators(ring, gens)
