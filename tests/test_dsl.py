"""The ring description grammar, element literals and ideal labels."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from spectop import dsl
from spectop import (
    EventuallyConstantBitsRing,
    GaloisFieldRing,
    LocalizedIntegerRing,
    ModularRing,
    NotPrime,
    NotPrimePower,
    ParseError,
    PolyQuotientRing,
    ProductRing,
    parse_element,
    parse_generators,
    parse_ideal_label,
    parse_ring,
)
from spectop.dsl import parse_ideal_labels
from spectop.ideals import (
    BoolIdeal,
    LocalIdeal,
    enumerate_ideals,
    ideal_from_generators,
    principal_ideal,
)


def test_parse_ring_atoms():
    assert parse_ring("Z/12") == ModularRing(12)
    assert parse_ring("GF(4)") == GaloisFieldRing(2, 2)
    assert parse_ring("GF(8)") == GaloisFieldRing(2, 3)
    assert parse_ring("Zloc(5)") == LocalizedIntegerRing(5)
    assert parse_ring("EvBits") == EventuallyConstantBitsRing()
    assert parse_ring("Z/2[x]/(x^2+x)") == PolyQuotientRing(2, (0, 1, 1))
    assert parse_ring(" Z/3 [x]/( x^2 + 1 )") == PolyQuotientRing(3, (1, 0, 1))


def test_parse_ring_products_flatten():
    r = parse_ring("Zloc(2) * Z/3")
    assert isinstance(r, ProductRing)
    assert r.factors == (LocalizedIntegerRing(2), ModularRing(3))
    triple = parse_ring("Z/2 * Z/3 * Z/5")
    assert len(triple.factors) == 3


def test_parse_print_round_trip_on_corpus(corpus_ring):
    assert parse_ring(corpus_ring.describe()) == corpus_ring


_atoms = st.one_of(
    st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]).map(ModularRing),
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]).map(
        lambda pk: GaloisFieldRing(*pk)),
    st.sampled_from([2, 3, 5, 7]).map(LocalizedIntegerRing),
    st.sampled_from([(2, (0, 1, 1)), (2, (1, 1, 1)), (3, (0, 0, 1)), (5, (2, 1))]).map(
        lambda pf: PolyQuotientRing(*pf)),
    st.just(EventuallyConstantBitsRing()),
)


@given(st.lists(_atoms, min_size=1, max_size=3))
def test_parse_print_round_trip_random(factors):
    if len(factors) == 1:
        ring = factors[0]
    else:
        try:
            ring = ProductRing(factors)
        except Exception:
            return  # bits ring is not a legal product factor
    assert parse_ring(ring.describe()) == ring


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_ring("Q[x]")
    assert err.value.position == 0
    assert "Z/" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_ring("Z/6 * ")
    assert err.value.position == 6

    with pytest.raises(ParseError) as err:
        parse_ring("Z/6 Z/5")
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse_ring("Zloc(2")

    with pytest.raises(ParseError):
        parse_ring("Z/2[x]/(x+)")


@pytest.mark.parametrize("parse, text, message", [
    (parse_ring, "Z/", "at position 2: expected a number (expected digit)"),
    (parse_ring, "Z/2[x]/(x+1", "at position 11: missing ')' (expected ))"),
    (parse_ring, "Z/2[x]/(x^^2)",
     "at position 8: bad polynomial term 'x^^2' (expected coefficient | x | x^k)"),
    (lambda text: parse_element(parse_ring("Z/2 * Z/3"), text), "1",
     "at position 0: a product element is a (…, …) tuple (expected ()"),
    (lambda text: parse_element(parse_ring("Z/2 * Z/3"), text), "(1)",
     "at position 0: expected 2 components, got 1"),
    (lambda text: parse_ideal_label(parse_ring("Zloc(2) * Z/3"), text), "(0)",
     "at position 0: expected 2 ideal components"),
    (lambda text: parse_ideal_label(parse_ring("Z/6"), text), "2",
     "at position 0: an ideal label is parenthesized (expected ()"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_validation_errors():
    with pytest.raises(NotPrimePower):
        parse_ring("GF(6)")
    with pytest.raises(NotPrimePower):
        parse_ring("GF(1)")
    with pytest.raises(NotPrime) as err:
        parse_ring("Zloc(9)")
    assert err.value.factor == 3
    with pytest.raises(NotPrime):
        parse_ring("Z/4[x]/(x^2+x)")
    with pytest.raises(ParseError):
        parse_ring("Z/2[x]/(2x+1)")  # not monic after reduction


@pytest.mark.parametrize("text, n", [("Zloc(1)", 1), ("Z/1[x]/(x)", 1), ("Zloc(0)", 0)])
def test_not_prime_below_two_names_no_factor(text, n):
    with pytest.raises(NotPrime) as err:
        parse_ring(text)
    assert err.value.factor is None
    assert str(err.value) == f"{n} is not prime (primes are at least 2)"


# The regexes the grammar read numbers and polynomial terms with before it
# scanned with str methods; the scanner accepts and reads what they did.
_OLD_NAT = re.compile(r"\d+")
_OLD_TERM = re.compile(r"^(?:(\d+)\*?)?(x(?:\^(\d+))?)?$")
_OLD_INT = re.compile(r"^-?\d+$")

# ASCII digits, other decimal digits (Arabic-Indic 3, fullwidth 1,
# Devanagari 7), digit-like characters that are no decimal digits
# (superscript two, the vulgar fraction one fifth), the grammar's own
# symbols, whitespace and any other character.
_CHARS = st.one_of(
    st.sampled_from("0123456789"),
    st.sampled_from("\u0663\uff11\u096d\u00b2\u2155"),
    st.sampled_from("x^*+- \t\n"),
    st.characters())
_TEXT = st.text(_CHARS, max_size=10)
_NUMBER = st.text(st.sampled_from("0123456789\u0663\u00b2"), max_size=3)
_TERM = st.one_of(_TEXT, st.builds("".join, st.tuples(
    _NUMBER, st.sampled_from(["", "*", "**"]), st.sampled_from(["", "x", "x^", "X", "x^^"]),
    _NUMBER, st.sampled_from(["", " ", "x"]))))
_INTEGER = st.one_of(_TEXT, st.builds("".join, st.tuples(
    st.sampled_from(["", "-", "--", " -"]), _NUMBER, st.sampled_from(["", " ", "\n"]))))


@given(_TEXT, st.integers(0, 10))
@example("Z/\u00b2", 2)
@example("  \u06637x", 0)
def test_read_nat_reads_what_the_digit_regex_matched(text, start):
    scanner = dsl._Scanner(text)
    scanner.pos = min(start, len(text))
    scanner.skip_ws()
    at = scanner.pos
    match = _OLD_NAT.match(text[at:])
    if match is None:
        with pytest.raises(ParseError) as err:
            scanner.read_nat()
        assert (str(err.value), err.value.position, err.value.expected) == (
            f"at position {at}: expected a number (expected digit)", at, ("digit",))
    else:
        assert scanner.read_nat() == int(match.group())
        assert scanner.pos == at + match.end()


@given(_TERM)
@example("3*")
@example("x^0")
@example("*x")
@example("2x^\u00b2")
@example("\uff11x^\u0663")
def test_a_term_reads_as_the_term_regex_matched(text):
    term = text.strip()
    match = _OLD_TERM.match(term)
    if not match or (match.group(1) is None and match.group(2) is None):
        assert dsl._parse_term(term) is None
        return
    coeff = int(match.group(1)) if match.group(1) else 1
    if match.group(2) is None:
        degree = 0
    elif match.group(3) is None:
        degree = 1
    else:
        degree = int(match.group(3))
    assert dsl._parse_term(term) == (coeff, degree)


@given(_INTEGER)
@example("-\u0663")
@example("-")
def test_an_integer_literal_reads_as_the_integer_regex_matched(text):
    # The integer reader with no stop character reads the whole text, and
    # names a refused one where it starts.
    body = text.strip()
    if _OLD_INT.match(body):
        assert dsl._read_integer(dsl._Scanner(text), None, "") == int(body)
    else:
        with pytest.raises(ParseError) as err:
            dsl._read_integer(dsl._Scanner(text), None, "")
        assert (err.value.position, err.value.expected) == (
            len(text) - len(text.lstrip()), ("integer",))


# The regexes that read bits literals and the p^k labels of the localized
# integers before the grammar scanned them with str methods.
_OLD_BITS = re.compile(r"^\{([\d,\s]*)\}\s*:\s*([01])$")
_BITS_SPACE = st.text(st.sampled_from(" \t\n\u00a0\u2003"), max_size=2)


def _mostly(valid: str, *others: str):
    """The valid token half of the time, else one of the others."""
    return st.one_of(st.just(valid), st.sampled_from(others))


def _joined(*parts):
    return st.tuples(*parts).map("".join)


_BITS = st.one_of(
    st.text(st.one_of(st.sampled_from("{},:01 \u0663\uff11\u00b2x"), st.characters()),
            max_size=12),
    _joined(_mostly("{", "", "{{", "("),
            st.lists(_joined(_BITS_SPACE, _NUMBER, _BITS_SPACE), max_size=3).map(",".join),
            _mostly("}", "", ")", "},"), _BITS_SPACE, _mostly(":", "", "::", ";"),
            _BITS_SPACE, st.one_of(st.sampled_from("01"), st.sampled_from(["2", "01", "",
                                                                          "\u0661"]))))


def _old_bits(body: str):
    """The support and tail the regex read, or None where it or the int
    conversion after it failed."""
    m = _OLD_BITS.match(body)
    if not m:
        return None
    inner = m.group(1).strip()
    try:
        positions = [int(s) for s in inner.split(",") if s.strip()] if inner else []
    except ValueError:  # "{1 2}:0" passed the regex and failed here
        return None
    return frozenset(positions), int(m.group(2))


@given(_BITS)
@example("{１}:0")
@example("{1 2}:0")
@example(" { 1 , , 3 }\t:\n1 ")
@example("{}:1")
@example("{0}:0")
@example("{ 2, 00 ,0}:1")
def test_a_bits_literal_reads_as_the_bits_regex_matched(text):
    bits = EventuallyConstantBitsRing()
    old = _old_bits(text.strip())
    if old is None:
        with pytest.raises(ParseError) as err:
            parse_element(bits, text)
        start = len(text) - len(text.lstrip())  # where the literal starts
        assert str(err.value) == (
            f"at position {start}: bits literal looks like {{1,3}}:0 (expected {{)")
        return
    # A position 0 is refused at its first digit run, counted from the start of the text.
    zeros = [m.start() for m in re.finditer(r"\d+", text[:text.index("}")]) if int(m[0]) == 0]
    if zeros:
        with pytest.raises(ParseError) as err:
            parse_element(bits, text)
        assert str(err.value) == f"at position {zeros[0]}: positions must be integers >= 1"
    else:
        assert parse_element(bits, text) == bits.element(old)


def _outcome(f, *args):
    """What a call returns, or the type and text of its ValueError (a
    ParseError included)."""
    try:
        return f(*args)
    except (ValueError, ParseError) as exc:
        return type(exc), str(exc)


_OLD_POWER = re.compile(r"^3\^(\d+)$")  # the p^k label regex for p = 3
_LABEL = _joined(_BITS_SPACE, _mostly("(", "", "(("), _BITS_SPACE,
                 _mostly("3", "03", "9", "", "x", "3 "), _mostly("^", "", "^^", "**"),
                 st.text(st.sampled_from("0123456789\u0663\u00b2"), min_size=1, max_size=3),
                 _BITS_SPACE, _mostly(")", "", "x)"), _BITS_SPACE)


@given(st.one_of(_LABEL, st.text(_CHARS, max_size=8).map(lambda s: f"({s})")))
@example("(3^\uff12)")
@example(" ( 3^0 ) ")
@example("(3^)")
@example("(3^2")
@example("(1")
@example("(3^2)x)")
@example("(1)2)")
def test_a_power_label_reads_as_the_power_regex_matched(label):
    # A label the regex did not match reads as its generators, as it did.
    # The label ends at its first ")", and positions count from its start,
    # so the generators are read with everything up to the "(" blanked out.
    ring = LocalizedIntegerRing(3)
    start = len(label) - len(label.lstrip())
    opened, closed = label.find("("), label.find(")")
    end = closed if closed >= 0 else len(label)
    match = closed >= 0 and _OLD_POWER.match(label[opened + 1:end].strip())
    rest = label[end + 1:]
    if not label.lstrip().startswith("("):
        expected = (ParseError,
                    f"at position {start}: an ideal label is parenthesized (expected ()")
    elif match:
        expected = LocalIdeal(ring, int(match.group(1)))
    else:
        blanked = " " * (opened + 1) + label[opened + 1:end]
        expected = _outcome(lambda: ideal_from_generators(ring, parse_generators(ring, blanked)))
    refused = isinstance(expected, tuple)  # before the end of the label
    if not refused and closed < 0:
        expected = (ParseError, f"at position {len(label)}: missing ')' (expected ))")
    elif not refused and rest.strip():
        expected = (ParseError, f"at position {len(label) - len(rest.lstrip())}: "
                                "trailing input (expected end of input)")
    assert _outcome(parse_ideal_label, ring, label) == expected


_POLY_RINGS = [PolyQuotientRing(2, (0, 0, 1)), PolyQuotientRing(2, (1, 1, 0, 1)),
               PolyQuotientRing(3, (2, 0, 1)), PolyQuotientRing(5, (0, 1))]


@given(st.sampled_from(_POLY_RINGS),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 63),
                          st.sampled_from(["{c}x^{d}", "{c}*x^{d}", "x^{d}", "{c}", "x"])),
                min_size=1, max_size=5))
def test_a_polynomial_literal_equals_its_dense_expansion(ring, terms):
    """Each term is built by square and multiply; the dense coefficient
    list of the whole literal, reduced by the ring, gives the same element
    for every exponent below 64."""
    dense, texts = [0] * 64, []
    for c, d, form in terms:
        c, d = {"x^{d}": (1, d), "{c}": (c, 0), "x": (1, 1)}.get(form, (c, d))
        dense[d] += c
        texts.append(form.format(c=c, d=d))
    assert parse_element(ring, " + ".join(texts)) == ring.element(dense)


def test_parse_elements_per_presentation():
    z12 = parse_ring("Z/12")
    assert parse_element(z12, "-1") == z12.element(11)

    gf4 = parse_ring("GF(4)")
    assert parse_element(gf4, "x+1") == gf4.element((1, 1))
    assert parse_element(gf4, "0") == gf4.zero

    zl = parse_ring("Zloc(2)")
    assert parse_element(zl, "4/3") == zl.element(Fraction(4, 3))
    assert parse_element(zl, "7") == zl.element(7)

    mixed = parse_ring("Zloc(2) * Z/3")
    el = parse_element(mixed, "(4/3, 2)")
    assert el == mixed.element((Fraction(4, 3), 2))

    bits = parse_ring("EvBits")
    assert parse_element(bits, "{1,3}:0") == bits.indicator({1, 3})
    assert parse_element(bits, "{}:1") == bits.one

    with pytest.raises(ParseError):
        parse_element(z12, "x")
    with pytest.raises(ParseError):
        parse_element(bits, "{1:0")


def test_parse_element_round_trip(corpus_ring):
    if corpus_ring.is_finite:
        sample = list(corpus_ring.elements())
    else:
        sample = [corpus_ring.zero, corpus_ring.one]
    for el in sample:
        assert parse_element(corpus_ring, str(el)) == el


def test_parse_generators_lists():
    z12 = parse_ring("Z/12")
    gens = parse_generators(z12, "2, 4")
    assert [g.value for g in gens] == [2, 4]
    assert parse_generators(z12, "") == []
    mixed = parse_ring("Zloc(2) * Z/3")
    gens = parse_generators(mixed, "(0, 1), (2, 0)")
    assert len(gens) == 2


def test_ideal_labels_round_trip(corpus_ring):
    try:
        ideals = enumerate_ideals(corpus_ring)
    except Exception:
        return
    for ideal in ideals:
        assert parse_ideal_label(corpus_ring, ideal.label()) == ideal


def test_a_label_list_reads_each_label_and_skips_empty_items():
    ring = parse_ring("Zloc(2) * Z/3")
    assert parse_ideal_labels(ring, " (0) x (1);; (2) x (0) ;") == [
        parse_ideal_label(ring, "(0) x (1)"), parse_ideal_label(ring, "(2) x (0)")]
    assert parse_ideal_labels(ring, "") == []
    with pytest.raises(ParseError) as err:
        parse_ideal_labels(ring, "(0) x (1) (2) x (0)")
    assert str(err.value) == "at position 10: missing ';' (expected ; | end of input)"


def test_bits_ideal_labels_round_trip():
    bits = parse_ring("EvBits")
    fin = BoolIdeal(bits, None)
    assert parse_ideal_label(bits, fin.label()) == fin
    small = principal_ideal(bits, bits.indicator({2, 4}))
    assert parse_ideal_label(bits, small.label()) == small
