"""Ring presentations: canonical forms, arithmetic, idempotents, products."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spectop import (
    EmptyProduct,
    EventuallyConstantBitsRing,
    GaloisFieldRing,
    LocalizedIntegerRing,
    ModularRing,
    NotPrime,
    PolyQuotientRing,
    ProductRing,
    RingTooLarge,
    SpectopError,
    UnsupportedForPresentation,
    idempotents,
    parse_ring,
    product_ring,
)
from spectop.rings import (
    FACTOR_SEARCH_BOUND,
    MAX_PRODUCT_FACTORS,
    MAX_RING_ELEMENTS,
    PRIMALITY_BOUND,
    canonical_sorted,
    check_ring_size,
    irreducibility_witness,
    is_prime_int,
    least_irreducible_polynomial,
    polynomial_text,
)


def test_modular_canonicalization():
    r = ModularRing(12)
    assert r.element(25).value == 1
    assert r.element(-1).value == 11
    assert r.element(5) + r.element(9) == r.element(2)
    assert r.element(5) * r.element(5) == r.element(1)
    assert -r.element(3) == r.element(9)
    assert len(r.elements()) == 12


def test_modular_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ModularRing(0)


def test_zero_ring_is_degenerate_but_legal():
    r = ModularRing(1)
    assert r.zero == r.one
    assert len(r.elements()) == 1
    assert idempotents(r) == (r.zero,)


def test_ring_equality_is_structural():
    assert ModularRing(6) == ModularRing(6)
    assert ModularRing(6) != ModularRing(12)
    assert GaloisFieldRing(2, 2) == GaloisFieldRing(2, 2)
    assert GaloisFieldRing(2, 1) != ModularRing(2)


def test_elements_of_distinct_rings_do_not_mix():
    a = ModularRing(6).element(2)
    b = ModularRing(12).element(2)
    assert a != b
    with pytest.raises(TypeError):
        a + b


def test_element_arithmetic_takes_ints_and_nothing_else():
    z6 = ModularRing(6)
    f = z6.element(5)
    assert f + 1 == z6.zero
    assert 1 - f == z6.element(2)
    for other in (1.5, "1", None):
        with pytest.raises(TypeError, match="cannot interpret .* as a ring element"):
            f + other


def test_galois_field_canonical_modulus():
    gf4 = GaloisFieldRing(2, 2)
    assert gf4.modulus == (1, 1, 1)  # x^2+x+1
    assert gf4.describe() == "GF(4)"
    assert len(gf4.elements()) == 4
    x = gf4.element((0, 1))
    assert x * x == gf4.element((1, 1))  # x^2 = x+1 in GF(4)
    assert least_irreducible_polynomial(2, 3) == (1, 1, 0, 1)  # x^3+x+1
    assert least_irreducible_polynomial(3, 2) == (1, 0, 1)  # x^2+1


def test_every_galois_field_in_the_budget_has_an_irreducible_modulus():
    fields = [(p, k) for p in range(2, 17) if is_prime_int(p)
              for k in range(2, 9) if p ** k <= MAX_RING_ELEMENTS]
    assert len(fields) == 16
    for p, k in fields:
        field = parse_ring(f"GF({p ** k})")
        assert field == GaloisFieldRing(p, k)
        assert field.describe() == f"GF({p ** k})" and field.degree == k
        assert irreducibility_witness(field.modulus, p) is None


def test_galois_field_field_axioms():
    gf4 = GaloisFieldRing(2, 2)
    nonzero = [e for e in gf4.elements() if e != gf4.zero]
    for a in nonzero:
        assert any(a * b == gf4.one for b in nonzero)


def test_poly_quotient_with_zero_divisors():
    r = PolyQuotientRing(2, (0, 1, 1))  # Z/2[x]/(x^2+x)
    x = r.element((0, 1))
    assert x * x == x  # x is idempotent
    assert x * (r.one + x) == r.zero
    assert r.describe() == "Z/2[x]/(x^2+x)"
    assert len(r.elements()) == 4


def test_poly_quotient_requires_prime_and_monic():
    with pytest.raises(NotPrime):
        PolyQuotientRing(4, (0, 1, 1))
    with pytest.raises(ValueError):
        PolyQuotientRing(3, (1, 2))  # 2x+1 is not monic mod 3
    with pytest.raises(ValueError):
        PolyQuotientRing(3, (1,))  # degree 0


def test_polynomial_text():
    assert polynomial_text(()) == "0"
    assert polynomial_text((1, 1, 1)) == "x^2+x+1"
    assert polynomial_text((0, 2)) == "2x"
    assert polynomial_text((5,)) == "5"


def test_product_ring_componentwise():
    r = product_ring([ModularRing(4), ModularRing(3)])
    a = r.element((3, 2))
    b = r.element((2, 2))
    assert a + b == r.element((1, 1))
    assert a * b == r.element((2, 1))
    assert r.element((ModularRing(4).element(3), 5)) == a  # components coerced per factor
    assert len(r.elements()) == 12
    assert r.describe() == "Z/4 * Z/3"


def test_product_ring_flattens_and_collapses():
    inner = product_ring([ModularRing(2), ModularRing(3)])
    outer = product_ring([inner, ModularRing(5)])
    assert isinstance(outer, ProductRing)
    assert len(outer.factors) == 3
    assert product_ring([ModularRing(6)]) == ModularRing(6)
    with pytest.raises(EmptyProduct):
        product_ring([])


def test_ring_size_budget():
    assert MAX_RING_ELEMENTS == 256
    x8 = (0,) * 8 + (1,)
    admitted = [ModularRing(256), PolyQuotientRing(2, x8), GaloisFieldRing(2, 8),
                ProductRing([ModularRing(16), ModularRing(16)]),
                ProductRing([LocalizedIntegerRing(2), ModularRing(256)])]
    assert [r.describe() for r in admitted] == [
        "Z/256", "Z/2[x]/(x^8)", "GF(256)", "Z/16 * Z/16", "Zloc(2) * Z/256"]
    refused = [lambda: ModularRing(257),
               lambda: PolyQuotientRing(3, (1, 0, 0, 0, 0, 0, 1)),
               lambda: GaloisFieldRing(2, 40),      # refused before the irreducible search
               lambda: ProductRing([ModularRing(16), ModularRing(17)]),
               lambda: ProductRing([ModularRing(2), LocalizedIntegerRing(3),
                                    ModularRing(2), GaloisFieldRing(2, 7)])]
    for build in refused:
        with pytest.raises(RingTooLarge, match="exceeds the budget of 256 elements"):
            build()
    assert issubclass(RingTooLarge, SpectopError)


def test_factor_budget():
    assert MAX_PRODUCT_FACTORS == 256
    zl, z1 = LocalizedIntegerRing(2), ModularRing(1)
    assert len(ProductRing([zl] * MAX_PRODUCT_FACTORS).factors) == MAX_PRODUCT_FACTORS
    # Nested products are counted once flattened, and a one-element factor
    # counts like any other.
    for build in (lambda: ProductRing([zl] * (MAX_PRODUCT_FACTORS + 1)),
                  lambda: ProductRing([ProductRing([zl] * 200), ProductRing([z1] * 57)])):
        with pytest.raises(RingTooLarge) as err:
            build()
        assert str(err.value) == "a product of 257 factors exceeds the budget of 256 factors"
    # The element budget is checked first.
    with pytest.raises(RingTooLarge, match="exceeds the budget of 256 elements"):
        ProductRing([ModularRing(2)] * (MAX_PRODUCT_FACTORS + 1))


@pytest.mark.parametrize("base, exponent, size", [
    (10 ** 19 + 7, 1, "10000000000000000007"),
    (10 ** 20 + 7, 1, "10000000…00000007 (21 digits)"),
    (2, 100000, "2^100000"),
    (2, 10 ** 25, "2^10000000…00000000 (26 digits)"),
    (3, 9, "19683"),
    # The size of a product of 1,800 rings Z/256 has more digits than
    # Python writes out in decimal.
    pytest.param(256 ** 1800, 1, "67910599…40933376 (4335 digits)", id="256**1800"),
])
def test_a_refused_size_is_named_in_full_up_to_twenty_digits(base, exponent, size):
    with pytest.raises(RingTooLarge) as err:
        check_ring_size(base, exponent)
    assert str(err.value) == (
        f"a finite ring with {size} elements exceeds the budget of 256 elements")


@given(st.integers(min_value=MAX_RING_ELEMENTS + 1, max_value=10 ** 6000))
def test_a_refused_size_is_named_by_the_ends_of_its_digits(size):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(size)
    finally:
        sys.set_int_max_str_digits(limit)
    named = digits if len(digits) <= 20 else f"{digits[:8]}…{digits[-8:]} ({len(digits)} digits)"
    with pytest.raises(RingTooLarge) as err:
        check_ring_size(size)
    assert str(err.value).startswith(f"a finite ring with {named} elements ")


def test_product_ring_rejects_bits_factor():
    with pytest.raises(UnsupportedForPresentation):
        product_ring([EventuallyConstantBitsRing(), ModularRing(2)])


def test_infinite_product_lists_no_elements():
    ring = product_ring([LocalizedIntegerRing(2), ModularRing(3)])
    with pytest.raises(UnsupportedForPresentation,
                       match="Zloc\\(2\\) \\* Z/3 is infinite; its elements cannot be listed"):
        ring.elements()


def test_crt_isomorphism_z4_z3():
    # x -> (x mod 4, x mod 3) is a ring isomorphism Z/12 -> Z/4 x Z/3
    z12 = ModularRing(12)
    prod = product_ring([ModularRing(4), ModularRing(3)])
    iso = {x: prod.element((x.value % 4, x.value % 3)) for x in z12.elements()}
    assert len(set(iso.values())) == 12
    for a in z12.elements():
        for b in z12.elements():
            assert iso[a + b] == iso[a] + iso[b]
            assert iso[a * b] == iso[a] * iso[b]
    assert iso[z12.one] == prod.one


def test_crt_isomorphism_z6():
    z6 = ModularRing(6)
    prod = product_ring([ModularRing(2), ModularRing(3)])
    iso = {x: prod.element((x.value % 2, x.value % 3)) for x in z6.elements()}
    assert len(set(iso.values())) == 6
    for a in z6.elements():
        for b in z6.elements():
            assert iso[a * b] == iso[a] * iso[b]


def test_localized_integers_canonical_fractions():
    r = LocalizedIntegerRing(2)
    a = r.element(Fraction(4, 3))
    assert a.value == Fraction(4, 3)
    assert a + r.element(Fraction(2, 3)) == r.element(2)
    assert r.element(Fraction(1, 3)) * r.element(3) == r.one
    assert str(-a) == "-4/3" and -a + a == r.zero
    assert r.valuation(r.element(Fraction(4, 3))) == 2
    assert r.valuation(r.element(Fraction(3, 5))) == 0
    with pytest.raises(ValueError):
        r.element(Fraction(1, 2))
    # v(0) = inf, so 0 lies in every (p^k).
    assert r.valuation(r.zero) == math.inf


def test_localized_integers_requires_prime():
    with pytest.raises(NotPrime):
        LocalizedIntegerRing(6)


@given(st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=60))
def test_localized_valuation_is_additive(num, den):
    r = LocalizedIntegerRing(3)
    if den % 3 == 0:
        return
    a = r.element(Fraction(num, den))
    assert r.valuation(a * a) == 2 * r.valuation(a)


def test_bits_ring_basics():
    b = EventuallyConstantBitsRing()
    x = b.indicator({1, 3})
    y = b.indicator({3, 5})
    assert (x + y) == b.indicator({1, 5})
    assert (x * y) == b.indicator({3})
    assert x + x == b.zero
    assert b.one * x == x
    ones_except_2 = b.element(({2}, 1))
    assert ones_except_2.value == (frozenset({2}), 1)
    # 0 at position 2 and 1 at position 7, read off a product.
    assert ones_except_2 * b.indicator({2, 7}) == b.indicator({7})
    assert b.element(ones_except_2.value) == ones_except_2
    assert str(x) == "{1,3}:0"
    assert str(b.one) == "{}:1"


def test_bits_ring_rejects_bad_payload():
    b = EventuallyConstantBitsRing()
    with pytest.raises(ValueError):
        b.element((frozenset({0}), 0))  # positions start at 1
    with pytest.raises(ValueError):
        b.element((frozenset(), 2))


@pytest.mark.parametrize("build, message", [
    (lambda: ModularRing(6).element("a"), "expected an integer residue, got 'a'"),
    (lambda: PolyQuotientRing(2, (1, 1)).element(3.5),
     "expected a coefficient sequence, got 3.5"),
    (lambda: LocalizedIntegerRing(2).element("a"), "expected an integer or Fraction, got 'a'"),
    (lambda: EventuallyConstantBitsRing().element("a"),
     "expected an int or (positions, tail), got 'a'"),
    # A bool is an int to Python, but would print as True or False.
    (lambda: EventuallyConstantBitsRing().element(((), True)), "tail must be 0 or 1"),
    (lambda: EventuallyConstantBitsRing().element(((True,), 0)),
     "positions must be integers >= 1"),
    (lambda: EventuallyConstantBitsRing().element(((), 1.0)), "tail must be 0 or 1"),
    (lambda: ModularRing(True), "modulus must be an integer >= 1"),
    (lambda: GaloisFieldRing(2, 0), "a degree >= 1 is required"),
    (lambda: ProductRing([ModularRing(2)]),
     "ProductRing needs at least two factors; use product_ring"),
])
def test_payload_and_constructor_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


_bits = st.tuples(
    st.frozensets(st.integers(min_value=1, max_value=24), max_size=6),
    st.integers(min_value=0, max_value=1),
)


@given(_bits, _bits, _bits)
def test_bits_ring_axioms(a, b, c):
    ring = EventuallyConstantBitsRing()
    x, y, z = ring.element(a), ring.element(b), ring.element(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x * x == x  # Boolean
    assert x + x == ring.zero


@given(_bits)
def test_bits_complement_annihilates(a):
    ring = EventuallyConstantBitsRing()
    x = ring.element(a)
    assert (ring.one - x) * x == ring.zero


# An independent model of the bits ring over positions 1..24: a sequence is
# the two's-complement int whose bit i-1 is its value at position i, so its
# sign is the tail, + is XOR and * is AND.
_MODEL_POSITIONS = range(1, 25)
_model_ints = st.integers(-(1 << 24), (1 << 24) - 1)


def _model_flips(n):
    """The positions where the sequence n differs from its tail, ascending."""
    tail = -1 if n < 0 else 0
    return [i for i in _MODEL_POSITIONS if ((n ^ tail) >> (i - 1)) & 1]


def _model_payload(n):
    return frozenset(_model_flips(n)), int(n < 0)


@given(_model_ints, _model_ints)
def test_bits_ring_matches_a_twos_complement_model(n, m):
    ring = EventuallyConstantBitsRing()
    x, y = ring.element(_model_payload(n)), ring.element(_model_payload(m))
    assert (x + y).value == _model_payload(n ^ m)
    assert (x * y).value == _model_payload(n & m)
    flips, tail = _model_flips(n), int(n < 0)
    assert str(x) == "{" + ",".join(map(str, flips)) + "}:" + str(tail)
    assert x.sort_key == (tail, len(flips), tuple(flips))


def test_idempotents_frozen_examples():
    assert [e.value for e in idempotents(ModularRing(12))] == [0, 1, 4, 9]
    assert [e.value for e in idempotents(ModularRing(6))] == [0, 1, 3, 4]
    assert [e.value for e in idempotents(GaloisFieldRing(2, 2))] == [(), (1,)]


def test_idempotents_always_include_zero_and_one(corpus_ring):
    try:
        found = idempotents(corpus_ring)
    except UnsupportedForPresentation:
        return
    assert corpus_ring.zero in found
    assert corpus_ring.one in found
    for e in found:
        assert e * e == e


def _brute_idempotents(candidates):
    return canonical_sorted(e for e in candidates if e * e == e)


def test_idempotents_match_a_brute_force_scan(finite_ring):
    found = finite_ring.idempotents()
    assert list(found) == _brute_idempotents(finite_ring.elements())
    assert finite_ring.idempotents() is found  # kept in the ring's memo


def test_idempotents_of_an_infinite_product_match_a_brute_force_scan():
    ring = parse_ring("Zloc(2) * Z/6")
    # An idempotent of Zloc(2) is 0 or 1, both among these fractions.
    fractions = {Fraction(a, b) for a in range(-4, 5) for b in (1, 3, 5)}
    candidates = [ring.element((q, r)) for q in fractions for r in range(6)]
    assert list(ring.idempotents()) == _brute_idempotents(candidates)
    assert [str(e) for e in ring.idempotents()] == [
        "(0, 0)", "(0, 1)", "(0, 3)", "(0, 4)", "(1, 0)", "(1, 1)", "(1, 3)", "(1, 4)"]


def test_idempotents_infinite_presentations():
    assert [e.value for e in idempotents(LocalizedIntegerRing(2))] == [
        Fraction(0), Fraction(1)]
    mixed = product_ring([LocalizedIntegerRing(2), ModularRing(3)])
    assert len(idempotents(mixed)) == 4
    with pytest.raises(UnsupportedForPresentation):
        idempotents(EventuallyConstantBitsRing())


def _pow_samples():
    bits = EventuallyConstantBitsRing()
    zloc = LocalizedIntegerRing(2)
    return (list(ModularRing(12).elements()) + list(GaloisFieldRing(2, 3).elements())
            + [zloc.element(v) for v in (0, 1, 2, 6, Fraction(3, 5), Fraction(-4, 7))]
            + [bits.zero, bits.one, bits.indicator({1, 3}), bits.one - bits.indicator({2})])


@pytest.mark.parametrize("x", _pow_samples(), ids=lambda x: f"{x.ring.describe()}:{x}")
def test_power_is_repeated_multiplication(x):
    acc = x.ring.one
    for k in range(21):
        assert x ** k == acc, k
        acc = acc * x


def test_power_large_exponent_and_negative():
    r = ModularRing(12)
    for v in range(12):
        assert (r.element(v) ** 10**6).value == pow(v, 10**6, 12)
    with pytest.raises(ValueError):
        r.element(5) ** -1


def test_primality_is_deterministic_below_the_bound():
    for n in range(3000):
        assert is_prime_int(n) == (n >= 2 and all(n % d for d in range(2, n))), n
    assert is_prime_int(1000000000000037) and is_prime_int(100000000000000003)
    # Strong pseudoprimes to the bases up to 23 and up to 37: the base 41
    # is what makes the test exact below PRIMALITY_BOUND.
    assert not is_prime_int(3825123056546413051)
    assert not is_prime_int(318665857834031151167461)
    with pytest.raises(RingTooLarge, match=f"only below {PRIMALITY_BOUND}; "):
        is_prime_int(PRIMALITY_BOUND)
    with pytest.raises(RingTooLarge):
        LocalizedIntegerRing(PRIMALITY_BOUND + 2)
    with pytest.raises(RingTooLarge, match="; 10000000…00000000 \\(41 digits\\) is too large$"):
        is_prime_int(10 ** 40)


def test_not_prime_searches_its_factor_under_a_bound():
    with pytest.raises(NotPrime) as err:
        LocalizedIntegerRing(91)
    assert err.value.factor == 7 and str(err.value) == "91 is not prime (divisible by 7)"
    semiprime = 1000003 * 1000033  # both factors above the search bound
    with pytest.raises(NotPrime) as err:
        LocalizedIntegerRing(semiprime)
    assert err.value.factor is None
    assert str(err.value) == (
        f"{semiprime} is not prime (it has no factor up to {FACTOR_SEARCH_BOUND})")


@pytest.mark.parametrize("text", [
    "Zloc(2) * Z/3", "Zloc(3) * Z/4 * Zloc(2)", "Z/4 * Z/3", "Z/2 * Z/2 * Z/2 * Z/2",
    "Z/6 * Zloc(5) * Z/4", "GF(4) * Z/2[x]/(x^2+x) * Zloc(3)",
    " * ".join(["Zloc(2)"] * 5),
])
def test_product_idempotents_come_out_in_canonical_order(text):
    # A product lists its idempotents in the order of itertools.product
    # over its factors' sorted lists, with no sort of its own.
    found = list(idempotents(parse_ring(text)))
    assert found == canonical_sorted(found)
