"""Chains, stabilization, S-ring certificates and chain conditions."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import spectop
from spectop import (
    ASCENDING,
    DESCENDING,
    HypothesisViolated,
    InvalidChain,
    MultiplicativeChain,
    chain_condition_check,
    check_chain_stabilization,
    dual_chain,
    enumerate_spectrum,
    growing_indicator_chain,
    parse_ring,
    prefix_indicator,
    sring_certificate,
    run_check,
    stabilization_graph_check,
)


def test_chain_validation():
    z6 = parse_ring("Z/6")
    MultiplicativeChain.build(z6, ASCENDING, [2, 4, 4])
    with pytest.raises(InvalidChain) as err:
        MultiplicativeChain.build(z6, ASCENDING, [2, 5])  # 2*5 = 4 != 2
    assert err.value.index == 1
    with pytest.raises(InvalidChain):
        MultiplicativeChain.build(z6, DESCENDING, [2, 4])  # 4 != 2*4
    MultiplicativeChain.build(z6, DESCENDING, [5, 3, 3])
    with pytest.raises(ValueError):
        MultiplicativeChain.build(z6, ASCENDING, [])
    with pytest.raises(ValueError):
        MultiplicativeChain.build(z6, "sideways", [1])


def test_stabilization_frozen_examples():
    z6 = parse_ring("Z/6")
    rep = check_chain_stabilization(MultiplicativeChain.build(z6, ASCENDING, [2, 4, 4, 4]))
    assert rep.stabilized and rep.index == 2 and rep.value == z6.element(4)
    assert rep.verify()

    const = check_chain_stabilization(MultiplicativeChain.build(z6, ASCENDING, [3, 3, 3]))
    assert const.stabilized and const.index == 1 and const.value == z6.element(3)

    # a chain that moves on to a final idempotent has not shown constancy
    moved = check_chain_stabilization(MultiplicativeChain.build(z6, ASCENDING, [2, 4]))
    assert not moved.stabilized
    assert moved.last_index == 2
    assert moved.last_distinct == (z6.element(2), z6.element(4))
    assert moved.verify()


def test_stabilization_needs_idempotent_witness():
    z12 = parse_ring("Z/12")
    # 2 = 2*7 mod 12 makes [2, 7] valid, but 7*7 = 1 so 7 is not idempotent
    rep = check_chain_stabilization(MultiplicativeChain.build(z12, ASCENDING, [2, 7]))
    assert not rep.stabilized
    assert rep.last_distinct == (z12.element(2), z12.element(7))


def test_dual_chain_frozen_example():
    z6 = parse_ring("Z/6")
    chain = MultiplicativeChain.build(z6, ASCENDING, [2, 4, 4])
    dual = dual_chain(chain)
    assert dual.mode == DESCENDING
    assert [t.value for t in dual.terms] == [5, 3, 3]
    assert dual_chain(dual) == chain


def test_dual_chain_conjugates_stabilization():
    z12 = parse_ring("Z/12")
    chain = MultiplicativeChain.build(z12, ASCENDING, [4, 4, 4])
    rep = check_chain_stabilization(chain)
    drep = check_chain_stabilization(dual_chain(chain))
    assert rep.stabilized and drep.stabilized
    assert drep.value == z12.one - rep.value


def _valid_ascending_chain(ring, draw_index, length):
    """Build a valid ascending chain backwards from a seed element."""
    elements = list(ring.elements())
    terms = [elements[draw_index(len(elements))]]
    for _ in range(length - 1):
        fixed = [f for f in elements if f == f * terms[0]]
        terms.insert(0, fixed[draw_index(len(fixed))])
    return MultiplicativeChain(ring, ASCENDING, tuple(terms))


@given(st.data())
def test_random_valid_chains_self_certify(data):
    ring = parse_ring(data.draw(st.sampled_from(["Z/6", "Z/12", "Z/4"])))
    length = data.draw(st.integers(min_value=1, max_value=6))
    chain = _valid_ascending_chain(
        ring, lambda n: data.draw(st.integers(min_value=0, max_value=n - 1)), length)
    chain._validate()
    rep = check_chain_stabilization(chain)
    assert rep.verify()
    dual = dual_chain(chain)
    assert dual_chain(dual) == chain
    drep = check_chain_stabilization(dual)
    assert drep.stabilized == rep.stabilized
    if rep.stabilized:
        assert drep.value == ring.one - rep.value


def test_prefix_indicator_construction():
    bits = parse_ring("EvBits")
    x1 = prefix_indicator(bits, 1)
    assert x1.value.flips == frozenset({1}) and x1.value.tail == 0
    x3, x4 = prefix_indicator(bits, 3), prefix_indicator(bits, 4)
    assert x3 * x4 == x3
    assert x3 * x3 == x3
    assert x3 != x4
    with pytest.raises(ValueError):
        prefix_indicator(bits, 0)


def test_growing_indicator_chain_never_stabilizes():
    bits = parse_ring("EvBits")
    for budget in (2, 10, 100):
        rep = check_chain_stabilization(growing_indicator_chain(bits, budget))
        assert not rep.stabilized
        assert rep.last_index == budget
        a, b = rep.last_distinct
        assert a == prefix_indicator(bits, budget - 1)
        assert b == prefix_indicator(bits, budget)
        assert rep.verify()


def test_stabilization_graph_no_nontrivial_cycles(finite_ring):
    ok, cycle = stabilization_graph_check(finite_ring)
    assert ok and cycle is None


class _TableRing:
    """A finite stand-in for a ring whose elements multiply by a rule on
    their names; only what the stabilization graph check reads, its mul
    table included."""

    is_finite = True

    def __init__(self, names, product):
        self.items = {name: _TableElement(name, self) for name in names}
        self.product = product
        order = list(names)
        self.index_kernel = SimpleNamespace(
            elements=self.elements(),
            mul=[[order.index(product(x, y)) for y in order] for x in order])

    def elements(self):
        return tuple(self.items.values())

    def describe(self):
        return "table ring"


class _TableElement:
    def __init__(self, name, ring):
        self.name, self.ring = name, ring

    def __mul__(self, other):
        return self.ring.items[self.ring.product(self.name, other.name)]

    def __str__(self):
        return self.name


_NEXT = {"a": "b", "b": "c", "c": "a"}


@pytest.mark.parametrize("product", [
    lambda x, y: x,                                  # left-zero semigroup
    lambda x, y: x if y == _NEXT[x] else y,          # only a -> b -> c -> a
], ids=["left-zero", "one-directed-cycle"])
def test_stabilization_graph_reports_a_closed_path(product):
    fake = _TableRing("abc", product)
    ok, cycle = stabilization_graph_check(fake)
    assert not ok
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    assert all(f == f * g and f != g for f, g in zip(cycle, cycle[1:]))
    report = run_check("stabilization-graph", fake)
    assert report.verdict == "fail"
    assert report.counterexample == {"cycle": [str(e) for e in cycle]}


def test_sring_certificates_pass(corpus_ring):
    cert = sring_certificate(corpus_ring)
    assert cert.passed, cert.failures
    # the correspondence is a bijection onto the double-closed family
    sets = [s for s, _ in cert.double_closed_matches]
    assert len(sets) == len(set(sets))
    for s, e in cert.double_closed_matches:
        assert e * e == e


def test_sring_certificate_examples():
    cert = sring_certificate(parse_ring("Z/12"))
    by_idem = {e.value: frozenset(p.label() for p in s)
               for s, e in cert.double_closed_matches}
    assert by_idem == {
        1: frozenset(),
        4: frozenset({"(2)"}),
        9: frozenset({"(3)"}),
        0: frozenset({"(2)", "(3)"}),
    }
    quad = sring_certificate(parse_ring("Z/2[x]/(x^2+x)"))
    assert len(quad.double_closed_matches) == 4
    assert sorted(str(e) for _, e in quad.double_closed_matches) == ["0", "1", "x", "x+1"]

    local = sring_certificate(parse_ring("Zloc(2)"))
    assert len(local.double_closed_matches) == 2  # only empty set and spectrum


def test_chain_condition_check_frozen_examples():
    z12 = parse_ring("Z/12")
    sp = enumerate_spectrum(z12)
    trace = chain_condition_check(z12, sp.minimal_points())
    assert trace.meet_ideal.label() == "(6)"
    assert trace.conclusion.passed
    assert len(trace.family) == 4

    tmax = chain_condition_check(z12, sp.maximal_points())
    assert tmax.meet_ideal.label() == "(6)"

    z6 = parse_ring("Z/6")
    sp6 = enumerate_spectrum(z6)
    t6 = chain_condition_check(z6, sp6.minimal_points())
    assert t6.meet_ideal.is_zero()
    assert t6.conclusion.passed


def test_covering_test_work_does_not_depend_on_hash_order():
    # X is a frozenset; scanning it in hash order would stop the covering
    # test at a different member, and so at a different call count, per seed.
    code = textwrap.dedent("""
        from spectop import enumerate_spectrum, ideals, parse_ring
        from spectop.sring import chain_condition_check
        calls = 0

        def counted(method):
            def wrapper(*args, **kwargs):
                global calls
                calls += 1
                return method(*args, **kwargs)
            return wrapper

        pending = [ideals.Ideal]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "issubset" in vars(cls):
                cls.issubset = counted(vars(cls)["issubset"])
        ring = parse_ring("Zloc(2) * Z/3")
        chain_condition_check(ring, enumerate_spectrum(ring).maximal_points())
        print(calls)
    """)
    src = str(Path(spectop.__file__).resolve().parents[1])
    counts = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True, check=True)
        counts.append(int(done.stdout))
    assert counts[0] == counts[1] > 0


def test_chain_condition_hypothesis_violation():
    mixed = parse_ring("Zloc(2) * Z/3")
    sp = enumerate_spectrum(mixed)
    pts = {p.label(): p for p in sp.points}
    with pytest.raises(HypothesisViolated) as err:
        chain_condition_check(mixed, {pts["(0) x (1)"]})
    assert err.value.witness.label() == "(1) x (0)"
    # the full minimal set covers everything
    trace = chain_condition_check(mixed, sp.minimal_points())
    assert trace.conclusion.passed


def test_chain_condition_sections():
    z12 = parse_ring("Z/12")
    sp = enumerate_spectrum(z12)
    chain = MultiplicativeChain.build(z12, ASCENDING, [4, 4, 4])
    trace = chain_condition_check(z12, sp.as_set(), chain=chain)
    assert trace.sections is not None
    for e_n, f_n in trace.sections:
        assert e_n | f_n <= sp.as_set()
    # E_n = X & V(4) = {(2)}, F_n = X & V(-3) = X & V(9)... = {(3)}
    labels = [(sorted(p.label() for p in e), sorted(p.label() for p in f))
              for e, f in trace.sections]
    assert labels == [(["(2)"], ["(3)"])] * 3
    with pytest.raises(ValueError):
        chain_condition_check(
            z12, sp.as_set(),
            chain=MultiplicativeChain.build(z12, DESCENDING, [9, 9]))
