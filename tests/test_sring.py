"""Chains, stabilization, S-ring certificates and chain conditions."""

from __future__ import annotations

import itertools
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
    HypothesisViolated,
    InvalidChain,
    MultiplicativeChain,
    chain_condition_check,
    check_chain_stabilization,
    enumerate_spectrum,
    growing_indicator_chain,
    parse_ring,
    sring_certificate,
    run_check,
    stabilization_graph_check,
)
from spectop.sring import StabilizationReport

from conftest import label_mask


def test_chain_validation():
    z6 = parse_ring("Z/6")
    MultiplicativeChain.build(z6, [2, 4, 4])
    with pytest.raises(InvalidChain) as err:
        MultiplicativeChain.build(z6, [2, 5])  # 2*5 = 4 != 2
    assert err.value.index == 1
    with pytest.raises(InvalidChain) as err:
        MultiplicativeChain.build(z6, [4, 4, 2])  # 4*2 = 2 != 4
    assert err.value.index == 2
    with pytest.raises(ValueError):
        MultiplicativeChain.build(z6, [])


def test_stabilization_frozen_examples():
    z6 = parse_ring("Z/6")
    rep = check_chain_stabilization(MultiplicativeChain.build(z6, [2, 4, 4, 4]))
    assert rep.stabilized and rep.index == 2 and rep.value == z6.element(4)
    assert rep.verify()

    const = check_chain_stabilization(MultiplicativeChain.build(z6, [3, 3, 3]))
    assert const.stabilized and const.index == 1 and const.value == z6.element(3)

    # a chain that moves on to a final idempotent has not shown constancy
    moved = check_chain_stabilization(MultiplicativeChain.build(z6, [2, 4]))
    assert not moved.stabilized
    assert moved.last_index == 2
    assert moved.last_distinct == (z6.element(2), z6.element(4))
    assert moved.verify()


def test_stabilization_needs_idempotent_witness():
    z12 = parse_ring("Z/12")
    # 2 = 2*7 mod 12 makes [2, 7] valid, but 7*7 = 1 so 7 is not idempotent
    rep = check_chain_stabilization(MultiplicativeChain.build(z12, [2, 7]))
    assert not rep.stabilized
    assert rep.last_distinct == (z12.element(2), z12.element(7))


def _stabilization_by_rescanning(chain):
    """The former check: at every k, test e*e == e and rescan the suffix."""
    ts = chain.terms
    for k in range(1, len(ts) + 1):
        e = ts[k - 1]
        if not (e * e == e and all(t == e for t in ts[k - 1:])):
            continue
        if k == 1 or k < len(ts):
            return StabilizationReport(chain, True, index=k, value=e)
        break
    last = ts[-1]
    prior = next((t for t in reversed(ts) if t != last), None)
    distinct = None if prior is None else (prior, last)
    return StabilizationReport(chain, False, last_index=len(ts), last_distinct=distinct)


def test_backward_scan_matches_the_rescanning_loop():
    compared = 0
    for text in ("Z/6", "Z/4", "Z/2 * Z/2"):
        ring = parse_ring(text)
        for n in range(1, 6):
            for terms in itertools.product(ring.elements(), repeat=n):
                # Built without validation, so every sequence is compared,
                # not only those that keep the chain discipline.
                chain = MultiplicativeChain(ring, terms)
                assert check_chain_stabilization(chain) == _stabilization_by_rescanning(chain)
                compared += 1
    assert compared == 12_058


def _complement_chain(chain):
    """The terms 1 - t, unvalidated: they keep g_(n+1) = g_n*g_(n+1), not
    the ascending discipline."""
    return MultiplicativeChain(chain.ring, tuple(chain.ring.one - t for t in chain.terms))


def test_dual_chain_conjugates_stabilization():
    z12 = parse_ring("Z/12")
    chain = MultiplicativeChain.build(z12, [4, 4, 4])
    rep = check_chain_stabilization(chain)
    drep = check_chain_stabilization(_complement_chain(chain))
    assert rep.stabilized and drep.stabilized
    assert drep.value == z12.one - rep.value


def _valid_ascending_chain(ring, draw_index, length):
    """Build a valid ascending chain backwards from a seed element."""
    elements = list(ring.elements())
    terms = [elements[draw_index(len(elements))]]
    for _ in range(length - 1):
        fixed = [f for f in elements if f == f * terms[0]]
        terms.insert(0, fixed[draw_index(len(fixed))])
    return MultiplicativeChain(ring, tuple(terms))


@given(st.data())
def test_random_valid_chains_self_certify(data):
    ring = parse_ring(data.draw(st.sampled_from(["Z/6", "Z/12", "Z/4"])))
    length = data.draw(st.integers(min_value=1, max_value=6))
    chain = _valid_ascending_chain(
        ring, lambda n: data.draw(st.integers(min_value=0, max_value=n - 1)), length)
    chain._validate()
    rep = check_chain_stabilization(chain)
    assert rep.verify()
    drep = check_chain_stabilization(_complement_chain(chain))
    assert drep.stabilized == rep.stabilized
    if rep.stabilized:
        assert drep.value == ring.one - rep.value


def test_prefix_indicator_construction():
    bits = parse_ring("EvBits")
    x1 = bits.indicator(range(1, 2))
    assert x1.value == (frozenset({1}), 0)
    x3, x4 = bits.indicator(range(1, 4)), bits.indicator(range(1, 5))
    assert x3 * x4 == x3
    assert x3 * x3 == x3
    assert x3 != x4


def test_growing_indicator_chain_never_stabilizes():
    bits = parse_ring("EvBits")
    for budget in (2, 10, 100):
        rep = check_chain_stabilization(growing_indicator_chain(bits, budget))
        assert not rep.stabilized
        assert rep.last_index == budget
        a, b = rep.last_distinct
        assert a == bits.indicator(range(1, budget))
        assert b == bits.indicator(range(1, budget + 1))
        assert rep.verify()
    for budget in (0, -1):
        with pytest.raises(ValueError, match="a chain has at least one term"):
            growing_indicator_chain(bits, budget)


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
    sp = enumerate_spectrum(corpus_ring)
    assert sets == sorted(sets, key=sp.mask_key)
    for s, e in cert.double_closed_matches:
        assert e * e == e and 0 <= s <= sp.full


def test_sring_certificate_examples():
    cert = sring_certificate(parse_ring("Z/12"))
    # The points of Z/12 are (2) and (3), bits 0 and 1.
    assert [(s, e.value) for s, e in cert.double_closed_matches] == [
        (0b00, 1), (0b01, 4), (0b10, 9), (0b11, 0)]
    quad = sring_certificate(parse_ring("Z/2[x]/(x^2+x)"))
    assert len(quad.double_closed_matches) == 4
    assert sorted(str(e) for _, e in quad.double_closed_matches) == ["0", "1", "x", "x+1"]

    local = sring_certificate(parse_ring("Zloc(2)"))
    assert len(local.double_closed_matches) == 2  # only empty set and spectrum


def test_sring_certificate_fails_when_idempotents_share_a_vanishing_set(monkeypatch):
    import spectop.sring as sring
    real = sring.idempotents
    monkeypatch.setattr(sring, "idempotents", lambda ring: real(ring) + (ring.element(3),))
    cert = sring_certificate(parse_ring("Z/6"))
    assert not cert.passed and cert.double_closed_ok
    assert cert.failures == ("idempotents 3 and 3 share a vanishing set",)


def test_chain_condition_check_frozen_examples():
    z12 = parse_ring("Z/12")
    sp = enumerate_spectrum(z12)
    assert sp.minimal == sp.maximal == sp.full == 0b11
    trace = chain_condition_check(z12, sp.minimal)
    assert trace.x_points == 0b11
    assert trace.meet_ideal.label() == "(6)"
    assert trace.conclusion.passed
    assert trace.family == (0b00, 0b01, 0b10, 0b11)

    tmax = chain_condition_check(z12, sp.maximal)
    assert tmax.meet_ideal.label() == "(6)"

    z6 = parse_ring("Z/6")
    sp6 = enumerate_spectrum(z6)
    t6 = chain_condition_check(z6, sp6.minimal)
    assert t6.meet_ideal.is_zero()
    assert t6.conclusion.passed


def test_covering_test_work_does_not_depend_on_hash_order():
    # Scanning X in hash order would stop the covering test at a different
    # member, and so at a different call count, per seed.
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
        chain_condition_check(ring, enumerate_spectrum(ring).maximal)
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


def test_chaincond_refuses_a_large_spectrum_before_building_its_family():
    # The family {X & V(f)} of Zloc(2)^k has 3^k members; the 40-point
    # spectrum of Zloc(2)^20 is refused before any is built.
    ring = " * ".join(["Zloc(2)"] * 20)
    env = {**os.environ, "PYTHONPATH": str(Path(spectop.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "spectop.cli", "chaincond", "--ring", ring,
                           "--X", "min"], env=env, timeout=10, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: 40 spectrum points exceed the bound 16\n"


def test_chain_condition_hypothesis_violation():
    mixed = parse_ring("Zloc(2) * Z/3")
    sp = enumerate_spectrum(mixed)
    with pytest.raises(HypothesisViolated) as err:
        chain_condition_check(mixed, label_mask(mixed, "(0) x (1)"))
    assert err.value.witness.label() == "(1) x (0)"
    # the full minimal set covers everything
    assert sp.minimal == label_mask(mixed, "(0) x (1)", "(1) x (0)")
    trace = chain_condition_check(mixed, sp.minimal)
    assert trace.conclusion.passed


@pytest.mark.parametrize("mask", [-1, 1 << 2, 1 << 70])
def test_chain_condition_check_fails_on_a_mask_past_the_spectrum(mask):
    # Z/12 has two points, so a point set is a mask of two bits.
    with pytest.raises(ValueError, match="is not a set of the 2 points of Z/12"):
        chain_condition_check(parse_ring("Z/12"), mask)


def test_sring_certificate_fails_when_a_closed_stable_set_is_not_open(monkeypatch):
    # With every set counted as generalization-stable, the Zariski closed
    # point (2) of Zloc(2), which is not open, is reported.
    import spectop.spectrum as spectrum
    monkeypatch.setattr(spectrum.SpectrumPoset, "down_table",
                        property(lambda sp: (1 << (1 << len(sp))) - 1))
    cert = sring_certificate(parse_ring("Zloc(2)"))
    assert not cert.passed and not cert.closed_genstable_open
    assert cert.failures == (
        "zariski closed generalization-stable set ['(2)'] is not zariski open",)


def test_a_stabilization_report_fails_to_verify_with_a_wrong_last_index():
    z6 = parse_ring("Z/6")
    chain = MultiplicativeChain.build(z6, [2, 4])
    report = check_chain_stabilization(chain)
    assert report.verify()
    assert not StabilizationReport(chain, False, last_index=1,
                                   last_distinct=report.last_distinct).verify()
