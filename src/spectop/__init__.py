"""Prime spectra, spectral topologies, and flatness certificates for small
commutative rings.  ``flat_ideal_from_closed_mask`` builds the flat kernel
of a Zariski closed, generalization stable set E of points, given as a
mask over ``enumerate_spectrum``: an ideal J with V(J) = E and R/J flat.

Every public name below loads its module on first use (PEP 562), so a
program pays only for the modules it touches: ``spectop.parse_ring``
loads ``dsl`` with ``errors`` and ``rings``, and leaves ``ideals``,
``spectrum``, ``flatness``, ``sring`` and ``harness`` unloaded.
``from spectop import X`` and ``from spectop import *`` work as for any
package, and importing ``spectop.cli`` loads every module.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": """CorpusError EmptyProduct HypothesisViolated InvalidChain NotGenStable
        NotPrime NotPrimePower NotZariskiClosed ParseError RingTooLarge SpectopError
        SpectrumTooLarge UnsupportedForPresentation""",
    "rings": """Element EventuallyConstantBitsRing GaloisFieldRing LocalizedIntegerRing ModularRing
        PolyQuotientRing ProductRing Ring idempotents product_ring""",
    "ideals": """Ideal annihilator enumerate_ideals ideal_from_generators
        ideal_intersection ideal_sum principal_ideal radical saturation_kernel
        unit_ideal zero_ideal""",
    "spectrum": """FLAT PATCH ZARISKI ClosedFamily SpectrumPoset closed_family
        enumerate_spectrum vanishing_locus""",
    "flatness": """FlatnessCertificate flat_ideal_from_closed_mask is_cyclic_flat
        is_cyclic_projective support_of_ideal""",
    "sring": """ChainConditionTrace MultiplicativeChain SRingCertificate
        StabilizationReport chain_condition_check check_chain_stabilization
        growing_indicator_chain sring_certificate stabilization_graph_check""",
    "harness": """DEFAULT_CORPUS CorpusEntry CorpusReport TheoremReport applicable_checks
        run_check run_corpus""",
    "dsl": "parse_element parse_generators parse_ideal_label parse_ring",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# The modules themselves are public too, as they were when this package
# imported all of them.
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
