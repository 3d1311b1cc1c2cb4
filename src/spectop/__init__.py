"""Prime spectra, spectral topologies, and flatness certificates for small
commutative rings."""

from .errors import (
    CorpusError,
    EmptyProduct,
    HypothesisViolated,
    InvalidChain,
    NotFlat,
    NotGenStable,
    NotIrreducible,
    NotPrime,
    NotPrimePower,
    NotZariskiClosed,
    ParseError,
    RingTooLarge,
    SpectopError,
    SpectrumTooLarge,
    UnsupportedForPresentation,
)
from .rings import (
    Bits,
    Element,
    EventuallyConstantBitsRing,
    GaloisFieldRing,
    LocalizedIntegerRing,
    ModularRing,
    PolyQuotientRing,
    ProductRing,
    Ring,
    idempotents,
    product_ring,
)
from .ideals import (
    Ideal,
    annihilator,
    enumerate_ideals,
    finite_support_ideal,
    ideal_from_generators,
    ideal_intersection,
    ideal_sum,
    is_prime_ideal,
    principal_ideal,
    radical,
    saturation_kernel,
    unit_ideal,
    zero_ideal,
)
from .spectrum import (
    FLAT,
    PATCH,
    ZARISKI,
    ClosedFamily,
    SpectrumPoset,
    closed_family,
    enumerate_spectrum,
    flat_point_closure,
    generalization_closure,
    is_stable_generalization,
    is_stable_specialization,
    nonvanishing_locus,
    specialization_closure,
    vanishing_locus,
)
from .flatness import (
    FlatnessCertificate,
    common_multiplier,
    flat_ideal_from_closed_set,
    flat_witness,
    idempotent_generator,
    is_cyclic_flat,
    is_cyclic_projective,
    support_of_ideal,
)
from .sring import (
    ASCENDING,
    DESCENDING,
    ChainConditionTrace,
    MultiplicativeChain,
    SRingCertificate,
    StabilizationReport,
    chain_condition_check,
    check_chain_stabilization,
    dual_chain,
    growing_indicator_chain,
    prefix_indicator,
    sring_certificate,
    stabilization_graph_check,
)
from .harness import (
    DEFAULT_CORPUS,
    CorpusEntry,
    CorpusReport,
    TheoremReport,
    applicable_checks,
    run_check,
    run_corpus,
)
from .dsl import parse_element, parse_generators, parse_ideal_label, parse_ring

__version__ = "0.1.0"
