"""The benchmark's workloads: which CLI questions each one asks.

Every op is a spectop argv.  The workers receive nothing else, so the
program sees only the generated inputs.

* ``session``: one long-lived process answers a stream of questions over
  a pool of small rings, the most-asked ring first.  Ring weight is
  1/rank and question kinds are equally likely, so most questions revisit
  a ring whose spectrum is already cached.  The mix (how often each
  question is asked) is fixed by those weights; the seed fixes the order
  of the stream, and so which question meets each ring cold.  Seeds
  therefore compare like for like: per-question costs span three orders
  of magnitude, and drawing the mix itself at random would move the
  pass time by more than any bound worth setting.
* ``verify-ladder``: all applicable checks on finite rings plus the
  default corpus, one fresh process per op (caches start cold).
* ``families``: infinite products of Zloc(2), whose ideals are symbolic,
  so the cost is closed-family generation and vanishing loci.
"""

from __future__ import annotations

import hashlib
import random

SESSION_QUESTIONS = 1500

# (ring, generator of the ideal asked about by ``flat``), most-asked first.
SESSION_POOL = (
    ("Z/12", "4"),
    ("Zloc(2)", "2"),
    ("GF(4)", "x"),
    ("Z/6", "2"),
    ("Z/2[x]/(x^2+x)", "x"),
    ("Zloc(2) * Z/3", "(2, 0)"),
    ("Z/4", "2"),
    ("EvBits", "{1,3}:0"),
    ("Z/8", "2"),
    ("GF(8)", "x+1"),
    ("Z/10", "5"),
    ("Z/3[x]/(x^2)", "x"),
    ("Zloc(3)", "3"),
    ("Z/9", "3"),
    ("Z/15", "3"),
    ("GF(9)", "x"),
    ("Z/4 * Z/3", "(2, 1)"),
    ("Z/16", "4"),
    ("Z/18", "6"),
    ("Z/20", "4"),
)

CHECKS = (
    "topology-characterization", "closure-operators", "flat-ideal-bijection",
    "support-consistency", "radical-rigidity", "sring-equivalences",
    "crt-decomposition", "chain-conditions", "stabilization-graph",
    "flat-not-projective", "expected-facts",
)

LADDER_RINGS = (
    "Z/30", "GF(16)", "Z/2[x]/(x^4)", "Z/2[x]/(x^4+x)", "Z/4 * Z/3",
    "Z/2 * Z/2 * Z/2 * Z/2",
)


def zloc_power(k: int) -> str:
    return " * ".join(["Zloc(2)"] * k)


FAMILY_RINGS = tuple(zloc_power(k) for k in (4, 5, 6))

WORKLOADS = ("session", "verify-ladder", "families")

# Longest an op may run before it is recorded as "timeout".
SESSION_OP_LIMIT_S = 10.0
HEAVY_OP_LIMIT_S = 60.0


def question_kinds(ring: str, generator: str) -> list[list[list[str]]]:
    """The seven question kinds for one ring, each a list of its variants."""
    return [
        [["spec", "--ring", ring]],
        [["topology", "--ring", ring, "--which", w] for w in ("zariski", "flat", "patch")],
        [["flat", "--ring", ring, "--ideal", generator]],
        [["sring", "--ring", ring]],
        [["chaincond", "--ring", ring, "--X", "min"]],
        [["export-dot", "--ring", ring]],
        [["verify", "--ring", ring, "--theorem", c] for c in CHECKS],
    ]


def session_cells() -> list[tuple[list[str], float]]:
    """Every question the session can ask, with its probability."""
    harmonic = sum(1 / rank for rank in range(1, len(SESSION_POOL) + 1))
    cells = []
    for rank, (ring, generator) in enumerate(SESSION_POOL, start=1):
        kinds = question_kinds(ring, generator)
        for variants in kinds:
            for argv in variants:
                cells.append((argv, (1 / rank) / harmonic / len(kinds) / len(variants)))
    return cells


def _tiebreak(argv: list[str]) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()


def session_mix(n: int = SESSION_QUESTIONS) -> list[list[str]]:
    """The n questions of one pass, by largest-remainder rounding of the weights."""
    cells = session_cells()
    quotas = [(argv, n * p) for argv, p in cells]
    counts = [int(q) for _, q in quotas]
    by_remainder = sorted(range(len(cells)),
                          key=lambda i: (-(quotas[i][1] - counts[i]), _tiebreak(cells[i][0])))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return [argv for (argv, _), c in zip(cells, counts) for _ in range(c)]


def session_stream(seed: int, n: int = SESSION_QUESTIONS) -> list[list[str]]:
    stream = session_mix(n)
    random.Random(seed).shuffle(stream)
    return stream


def ladder_ops() -> list[list[str]]:
    return [["verify", "--ring", r] for r in LADDER_RINGS] + [["corpus"]]


def family_ops() -> list[list[str]]:
    z4, z5, z6 = FAMILY_RINGS
    ops = [["verify", "--ring", z4], ["verify", "--ring", z5]]
    ops += [["topology", "--ring", z5, "--which", w] for w in ("zariski", "flat", "patch")]
    ops += [["topology", "--ring", z6, "--which", w] for w in ("zariski", "flat")]
    return ops


def fixed_ops(workload: str, seed: int) -> list[list[str]]:
    """The ops of one pass of a fresh-process workload, in seeded order."""
    ops = ladder_ops() if workload == "verify-ladder" else family_ops()
    random.Random(seed).shuffle(ops)
    return ops


def setup_rings(workload: str) -> list[str]:
    """The rings whose parsing counts toward the workload's set-up time."""
    if workload == "session":
        return [ring for ring, _ in SESSION_POOL]
    if workload == "verify-ladder":
        return list(LADDER_RINGS)
    return list(FAMILY_RINGS)


def all_ops() -> list[list[str]]:
    """Every op any seed of any workload can issue; the golden set covers these."""
    return [argv for argv, _ in session_cells()] + ladder_ops() + family_ops()
