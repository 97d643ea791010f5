"""Workload table and seeded input generation for the chainfft benchmark.

Stdlib only: the orchestrating parent imports this without importing chainfft.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction(10, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    chain: str  # CLI chain name: "tl", "sn" or "brauer"
    n: int
    inputs: str  # "dense" (full support) or "sparse" (support 1..8, deltas included)
    fwd: str  # the timed forward op: "sov" in process, or "cli" (a cold CLI process)
    check: str  # the op that checks each forward result: "naive" or "inverse"
    setups: int  # fresh-interpreter set-ups per untraced run; setup_s is their median
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tl8-dense", "tl", 8, "dense", "sov", "naive", 3,
            "TL n=8 dense elements through SOV and naive: loads SOV routing, the arithmetic "
            "kernel and rho_entries; SOV is slower than naive despite 47x fewer mults",
        ),
        Workload(
            "sn5-roundtrip-sparse", "sn", 5, "sparse", "sov", "inverse", 3,
            "S_5 sparse elements (support 1-8, deltas) through fft_sov then inverse_ft: "
            "set-up is gram_dual/invert; must not move when dense forward transforms speed up",
        ),
        Workload(
            "cli-tl8", "tl", 8, "dense", "cli", "naive", 7,
            "cold chainfft fft --chain tl -n 8 processes: the only workload for the cli "
            "layer and cold token_columns fills; precomputation paid per process shows here",
        ),
        Workload(
            "brauer5-cold", "brauer", 5, "dense", "sov", "naive", 1,
            "Brauer n=5 cold build then dense elements through SOV and naive: the only "
            "workload where the build (local_blocks, intersect_kernel) dominates; three-token routing",
        ),
    )
}


def element_tables(keys, inputs: str, seed: str):
    """Endless seeded stream of coefficient tables {key: Fraction}.

    `seed` is "<run seed>.<process>", so each loop process of a run draws its
    own stream.  Uses its own generator over the sorted basis keys, so a
    library change cannot change the inputs.  Dense tables give every key a
    nonzero value in [-9, 9].  Sparse tables cycle through supports 1..8, so every run has the
    same mix of sizes and the seed picks only keys and values (this keeps the
    median latency from depending on which sizes a seed happens to draw); a
    support of 1 is a delta.
    """
    keys = sorted(keys)
    rng = random.Random(seed)
    nonzero = [v for v in range(-9, 10) if v]
    for i in itertools.count():
        if inputs == "dense":
            yield {k: Fraction(rng.choice(nonzero)) for k in keys}
        else:
            support = 1 + i % min(8, len(keys))
            chosen = rng.sample(keys, support)
            if support == 1:
                yield {chosen[0]: Fraction(1)}
            else:
                yield {k: Fraction(rng.choice(nonzero)) for k in chosen}
