"""The four workloads, one per group of modules likely to be optimised.

Each module exposes ``NAME``, ``WARMUP_KIND`` (a light, fixed-cost
request kind, the first of which is the set-up's warm-up request) and
``build(ctx)``, which turns the seeded context into the fixed request list
of one pass.
"""

from __future__ import annotations

import random
from pathlib import Path

from workloads import dyadic_sets, exact_realize, families_net, perc_mc

WORKLOADS = {m.NAME: m for m in (perc_mc, dyadic_sets, exact_realize, families_net)}


class Context:
    """Seeded inputs for one build of a workload's request list."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.out_dir = out_dir
        self._n = 0
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    def interleave(self, requests: list) -> None:
        """Mix the request kinds in an order that is the same for every
        seed, so that allocation history, and with it peak memory and
        collector pauses, does not change with the seed."""
        random.Random(self.workload).shuffle(requests)

    def path(self, name: str) -> str:
        """A fresh artifact path, relative to the checkout root."""
        self._n += 1
        return f"{self.out_dir}/{self._n:03d}-{name}"


def build(workload: str, seed: int, out_dir: str):
    return WORKLOADS[workload].build(Context(workload, seed, out_dir))


def warmup_index(workload: str, requests) -> int:
    kind = WORKLOADS[workload].WARMUP_KIND
    return next(i for i, r in enumerate(requests) if r.kind == kind)
