"""Helpers shared by the workloads: CLI requests, artifact checks, canonical
bytes for digests, and the branching-process survival interval."""

from __future__ import annotations

import contextlib
import io
import json
import os
from math import sqrt
from pathlib import Path

from microfract import __version__, cli
from microfract.percolation import gw_extinction

from harness import CheckFailed, Request

# Width of the survival interval in standard errors.  At 5 SE a correct
# kernel trips the check about once in 1.7 million requests.
SURVIVAL_Z = 5.0


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def canon(obj) -> bytes:
    """Canonical bytes of a JSON-able value (Fractions as strings)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


def sorted_leaves(s) -> list:
    return sorted(map(list, s.leaves))


def argv_of(config: dict) -> list[str]:
    argv = [config["command"]]
    for key, val in config.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        argv += [flag] if val is True else [flag, str(val)]
    return argv


def cli_request(kind: str, config: dict, artifacts: list[str],
                check_body) -> Request:
    """A request that runs ``microfract <argv>`` in-process.

    ``config`` must hold the seed and every output path, so the config the
    CLI records is fully determined by the request.  ``check_body`` gets the
    artifact bodies (header stripped) and returns canonical bytes.
    """
    argv = argv_of(config)

    def run(tr):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span("cli.main"):
                code = cli.main(argv)
        tr.count("cli.artifact_bytes", sum(os.path.getsize(p) for p in artifacts))
        return code, sink.getvalue()

    def check(out):
        code, said = out
        require(code == 0, f"exit code {code}: {said.strip()}")
        bodies = [Path(p).read_bytes() for p in artifacts]
        return check_body(config, bodies)

    return Request(kind, tuple(argv), run, check)


def strip_header(config: dict, data: bytes) -> bytes:
    """Verify the two comment lines every text artifact starts with and
    return the rest."""
    lines = data.split(b"\n", 2)
    require(len(lines) == 3, "artifact shorter than its header")
    require(lines[0] == f"# microfract {__version__}".encode(), "bad version line")
    require(lines[1].startswith(b"# config "), "missing config line")
    require(json.loads(lines[1][len(b"# config "):]) == config,
            "recorded config differs from the request")
    return lines[2]


def parse_csv(body: bytes) -> list[dict]:
    head, *rows = body.decode().strip().split("\n")
    names = head.split(",")
    out = []
    for row in rows:
        cells = row.split(",")
        require(len(cells) == len(names), f"ragged CSV row {row!r}")
        out.append(dict(zip(names, cells)))
    return out


def check_survival_interval(frac: float, trials: int, beta, d: int, depth: int):
    """Survival of the full cube to ``depth`` against the branching-process
    oracle: Binomial(2^d, 2^-beta) offspring.  Finite-depth survival lies
    between the limit ``1 - gw_extinction`` and the exact depth-``depth``
    value, so the interval runs from one to the other, widened by
    SURVIVAL_Z standard errors."""
    p, children = 2.0 ** -float(beta), 1 << d
    limit = 1.0 - gw_extinction(p, children)
    q = 0.0
    for _ in range(depth):
        q = (1.0 - p + p * q) ** children
    at_depth = 1.0 - q
    require(at_depth >= limit - 1e-12, "finite-depth survival below the limit")
    se = sqrt(max(at_depth * (1.0 - at_depth), 1.0 / trials) / trials)
    require(limit - SURVIVAL_Z * se <= frac <= at_depth + SURVIVAL_Z * se,
            f"survival {frac} at depth {depth} outside "
            f"[{limit:.4f}, {at_depth:.4f}] +- {SURVIVAL_Z} SE")
