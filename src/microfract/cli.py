"""Experiment runner: seeds, validation, and CSV/JSON artifact emission.

Every run is fully determined by its config (flags or --config JSON merged
over them); identical configs produce byte-identical artifacts.  Artifacts
start with comment lines recording the package version and the canonical
config.  Exit codes: 0 success, 1 validation, 2 invariant violation,
3 resource limit / net resolution exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import dropwhile

import jsonschema

from . import __version__
from .dyadic import from_json, full_cube, kx_set, pack_bits, to_json, zoom
from .errors import InvariantViolation, OracleError, ResolutionExhausted, ResourceLimitError
from .families import EuclideanNet, family_dim_report, family_member
from .percolation import PercField, RetentionSchedule, hawkes_experiment, sample
from .realize import (TargetSpec, VarphiMap, _k_bounds, build_psi_prefix,
                      realized_density_check)
from .seq import Word, beatty_balanced, factor, periodic

MAX_DEPTH = 26
MAX_TRIALS = 1_000_000
# Longest coded prefix ``realize`` may build, in bits (one Python int each).
# Block n holds at most n + ceil(n^1.5) bits, so 2^21 allows 477 blocks.
MAX_CODED_BITS = 1 << 21
SEED_ENV = "MICROFRACT_SEED"

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["dims", "percolate", "hawkes", "realize", "family", "zoom"]},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "word": {"type": "string"},
        "depth": {"type": "integer", "minimum": 1},
        "levels": {"type": "string"},
        "k": {"type": "string"},
        "beta": {"type": "string"},
        "depths": {"type": "string"},
        "trials": {"type": "integer", "minimum": 1},
        "save_set": {"type": "string"},
        "target": {"type": "string"},
        "branch": {"type": "string"},
        "blocks": {"type": "integer", "minimum": 2},
        "net": {"type": "string"},
        "variant": {"enum": ["box", "packing"]},
        "g_mode": {"enum": ["strict", "linear"]},
        "set": {"type": "string"},
        "in_file": {"type": "string"},
        "m": {"type": "integer", "minimum": 0},
        "u": {"type": "string"},
        "binary": {"type": "boolean"},
    },
}


# JSON Schema counts 2.0 as an integer; the commands need Python ints.
_IntsOnlyValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int))


@lru_cache(maxsize=None)
def _validator():
    """The config validator, checked against the metaschema and built on first
    use only: jsonschema.validate redoes both on every call, which took
    longer than most commands."""
    _IntsOnlyValidator.check_schema(CONFIG_SCHEMA)
    return _IntsOnlyValidator(CONFIG_SCHEMA)


# Largest decimal exponent a number may carry: ``Fraction`` builds 10^e, and
# "1e10000000" alone takes seconds.
MAX_EXPONENT = 1000


def _fraction(s: str) -> Fraction:
    _, e, exp = s.lower().partition("e")
    try:
        too_big = bool(e) and abs(int(exp)) > MAX_EXPONENT
    except ValueError:  # no integer exponent: Fraction reports the literal
        too_big = False
    if too_big:
        raise ValueError(f"exponent of {s!r} is outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _parse_word_spec(spec: str, depth: int) -> Word:
    kind, _, arg = spec.partition(":")
    if kind == "beatty":
        return factor(beatty_balanced(_fraction(arg)), 0, depth)
    if kind == "word":
        return Word.from_string(arg)
    if kind == "periodic":
        return factor(periodic(arg), 0, depth)
    raise ValueError(f"unknown word spec {spec!r} (use beatty:|word:|periodic:)")


def _parse_set_spec(spec: str, depth: int):
    """Returns (k_set or None, ambient d); None means the full cube."""
    kind, _, arg = spec.partition(":")
    if kind == "full":
        return None, int(arg)
    if kind in ("beatty", "word", "periodic"):
        return kx_set(_parse_word_spec(spec, depth)), 1
    raise ValueError(f"unknown set spec {spec!r}")


def _parse_target_spec(spec: str) -> TargetSpec:
    kind, _, arg = spec.partition(":")
    if kind == "finite":
        return TargetSpec.finite_set([_fraction(v) for v in arg.split(",")])
    if kind == "interval":
        ivs = []
        for part in arg.split(","):
            bounds = part.split(":")
            if len(bounds) != 2:
                raise ValueError(f"bad interval {part!r} in {spec!r} (use interval:lo:hi[,lo:hi])")
            ivs.append((_fraction(bounds[0]), _fraction(bounds[1])))
        return TargetSpec.interval_union(ivs)
    raise ValueError(f"unknown target spec {spec!r} (use finite:|interval:)")


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _artifact_header(config: dict) -> str:
    return f"# microfract {__version__}\n# config {_canonical(config)}\n"


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _check_depth(depth: int):
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the limit {MAX_DEPTH}")


def _cmd_dims(config: dict) -> str:
    depth = config["depth"]
    _check_depth(depth)
    word = _parse_word_spec(config["word"], depth)
    if len(word) < depth:
        raise ValueError(f"word supplies {len(word)} bits, need {depth}")
    levels = ([int(x) for x in config["levels"].split(",")]
              if config.get("levels") else list(range(1, depth + 1)))
    from .dims import kx_covering_counts
    series = kx_covering_counts(word.prefix(depth), levels)
    out = config.get("out", "dims.csv")
    _write(out, _artifact_header(config) + series.to_csv())
    ratio = series.entries[-1]
    return f"dims: depth={depth} count={ratio[1]} -> {out}"


def _cmd_percolate(config: dict) -> str:
    depth, trials = config["depth"], config["trials"]
    _check_depth(depth)
    if trials > MAX_TRIALS:
        raise ResourceLimitError(f"trials {trials} exceeds the limit {MAX_TRIALS}")
    beta = _fraction(config["beta"])
    k_set, d = _parse_set_spec(config.get("k", "full:1"), depth)
    field = PercField(config["seed"])
    rep = hawkes_experiment(k_set, beta, [depth], trials, field, d=d,
                            copy_prefix="percolate")
    out = config.get("out", "percolate.csv")
    _write(out, _artifact_header(config) + rep.to_csv())
    if config.get("save_set"):
        smp = sample(RetentionSchedule.constant(beta), field, ("percolate", 0),
                     depth, d=d, k_set=k_set)
        with open(config["save_set"], "wb") as fh:
            fh.write(pack_bits(smp.survivors))
    row = rep.rows[0]
    return f"percolate: depth={depth} survival={row.survival:.4f} -> {out}"


def _cmd_hawkes(config: dict) -> str:
    depths = [int(x) for x in config["depths"].split(",")]
    _check_depth(max(depths))
    trials = config["trials"]
    if trials > MAX_TRIALS:
        raise ResourceLimitError(f"trials {trials} exceeds the limit {MAX_TRIALS}")
    beta = _fraction(config["beta"])
    k_set, d = _parse_set_spec(config.get("k", "full:1"), max(depths))
    rep = hawkes_experiment(k_set, beta, depths, trials, PercField(config["seed"]),
                            d=d)
    out = config.get("out", "hawkes.csv")
    _write(out, _artifact_header(config) + rep.to_csv())
    last = rep.rows[-1]
    return (f"hawkes: depths={depths} survival@{last.depth}={last.survival:.4f} "
            f"monotone={rep.survival_nonincreasing} -> {out}")


def _check_coded_length(blocks: int):
    """Refuses, before any block is built, a prefix whose blocks could hold
    more than MAX_CODED_BITS bits; stops summing once past the limit."""
    total = 0
    for n in range(1, blocks):
        total += n + _k_bounds(n)[1]
        if total > MAX_CODED_BITS:
            raise ResourceLimitError(
                f"{blocks} blocks may code more than {MAX_CODED_BITS} bits")


def _cmd_realize(config: dict) -> str:
    spec = _parse_target_spec(config["target"])
    blocks = config["blocks"]
    _check_coded_length(blocks)
    if config.get("branch"):
        x = Word.from_string(config["branch"])
    else:
        import numpy as np
        rng = np.random.default_rng(config["seed"])
        x = Word.from_bits(rng.integers(0, 2, size=blocks).tolist())
    if len(x) < blocks - 1:
        raise ValueError(f"branch supplies {len(x)} bits, need {blocks - 1}")
    vm = VarphiMap(spec)
    prefix = build_psi_prefix(x, spec, blocks, varphi=vm)
    expected = vm.value(x.prefix(blocks - 1))
    report = realized_density_check(prefix, expected)
    lines = ["block,n,k,phi,density,abs_error,length_fraction"]
    for c in report.blocks:
        lines.append(f"{c.index},{c.n},{c.k},{float(c.phi)!r},{float(c.density)!r},"
                     f"{float(c.error)!r},{float(c.length_fraction)!r}")
    out = config.get("out", "realize.csv")
    _write(out, _artifact_header(config) + "\n".join(lines) + "\n")
    return (f"realize: blocks={blocks} cumulative={float(report.cumulative_density):.4f} "
            f"target={float(report.expected):.4f} -> {out}")


def _cmd_family(config: dict) -> str:
    kind, _, arg = config["net"].partition(":")
    if kind != "grid":
        raise ValueError(f"unknown net spec {config['net']!r} (use grid:<side>)")
    levels = config.get("depth", 1)
    _check_depth(levels)
    net = EuclideanNet.grid_2d(int(arg))
    spec = _parse_target_spec(config["target"])
    branch = config.get("branch") or "0" * levels
    tree = family_member(branch, spec, net, config.get("variant", "box"),
                         levels, g_mode=config.get("g_mode", "strict"))
    report = family_dim_report(tree)
    payload = {
        "version": __version__,
        "config": json.loads(_canonical(config)),
        "prefix": tree.prefix,
        "levels": [
            {"n": lvl.n, "k": lvl.k, "centers": list(lvl.centers)}
            for lvl in tree.levels
        ],
        "report": {
            "cardinalities_exact": report.cardinalities_exact,
            "separations_ok": report.separations_ok,
            "nested": report.nested,
            "origin_anchored": report.origin_anchored,
            "upper_chain_ok": report.upper_chain_ok,
            "count_bound_ok": report.count_bound_ok,
            "local_richness_ok": report.local_richness_ok,
            "g_mode": report.g_mode,
        },
    }
    out = config.get("out", "family.json")
    _write(out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return f"family: levels={levels} m={tree.m} -> {out}"


def _cmd_zoom(config: dict) -> str:
    if config.get("in_file"):
        with open(config["in_file"]) as fh:  # skipping a zoom artifact's header
            base = from_json("".join(dropwhile(lambda line: line.startswith("#"), fh)))
    else:
        spec = config.get("set", "full:1")
        depth = config["depth"]
        _check_depth(depth)
        k_set, d = _parse_set_spec(spec, depth)
        base = k_set if k_set is not None else full_cube(d, depth)
    u = [_fraction(part) for part in config.get("u", "0").split(",")]
    if len(u) == 1:
        u = u * base.d
    view = zoom(base, config["m"], tuple(u))
    out = config.get("out", "zoom.json")
    if config.get("binary"):
        with open(out, "wb") as fh:
            fh.write(pack_bits(view))
    else:
        _write(out, _artifact_header(config) + to_json(view) + "\n")
    return f"zoom: m={config['m']} leaves={view.count(view.depth)} -> {out}"


_COMMANDS = {
    "dims": _cmd_dims,
    "percolate": _cmd_percolate,
    "hawkes": _cmd_hawkes,
    "realize": _cmd_realize,
    "family": _cmd_family,
    "zoom": _cmd_zoom,
}

_REQUIRED = {
    "dims": ["word", "depth"],
    "percolate": ["beta", "depth", "trials"],
    "hawkes": ["beta", "depths", "trials"],
    "realize": ["target", "blocks"],
    "family": ["net", "target"],
    "zoom": ["m"],
}


def run(config: dict) -> str:
    """Validate a config and dispatch; returns the one-line summary."""
    e = jsonschema.exceptions.best_match(_validator().iter_errors(config))  # as validate picks
    if e is not None:
        raise ValueError(f"config {e.json_path}: {e.message}")
    command = config["command"]
    missing = [k for k in _REQUIRED[command] if k not in config]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    config.setdefault("seed", int(os.environ.get(SEED_ENV, "0")))
    return _COMMANDS[command](config)


class _UsageError(Exception):
    """A command line argparse rejects: a bad flag value or choice."""


class _Parser(argparse.ArgumentParser):
    # argparse would print the whole usage and exit 2, the code for invariant
    # violations; main prints one line and returns 1 instead.
    def error(self, message):
        raise _UsageError(" ".join(message.split()))


@lru_cache(maxsize=None)  # built on first use, then reused
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="microfract", description="dyadic fractal experiments")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--print-schema", action="store_true",
                   help="print the config JSON schema and exit")
    sub = p.add_subparsers(dest="command")

    def add(name, *flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (merged under flags)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
        return sp

    add("dims",
        ("--word", {"help": "beatty:p/q | word:bits | periodic:bits"}),
        ("--depth", {"type": int}),
        ("--levels", {"help": "comma-separated levels"}))
    add("percolate",
        ("--k", {"help": "full:d | beatty:p/q | word:bits"}),
        ("--beta", {}),
        ("--depth", {"type": int}),
        ("--trials", {"type": int}),
        ("--save-set", {"dest": "save_set"}))
    add("hawkes",
        ("--k", {}),
        ("--beta", {}),
        ("--depths", {"help": "comma-separated depths"}),
        ("--trials", {"type": int}))
    add("realize",
        ("--target", {"help": "finite:v1,v2 | interval:lo:hi[,lo:hi]"}),
        ("--branch", {}),
        ("--blocks", {"type": int}))
    add("family",
        ("--net", {"help": "grid:side"}),
        ("--target", {}),
        ("--variant", {"choices": ["box", "packing"]}),
        ("--depth", {"type": int}),
        ("--branch", {}),
        ("--g-mode", {"dest": "g_mode", "choices": ["strict", "linear"]}))
    add("zoom",
        ("--set", {"dest": "set"}),
        ("--in-file", {"dest": "in_file"}),
        ("--depth", {"type": int}),
        ("--m", {"type": int}),
        ("--u", {}),
        ("--binary", {"action": "store_true"}))
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "print_schema", False):
        print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
        return 0
    if not args.command:
        print("error: no command given", file=sys.stderr)
        return 1
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:  # bad JSON, UTF-8 or nesting
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 1
        if not isinstance(loaded, dict):
            print("error: a config file holds one JSON object", file=sys.stderr)
            return 1
        config.update(loaded)
    for key, val in vars(args).items():
        if key in ("config", "print_schema") or val is None or val is False:
            continue
        config[key] = val
    try:
        summary = run(config)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (InvariantViolation, OracleError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ResolutionExhausted) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
