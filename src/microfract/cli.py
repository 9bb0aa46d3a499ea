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
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from itertools import dropwhile

import numpy as np

from . import __version__
from .dims import kx_covering_counts
from .dyadic import from_json, full_cube, kx_set, pack_bits, to_json, zoom
from .errors import InvariantViolation, OracleError, ResolutionExhausted, ResourceLimitError
from .families import EuclideanNet, family_dim_report, family_member
from .percolation import PercField, RetentionSchedule, hawkes_experiment, sample
from .realize import (TargetSpec, VarphiMap, _k_max, build_psi_prefix,
                      realized_density_check)
from .seq import Word, beatty_balanced, factor, periodic

MAX_DEPTH = 26
MAX_TRIALS = 1_000_000
# Longest coded prefix ``realize`` may build, in bits (one Python int each).
# Block n holds at most n + ceil(n^1.5) bits, so 2^21 allows 477 blocks.
MAX_CODED_BITS = 1 << 21
SEED_ENV = "MICROFRACT_SEED"

# The keys each command reads beside seed and out, as (JSON schema, help, required):
# the flags, CONFIG_SCHEMA and the config checks in run() all read this table.
_STR = {"type": "string"}
_WORD_HELP = "beatty:p/q | word:bits | periodic:bits"
_SET_HELP = f"full:d | {_WORD_HELP} (default full:1)"
_TARGET_HELP = "finite:v1,v2 | interval:lo:hi[,lo:hi]"
_COMMON = {
    "seed": ({"type": "integer", "minimum": 0}, f"default ${SEED_ENV} or 0", False),
    "out": (_STR, "artifact path", False),
}
_OPTIONS = {
    "dims": {
        "word": (_STR, _WORD_HELP, True),
        "depth": ({"type": "integer", "minimum": 1}, "word prefix length", True),
        "levels": (_STR, "comma-separated levels (default 1..depth)", False),
    },
    "percolate": {
        "beta": (_STR, "retention exponent, a fraction", True),
        "depth": ({"type": "integer", "minimum": 1}, "percolation depth", True),
        "trials": ({"type": "integer", "minimum": 1}, "Monte Carlo trials", True),
        "k": (_STR, _SET_HELP, False),
        "save_set": (_STR, "file for one bit-packed sample", False),
    },
    "hawkes": {
        "beta": (_STR, "retention exponent, a fraction", True),
        "depths": (_STR, "comma-separated depths", True),
        "trials": ({"type": "integer", "minimum": 1}, "Monte Carlo trials", True),
        "k": (_STR, _SET_HELP, False),
    },
    "realize": {
        "target": (_STR, _TARGET_HELP, True),
        "blocks": ({"type": "integer", "minimum": 2}, "blocks to build", True),
        "branch": (_STR, "branch bits (default drawn from the seed)", False),
    },
    "family": {
        "net": (_STR, "grid:side", True),
        "target": (_STR, _TARGET_HELP, True),
        "variant": ({"enum": ["box", "packing"]}, None, False),
        "depth": ({"type": "integer", "minimum": 1}, "levels (default 1)", False),
        "branch": (_STR, "branch bits (default all 0)", False),
        "g_mode": ({"enum": ["strict", "linear"]}, None, False),
    },
    "zoom": {
        "m": ({"type": "integer", "minimum": 0}, "zoom exponent", True),
        "set": (_STR, _SET_HELP, False),
        "in_file": (_STR, "JSON set artifact to read instead of set and depth", False),
        "depth": ({"type": "integer", "minimum": 1}, "depth of set", False),
        "u": (_STR, "comma-separated shift (default 0)", False),
        "binary": ({"type": "boolean"}, "write the bit-packed set", False),
    },
}

# One if/then branch per command: a config holds only its command's keys.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command"],
    "properties": {"command": {"enum": list(_OPTIONS)}},
    "allOf": [
        {"if": {"properties": {"command": {"const": name}}, "required": ["command"]},
         "then": {"properties": {"command": {"const": name},
                                 **{k: v[0] for k, v in {**_COMMON, **keys}.items()}},
                  "additionalProperties": False}}
        for name, keys in _OPTIONS.items()],
}
_PY_TYPES = {"string": str, "boolean": bool, "integer": int}  # exact types: 2.0, True fail


def _config_error(config) -> str | None:
    """The error jsonschema gives ``config`` against CONFIG_SCHEMA, as "<JSON path>:
    <message>", or None: errors of the whole object first, then of the keys
    failing their schema the one that sorts last, as jsonschema's best_match picks."""
    if not isinstance(config, dict):
        return f"$: {config!r} is not of type 'object'"
    if "command" not in config:
        return "$: 'command' is a required property"
    command = config["command"]
    if not (isinstance(command, str) and command in _OPTIONS):  # a list is unhashable
        return f"$.command: {command!r} is not one of {list(_OPTIONS)!r}"
    keys = {**_COMMON, **_OPTIONS[command]}
    extra = sorted(set(config) - set(keys) - {"command"}, key=str)
    if extra:
        return (f"$: Additional properties are not allowed ({', '.join(map(repr, extra))} "
                f"{'was' if len(extra) == 1 else 'were'} unexpected)")
    for key in sorted(set(config) - {"command"}, reverse=True):
        schema, value = keys[key][0], config[key]
        kind = schema.get("type")
        if kind and type(value) is not _PY_TYPES[kind]:
            return f"$.{key}: {value!r} is not of type {kind!r}"
        if "enum" in schema and value not in schema["enum"]:
            return f"$.{key}: {value!r} is not one of {schema['enum']!r}"
        if "minimum" in schema and value < schema["minimum"]:
            return f"$.{key}: {value!r} is less than the minimum of {schema['minimum']!r}"
    return None


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
    series = kx_covering_counts(word.prefix(depth), levels)
    out = config.get("out", "dims.csv")
    _write(out, _artifact_header(config) + series.to_csv())
    ratio = series.entries[-1]
    return f"dims: depth={depth} count={ratio[1]} -> {out}"


def _cmd_monte_carlo(config: dict) -> str:
    """``percolate`` at one depth or ``hawkes`` at several, one coupled run per trial."""
    command, trials = config["command"], config["trials"]
    if command == "percolate":
        depths = [config["depth"]]
        # the key "percolate" once hashed as these 8 bytes; kept so outputs stay
        prefix = int.from_bytes(b"percolat", "little")
    else:
        depths, prefix = [int(x) for x in config["depths"].split(",")], "hawkes"
    _check_depth(max(depths))
    if trials > MAX_TRIALS:
        raise ResourceLimitError(f"trials {trials} exceeds the limit {MAX_TRIALS}")
    beta = _fraction(config["beta"])
    k_set, d = _parse_set_spec(config.get("k", "full:1"), max(depths))
    field = PercField(config["seed"])
    rep = hawkes_experiment(k_set, beta, depths, trials, field, d=d, copy_prefix=prefix)
    out = config.get("out", f"{command}.csv")
    _write(out, _artifact_header(config) + rep.to_csv())
    if config.get("save_set"):
        smp = sample(RetentionSchedule.constant(beta), field, (prefix, 0),
                     depths[0], d=d, k_set=k_set)
        with open(config["save_set"], "wb") as fh:
            fh.write(pack_bits(smp.survivors))
    last = rep.rows[-1]
    if command == "percolate":
        return f"percolate: depth={last.depth} survival={last.survival:.4f} -> {out}"
    return (f"hawkes: depths={depths} survival@{last.depth}={last.survival:.4f} "
            f"monotone={rep.survival_nonincreasing} -> {out}")


def _check_coded_length(blocks: int):
    """Refuses, before any block is built, a prefix whose blocks could hold
    more than MAX_CODED_BITS bits; stops summing once past the limit."""
    total = 0
    for n in range(1, blocks):
        total += n + _k_max(n)
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
        "report": {f.name: getattr(report, f.name) for f in fields(report) if f.name != "details"},
    }
    out = config.get("out", "family.json")
    _write(out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return f"family: levels={levels} m={tree.m} -> {out}"


def _cmd_zoom(config: dict) -> str:
    if config.get("in_file"):
        unread = [k for k in ("set", "depth") if k in config]
        if unread:
            raise ValueError(f"zoom reads no {', '.join(unread)} with in_file")
        with open(config["in_file"]) as fh:  # skipping a zoom artifact's header
            base = from_json("".join(dropwhile(lambda line: line.startswith("#"), fh)))
    else:
        if "depth" not in config:
            raise ValueError("zoom needs depth or in_file")
        spec, depth = config.get("set", "full:1"), config["depth"]
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


_COMMANDS = {"dims": _cmd_dims, "percolate": _cmd_monte_carlo, "hawkes": _cmd_monte_carlo,
             "realize": _cmd_realize, "family": _cmd_family, "zoom": _cmd_zoom}


def run(config: dict) -> str:
    """Validate a config and dispatch; returns the one-line summary."""
    command = config.get("command") if isinstance(config, dict) else None
    known = isinstance(command, str) and command in _OPTIONS  # a list is unhashable
    if known and "seed" not in config:  # the default is validated as --seed is
        try:
            config = {**config, "seed": int(os.environ.get(SEED_ENV, "0"))}
        except ValueError:
            raise ValueError(f"{SEED_ENV}={os.environ[SEED_ENV]!r} is not an integer") from None
    if error := _config_error(config):
        raise ValueError(f"config {error}")
    missing = [k for k, (_, _, required) in _OPTIONS[command].items()
               if required and k not in config]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
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
    for name, keys in _OPTIONS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (merged under flags)")
        for key, (schema, text, _) in {**_COMMON, **keys}.items():
            kind = schema.get("type")
            kw = ({"action": "store_true"} if kind == "boolean" else
                  {"type": int} if kind == "integer" else
                  {"choices": schema["enum"]} if "enum" in schema else {})
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **kw)
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
    config.update((key, val) for key, val in vars(args).items() if key not in
                  ("config", "print_schema") and val is not None and val is not False)
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
