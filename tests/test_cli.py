import contextlib
import hashlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import microfract
from microfract import __version__
from microfract.cli import CONFIG_SCHEMA, _OPTIONS, _build_parser, _config_error, main, run
from microfract.dyadic import from_json, kx_set, to_json, unpack_bits

# JSON Schema counts 2.0 as an integer; the commands need Python ints.
_IntsOnlyValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int))


def read(path):
    with open(path) as fh:
        return fh.read()


class TestDims:
    def test_beatty_third(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["dims", "--word", "beatty:1/3", "--depth", "12",
                   "--out", str(out)])
        assert rc == 0
        text = read(out)
        assert text.startswith(f"# microfract {__version__}\n# config ")
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "level,count,log2count_over_n"
        last = rows[-1].split(",")
        assert last[0] == "12" and last[1] == str(2 ** 4)  # sigma(12) = 4

    def test_missing_word_is_validation_error(self, tmp_path):
        rc = main(["dims", "--depth", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_periodic_word(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["dims", "--word", "periodic:011", "--depth", "7", "--out", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in read(out).splitlines()
                if ln and not ln.startswith("#")][1:]
        # the prefix 0110110 has sigma(m) ones among its first m bits
        assert [(int(m), int(c)) for m, c, _ in rows] == [
            (m, 2 ** "0110110"[:m].count("1")) for m in range(1, 8)]

    def test_short_word_is_validation_error(self, tmp_path, capsys):
        rc = main(["dims", "--word", "word:101", "--depth", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: word supplies 3 bits, need 5\n"


class TestPercolate:
    def test_supercritical_run(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["percolate", "--k", "full:1", "--beta", "1/2",
                   "--depth", "10", "--trials", "300", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        rows = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        depth, surv = rows[1].split(",")[:2]
        assert depth == "10"
        assert 0.5 < float(surv) <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["percolate", "--k", "full:1", "--beta", "1/2", "--depth", "8",
                "--trials", "100", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a).replace(str(a), "") == read(b).replace(str(b), "")

    def test_save_set_roundtrips(self, tmp_path):
        out, setf = tmp_path / "p.csv", tmp_path / "s.bin"
        rc = main(["percolate", "--k", "full:1", "--beta", "1/2", "--depth", "6",
                   "--trials", "10", "--seed", "1", "--out", str(out),
                   "--save-set", str(setf)])
        assert rc == 0
        ds = unpack_bits(setf.read_bytes())
        assert ds.depth == 6 and ds.d == 1

    def test_invalid_beta_exits_1(self, tmp_path):
        rc = main(["percolate", "--k", "full:1", "--beta", "2", "--depth", "6",
                   "--trials", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_depth_limit_exits_3(self, tmp_path):
        rc = main(["percolate", "--k", "full:1", "--beta", "1/2", "--depth", "40",
                   "--trials", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 3


class TestHawkes:
    def test_two_depths(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main(["hawkes", "--k", "beatty:1/3", "--beta", "3/5",
                   "--depths", "4,10", "--trials", "200", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        rows = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        assert len(rows) == 3
        assert rows[1].split(",")[0] == "4"
        assert rows[2].split(",")[0] == "10"


class TestRealize:
    def test_interval_target(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["realize", "--target", "interval:3/10:7/10", "--blocks", "30",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        rows = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        assert rows[0] == "block,n,k,phi,density,abs_error,length_fraction"
        assert len(rows) == 30  # blocks 1..29 plus header

    def test_explicit_branch(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["realize", "--target", "finite:1/2", "--blocks", "10",
                   "--branch", "0101010101", "--out", str(out)])
        assert rc == 0


# sha256 of the CSV rows (header comments excluded), recorded before the
# integer-first f_range and closed-form Beatty blocks replaced per-bit sums
PINNED_REALIZE = [
    (["--target", "interval:3/10:7/10", "--blocks", "40", "--seed", "11"],
     "9202fba4c2db6d97829a51b8ff22edfb50e3293aec61ee1e9406aa676b2e89de"),
    (["--target", "finite:1/4,1/2,3/4", "--blocks", "30",
      "--branch", "0110100110010110011010011001011"],
     "170da720941032c10c6e3e2d13e5922f80129462dcf41db4997f6b6bc8e32cf0"),
    (["--target", "interval:0:1/5,2/5:3/5,4/5:1", "--blocks", "60", "--branch", "10" * 30],
     "900273929d32714eee8e676da98e9ac68c463174100dd1bee6346a68e6665bdb"),
    (["--target", "finite:1/3,2/3", "--blocks", "45", "--seed", "5"],
     "b672414ee354b2a6121b85e1b8d51f9b961ae826089d878666845d50182e7c52"),
]


@pytest.mark.parametrize("argv, csv_sha", PINNED_REALIZE)
def test_pinned_realize_outputs(tmp_path, argv, csv_sha):
    out = tmp_path / "r.csv"
    assert main(["realize"] + argv + ["--out", str(out)]) == 0
    rows = "".join(ln for ln in read(out).splitlines(True) if not ln.startswith("#"))
    assert hashlib.sha256(rows.encode()).hexdigest() == csv_sha


def test_realize_huge_blocks_exit_3_before_building(tmp_path, capsys):
    start = time.perf_counter()
    rc = main(["realize", "--target", "finite:1/2", "--blocks", str(10 ** 15),
               "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and "blocks may code more than" in err
    assert time.perf_counter() - start < 1
    assert not (tmp_path / "r.csv").exists()
    # the largest block count under the limit still runs
    assert main(["realize", "--target", "finite:1/2", "--blocks", "477",
                 "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("argv", [
    ["realize", "--target", "finite:1/2", "--blocks", "x"],
    ["realize", "--target", "finite:1/2", "--blocks", "10", "--bogus"],
    ["family", "--net", "grid:9", "--target", "finite:1/2", "--depth", "x"],
    ["family", "--net", "grid:9", "--target", "finite:1/2", "--variant", "triangle"],
    ["percolate", "--beta", "1/2", "--depth", "4", "--trials", "2.5"],
    ["percolate", "--beta", "1/2", "--depth", "4", "--trials", "3", "extra\nline"],
    ["nosuchcommand"],
], ids=["realize-blocks-x", "realize-unknown-flag", "family-depth-x", "family-variant",
        "percolate-trials-2.5", "percolate-extra-arg", "no-such-command"])
def test_usage_errors_one_line_exit_1(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()


class TestFamily:
    def test_strict_one_level(self, tmp_path):
        out = tmp_path / "f.json"
        rc = main(["family", "--net", "grid:65", "--target", "finite:1/2",
                   "--variant", "box", "--depth", "1", "--branch", "1",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(read(out))
        assert payload["report"]["cardinalities_exact"]
        assert payload["report"]["g_mode"] == "strict"
        assert payload["version"] == __version__

    def test_strict_deep_exhausts_exit_3(self, tmp_path):
        rc = main(["family", "--net", "grid:65", "--target", "finite:1/2",
                   "--variant", "box", "--depth", "3", "--branch", "111",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 3


class TestZoom:
    def test_zoom_word_set(self, tmp_path):
        out = tmp_path / "z.json"
        rc = main(["zoom", "--set", "word:1011", "--depth", "4", "--m", "1",
                   "--u", "0", "--out", str(out)])
        assert rc == 0
        body = [ln for ln in read(out).splitlines() if not ln.startswith("#")][0]
        assert from_json(body) == kx_set("011")

    def test_zoom_binary_output(self, tmp_path):
        out = tmp_path / "z.bin"
        rc = main(["zoom", "--set", "word:111", "--depth", "3", "--m", "0",
                   "--u", "0", "--binary", "--out", str(out)])
        assert rc == 0
        assert unpack_bits(out.read_bytes()) == kx_set("111")


class TestConfigPlumbing:
    def test_print_schema(self, capsys):
        assert main(["--print-schema"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["properties"]["command"]["enum"]

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"word": "beatty:1/2", "depth": 6}))
        out = tmp_path / "c.csv"
        rc = main(["dims", "--config", str(cfg), "--out", str(out)])
        assert rc == 0

    def test_env_seed_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROFRACT_SEED", "99")
        out = tmp_path / "p.csv"
        rc = main(["percolate", "--k", "full:1", "--beta", "1/2", "--depth", "5",
                   "--trials", "20", "--out", str(out)])
        assert rc == 0
        header = read(out).splitlines()[1]
        assert '"seed":99' in header.replace(" ", "")

    @pytest.mark.parametrize("value, words", [
        ("-5", "config $.seed: -5 is less than the minimum of 0"),
        ("x", "MICROFRACT_SEED='x' is not an integer"),
        ("1.5", "MICROFRACT_SEED='1.5' is not an integer"),
        ("", "MICROFRACT_SEED='' is not an integer"),
    ])
    def test_env_seed_validated_as_the_flag(self, tmp_path, monkeypatch, value, words):
        monkeypatch.setenv("MICROFRACT_SEED", value)
        out = tmp_path / "p.csv"
        rc, err = _run_captured(["percolate", "--beta", "1/2", "--depth", "5",
                                 "--trials", "20", "--out", str(out)])
        assert rc == 1 and err == f"error: {words}\n"
        assert not out.exists()
        # an explicit seed leaves the environment unread
        assert main(["percolate", "--beta", "1/2", "--depth", "5", "--trials", "20",
                     "--seed", "3", "--out", str(out)]) == 0

    def test_missing_keys_named_in_table_order(self, tmp_path):
        with pytest.raises(ValueError, match="^dims needs word, depth$"):
            run({"command": "dims", "out": str(tmp_path / "c.csv")})

    def test_schema_rejects_unknown_key(self):
        with pytest.raises(Exception):
            run({"command": "dims", "word": "beatty:1/2", "depth": 4,
                 "bogus": 1})

    def test_no_command(self):
        assert main([]) == 1


def _bad_set_file(tmp_path):
    path = tmp_path / "bad_set.json"
    path.write_text('{"d": 1, "depth": 2, "leaves": 5}')
    return ["zoom", "--in-file", str(path), "--m", "0"]


def _zoom_in_file_with_set_and_depth(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(to_json(kx_set("011")))
    return ["zoom", "--in-file", str(path), "--m", "0", "--depth", "99", "--set", "bogus"]


def _list_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    return ["dims", "--config", str(path)]


@pytest.mark.parametrize("argv", [
    ["hawkes", "--k", "full:1", "--beta", "1/2", "--depths", "4", "--trials", "0"],
    ["percolate", "--k", "full:1", "--beta", "1/0", "--depth", "4", "--trials", "3"],
    ["dims", "--word", "beatty:1/0", "--depth", "4"],
    ["family", "--net", "grid:1", "--target", "finite:1/2"],
    ["zoom", "--set", "full:1", "--depth", "3", "--m", "1", "--u", "1/0"],
    _bad_set_file,
    _zoom_in_file_with_set_and_depth,
    _list_config,
], ids=["schema", "beta-1/0", "word-1/0", "grid-1", "u-1/0", "leaves-5", "in-file-set-depth",
        "config-list"])
def test_malformed_input_one_line_exit_1(tmp_path, capsys, argv):
    if callable(argv):
        argv = argv(tmp_path)
    rc = main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_huge_exponent_refused_at_once(tmp_path, capsys):
    """Fraction builds 10^e for a number in exponent notation, which takes
    seconds at e = 10^7; such a value is refused before it is parsed."""
    start = time.perf_counter()
    rc = main(["percolate", "--k", "full:1", "--beta", "1e10000000", "--depth", "4",
               "--trials", "3", "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1 and "exponent" in err
    assert not (tmp_path / "out").exists()
    assert elapsed < 2


@contextlib.contextmanager
def within_seconds(limit):
    """Turn a call that runs past ``limit`` seconds into a failure, not a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"call ran past {limit} seconds")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("argv", [
    ["family", "--net", "grid:9", "--target", "finite:1/1000000000,1/3"],
    ["family", "--net", "grid:9", "--target", "finite:1e-300,1/3"],
    ["family", "--net", "grid:9", "--target", "finite:1/100000000000,1/3"],
    ["family", "--net", "grid:9", "--target", "finite:1e-999,1/3"],
    ["percolate", "--beta", "1/1" + "0" * 3000, "--depth", "4", "--trials", "10"],
], ids=["family-1e-9", "family-1e-300", "family-1e-11", "family-1e-999", "percolate-1e-3000"])
def test_exponents_with_long_denominators_run_quickly(tmp_path, argv):
    """Exact powers 2^(p/q) cost no more for a long denominator q: these
    targets once took 45 s or more, ran out of memory, or overflowed a float."""
    out = tmp_path / "out"
    with within_seconds(2):
        rc, err = _run_captured(argv + ["--out", str(out)])
    assert rc == 0 and err == "" and out.exists()


@pytest.mark.parametrize("branch", ["0", "1"])
def test_family_refuses_negative_target_on_every_branch(tmp_path, branch):
    out = tmp_path / "f.json"
    rc, err = _run_captured(["family", "--net", "grid:9", "--target", "finite:-1,1/2",
                             "--branch", branch, "--out", str(out)])
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("error: target value -1 is negative")
    assert not out.exists()


@pytest.mark.parametrize("extra,code,words", [
    (["--target", "interval:1/2"], 1, "interval:lo:hi"),
    (["--target", "finite:1e400"], 3, "no admissible scale"),
    (["--target", "finite:1/2", "--depth", "27", "--branch", "1" * 27], 3,
     "exceeds the limit"),
], ids=["interval-one-bound", "huge-exponent", "depth-27"])
def test_family_malformed_exit_code_and_message(tmp_path, capsys, extra, code, words):
    rc = main(["family", "--net", "grid:9", "--out", str(tmp_path / "f.json")] + extra)
    err = capsys.readouterr().err
    assert rc == code and err.count("\n") == 1 and words in err
    assert not (tmp_path / "f.json").exists()


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_GOOD = {"net": "grid:9", "target": "finite:1/2", "depth": 1, "branch": "1",
         "variant": "box"}
_BAD = {
    "net": st.one_of(st.sampled_from(["grid:", "grid:1", "grid:0", "grid:-4", "grid:x",
                                      "grid:2.5", "grid:1e3", "grid:1449",
                                      "grid:99999999999999999999", "line:9", ":", ""]),
                     _TEXT.filter(lambda t: not t.startswith("grid:"))),
    "target": st.one_of(st.sampled_from(["finite:", "finite:1/0", "finite:x", "finite:-1",
                                         "finite:1e400", "finite:1/2,", "interval:1/2",
                                         "interval:", "interval:1:0", "interval:0:1:2",
                                         "interval:0:1/0", "circle:1/2", "1/2"]),
                        _TEXT.filter(lambda t: not t.startswith(("finite:", "interval:")))),
    "depth": st.one_of(st.integers(-3, 0), st.integers(27, 10 ** 12)),
    "branch": st.one_of(st.sampled_from(["2", "01x", " 1"]),
                        _TEXT.filter(lambda t: t != "" and set(t) - {"0", "1"})),
    "variant": st.one_of(st.sampled_from(["", "Box", "triangle"]), _TEXT,
                         st.integers(), st.none()).filter(lambda v: v not in ("box", "packing")),
}


@settings(max_examples=150, deadline=None)
@given(bad=st.lists(st.sampled_from(sorted(_BAD)), min_size=1, max_size=3, unique=True),
       data=st.data(), via_config=st.booleans())
def test_family_fuzz_one_line_error(bad, data, via_config):
    """Malformed net, target, depth, branch or variant values, on the command
    line or in a config file, end in one stderr line with exit 1-3."""
    config = dict(_GOOD)
    for key in bad:
        config[key] = data.draw(_BAD[key], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "f.json")
        argv = ["family", f"--out={out}"]
        if via_config or "variant" in bad:
            # the variant flag has fixed choices, so a bad one only reaches
            # the program through a config file
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv.append(f"--config={path}")
        else:
            argv += [f"--{key}={val}" for key, val in config.items()]
        rc, err = _run_captured(argv)
        assert rc in (1, 2, 3), err
        assert err.count("\n") == 1, err
        assert not os.path.exists(out)


@settings(max_examples=60, deadline=None)
@given(body=st.one_of(st.sampled_from([b"[]", b"null", b"3", b'"family"', b"{", b"",
                                       b"[{}]", b"\xff\xfe{}"]),
                      st.recursive(st.none() | st.booleans() | st.integers() | _TEXT,
                                   lambda kids: st.lists(kids, max_size=3),
                                   max_leaves=5).map(lambda v: json.dumps(v).encode()),
                      st.binary(max_size=16)))
def test_family_config_not_an_object(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "wb") as fh:
            fh.write(body)
        rc, err = _run_captured(["family", f"--config={path}",
                                 f"--out={os.path.join(tmp, 'f.json')}"])
    assert rc == 1 and err.count("\n") == 1 and err.startswith("error: ")


def test_wide_full_cube_exits_3_before_allocating(tmp_path, capsys):
    # 2^40 children per cell: refused before the child offsets are built
    rc = main(["hawkes", "--k", "full:40", "--beta", "1/2", "--depths", "4",
               "--trials", "3", "--out", str(tmp_path / "h.csv")])
    err = capsys.readouterr().err
    assert rc == 3 and err.count("\n") == 1 and err.startswith("resource limit: ")
    assert not (tmp_path / "h.csv").exists()


# Configs that fail the schema, one or more ways each; the error run() raises
# must be the one jsonschema.validate picks, in the same one-line form.
BAD_CONFIGS = [
    {"command": "dims", "word": "beatty:1/2", "depth": 4, "bogus": 1},
    {"command": "launch"},
    {"word": "beatty:1/2"},
    {"command": "zoom", "set": "word:1011", "depth": 4, "m": 1.0},
    {"command": "zoom", "set": "word:1011", "depth": 4, "m": True},
    {"command": "hawkes", "k": "full:1", "beta": "1/2", "depths": "4", "trials": 0},
    {"command": "hawkes", "k": 3, "beta": 0.5, "depths": [4], "trials": -1, "seed": -2},
    {"command": "family", "net": "grid:5", "target": "finite:1/2", "variant": "disk"},
    {"command": "realize", "target": "finite:1/2", "blocks": 1, "extra": None},
    {"command": "zoom", "set": "full:1", "depth": 0, "m": -1, "binary": "yes"},
    [],
    "percolate",
    {"command": [], "word": "beatty:1/2"},
    {"command": {"a": 1}, "set": "full:1", "depth": 2, "m": 0},
] + [
    # one key that only another command reads, per command
    {"command": "dims", "word": "beatty:1/2", "depth": 4, "trials": 7, "blocks": 9},
    {"command": "percolate", "beta": "1/2", "depth": 4, "trials": 3, "depths": "4"},
    {"command": "hawkes", "beta": "1/2", "depths": "4", "trials": 3, "save_set": "s.bin"},
    {"command": "realize", "target": "finite:1/2", "blocks": 4, "variant": "box"},
    {"command": "family", "net": "grid:9", "target": "finite:1/2", "m": 1},
    {"command": "zoom", "set": "full:1", "depth": 2, "m": 0, "word": "word:1"},
]
FOREIGN_KEYS = BAD_CONFIGS[-6:]


@pytest.mark.parametrize("config", BAD_CONFIGS)
def test_config_errors_match_jsonschema_validate(tmp_path, capsys, config):
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(config, CONFIG_SCHEMA, cls=_IntsOnlyValidator)
    want = f"config {oracle.value.json_path}: {oracle.value.message}"
    with pytest.raises(ValueError) as got:
        run(config)
    assert str(got.value) == want
    if isinstance(config, dict) and config.get("command") in list(_OPTIONS):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([config["command"], "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("config", FOREIGN_KEYS, ids=[c["command"] for c in FOREIGN_KEYS])
def test_keys_of_other_commands_refused_by_name(tmp_path, config):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    rc, err = _run_captured([config["command"], f"--config={path}", f"--out={out}"])
    assert rc == 1 and err.count("\n") == 1, err
    foreign = set(config) - set(_OPTIONS[config["command"]]) - {"command"}
    assert foreign and all(f"'{key}'" in err for key in foreign), err
    assert not out.exists()


def test_zoom_in_file_names_the_unread_keys(tmp_path):
    rc, err = _run_captured(_zoom_in_file_with_set_and_depth(tmp_path)
                            + ["--out", str(tmp_path / "out")])
    assert (rc, err) == (1, "error: zoom reads no set, depth with in_file\n")


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_flags_equal_schema_branch_keys(command):
    """Each command's flags are its schema branch's keys, plus --config."""
    branch = next(b["then"] for b in CONFIG_SCHEMA["allOf"]
                  if b["if"]["properties"]["command"]["const"] == command)
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[command]
    actions = [a for a in sub._actions if a.dest != "help"]
    assert {a.dest for a in actions} == set(branch["properties"]) - {"command"} | {"config"}
    assert all(a.option_strings == ["--" + a.dest.replace("_", "-")] for a in actions)


def _readme_cli_lines():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("microfract ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_examples_parse_and_validate(line):
    """The README's CLI examples parse and pass the schema and the
    required-key check; they are not run."""
    args = _build_parser().parse_args(shlex.split(line)[1:])
    config = {key: val for key, val in vars(args).items()
              if key != "config" and val is not None and val is not False}
    jsonschema.validate(config, CONFIG_SCHEMA, cls=_IntsOnlyValidator)
    required = [k for k, (_, _, req) in _OPTIONS[config["command"]].items() if req]
    assert set(required) <= set(config)


def test_readme_shows_every_command():
    assert {shlex.split(ln)[1] for ln in _readme_cli_lines()} == set(_OPTIONS)


@pytest.mark.parametrize("m", [1.0, 0.0, True])
def test_config_integers_must_be_json_integers(tmp_path, m):
    # JSON Schema counts 1.0 as an integer, but the commands need Python ints
    path, out = tmp_path / "cfg.json", tmp_path / "z.json"
    path.write_text(json.dumps({"set": "word:1011", "depth": 4, "m": m}))
    rc, err = _run_captured(["zoom", f"--config={path}", f"--out={out}"])
    assert rc == 1 and err.count("\n") == 1 and "is not of type 'integer'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--set", "word:1011", "--depth", "4", "--m", "1"],
    ["--set", "full:2", "--depth", "3", "--m", "1", "--u", "1/4,0"],
])
def test_zoom_reads_back_its_own_artifact(tmp_path, argv):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["zoom", *argv, "--out", str(first)]) == 0
    assert main(["zoom", "--in-file", str(first), "--m", "0", "--out", str(second)]) == 0
    body = [from_json(ln) for ln in (read(first), read(second))
            for ln in ln.splitlines() if not ln.startswith("#")]
    assert body[0] == body[1] and body[0].leaves == body[1].leaves


def test_zoom_reads_its_artifact_without_json_loads(tmp_path, monkeypatch):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["zoom", "--set", "full:2", "--depth", "3", "--m", "1", "--u", "1/4,0",
                 "--out", str(first)]) == 0
    assert read(first).startswith("# microfract")

    def no_loads(*args, **kwargs):
        raise AssertionError("json.loads called on a zoom artifact")

    monkeypatch.setattr(json, "loads", no_loads)
    assert main(["zoom", "--in-file", str(first), "--m", "0", "--out", str(second)]) == 0
    monkeypatch.undo()
    body = [from_json(ln) for ln in (read(first), read(second))
            for ln in ln.splitlines() if not ln.startswith("#")]
    assert body[0] == body[1] and not body[0].is_empty


_WORDS = ["beatty:1/3", "beatty:2/5", "beatty:0", "beatty:1", "beatty:3", "beatty:-1",
          "beatty:1/0", "beatty:x", "beatty:1e10000000", "word:1011", "word:", "word:12", "periodic:01",
          "periodic:", "x:1", ""]
_SETS = ["full:1", "full:2", "full:3", "full:0", "full:-1", "full:22", "full:40",
         "full:x", "beatty:1/3", "word:1101", "word:", "periodic:10", "line:2", ""]
_FRACTIONS = ["1/2", "1/3", "3/2", "1/10", "0", "2", "-1", "1/0", "x", "nan", "1e400",
              "1e10000000", "-2.5E+99999999", "1e-10000000", ""]
_COUNTS = ["3,6", "4", "26", "0", "-1", "27", "3,,4", "x", ""]
_TARGETS = ["finite:1/2", "finite:1/3,2/3", "interval:1/4:3/4", "finite:", "finite:5",
            "interval:1:0", "interval:", "circle:1", "finite:1e10000000",
            "interval:0:1E-10000000", ""]
_SHIFTS = ["0", "1/2", "-1/4", "1/3", "1/0", "x", "1,0", "1/4,1/4", "-1/2,1/8",
           "1e10000000", "0,-1e99999999", ""]


def _fuzz(values):
    return st.one_of(st.sampled_from(values), _TEXT)


# Valid and invalid values of each option.  Every case is refused before it
# allocates or runs with bounded memory: depth <= 26, trials <= 4, and for
# zoom depth <= 6 without full:22 (full cubes of 2^22 or more cells pass
# the leaf limit but need hundreds of MB).

_CLI_FUZZ = {
    "dims": ({"word": "beatty:1/3", "depth": 8}, {
        "word": _fuzz(_WORDS),
        "depth": st.one_of(st.integers(-2, 26), st.just(10 ** 12)),
        "levels": _fuzz(["1,2", "0", "-1", "-9", "-99", "8", "99", "x", "1,,2", ""]),
    }),
    "percolate": ({"k": "full:1", "beta": "1/2", "depth": 6, "trials": 3}, {
        "k": _fuzz(_SETS),
        "beta": _fuzz(_FRACTIONS),
        "depth": st.one_of(st.integers(-2, 26), st.just(10 ** 12)),
        "trials": st.one_of(st.integers(-1, 4), st.just(10 ** 7)),
    }),
    "hawkes": ({"k": "full:1", "beta": "1/2", "depths": "3,6", "trials": 3}, {
        "k": _fuzz(_SETS),
        "beta": _fuzz(_FRACTIONS),
        "depths": _fuzz(_COUNTS),
        "trials": st.one_of(st.integers(-1, 4), st.just(10 ** 7)),
    }),
    "realize": ({"target": "finite:1/2", "blocks": 6}, {
        "target": _fuzz(_TARGETS),
        "blocks": st.one_of(st.integers(-1, 12), st.just(10 ** 12)),
        "branch": _fuzz(["0101", "1", "2", "01x", " 1", ""]),
    }),
    "zoom": ({"set": "word:1011", "depth": 4, "m": 1}, {
        "set": _fuzz([s for s in _SETS if s != "full:22"]),
        "depth": st.one_of(st.integers(-2, 6), st.just(10 ** 12)),
        "m": st.one_of(st.integers(-1, 14), st.just(10 ** 12)),
        "u": _fuzz(_SHIFTS),
    }),
}
_JSON_ODDITIES = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-2 ** 70, 2 ** 70),
                           st.lists(st.integers(), max_size=2))


@pytest.mark.parametrize("command", sorted(_CLI_FUZZ))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), via_config=st.booleans())
def test_cli_fuzz_one_line_error(command, data, via_config):
    """Drawn option values, on the command line or in a config file (there
    also of the wrong JSON type), end in exit 0 with a silent stderr or in
    exit 1-3 with one stderr line and no artifact."""
    good, strategies = _CLI_FUZZ[command]
    config = dict(good)
    for key in data.draw(st.lists(st.sampled_from(sorted(strategies)), min_size=1,
                                  max_size=3, unique=True), label="keys"):
        odd = via_config and data.draw(st.integers(0, 4), label="odd") == 0
        config[key] = data.draw(_JSON_ODDITIES if odd else strategies[key], label=key)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "artifact")
        argv = [command, f"--out={out}"]
        if via_config:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv.append(f"--config={path}")
        else:
            argv += [f"--{key}={val}" for key, val in config.items()]
        rc, err = _run_captured(argv)
        assert rc in (0, 1, 2, 3), err
        if rc:
            assert err.count("\n") == 1 and "Traceback" not in err, err
            assert not os.path.exists(out)
        else:
            assert err == "" and os.path.exists(out)


# Error lines written out: of configs that fail several ways, so the rule
# (whole-object errors first, then the failing key that sorts last) does not
# rest on the installed jsonschema, and of a zoom with neither depth nor in_file.
@pytest.mark.parametrize("config, line", [
    ({"command": "hawkes", "k": 3, "beta": 0.5, "depths": [4], "trials": -1, "seed": -2},
     "config $.trials: -1 is less than the minimum of 1"),
    ({"command": "zoom", "set": "full:1", "depth": 0, "m": -1.0, "binary": "yes"},
     "config $.m: -1.0 is not of type 'integer'"),
    ({"command": "dims", "word": 1, "depth": 0, "trials": 7, "blocks": 9},
     "config $: Additional properties are not allowed ('blocks', 'trials' were unexpected)"),
    ({"command": "zoom", "set": "word:1", "m": 0}, "zoom needs depth or in_file"),
], ids=["hawkes-five-keys", "zoom-three-keys", "dims-extra-keys", "zoom-no-depth"])
def test_run_error_lines_pinned(config, line):
    with pytest.raises(ValueError) as got:
        run(config)
    assert str(got.value) == line


_ALL_KEYS = sorted({"seed", "out", "bogus"}.union(*_OPTIONS.values()))
_VALUES = (_JSON_ODDITIES | _TEXT | st.integers(-2, 2)
           | st.sampled_from(list(_OPTIONS) + ["box", "linear"]))
_ORACLE = _IntsOnlyValidator(CONFIG_SCHEMA)  # jsonschema.validate, less its schema check


def _config(command, drawn, foreign):
    """A config of ``command`` holding the drawn keys it reads, or with
    ``foreign`` all of them; a seed, so run() adds none the oracle misses."""
    own = {"seed", "out", *_OPTIONS.get(command, ())}
    return {"seed": 0, **{k: v for k, v in drawn.items() if foreign or k in own},
            "command": command}


@settings(max_examples=2000, deadline=None)
@given(config=st.builds(_config, st.sampled_from(list(_OPTIONS) + ["launch"]),
                        st.dictionaries(st.sampled_from(_ALL_KEYS), _VALUES, max_size=6),
                        st.booleans()))
def test_run_errors_equal_the_whole_schemas(config):
    """run() raises the error jsonschema.validate picks on the whole schema;
    a config the schema passes, the direct check passes too."""
    e = jsonschema.exceptions.best_match(_ORACLE.iter_errors(config))
    want = None if e is None else f"{e.json_path}: {e.message}"
    assert _config_error(config) == want
    if want is not None:
        with pytest.raises(ValueError) as got:
            run(config)
        assert str(got.value) == f"config {want}"


def test_import_loads_no_jsonschema():
    code = ("import sys, microfract, microfract.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in {'jsonschema', 'jsonschema_specifications', "
            "'referencing', 'rpds', 'attrs', 'attr'}))")
    env = {**os.environ, "PYTHONPATH": str(Path(microfract.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
