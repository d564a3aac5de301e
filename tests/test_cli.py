import ast
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import COLLINEAR_BAD, FRACTION_AT_CAP, INT_AT_CAP, X8_COEFFS
import delpezzo1
from delpezzo1 import cli, curve, galois, lattice, linalg
from delpezzo1.cli import main
from xyz_oracles import canonical_json_two_step, text_two_step

X8_POLY = ",".join(str(c) for c in X8_COEFFS)

# Exit code and SHA-256 of stdout for every subcommand and format, on the
# worked seed, a p/q seed, the deflated collinearity path, an inconclusive
# Galois run and both lattice degrees.  Any change to these bytes is a
# change to the canonical output format.
DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo1.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_module_entry_point_runs():
    proc = run_cli(["lattice", "--d", "1"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "lattice"


def test_verify_worked_seed(capsys):
    code = main(["verify", "--poly", X8_POLY, "--prime-bound", "200"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["seed"] == [str(c) for c in X8_COEFFS]
    assert all(payload["checks"].values())
    assert payload["galois"]["verdict"] == "S8-certified"
    assert payload["forms"]["u"][0] == {"e": [1, 0, 2], "c": "1"}


def test_construct_emits_forms(capsys):
    code = main(["construct", "--poly", X8_POLY])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload["forms"]) == {"u", "v", "w", "Q"}
    v_terms = payload["forms"]["v"]
    assert v_terms == [
        {"e": [3, 0, 0], "c": "1"},
        {"e": [0, 2, 1], "c": "-1"},
        {"e": [0, 1, 2], "c": "-1"},
    ]


def test_forms_are_sorted_grlex_descending(capsys):
    main(["construct", "--poly", X8_POLY])
    payload = json.loads(capsys.readouterr().out)
    for name in ("u", "v", "w", "Q"):
        keys = [
            (sum(term["e"]), tuple(term["e"])) for term in payload["forms"][name]
        ]
        assert keys == sorted(keys, reverse=True)


def test_no_floats_anywhere(capsys):
    main(["verify", "--poly", X8_POLY, "--prime-bound", "100"])
    out = capsys.readouterr().out

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_exit_codes(tmp_path):
    # t^7 coefficient present: invalid input
    bad = run_cli(["construct", "--poly", "-1,-1,0,0,0,0,0,1,1"])
    assert bad.returncode == 2
    assert "t7-term" in bad.stderr
    # position failure on a valid seed: mathematical check failed
    failing = run_cli(["position", "--poly", ",".join(map(str, COLLINEAR_BAD))])
    assert failing.returncode == 1
    payload = json.loads(failing.stdout)
    assert payload["checks"]["no_three_collinear"] is False
    witness = payload["witnesses"]["no_three_collinear"]
    assert witness["distinct_triple_product"] == "0"
    # unknown command: argparse error, in one stderr line
    unknown = run_cli(["frobnicate"])
    assert unknown.returncode == 2
    assert len(unknown.stderr.splitlines()) == 1
    # malformed coefficient string
    malformed = run_cli(["construct", "--poly", "a,b,c"])
    assert malformed.returncode == 2
    assert "unparseable" in malformed.stderr
    # wrong count
    wrong = run_cli(["construct", "--poly", "1,2,3"])
    assert wrong.returncode == 2
    assert "wrong-count" in wrong.stderr
    # values too long to print as decimal strings: invalid input, not a crash
    tall = run_cli(["verify", "--poly", "1e400,1,0,0,0,0,0,0,1", "--prime-bound", "20"])
    assert tall.returncode == 2
    assert len(tall.stderr.splitlines()) == 1
    # report file in a missing directory: I/O error, one line, no traceback
    missing = tmp_path / "missing" / "report.json"
    unwritable = run_cli(["lattice", "--d", "2", "--output", str(missing)])
    assert unwritable.returncode == 3
    assert unwritable.stdout == ""
    assert len(unwritable.stderr.splitlines()) == 1


def _never_called(*args):
    raise AssertionError("no computation may start")


def test_tall_seeds_rejected_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_bundle", _never_called)
    for top in ("1e70", "1e400", "1e4000"):
        start = time.perf_counter()
        code = main(["verify", "--poly", f"{top},1,0,0,0,0,0,0,1"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("invalid seed [too-tall]: height ")
        assert len(err.splitlines()) == 1
        assert elapsed < 1


@pytest.mark.parametrize("coeffs", [INT_AT_CAP, FRACTION_AT_CAP], ids=["int", "fraction"])
def test_seeds_at_the_height_cap_render(coeffs, capsys):
    poly = ",".join(map(str, coeffs))
    for fmt in ("json", "text"):
        code = main(["verify", "--poly", poly, "--format", fmt])
        out, err = capsys.readouterr()
        assert code in (0, 1)
        assert err == ""
        assert "checks" in out


class _FullStream:
    """A stdout on a full disk: a buffered write fails at the latest in flush."""

    def __init__(self, buffered):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise OSError(28, "No space left on device")

    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("buffered", [False, True], ids=["write", "flush"])
def test_failed_stdout_write_exits_3(buffered, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStream(buffered))
    code = main(["lattice", "--d", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1
    assert "No space left on device" in err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_stdout_on_a_full_device_exits_3():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "delpezzo1.cli", "verify", "--poly", X8_POLY],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("error", [ValueError("two\nlines"), TypeError("no such operand")])
def test_internal_exception_exits_3(error, monkeypatch, capsys):
    def broken(seed, prime_bound):
        raise error

    monkeypatch.setattr(galois, "certify_galois", broken)
    code = main(["galois", "--poly", X8_POLY])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert type(error).__name__ in err


@pytest.mark.parametrize("bound", ["1", "0", "-5"])
def test_prime_bound_below_2_is_an_argparse_error(bound, monkeypatch, capsys):
    monkeypatch.setattr(galois, "certify_galois", _never_called)
    assert main(["galois", "--poly", X8_POLY, "--prime-bound", bound]) == 2
    assert "argument --prime-bound: expected an integer of at least 2" in capsys.readouterr().err


def test_prime_bound_above_10000_is_an_argparse_error(monkeypatch, capsys):
    monkeypatch.setattr(galois, "certify_galois", _never_called)
    assert main(["galois", "--poly", X8_POLY, "--prime-bound", "10001"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "delpezzo1 galois: error: argument --prime-bound: "
        "expected an integer of at least 2 and at most 10000, got '10001'"
    ]


def test_largest_prime_bound_stays_cheap(capsys):
    # the sampler cannot certify x^8 + 1, so it samples all 1229 primes
    start = time.perf_counter()
    code = main(["galois", "--poly", "1,0,0,0,0,0,0,0,1", "--prime-bound", "10000"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["witnesses"]["verdict"] == "inconclusive"
    assert elapsed < 5


def test_galois_subcommand(capsys):
    code = main(["galois", "--poly", "1,0,0,0,0,0,0,0,1", "--prime-bound", "100"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1  # inconclusive is a failed check, with evidence attached
    assert payload["witnesses"]["verdict"] == "inconclusive"
    assert payload["witnesses"]["sampled_cycle_types"]


def test_rational_coefficients_parse(capsys):
    code = main(["position", "--poly", "1/3,-1/2,0,0,0,0,0,0,1"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert payload["seed"][0] == "1/3"


def test_text_format(capsys):
    code = main(["lattice", "--d", "2", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checks.root_count = true" in out
    assert "witnesses.root_count = 126" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["construct", "--poly", X8_POLY, "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "construct"


def test_verify_runs_are_byte_identical():
    a = run_cli(["verify", "--poly", X8_POLY, "--prime-bound", "200"])
    b = run_cli(["verify", "--poly", X8_POLY, "--prime-bound", "200"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_no_module_imports_random():
    # the trusted path is deterministic: no module draws random numbers
    paths = sorted(Path(delpezzo1.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [path.name for name in names if name.split(".")[0] == "random"]
    assert offenders == []


def test_no_assert_or_debug_so_python_O_changes_nothing():
    # python -O strips assert statements and sets __debug__ to False; with
    # neither in the package, every run under -O is the run without it
    paths = sorted(Path(delpezzo1.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    offenders = [
        (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert offenders == []


def test_no_module_imports_a_private_name_of_a_sibling():
    # each layer hands its siblings finished values through public names;
    # tests may still reach private helpers
    paths = sorted(Path(delpezzo1.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    offenders = [
        (path.name, node.module, alias.name)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("delpezzo1"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


IMPORT_PROBE = """
import importlib, json, sys

def loaded_after(name):
    for key in [k for k in sys.modules if k == "delpezzo1" or k.startswith("delpezzo1.")]:
        del sys.modules[key]
    importlib.import_module(name)
    return sorted(k.split(".")[1] for k in sys.modules if k.startswith("delpezzo1."))

print(json.dumps({name: loaded_after(name) for name in sys.argv[1:]}))
"""


def test_root_imports_nothing_and_each_module_imports_first():
    # the root re-exports nothing, so importing one module loads only what
    # it imports, and any module can come first without an import cycle
    stems = sorted(p.stem for p in Path(delpezzo1.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert "lattice" in stems
    names = ["delpezzo1"] + [f"delpezzo1.{stem}" for stem in stems]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *names], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["delpezzo1"] == []
    assert not {"curve", "position", "galois", "quotient", "cli"} & set(loaded["delpezzo1.lattice"])
    # the seed is its polynomial h, so the seeded checks need no curve types
    assert "curve" not in loaded["delpezzo1.galois"]
    assert "curve" not in loaded["delpezzo1.position"]


def test_only_cli_imports_curve():
    importers = set()
    for path in Path(delpezzo1.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            elif isinstance(node, ast.ImportFrom):
                targets = [f"delpezzo1.{name}" for name in [node.module] if name]
                targets += [f"delpezzo1.{alias.name}" for alias in node.names if not node.module]
            else:
                continue
            if "delpezzo1.curve" in targets:
                importers.add(path.stem)
    assert importers == {"cli"}


def test_cli_imports_one_entry_point_per_layer():
    # the construct, lattice and Galois reports are built in their own
    # modules; cli.py builds no Check but the Galois verdict that verify
    # lists apart from its witness block
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    assert None not in imported  # no "from . import lattice"
    assert imported["lattice"] == ["lattice_checks"]
    assert imported["galois"] == ["galois_check"]
    assert "model_degree_check" in imported["curve"]
    assert not hasattr(cli, "_galois_check")
    builders = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check"
    }
    assert builders == {"_verify"}
    construct = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_construct")
    attributes = {node.attr for node in ast.walk(construct) if isinstance(node, ast.Attribute)}
    assert not attributes & {"q_form", "total_degree", "p_reduced", "g_cubic"}


# each detailed lattice check, and the emitted check that reports its verdict
LATTICE_BLOCKS = {
    "f8s_iso_check": "mod2_identification",
    "picard_model_check": "picard_gram",
    "mod2_quadratic_census": "mod2_census",
    "linalg_lemma_check": "independence_lemma_small",
}


@pytest.mark.parametrize("block", sorted(LATTICE_BLOCKS))
def test_failing_lattice_block_reaches_the_report(block, monkeypatch, capsys):
    assert main(["lattice", "--d", "1"]) == 0
    passing = json.loads(capsys.readouterr().out)
    original = getattr(lattice, block)

    def failing(*args):
        return dataclasses.replace(original(*args), passed=False)

    monkeypatch.setattr(lattice, block, failing)
    assert main(["lattice", "--d", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [name for name, ok in payload["checks"].items() if not ok] == [LATTICE_BLOCKS[block]]
    assert payload["witnesses"] == passing["witnesses"]


def test_unrenderable_witness_exits_3(monkeypatch, capsys):
    certify = galois.certify_galois

    def opaque(seed, prime_bound):
        return dataclasses.replace(certify(seed, prime_bound), discriminant=object())

    monkeypatch.setattr(galois, "certify_galois", opaque)
    for fmt in ("json", "text"):
        code = main(["galois", "--poly", X8_POLY, "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "error: TypeError: no JSON form for object\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string digit limit")
@pytest.mark.parametrize("tall", [10**4400, Fraction(-(10**4400), 3)], ids=["int", "Fraction"])
def test_witness_over_the_digit_limit_exits_3(tall, monkeypatch, capsys):
    certify = galois.certify_galois

    def tall_witness(seed, prime_bound):
        return dataclasses.replace(certify(seed, prime_bound), discriminant=tall)

    monkeypatch.setattr(galois, "certify_galois", tall_witness)
    for fmt, oracle in (("json", canonical_json_two_step), ("text", text_two_step)):
        with pytest.raises(ValueError) as expected:
            oracle({"discriminant": tall})
        code = main(["galois", "--poly", X8_POLY, "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == f"error: ValueError: {expected.value}\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--poly", X8_POLY],
        ["position", "--poly", X8_POLY],
        ["lattice", "--d", "2"],
        ["lattice", "--d", "1"],
    ],
    ids=["verify", "position", "lattice", "lattice-d1"],
)
def test_a_call_leaves_no_cyclic_garbage(argv, fmt):
    # cyclic garbage waits for a full collection, which raises the peak memory
    argv = [*argv, "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # warm-up: builds the cached parser
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert garbage == []


@pytest.mark.parametrize("case", DIGESTS, ids=lambda case: " ".join(case["argv"]))
def test_output_bytes_match_recorded_digests(case, capsys):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    # a verdict writes nothing to stderr; a failure is reported in one line
    assert len(err.splitlines()) == (0 if code in (0, 1) else 1)


def _count_calls(monkeypatch, home, name: str) -> list:
    """Wrap home.name at every delpezzo1 module that binds it; record each call."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "delpezzo1":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_builds_each_form_once(monkeypatch, capsys):
    # verify reuses the bundle's v and w in the sextic certificate, the
    # singular-cubic check and w's double vanishing; the one rank is the
    # independence of u and v
    v_calls = _count_calls(monkeypatch, curve, "build_v")
    w_calls = _count_calls(monkeypatch, curve, "build_w")
    rank_calls = _count_calls(monkeypatch, linalg, "q_rank")
    assert main(["verify", "--poly", X8_POLY]) == 0
    capsys.readouterr()
    assert (len(v_calls), len(w_calls), len(rank_calls)) == (1, 1, 1)


def test_parser_reused_after_a_bad_command_line(capsys):
    # the parser is built once and shared by every main call; a rejected
    # command line must leave it fit for the next one
    assert main(["lattice", "--d", "3"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    case = next(c for c in DIGESTS if c["argv"] == ["lattice", "--d", "2", "--format", "json"])
    assert main(case["argv"]) == case["exit"] == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    assert main(["lattice", "--d", "3"]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv, merged",
    [
        (["verify", "--poly", "-1,2", "--format", "text"], ["verify", "--poly=-1,2", "--format", "text"]),
        (["--poly", "--poly", "-1"], ["--poly=--poly", "-1"]),
        (["--poly", "x", "--poly", "y"], ["--poly=x", "--poly=y"]),
        (["galois", "--poly"], ["galois", "--poly"]),
        (["--poly=-1", "--format"], ["--poly=-1", "--format"]),
    ],
)
def test_poly_flag_takes_the_next_argument_whole(argv, merged):
    # the value after --poly is joined to it even when it looks like a flag;
    # a trailing --poly is left for argparse to reject
    assert cli._merge_poly_flag(argv) == merged


def test_help_twice(capsys):
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert "usage: delpezzo1" in first
