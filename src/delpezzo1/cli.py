"""Command-line front end.

Each subcommand is one entry of SUBCOMMANDS: the parser is built from the
table, and the entry's build returns its ordered checks plus any extra
blocks, which one assembler turns into the report.  Every input rule is
checked before any computation, by argparse or by validate_seed.  Exit
codes: 0 every requested check passed, 1 a mathematical check failed (the
report carries a witness), 2 invalid input (an argparse error or a
SeedError), 3 any other failure, I/O included, in one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .curve import (
    U_FORM,
    SeedError,
    build_bundle,
    build_v,
    model_degree_check,
    validate_seed,
    verify_bundle,
)
from .galois import galois_check
from .lattice import lattice_checks
from .position import position_checks
from .serialize import Check, to_canonical_json, to_text
from .unipoly import UniPoly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_ERROR = 3

# The ceiling bounds the work and the report on a seed the Galois sampler
# cannot certify, which samples every prime up to the bound: 1229 of them.
MAX_PRIME_BOUND = 10_000


def _forms(bundle) -> dict:
    return {"u": U_FORM, "v": bundle.v, "w": bundle.w, "Q": bundle.q_form}


def _construct(h: UniPoly, args) -> tuple[list[Check], dict]:
    bundle = build_bundle(h)
    return [model_degree_check(bundle)], {"forms": _forms(bundle)}


def _verify(h: UniPoly, args) -> tuple[list[Check], dict]:
    bundle = build_bundle(h)
    checks = verify_bundle(bundle) + position_checks(h, bundle.v)
    galois = galois_check(h, args.prime_bound)
    checks.append(Check(galois.name, galois.passed, None))
    return checks, {"forms": _forms(bundle), "galois": galois.witness}


def _position(h: UniPoly, args) -> tuple[list[Check], dict]:
    return position_checks(h, build_v(h)), {}


def _galois(h: UniPoly, args) -> tuple[list[Check], dict]:
    return [galois_check(h, args.prime_bound)], {}


def _lattice(seed: None, args) -> tuple[list[Check], dict]:
    return lattice_checks(args.d), {}


# name -> (build, nested, help, flags).  build(seed, args) returns the
# ordered checks and any extra top-level blocks.  With nested, the witnesses
# block maps each check's name to its witness; otherwise the witness fields
# of all checks are merged into one (a witness of None is left out either
# way).  flags come before --format and --output; --poly means a seed.
SUBCOMMANDS = {
    "construct": (_construct, False, "emit the forms u, v, w, Q", ("--poly",)),
    "verify": (_verify, True, "full verification report", ("--poly", "--prime-bound")),
    "position": (_position, True, "general-position checks only", ("--poly",)),
    "galois": (_galois, False, "Galois-group certificate only", ("--poly", "--prime-bound")),
    "lattice": (_lattice, False, "lattice and mod-2 checks", ("--d",)),
}


def build_report(args) -> tuple[dict, bool]:
    """The report payload of a parsed command line, and whether every check passed."""
    build, nested, _, _ = SUBCOMMANDS[args.command]
    seed = validate_seed(args.poly.split(",")) if "poly" in args else None
    checks, blocks = build(seed, args)
    witnesses: dict = {}
    for check in checks:
        if check.witness is None:
            continue
        if nested:
            witnesses[check.name] = check.witness
        else:
            witnesses.update(check.witness)
    payload = {
        "command": args.command,
        "seed": seed,
        "checks": {check.name: check.passed for check in checks},
        "witnesses": witnesses,
        **blocks,
    }
    return payload, all(check.passed for check in checks)


def _prime_bound(text: str) -> int:
    """The --prime-bound value: an integer from 2 to MAX_PRIME_BOUND."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 2 <= value <= MAX_PRIME_BOUND:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 2 and at most {MAX_PRIME_BOUND}, got {text!r}"
        )
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one stderr line, like every other failure."""

    def error(self, message: str):
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = _Parser(
        prog="delpezzo1",
        description=(
            "Construct the degree-9 plane branch-curve model of a normalized "
            "octic seed and machine-check the finite facts about it."
        ),
    )
    flags = {
        "--poly": {
            "required": True,
            "help": "9 comma-separated rational coefficients, ascending (constant first)",
        },
        "--prime-bound": {"type": _prime_bound, "default": 500},
        "--d": {"type": int, "default": 1, "choices": (1, 2)},
        "--format": {"choices": ("json", "text"), "default": "json"},
        "--output": {"default": None, "help": "write the report here instead of stdout"},
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_line, own) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in (*own, "--format", "--output"):
            p.add_argument(flag, **flags[flag])
    return parser


def _merge_poly_flag(argv: list[str]) -> list[str]:
    """Join '--poly <value>' into '--poly=<value>'.

    Coefficient lists routinely start with a minus sign, which argparse
    would otherwise read as an option name.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--poly":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_merge_poly_flag(argv))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK

    try:
        payload, ok = build_report(args)
        rendered = to_canonical_json(payload) if args.format == "json" else to_text(payload)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
            sys.stdout.flush()
    except SeedError as exc:
        sys.stderr.write(f"invalid seed [{exc.code}]: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:  # every other failure is an internal or I/O error
        message = " ".join(str(exc).splitlines())
        sys.stderr.write(f"error: {type(exc).__name__}: {message}\n")
        return EXIT_ERROR
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
