"""Command-line front end.

Subcommands: construct, verify, position, galois, lattice.  Each one is an
entry of SUBCOMMANDS that returns its ordered checks plus any extra
blocks; one assembler turns them into the report.  Exit codes: 0 every
requested check passed, 1 a mathematical check failed (the report carries
a witness), 2 invalid input, 3 an I/O or internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .curve import SeedError, SeedPoly, build_bundle, build_v, validate_seed, verify_bundle
from .galois import certify_galois
from .lattice import (
    build_hyperbolic,
    enumerate_short_vectors,
    f8s_iso_check,
    linalg_lemma_check,
    mod2_quadratic_census,
    orth_complement,
    picard_model_check,
)
from .position import position_checks
from .serialize import Check, to_canonical_json, to_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_ERROR = 3


def _forms(bundle) -> dict:
    return {"u": bundle.u, "v": bundle.v, "w": bundle.w, "Q": bundle.q_form}


def _galois_check(seed: SeedPoly, prime_bound: int) -> Check:
    cert = certify_galois(seed, prime_bound)
    witness = {f.name: getattr(cert, f.name) for f in fields(cert)}
    return Check("galois_certified", cert.certified, witness)


def _construct(seed: SeedPoly, args) -> tuple[list[Check], dict]:
    bundle = build_bundle(seed)
    check = Check(
        "model_degree_9",
        bundle.q_form.total_degree == 9,
        {"reduced_x_derivative": bundle.p_reduced, "cubic_matcher": bundle.g_cubic},
    )
    return [check], {"forms": _forms(bundle)}


def _verify(seed: SeedPoly, args) -> tuple[list[Check], dict]:
    bundle = build_bundle(seed)
    checks = verify_bundle(bundle) + position_checks(seed, bundle.v)
    galois = _galois_check(seed, args.prime_bound)
    checks.append(Check(galois.name, galois.passed, None))
    return checks, {"forms": _forms(bundle), "galois": galois.witness}


def _position(seed: SeedPoly, args) -> tuple[list[Check], dict]:
    return position_checks(seed, build_v(seed)), {}


def _galois(seed: SeedPoly, args) -> tuple[list[Check], dict]:
    return [_galois_check(seed, args.prime_bound)], {}


def _lattice(seed: None, args) -> tuple[list[Check], dict]:
    d = args.d
    marked = build_hyperbolic(d)
    comp = orth_complement(marked.lattice, marked.omega)
    roots = enumerate_short_vectors(comp.lattice, -2)
    pairing = marked.lattice.pair(marked.omega, marked.omega)
    det = comp.lattice.determinant
    checks = [
        Check("omega_self_pairing", pairing == d, {"omega_self_pairing": pairing}),
        Check("complement_rank", comp.lattice.rank == 9 - d, {}),
        Check(
            "complement_determinant",
            abs(det) == (1 if d == 1 else 2),
            {"complement_determinant": det},
        ),
        Check("complement_even", comp.lattice.is_even, {}),
        Check("root_count", len(roots) == (240 if d == 1 else 126), {"root_count": len(roots)}),
    ]
    if d == 1:
        f8s = f8s_iso_check(marked, comp)
        pic = picard_model_check(marked)
        census = mod2_quadratic_census(comp.lattice, roots)
        lemma = linalg_lemma_check()
        checks += [
            Check("mod2_identification", f8s.passed, {}),
            Check("picard_gram", pic.passed, {"picard_diag": pic.witness["diag_pairings"]}),
            Check(
                "mod2_census",
                census.passed,
                {"census_q1": census.witness["nonzero_q1"], "census_q0": census.witness["nonzero_q0"]},
            ),
            Check("independence_lemma_small", lemma.passed, {}),
        ]
    return checks, {}


# name -> (build, nested).  build(seed, args) returns the ordered checks and
# any extra top-level blocks.  With nested, the witnesses block maps each
# check's name to its witness; otherwise the witness fields of all checks
# are merged into one block.  A witness of None is left out either way.
SUBCOMMANDS = {
    "construct": (_construct, False),
    "verify": (_verify, True),
    "position": (_position, True),
    "galois": (_galois, False),
    "lattice": (_lattice, False),
}


def build_report(args) -> tuple[dict, bool]:
    """The report payload of a parsed command line, and whether every check passed."""
    build, nested = SUBCOMMANDS[args.command]
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
        "seed": seed.h if seed else None,
        "checks": {check.name: check.passed for check in checks},
        "witnesses": witnesses,
        **blocks,
    }
    return payload, all(check.passed for check in checks)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="delpezzo1",
        description=(
            "Construct the degree-9 plane branch-curve model of a normalized "
            "octic seed and machine-check the finite facts about it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument(
            "--poly",
            required=True,
            help="9 comma-separated rational coefficients, ascending (constant first)",
        )

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("construct", help="emit the forms u, v, w, Q")
    add_seed(p)
    add_common(p)

    p = sub.add_parser("verify", help="full verification report")
    add_seed(p)
    p.add_argument("--prime-bound", type=int, default=500)
    add_common(p)

    p = sub.add_parser("position", help="general-position checks only")
    add_seed(p)
    add_common(p)

    p = sub.add_parser("galois", help="Galois-group certificate only")
    add_seed(p)
    p.add_argument("--prime-bound", type=int, default=500)
    add_common(p)

    p = sub.add_parser("lattice", help="lattice and mod-2 checks")
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    add_common(p)

    return parser


def _merge_poly_flag(argv: list[str]) -> list[str]:
    """Join '--poly <value>' into '--poly=<value>'.

    Coefficient lists routinely start with a minus sign, which argparse
    would otherwise read as an option name.
    """
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--poly" and i + 1 < len(argv):
            out.append("--poly=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_poly_flag(list(argv)))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0

    try:
        payload, ok = build_report(args)
        rendered = to_canonical_json(payload) if args.format == "json" else to_text(payload)
    except SeedError as exc:
        sys.stderr.write(f"invalid seed [{exc.code}]: {exc}\n")
        return EXIT_BAD_INPUT
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_BAD_INPUT
    except ArithmeticError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_ERROR

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"cannot write the report: {exc}\n")
            return EXIT_ERROR
    else:
        sys.stdout.write(rendered)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
