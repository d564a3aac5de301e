"""Seeded inputs for the three benchmark workloads, and the correctness gate.

Every input is a CLI argument vector; the program only ever sees the
generated coefficient strings.  The same seed always yields the same
inputs, in the same order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1

X8_COEFFS = ("-1", "-1", "0", "0", "0", "0", "0", "0", "1")
# Denominators divisible by 2, 3 and 5, so the Galois sampler has primes to skip.
FIXED_FRACTION_COEFFS = ("1/6", "-5/12", "7/10", "3/4", "-3/5", "1/15", "2/3", "0", "1")

# Frozen control seeds from tests/conftest.py, with the integer root sets
# they were built from (the roots feed the brute-force position verdicts).
FROZEN_POSITION_SEEDS = (
    ((-40320, 61104, -15508, -8340, 3009, 156, -102, 0, 1), (1, 2, -3, 4, 5, 6, -7, -8)),
    ((316800, -264240, -145924, 78300, 18609, -3060, -486, 0, 1), (2, -2, 1, 5, 24, -4, -11, -15)),
    ((3131128, -1896786, -1542811, 239940, 71151, -2034, -589, 0, 1), (1, -2, 4, 11, 23, -7, -13, -17)),
)

# Checks that verify_bundle produces; each must pass for every valid seed.
CONSTRUCTION_CHECKS = (
    "cubic_space_dimension",
    "cubic_space_ninth_point",
    "genus",
    "model_degree",
    "multiplicity_exactly_3",
    "pencil_squares_vanish_at_ninth_point",
    "perfect_power_dichotomy",
    "sextic_space_dimension",
    "v_parametric_identity",
    "v_x_degree",
    "vanishing_to_order_2",
    "w_ninth_point_value",
    "w_vanishes_doubly_on_points",
)


@dataclass(frozen=True)
class Item:
    """One CLI call, plus what the gate needs to judge its output."""

    argv: tuple[str, ...]
    roots: tuple[int, ...] = ()  # known integer roots of a position seed
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def poly_from_roots(roots) -> tuple[int, ...]:
    """Ascending integer coefficients of prod (t - r)."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [shifted[i] - r * (coeffs[i] if i < len(coeffs) else 0) for i in range(len(shifted))]
    return tuple(coeffs)


def _poly_arg(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


# -- verify_generic ----------------------------------------------------------

VERIFY_POOL = 300
# Two thirds small seeds, one third tall, interleaved so that any prefix of
# the pool keeps the mix: the median lands among small seeds, p90 among tall.
VERIFY_PATTERN = ("small", "small", "int100", "small", "small", "fraction")


def _draw_coeffs(rng: random.Random, kind: str) -> tuple[str, ...]:
    if kind == "small":
        low = [rng.randint(-9, 9) for _ in range(7)]
    elif kind == "int100":
        low = [rng.randint(-(2**100), 2**100) for _ in range(7)]
    else:
        low = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)) for _ in range(7)]
    return tuple(str(c) for c in low) + ("0", "1")


def verify_items(seed: int, curve) -> list[Item]:
    """Random normalized octics; X8 and one fixed fractional seed come first."""
    rng = random.Random(f"verify_generic/{seed}")
    fixed = {0: X8_COEFFS, VERIFY_PATTERN.index("fraction"): FIXED_FRACTION_COEFFS}
    seen: set[tuple[str, ...]] = set()
    items = []
    for i in range(VERIFY_POOL):
        kind = VERIFY_PATTERN[i % len(VERIFY_PATTERN)]
        coeffs = fixed.get(i)
        while coeffs is None or coeffs in seen:
            coeffs = _draw_coeffs(rng, kind)
            try:
                curve.validate_seed(coeffs)
            except curve.SeedError:
                coeffs = None
        seen.add(coeffs)
        argv = ("verify", "--poly", _poly_arg(coeffs), "--prime-bound", "500")
        items.append(Item(argv, meta={"kind": kind, "seed": coeffs}))
    return items


# -- position_degenerate -----------------------------------------------------

POSITION_POOL = 40
POSITION_VERDICTS = ("collinear-fail", "conic-fail", "pass")


def position_verdict(roots) -> tuple[bool, bool]:
    """(no three distinct roots sum to 0, no two roots sum to 0), by brute force."""
    three = all(sum(c) != 0 for c in itertools.combinations(roots, 3))
    two = all(sum(c) != 0 for c in itertools.combinations(roots, 2))
    return three, two


_VERDICT_NAMES = {(False, True): "collinear-fail", (True, False): "conic-fail", (True, True): "pass"}


def _draw_degenerate_roots(rng: random.Random) -> tuple[int, ...] | None:
    """Eight distinct nonzero integers summing to 0 that contain a pair {a, -2a}.

    The pair makes the triple a + a - 2a vanish, which forces the deflated
    collinearity path whatever the verdict.
    """
    a = rng.choice([x for x in range(-12, 13) if x])
    others = rng.sample([x for x in range(-25, 26) if x not in (0, a, -2 * a)], 5)
    last = -(a - 2 * a + sum(others))
    roots = (a, -2 * a, *others, last)
    if last == 0 or abs(last) > 30 or len(set(roots)) != 8:
        return None
    return roots


def position_items(seed: int, curve=None) -> list[Item]:
    """The frozen controls, then generated seeds cycling through the verdicts."""
    rng = random.Random(f"position_degenerate/{seed}")
    items = []
    for coeffs, roots in FROZEN_POSITION_SEEDS:
        items.append(Item(("position", "--poly", _poly_arg(coeffs)), roots))
    seen = {frozenset(r) for _, r in FROZEN_POSITION_SEEDS}
    wanted = itertools.cycle(POSITION_VERDICTS)
    while len(items) < POSITION_POOL:
        verdict = next(wanted)
        while True:
            roots = _draw_degenerate_roots(rng)
            if roots and frozenset(roots) not in seen and _VERDICT_NAMES.get(position_verdict(roots)) == verdict:
                break
        seen.add(frozenset(roots))
        items.append(Item(("position", "--poly", _poly_arg(poly_from_roots(roots))), roots))
    return items


# -- lattice_checks ----------------------------------------------------------

# One d = 1 call per two d = 2 calls: the median lands on d = 2, p90 on d = 1.
LATTICE_CYCLE = ("1", "2", "2")


def lattice_items(seed: int, curve=None) -> list[Item]:
    return [Item(("lattice", "--d", d), meta={"d": int(d)}) for d in LATTICE_CYCLE]


# -- warm-up calls ------------------------------------------------------------

# Cheap calls run once per set-up, so that set-up finishes every lazy import.
VERIFY_WARMUP = Item(
    ("verify", "--poly", _poly_arg(X8_COEFFS), "--prime-bound", "500"), meta={"seed": X8_COEFFS}
)
# All odd, so no three roots (repeats included) sum to 0: the fast collinearity path.
FAST_PATH_ROOTS = (1, 5, 7, 9, 11, -3, -13, -17)
POSITION_WARMUP = Item(("position", "--poly", _poly_arg(poly_from_roots(FAST_PATH_ROOTS))), FAST_PATH_ROOTS)
LATTICE_WARMUP = Item(("lattice", "--d", "2"), meta={"d": 2})


# -- correctness gate ----------------------------------------------------------


def load_golden() -> dict[str, list]:
    """argv -> [exit code, sha256 of stdout] recorded for the default seed."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["calls"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_invariants(item: Item, payload: dict) -> str | None:
    failed = [c for c in CONSTRUCTION_CHECKS if payload["checks"].get(c) is not True]
    if failed:
        return f"construction checks failed: {failed}"
    if payload["seed"] != [str(Fraction(c)) for c in item.meta["seed"]]:
        return "seed echo differs from the input"
    return None


def _position_invariants(item: Item, payload: dict) -> str | None:
    three, two = position_verdict(item.roots)
    checks = payload["checks"]
    if checks["no_three_collinear"] != three or checks["no_six_on_conic"] != two:
        return f"verdicts differ from brute force over roots {item.roots}"
    return None


def _lattice_invariants(item: Item, payload: dict) -> str | None:
    expected_roots = 240 if item.meta["d"] == 1 else 126
    if not all(payload["checks"].values()):
        return "a lattice check failed"
    if payload["witnesses"]["root_count"] != expected_roots:
        return f"root count {payload['witnesses']['root_count']}, expected {expected_roots}"
    return None


INVARIANTS = {
    "verify": _verify_invariants,
    "position": _position_invariants,
    "lattice": _lattice_invariants,
}


def check_call(item: Item, code, out: str, golden: dict) -> str | None:
    """Reason the call's result is wrong, or None when it passes the gate."""
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n" != out:
        return "stdout is not canonical JSON"
    if payload.get("command") != item.argv[0]:
        return "wrong command in report"
    if (code == 0) != all(payload["checks"].values()):
        return "exit code disagrees with the checks"
    expected = golden.get(item.key)
    if expected is not None and expected != [code, digest(out)]:
        return "output differs from the golden record"
    try:
        return INVARIANTS[item.argv[0]](item, payload)
    except (KeyError, TypeError) as exc:
        return f"report lacks an expected field: {exc!r}"
