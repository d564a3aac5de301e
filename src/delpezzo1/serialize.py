"""Checks and their canonical, byte-stable serialization.

Every finitely checkable fact is a :class:`Check`: a name, a verdict and
the witness that decided it, holding raw values.  Conversion to JSON
values happens once, at render time, in :func:`jsonable`.  Numbers are
decimal strings (never floats), monomials are listed in descending
graded-lex order, and JSON keys are sorted, so two runs on any platform
emit identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .tripoly import TriPoly
from .unipoly import UniPoly


@dataclass(frozen=True)
class Check:
    """One checked fact: its name, its verdict and the witness that decided it.

    `witness` holds raw values (Fraction, UniPoly, ...); None means the
    evidence is reported in a block of its own.
    """

    name: str
    passed: bool
    witness: dict | None


def jsonable(value):
    """JSON-ready copy of a payload of dicts, lists, tuples, ints, strings and None.

    Fractions become decimal strings, a UniPoly its ascending coefficient
    strings ([] for zero), a TriPoly its monomial list
    [{"e": [i, j, k], "c": "coeff"}, ...], leading term first; any other
    type raises TypeError, so no new witness type changes the bytes unseen.
    """
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, UniPoly):
        return [str(c) for c in value.coeffs]
    if isinstance(value, TriPoly):
        return [{"e": list(e), "c": str(c)} for e, c in value.sorted_terms()]
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def to_canonical_json(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _flatten(prefix: str, value, out: list[str]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        out.append(f"{prefix} = {json.dumps(value, sort_keys=True)}")
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def to_text(payload: dict) -> str:
    """Line-per-field rendering mirroring the JSON structure."""
    lines: list[str] = []
    _flatten("", jsonable(payload), lines)
    return "\n".join(lines) + "\n"
