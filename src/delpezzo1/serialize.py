"""Checks and their canonical, byte-stable serialization.

Every finitely checkable fact is a :class:`Check`: a name, a verdict and
the witness that decided it, holding raw values.  Rendering walks those raw
values once, in :func:`_write`, and writes each straight to JSON text; no
JSON-ready copy of the payload is made.  Numbers are decimal strings (never
floats), monomials are listed in descending graded-lex order, and JSON keys
are sorted, so two runs on any platform emit identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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


def _sorted_keys(value: dict) -> list[str]:
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"no JSON form for {type(key).__name__}")
    return sorted(value)


def _layout(pad: str | None) -> tuple[str | None, str, str, str]:
    """(pad of the items, text after the opening bracket, item separator,
    text before the closing bracket) of a nonempty container at `pad`."""
    if pad is None:
        return None, "", ", ", ""
    inner = pad + "  "
    return inner, inner, "," + inner, pad


def _term_template(pad: str | None) -> str:
    """A TriPoly term {"c": coeff, "e": [i, j, k]} at `pad`, with a %s and three %d slots."""
    inner, first, sep, last = _layout(pad)
    _, e_first, e_sep, e_last = _layout(inner)
    exponents = "[" + e_first + e_sep.join(("%d",) * 3) + e_last + "]"
    return "{" + first + '"c": "%s"' + sep + '"e": ' + exponents + last + "}"


def _write(value, pad: str | None, out: list[str]) -> None:
    """Append the JSON text of `value` to `out`.

    `pad` is the newline and indentation at value's depth, for the layout of
    json.dumps(indent=2, sort_keys=True); None writes one line with the
    separators ", " and ": " of json.dumps(sort_keys=True).  Strings are
    escaped to ASCII.  The listed types are dicts with str keys, lists,
    tuples, True, False, None, ints and strings; a Fraction is written as
    its decimal string, a UniPoly as its ascending coefficient strings ([]
    for zero), a TriPoly as its monomial list
    [{"c": "coeff", "e": [i, j, k]}, ...], leading term first.  Any other
    type, a dict key's included, raises TypeError, so no new witness type
    changes the bytes unseen.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Fraction):
        out.append('"%s"' % value)
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, first, sep, last = _layout(pad)
        out.append("{" + first)
        for key in _sorted_keys(value):
            out.append(_quote(key) + ": ")
            _write(value[key], inner, out)
            out.append(sep)
        out[-1] = last + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, first, sep, last = _layout(pad)
        out.append("[" + first)
        for item in value:
            _write(item, inner, out)
            out.append(sep)
        out[-1] = last + "]"
    elif isinstance(value, (UniPoly, TriPoly)):
        inner, first, sep, last = _layout(pad)
        if isinstance(value, UniPoly):
            items = ['"%s"' % c for c in value.coeffs]
        else:
            term = _term_template(inner)
            items = [term % (c, i, j, k) for (i, j, k), c in value.sorted_terms()]
        out.append("[" + first + sep.join(items) + last + "]" if items else "[]")
    else:
        raise TypeError(f"no JSON form for {type(value).__name__}")


def to_canonical_json(payload: dict) -> str:
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _flatten(prefix: str, value, out: list[str]):
    if isinstance(value, dict):
        for key in _sorted_keys(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], out)
    else:
        line = [prefix, " = "]
        _write(value, None, line)
        out.append("".join(line))


def to_text(payload: dict) -> str:
    """Line-per-field rendering mirroring the JSON structure; an empty dict adds no line."""
    lines: list[str] = []
    _flatten("", payload, lines)
    return "\n".join(lines) + "\n"
