"""Canonical, byte-deterministic serialization of polynomials and tables.

Polynomials serialize as sorted term lists (descending graded-lex over the
registry order), each term a ``[coefficient, exponent-map]`` pair with the
coefficient as an exact string.  Cyclotomic coefficients are flattened into
the exponent map under the pseudo-variable ``zeta`` with ascending powers.
Multipartitions serialize as nested arrays of parts.  The JSON text is
byte-for-byte ``json.dumps(payload, indent=2, sort_keys=True)`` plus a
newline, rendered in one pass that joins each container once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii

from superfrob.combinat import Multipartition
from superfrob.exact import CyclotomicNumber, Poly, VariableRegistry


# Cyclotomic table entries print as constants over a registry with no variables.
_SCALARS = VariableRegistry(())


def _as_poly(entry) -> Poly:
    if isinstance(entry, CyclotomicNumber):
        # the empty monomial has key 0
        return Poly._raw(_SCALARS, {0: entry} if any(entry.coeffs) else {}, True)
    return entry


def _flat_terms(f: Poly, memo: dict | None = None) -> list:
    """(coefficient, name->exp map) per flattened term, in canonical order.

    The order is descending graded-lex over the registry layout.  A
    cyclotomic coefficient splits into one term per nonzero zeta power, with
    the power recorded under the pseudo-variable ``zeta``.  ``memo``, one dict
    per table, holds per registry each key's sort key and exponent maps: a
    key met in many entries is decoded once, and its maps are the same
    objects in every term.
    """
    registry = f.registry
    seen = {} if memo is None else memo.setdefault(registry, {})
    for key in f.terms:
        if key not in seen:
            exps = registry.decode(key)
            powers = {name: e for name, e in zip(registry.names(), exps) if e}
            seen[key] = ((sum(exps), exps), powers, {0: powers})
    terms = f.terms.items()
    if len(terms) > 1:
        terms = sorted(terms, key=lambda kv: seen[kv[0]][0], reverse=True)
    out = []
    for key, coeff in terms:
        _, powers, zetas = seen[key]
        if isinstance(coeff, CyclotomicNumber):
            for power, c in enumerate(coeff.coeffs):
                if c:
                    if power not in zetas:
                        zetas[power] = {**powers, "zeta": power}
                    out.append((c, zetas[power]))
        else:
            out.append((coeff, powers))
    return out


def poly_to_terms(f: Poly) -> list:
    """JSON-ready term list [[coeff-string, {name: exp}], ...]."""
    return [[str(coeff), powers] for coeff, powers in _flat_terms(f)]


def poly_to_string(f: Poly) -> str:
    """Canonical human-readable form, stable across runs.

    This is the package's one term printer; ``repr`` of polynomials and
    cyclotomic numbers and the CSV cells all come from it.
    """
    parts = []
    for coeff, powers in _flat_terms(f):
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers.items())
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def entry_to_string(entry) -> str:
    return poly_to_string(_as_poly(entry))


def multipartition_label(bshape: Multipartition) -> list:
    return [list(component) for component in bshape]


def table_payload(table) -> dict:
    """JSON-ready dict for a character table, per the documented schema.

    Equal terms of different entries are one shared ``[coefficient, map]``
    list, so the payload is to be read, not changed in place.
    """
    memo: dict = {}
    shared: dict = {}

    def entry_terms(entry) -> list:
        out = []
        for coeff, powers in _flat_terms(_as_poly(entry), memo):
            term = shared.get((coeff, id(powers)))
            if term is None:
                term = shared[coeff, id(powers)] = [str(coeff), powers]
            out.append(term)
        return out

    return {
        "m": table.m,
        "n": table.n,
        "row_labels": [multipartition_label(b) for b in table.rows],
        "col_labels": [multipartition_label(b) for b in table.cols],
        "entries": [[entry_terms(e) for e in row] for row in table.entries],
        "solve_profile": {"k": list(table.solve_profile.bk), "l": list(table.solve_profile.bl)},
        "specialized": table.specialized,
        "zeta_order": table.m if table.specialized else None,
        "trivial_row_index": table.trivial_row_index,
    }


def table_to_csv(table) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["lambda\\mu"] + [json.dumps(multipartition_label(b)) for b in table.cols]
    )
    for bshape, row in zip(table.rows, table.entries):
        writer.writerow(
            [json.dumps(multipartition_label(bshape))] + [entry_to_string(e) for e in row]
        )
    return buffer.getvalue()


def _json_scalar(value) -> str:
    """A JSON leaf as ``json.dumps`` writes it (ASCII only, NaN allowed)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a non-string scalar becomes its JSON text."""
    return encode_basestring_ascii(key if isinstance(key, str) else _json_scalar(key))


def _render(value, indent: str, memo: dict) -> str:
    """``value`` in the layout of ``json.dumps(indent=2, sort_keys=True)``, opened at ``indent``.

    Each container is rendered once per indent, keyed on its ``id`` in
    ``memo``: the payload is alive for the whole call, so an id stays its
    object's.  A container that holds itself raises RecursionError where
    ``json.dumps`` raises ValueError.
    """
    if not isinstance(value, (list, tuple, dict)):
        return _json_scalar(value)
    memo_key = (id(value), indent)
    text = memo.get(memo_key)
    if text is not None:
        return text
    if not value:
        text = "{}" if isinstance(value, dict) else "[]"
    else:
        inner = indent + "  "
        separator = ",\n" + inner
        if isinstance(value, dict):
            body = separator.join(
                f"{_json_key(key)}: {_render(item, inner, memo)}"
                for key, item in sorted(value.items())
            )
            text = f"{{\n{inner}{body}\n{indent}}}"
        else:
            body = separator.join([_render(item, inner, memo) for item in value])
            text = f"[\n{inner}{body}\n{indent}]"
    memo[memo_key] = text
    return text


def json_text(payload) -> str:
    """Deterministic JSON rendering: sorted keys, fixed indentation, newline end.

    The text equals ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
    byte for byte; each shared container is rendered once per indent.
    """
    return _render(payload, "", {}) + "\n"
