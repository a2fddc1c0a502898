"""Canonical, byte-deterministic serialization of polynomials and tables.

Polynomials serialize as sorted term lists (descending graded-lex over the
registry order), each term a ``[coefficient, exponent-map]`` pair with the
coefficient as an exact string.  Cyclotomic coefficients are flattened into
the exponent map under the pseudo-variable ``zeta`` with ascending powers.
Multipartitions serialize as nested arrays of parts.
"""

from __future__ import annotations

import csv
import io
import json

from superfrob.combinat import Multipartition
from superfrob.exact import CyclotomicNumber, Poly, VariableRegistry


# Cyclotomic table entries print as constants over a registry with no variables.
_SCALARS = VariableRegistry(())


def _as_poly(entry) -> Poly:
    if isinstance(entry, CyclotomicNumber):
        return Poly.const(_SCALARS, entry)
    return entry


def _flat_terms(f: Poly):
    """(Fraction, name->exp map) per flattened term, in canonical order.

    A cyclotomic coefficient splits into one term per nonzero zeta power, with
    the power recorded under the pseudo-variable ``zeta``.
    """
    names = f.registry.names()
    out = []
    for exps, coeff in f.sorted_terms():
        powers = {name: e for name, e in zip(names, exps) if e}
        if isinstance(coeff, CyclotomicNumber):
            for power, c in enumerate(coeff.coeffs):
                if c:
                    out.append((c, {**powers, "zeta": power} if power else powers))
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


def entry_to_terms(entry) -> list:
    return poly_to_terms(_as_poly(entry))


def entry_to_string(entry) -> str:
    return poly_to_string(_as_poly(entry))


def multipartition_label(bshape: Multipartition) -> list:
    return [list(component) for component in bshape]


def table_payload(table) -> dict:
    """JSON-ready dict for a character table, per the documented schema."""
    return {
        "m": table.m,
        "n": table.n,
        "row_labels": [multipartition_label(b) for b in table.rows],
        "col_labels": [multipartition_label(b) for b in table.cols],
        "entries": [[entry_to_terms(e) for e in row] for row in table.entries],
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


def json_text(payload) -> str:
    """Deterministic JSON rendering: sorted keys, fixed indentation, newline end."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
