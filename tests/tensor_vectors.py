"""{tuple: Poly} tensor vectors for the tests, around the flat operators.

The tensor operators act on the flat form of a vector, a dict from (index
tuple, monomial key) pairs to coefficients (``tensorrep.FlatVector``).  The
tests state their references per tuple, with one ``Poly`` coefficient each;
these helpers convert between the two forms around ``apply_word`` and the
classical kernel.
"""

from superfrob import tensorrep
from superfrob.exact import Poly, StructuralError


def to_flat(ctx, vec):
    """The flat form of vec; each coefficient is held to the int32 factor rule
    of a product, since the kernels add keys."""
    flat = {}
    for tup, coeff in vec.items():
        if coeff.registry is not ctx.registry and coeff.registry != ctx.registry:
            raise StructuralError("vector coefficient lives in another registry")
        coeff._check_int32()
        for key, value in coeff.terms.items():
            flat[tup, key] = value
    return flat


def to_polys(ctx, flat):
    grouped = {}
    for (tup, key), value in flat.items():
        grouped.setdefault(tup, {})[key] = value
    return {tup: Poly._raw(ctx.registry, terms) for tup, terms in grouped.items()}


def apply_word(ctx, word, vec):
    """tensorrep.apply_word on a {tuple: Poly} vector."""
    return to_polys(ctx, tensorrep.apply_word(ctx, word, to_flat(ctx, vec)))


def classical_apply(ctx, element, vec, m):
    """The classical (q = 1) action of a wreath element on a {tuple: Poly} vector."""
    return to_polys(ctx, tensorrep._classical_kernel(ctx, element, m, to_flat(ctx, vec)))


def basis_vector(ctx, tup):
    return {tuple(tup): ctx.one}


def vec_add(a, b):
    out = dict(a)
    for tup, value in b.items():
        total = out[tup] + value if tup in out else value
        if total.is_zero():
            out.pop(tup, None)
        else:
            out[tup] = total
    return out


def vec_scale(vec, scale):
    out = {}
    for tup, value in vec.items():
        product = value * scale
        if not product.is_zero():
            out[tup] = product
    return out


def vec_equal(a, b):
    return set(a) == set(b) and all(a[tup] == b[tup] for tup in a)
