"""Exact arithmetic core: sparse Laurent polynomials, cyclotomic numbers, linear solving.

Every quantity in this package is exact.  Coefficients are integers, or
rationals (``fractions.Fraction``) where a division needs one, or elements
of a cyclotomic field Q(zeta_m) represented modulo the m-th cyclotomic
polynomial.  Polynomials are sparse maps from monomials to coefficients; the
exponent-vector layout is fixed by a :class:`VariableRegistry`, and each
monomial is stored as the int key of its exponent vector under the
registry's linear codec (one 64-bit digit per variable, so a product of
monomials is one int addition).  Exponent tuples are formed only at the
boundary: by :meth:`Poly.decoded_terms`, which ``substitute`` and
``transport`` read, and by :meth:`VariableRegistry.decode`, which the
specialization and the printers call once per distinct key of a table.
Negative exponents are permitted only at registry positions flagged
invertible (in practice: the Hecke parameter q).

The domain limits on exponents: a stored exponent must lie in the signed
64-bit range, and the factors of every product must have all exponents in
the signed 32-bit range [-2^31, 2^31), checked once per factor; outside it
the operation raises :class:`DomainError` instead of letting a digit wrap
into its neighbour.

Phi_m is z^m - 1 divided exactly by each monic Phi_d, d | m, d < m.
Cyclotomic numbers multiply through one tuple-level kernel on their
coefficient vectors; beside it, one product-sum kernel gives the reduced
sum_k u_k * w_k for the character audits.  :func:`solve_linear_exact` solves
square rational systems only: it clears each row of its denominators and
runs a fraction-free elimination over Z in which every division is checked
exact, apart from a division by 1, which is skipped.

All values are immutable after construction and all operations are pure
functions, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence


class StructuralError(ValueError):
    """Mixed registries or malformed structural input."""


class DomainError(ArithmeticError):
    """Operation left the supported domain (zero into an invertible slot, inexact division)."""


class SingularMatrixError(ArithmeticError):
    """Coefficient matrix does not have full column rank."""


class Variable:
    """A registered indeterminate: name and invertibility flag."""

    __slots__ = ("name", "invertible")

    def __init__(self, name: str, invertible: bool = False):
        self.name = name
        self.invertible = invertible

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, invertible={self.invertible})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Variable)
            and (self.name, self.invertible) == (other.name, other.invertible)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.invertible))


class VariableRegistry:
    """Ordered set of variables fixing the exponent-vector layout of polynomials.

    The registry also owns the integer codec of its exponent vectors: each
    exponent is one 64-bit digit of a Python int, so the encoding is linear,
    ``encode(a) + encode(b) == encode(a + b)``.  These int keys are how
    :class:`Poly` stores its monomials.  :meth:`encode` takes exponents in the
    signed 32-bit range only; then any sum of fewer than 2^32 encoded vectors
    keeps every digit inside the signed 64-bit range and decodes exactly.
    """

    __slots__ = ("variables", "_layout", "_index", "_codec", "_bias31", "_bias63", "_outside31")

    def __init__(self, variables: Iterable[Variable]):
        self.variables = tuple(variables)
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate variable names in registry: {names}")
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        # each variable as a (name, invertible) pair, compared without a Python call
        self._layout = tuple((v.name, v.invertible) for v in self.variables)
        width = len(self.variables)
        # each exponent is one little-endian int64 digit
        self._codec = struct.Struct("<" + "q" * width)
        self._bias31 = sum(1 << (31 + 64 * i) for i in range(width))
        self._bias63 = sum(1 << (63 + 64 * i) for i in range(width))
        # key + bias31 has no bit of this mask set exactly when every digit of
        # key lies in [-2^31, 2^31): the biased digits are then in [0, 2^32)
        self._outside31 = ~sum(((1 << 32) - 1) << (64 * i) for i in range(width))

    def encode(self, exps: Sequence[int]) -> int:
        """The int key sum_i exps[i] * 2^(64 i); DomainError outside the int32 range."""
        key = self._key(exps)
        if (key + self._bias31) & self._outside31:
            raise DomainError(f"exponent vector {tuple(exps)} leaves the signed 32-bit range")
        return key

    def _key(self, exps: Sequence[int]) -> int:
        """The int key of a storable exponent vector; DomainError outside the int64 range."""
        try:
            packed = self._codec.pack(*exps)
        except struct.error:
            raise DomainError(
                f"exponent vector {tuple(exps)} leaves the signed 64-bit range"
            ) from None
        # the bytes hold each exponent's two's complement u = e mod 2^64;
        # flipping bit 63 gives e + 2^63 >= 0, and the bias takes 2^63 off again
        bias = self._bias63
        return (int.from_bytes(packed, "little") ^ bias) - bias

    def decode(self, key: int) -> tuple[int, ...]:
        """The exponent vector of an int key (a sum of encoded vectors)."""
        # adding 2^63 per digit makes every digit nonnegative with no borrow;
        # flipping bit 63 again leaves each digit's two's complement
        bias = self._bias63
        codec = self._codec
        return codec.unpack(((key + bias) ^ bias).to_bytes(codec.size, "little"))

    def tag_codec(self) -> tuple[int, int]:
        """(shift, bias) of one tag digit directly above the last variable's digit.

        A key ``(tag << shift) + k``, with k a sum of encoded vectors, reads
        back its tag as ``(key + bias) >> shift``: by the bias rule of
        :meth:`decode`, k + bias lies in [0, 2^shift).  Adding encoded vectors
        to a tagged key leaves its tag unchanged.
        """
        return 64 * len(self.variables), self._bias63

    def range_digits(self, names: Sequence[str]) -> tuple[int, int, int, int]:
        """``(bias, shift, mask, restore)``: how keys split on a contiguous run of names.

        ``names`` must be one contiguous range of the registry, in registry
        order; StructuralError otherwise.  ``part = ((key + bias) >> shift) &
        mask`` holds the range's digits of ``key``, each biased by 2^63 (the
        bias of :meth:`decode` makes every digit nonnegative with no borrow),
        and ``key + restore - (part << shift)`` is ``key`` with those digits
        set to 0.
        """
        positions = [self.index(n) for n in names]
        lo = positions[0] if positions else 0
        if positions != list(range(lo, lo + len(positions))):
            raise StructuralError(f"needs a contiguous registry range, got {list(names)}")
        bias = self._bias63
        shift = 64 * lo
        mask = (1 << (64 * len(positions))) - 1
        return bias, shift, mask, ((bias >> shift) & mask) << shift

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableRegistry) and self._layout == other._layout

    def __hash__(self) -> int:
        return hash(self._layout)

    def __repr__(self) -> str:
        return f"VariableRegistry({', '.join(self.names())})"


def _rational(value):
    """value unchanged if it is an exact rational (int or Fraction)."""
    if isinstance(value, (int, Fraction)):
        return value
    raise StructuralError(f"unsupported coefficient {value!r}")


def _coerce_coeff(value):
    return value if isinstance(value, CyclotomicNumber) else _rational(value)


def _quotient(a, b):
    """a / b for rationals: an int when the quotient is integral, else a Fraction."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    quotient = Fraction(a, b)
    return quotient.numerator if quotient.denominator == 1 else quotient


def _field_inverse(value):
    if isinstance(value, CyclotomicNumber):
        return value.inverse()
    return _quotient(1, value)


class Poly:
    """Sparse multivariate Laurent polynomial over exact coefficients.

    ``terms`` maps the int key of each exponent vector (one slot per registry
    variable, under :meth:`VariableRegistry.encode`'s linear codec) to its
    nonzero coefficient, so every ring operation works on int keys.
    :meth:`decoded_terms` reads them back as exponent tuples; the public
    constructor takes tuple-keyed terms.  Negative exponents are only
    allowed at invertible positions; this is enforced at the construction
    entry points, and no arithmetic operation can introduce a negative
    exponent elsewhere.  The factors of a product must have every exponent
    in the signed 32-bit range, which is checked once per factor and then
    remembered (``_in_int32``).
    """

    __slots__ = ("registry", "terms", "_in_int32")

    def __init__(self, registry: VariableRegistry, terms: Mapping[tuple[int, ...], object]):
        self.registry = registry
        cleaned = {}
        width = len(registry)
        key = registry._key
        for exps, coeff in terms.items():
            coeff = _coerce_coeff(coeff)
            if not coeff:
                continue
            if len(exps) != width:
                raise StructuralError("exponent vector width does not match registry")
            for pos, e in enumerate(exps):
                if e < 0 and not registry.variables[pos].invertible:
                    raise DomainError(
                        f"negative exponent for non-invertible variable "
                        f"{registry.variables[pos].name!r}"
                    )
            cleaned[key(exps)] = coeff
        self.terms = cleaned
        self._in_int32 = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, registry: VariableRegistry, terms: dict, in_int32: bool = False) -> "Poly":
        # internal fast path: terms already cleaned (int keys, no zeros, valid
        # exponents); in_int32 only when every exponent is known to be int32
        p = object.__new__(cls)
        p.registry = registry
        p.terms = terms
        p._in_int32 = in_int32
        return p

    @classmethod
    def zero(cls, registry: VariableRegistry) -> "Poly":
        return cls._raw(registry, {}, True)

    @classmethod
    def const(cls, registry: VariableRegistry, value) -> "Poly":
        value = _coerce_coeff(value)
        if not value:
            return cls.zero(registry)
        # the empty monomial has key 0
        return cls._raw(registry, {0: value}, True)

    @classmethod
    def one(cls, registry: VariableRegistry) -> "Poly":
        return cls.const(registry, 1)

    @classmethod
    def var(cls, registry: VariableRegistry, name: str, power: int = 1) -> "Poly":
        pos = registry.index(name)
        if power < 0 and not registry.variables[pos].invertible:
            raise DomainError(f"variable {name!r} is not invertible")
        if not -(1 << 63) <= power < 1 << 63:
            raise DomainError(f"exponent {power} of {name!r} leaves the signed 64-bit range")
        return cls._raw(registry, {power << (64 * pos): 1}, -(1 << 31) <= power < 1 << 31)

    @classmethod
    def monomial(cls, registry: VariableRegistry, powers: Mapping[str, int], coeff=1) -> "Poly":
        exps = [0] * len(registry)
        for name, power in powers.items():
            exps[registry.index(name)] = power
        return cls(registry, {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not key for key in self.terms)

    def constant_value(self):
        """The coefficient of the empty monomial; error if any variable survives."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self.terms[0]

    # -- ring operations ---------------------------------------------------

    def _check_registry(self, other: "Poly"):
        if self.registry is not other.registry and self.registry != other.registry:
            raise StructuralError("polynomials live in different registries")

    def _check_int32(self):
        """The factor rule of a product: DomainError unless every exponent is int32."""
        if self._in_int32:
            return
        registry = self.registry
        bias, outside = registry._bias31, registry._outside31
        for key in self.terms:
            if (key + bias) & outside:
                raise DomainError(
                    f"exponent vector {registry.decode(key)} leaves the signed 32-bit range"
                )
        self._in_int32 = True

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = Poly.const(self.registry, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_registry(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return Poly._raw(self.registry, terms, self._in_int32 and other._in_int32)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(
            self.registry, {key: -c for key, c in self.terms.items()}, self._in_int32
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = Poly.const(self.registry, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = _coerce_coeff(other)
            if not other:
                return Poly.zero(self.registry)
            return Poly._raw(
                self.registry, {key: c * other for key, c in self.terms.items()}, self._in_int32
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_registry(other)
        self._check_int32()
        other._check_int32()
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a monomial factor shifts keys injectively and scales by a
            # nonzero field element, so no two terms meet and none vanishes
            big, small = (other, self) if len(self.terms) == 1 else (self, other)
            ((k2, c2),) = small.terms.items()
            return Poly._raw(self.registry, {k1 + k2: c1 * c2 for k1, c1 in big.terms.items()})
        # coefficients are nonzero field elements, so no product vanishes and
        # only sums are tested
        right = other.terms.items()
        terms: dict = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                key = k1 + k2
                acc = get(key)
                if acc is None:
                    terms[key] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
        return Poly._raw(self.registry, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int):
            raise StructuralError("polynomial powers must be integers")
        if power < 0:
            return self._unit_inverse() ** (-power)
        if power == 0:
            return Poly.one(self.registry)
        result = None
        base = self
        while True:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def _unit_inverse(self) -> "Poly":
        # only monomials in invertible variables have polynomial inverses
        if len(self.terms) != 1:
            raise DomainError("only monomials in invertible variables are invertible")
        ((exps, coeff),) = self.decoded_terms().items()
        for pos, e in enumerate(exps):
            if e != 0 and not self.registry.variables[pos].invertible:
                raise DomainError("only monomials in invertible variables are invertible")
        inverse = self.registry._key(tuple(-e for e in exps))
        return Poly._raw(self.registry, {inverse: _field_inverse(coeff)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, CyclotomicNumber)):
                return NotImplemented
            other = Poly.const(self.registry, other)
        return (
            self.registry is other.registry or self.registry == other.registry
        ) and self.terms == other.terms

    def __hash__(self):
        # equal to its value, so a constant hashes as that value does
        if self.is_constant():
            return hash(self.terms.get(0, 0))
        return hash((self.registry, frozenset(self.terms.items())))

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: Mapping[str, object]) -> "Poly":
        """Apply the ring homomorphism sending each assigned variable to its target.

        Targets may be scalars (int, Fraction, CyclotomicNumber) or polynomials
        over the same registry.  Unassigned variables survive.  Assigning zero
        to an invertible variable is rejected.
        """
        if not assignment:
            return self
        positions: dict[int, Poly] = {}
        for name, value in assignment.items():
            pos = self.registry.index(name)
            if isinstance(value, Poly):
                self._check_registry(value)
                target = value
            else:
                target = Poly.const(self.registry, value)
            if self.registry.variables[pos].invertible and target.is_zero():
                raise DomainError(f"zero assigned to invertible variable {name!r}")
            positions[pos] = target
        result = Poly.zero(self.registry)
        for exps, coeff in self.decoded_terms().items():
            reduced = list(exps)
            factor = Poly.const(self.registry, coeff)
            for pos, target in positions.items():
                e = reduced[pos]
                if e == 0:
                    continue
                reduced[pos] = 0
                factor = factor * (target ** e)
                if factor.is_zero():
                    break
            if factor.is_zero():
                continue
            rest = Poly._raw(self.registry, {self.registry._key(reduced): 1})
            result = result + factor * rest
        return result

    # -- presentation ------------------------------------------------------

    def decoded_terms(self) -> dict[tuple[int, ...], object]:
        """The terms keyed by exponent tuples, for the readers at the boundary."""
        decode = self.registry.decode
        return {decode(key): coeff for key, coeff in self.terms.items()}

    def __repr__(self) -> str:
        from superfrob.serialize import poly_to_string  # serialize imports this module

        return poly_to_string(self)


@lru_cache(maxsize=None)
def _phi_dense(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Phi_m: z^m - 1 divided by each monic Phi_d,
    d | m, d < m, every division checked to leave no remainder."""
    if m < 1:
        raise DomainError("cyclotomic order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _phi_dense(d)
            deg = len(den) - 1
            quot = [0] * (len(num) - deg)
            for shift in range(len(quot) - 1, -1, -1):
                c = quot[shift] = num[shift + deg]
                if c:
                    for i, x in enumerate(den):
                        num[shift + i] -= c * x
            if any(num[:deg]):
                raise DomainError(f"cyclotomic recursion left a remainder at m={m}")
            num = quot
    return tuple(num)


Z_REGISTRY = VariableRegistry([Variable("z")])


def cyclotomic_phi(m: int) -> Poly:
    """The m-th cyclotomic polynomial in z, by exact division of z^m - 1."""
    coeffs = _phi_dense(m)
    return Poly(Z_REGISTRY, {(i,): c for i, c in enumerate(coeffs)})


def euler_phi(m: int) -> int:
    return len(_phi_dense(m)) - 1


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^k reduced modulo Phi_m, as integer coefficient vectors, for 0 <= k < m."""
    phi = _phi_dense(m)
    deg = len(phi) - 1
    rows = [(1,) + (0,) * (deg - 1)]
    for _ in range(m - 1):
        # times z; Phi_m is monic, so z^deg = -(phi_0 + ... + phi_{deg-1} z^{deg-1})
        shifted = (0,) + rows[-1]
        overflow = shifted[deg]
        rows.append(tuple(shifted[i] - overflow * phi[i] for i in range(deg)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction(m: int):
    """phi(m) and, per residue r mod m, the nonzero (position, coefficient) pairs of zeta^r."""
    table = _zeta_powers(m)
    return len(table[0]), tuple(
        tuple((pos, c) for pos, c in enumerate(row) if c) for row in table
    )


def _cyclo_reduce(m: int, acc: Sequence) -> tuple:
    """The coefficient vector of sum_s acc[s] zeta^s, of any length, reduced modulo Phi_m."""
    phi, rows = _reduction(m)
    if len(acc) <= phi:
        return tuple(acc) + (0,) * (phi - len(acc))
    out = list(acc[:phi])
    for s in range(phi, len(acc)):
        value = acc[s]
        if value:
            for pos, c in rows[s % m]:
                out[pos] += value * c
    return tuple(out)


def _cyclo_mul(m: int, a: Sequence, b: Sequence) -> tuple:
    """The product of two coefficient vectors of Q(zeta_m): the one multiplication kernel."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return _cyclo_reduce(m, acc)


def _product_slots(m: int, column: Sequence[Sequence]) -> list[list]:
    """The slot layout of a column of coefficient vectors w_k, for sum_k u_k * w_k.

    Slot s of the unreduced product u_k * w_k collects u_{k,a} * w_{k,s-a},
    so slot s of the sum is one dot product of u's flat coefficients with
    this layout's flat vector s; :func:`_product_sum` takes those dot products.
    """
    phi = euler_phi(m)
    return [
        [w[s - a] if 0 <= s - a < phi else 0 for w in column for a in range(phi)]
        for s in range(2 * phi - 1)
    ]


def _product_sum(m: int, flat: Sequence, slots: Sequence[Sequence]) -> tuple:
    """sum_k u_k * w_k reduced modulo Phi_m, for u given flat and w by :func:`_product_slots`."""
    return _cyclo_reduce(m, [sum(map(operator.mul, flat, bar)) for bar in slots])


def _cyclo_galois(m: int, a: Sequence, k: int) -> tuple:
    """The image of a coefficient vector under zeta -> zeta^k."""
    slots = [0] * m
    for i, c in enumerate(a):
        slots[i * k % m] += c
    return _cyclo_reduce(m, slots)


def _conjugate_product(m: int, a: Sequence) -> tuple[tuple, object]:
    """(c, N) for a nonzero coefficient vector a, with 1 / a = c / N.

    c is the product of the other Galois conjugates of a and N = a * c its
    rational norm.
    """
    phi = len(a)
    others = (1,) + (0,) * (phi - 1)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            others = _cyclo_mul(m, others, _cyclo_galois(m, a, k))
    norm = _cyclo_mul(m, a, others)
    if any(norm[1:]):
        raise DomainError(f"norm of {a} in Q(zeta_{m}) is not rational")
    return others, norm[0]


class CyclotomicNumber:
    """Element of Q(zeta_m), stored as a residue modulo the m-th cyclotomic polynomial.

    Reduction modulo Phi_m (rather than z^m - 1) makes this a field, so
    equality tests are unambiguous and conjugation zeta -> zeta^(m-1) is a
    ring automorphism.  Every operation that meets a power of zeta reads it
    from the one table :func:`_zeta_powers`, and every product goes through
    the one kernel :func:`_cyclo_mul`.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        deg = euler_phi(order)
        coeffs = tuple(_rational(c) for c in coeffs)
        if len(coeffs) != deg:
            raise StructuralError(
                f"cyclotomic coefficient vector must have length {deg} for order {order}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "CyclotomicNumber":
        # internal fast path: coeffs already a rational tuple of length euler_phi(order)
        c = object.__new__(cls)
        c.order = order
        c.coeffs = coeffs
        return c

    @classmethod
    def from_rational(cls, order: int, value) -> "CyclotomicNumber":
        return cls._raw(order, (_rational(value),) + (0,) * (euler_phi(order) - 1))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_m^power for the fixed primitive m-th root of unity zeta_m."""
        return cls._raw(order, _zeta_powers(order)[power % order])

    # -- helpers -----------------------------------------------------------

    def _align(self, other):
        """Coerce the pair to a common order; None when other is foreign."""
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_rational(self.order, other)
        if not isinstance(other, CyclotomicNumber):
            return None
        if other.order == self.order:
            return self, other
        if other.is_rational():
            return self, CyclotomicNumber.from_rational(self.order, other.rational_value())
        if self.is_rational():
            return CyclotomicNumber.from_rational(other.order, self.rational_value()), other
        raise StructuralError("cyclotomic orders differ")

    def _galois(self, k: int) -> "CyclotomicNumber":
        """The field automorphism zeta -> zeta^k, for k prime to the order."""
        return CyclotomicNumber._raw(self.order, _cyclo_galois(self.order, self.coeffs, k))

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise DomainError("cyclotomic number is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return CyclotomicNumber._raw(x.order, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._raw(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x + (-y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return CyclotomicNumber._raw(x.order, _cyclo_mul(x.order, x.coeffs, y.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """The product of the other Galois conjugates over the rational norm."""
        if self.is_zero():
            raise DomainError("cyclotomic zero has no inverse")
        others, norm = _conjugate_product(self.order, self.coeffs)
        return CyclotomicNumber._raw(self.order, tuple(_quotient(c, norm) for c in others))

    def __truediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y.inverse()

    def __rtruediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return y * x.inverse()

    def __pow__(self, power: int):
        if power < 0:
            return self.inverse() ** (-power)
        result = CyclotomicNumber.from_rational(self.order, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(m-1)."""
        return self._galois(self.order - 1)

    def __eq__(self, other) -> bool:
        try:
            pair = self._align(other)
        except StructuralError:
            # non-rational values of different orders lie in different fields
            return False
        if pair is None:
            return NotImplemented
        x, y = pair
        return x.coeffs == y.coeffs

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        from superfrob.serialize import entry_to_string  # serialize imports this module

        return entry_to_string(self)


def transport(f: Poly, registry: VariableRegistry) -> Poly:
    """f over another registry, matching variables by name.

    When the two registries share their first variables (names and
    invertibility) and no term of f has a nonzero exponent past them, every
    int key means the same exponents in both, so the keys carry over
    unchanged: one shift-and-compare per key, and no decode.  Otherwise f is
    rebuilt by name.
    """
    source = f.registry
    if source == registry:
        return f
    shared = 0
    for ours, theirs in zip(source._layout, registry._layout):
        if ours != theirs:
            break
        shared += 1
    # a key's digits past the first `shared` are all 0 exactly when adding
    # decode's bias for the first `shared` digits leaves no bit at or above them
    bias, top = source._bias63 & ((1 << (64 * shared)) - 1), 64 * shared
    if all(not (key + bias) >> top for key in f.terms):
        return Poly._raw(registry, f.terms, f._in_int32)
    src_names = source.names()
    terms: dict[tuple[int, ...], object] = {}
    width = len(registry)
    for exps, coeff in f.decoded_terms().items():
        out = [0] * width
        for name, e in zip(src_names, exps):
            if e:
                out[registry.index(name)] = e
        terms[tuple(out)] = coeff
    return Poly(registry, terms)


def _coefficient_vector(value, m: int) -> tuple:
    """A scalar of Q(zeta_m) as its coefficients over 1, zeta_m, ..., zeta_m^(phi(m)-1).

    A cyclotomic number of another order must be rational.
    """
    if isinstance(value, CyclotomicNumber):
        if value.order == m:
            return value.coeffs
        value = value.rational_value()
    return (_rational(value),) + (0,) * (euler_phi(m) - 1)


def _cleared(values: list) -> list[int]:
    """A row of rationals times the lcm of its denominators: a row of ints."""
    if {int}.issuperset(map(type, values)):
        # the tables' rows: denominator 1, nothing to clear
        return values
    den = 1
    for value in values:
        if type(value) is not int:
            den = math.lcm(den, _rational(value).denominator)
    # den clears every denominator of the row, so each product is integral
    return [value * den if type(value) is int else (value * den).numerator for value in values]


def _exact_quotient(value: int, divisor: int) -> int:
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise DomainError("inexact elimination step: nonzero remainder")
    return quotient


def solve_linear_exact(
    A: Sequence[Sequence[object]], rhs_columns: Sequence[Sequence[object]]
) -> list[list]:
    """Solve the square rational system A x = b exactly for each b in ``rhs_columns``.

    ``A`` and the right-hand sides hold rationals, int or Fraction; any
    other entry, a polynomial or a cyclotomic number among them, is a
    :class:`StructuralError`.  Each row of the augmented system is first
    cleared of its denominators, so every entry is an integer.  One
    fraction-free Gauss-Jordan elimination (Bareiss) over Z then runs on
    ``A`` and applies each row operation to all right-hand sides together: a
    row with entry f != 0 in the pivot column becomes
    ``(p * row - f * pivot_row) / p_j``, for the pivot p and the pivot p_j of
    the step that last changed the row.  Each such division is checked
    exact: a nonzero remainder raises :class:`DomainError`.  Only the last
    step, which divides each solution row by its pivot, makes fractions;
    integral values come back as ``int``.  A division by 1 is skipped, in
    the elimination and in that last step, since it cannot leave a
    remainder; on the unitriangular Kostka systems of the character tables
    every divisor is 1.  A non-square ``A`` is a :class:`StructuralError`,
    a singular one a :class:`SingularMatrixError`.
    """
    size = len(A)
    if any(len(row) != size for row in A):
        raise StructuralError("coefficient matrix is not square")
    if any(len(b) != size for b in rhs_columns):
        raise StructuralError("matrix and right-hand side differ in length")
    # each row: A's row, then row r of every right-hand side
    mat = [_cleared([*row, *(b[r] for b in rhs_columns)]) for r, row in enumerate(A)]

    # Plain Bareiss scales a row with f = 0 by p_k / p_{k-1} at step k.  Those
    # scalings are left out: a row last changed at step j holds its step-j
    # entries, and its entries at a later step k are those times p_k / p_j; so
    # its next update divides by p_j instead of p_{k-1}, and a pivot row is
    # scaled up to step k - 1 before use.
    pivots = [1]
    stage = [0] * size
    free = list(range(size))
    pivot_rows = []
    for col in range(size):
        pivot = next((r for r in free if mat[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot available for column {col}")
        free.remove(pivot)
        pivot_rows.append(pivot)
        k = len(pivots)
        scale, previous = pivots[k - 1], pivots[stage[pivot]]
        if scale != previous:
            # the pivot row's entries at step k - 1
            row = mat[pivot]
            if previous == 1:
                row[col:] = [scale * x for x in row[col:]]
            else:
                row[col:] = [_exact_quotient(scale * x, previous) for x in row[col:]]
        p = mat[pivot][col]
        tail = mat[pivot][col + 1 :]
        for r in range(size):
            f = mat[r][col]
            if r == pivot or not f:
                continue
            previous = pivots[stage[r]]
            if previous == 1:
                mat[r][col + 1 :] = [p * x - f * y for x, y in zip(mat[r][col + 1 :], tail)]
            else:
                mat[r][col + 1 :] = [
                    _exact_quotient(p * x - f * y, previous)
                    for x, y in zip(mat[r][col + 1 :], tail)
                ]
            stage[r] = k
        stage[pivot] = k
        pivots.append(p)

    # the pivot row of each column, last changed at step j, reads p_j * e_col | p_j * x
    solved = [(mat[r], pivots[stage[r]]) for r in pivot_rows]
    return [
        [row[size + c] if p == 1 else _quotient(row[size + c], p) for row, p in solved]
        for c in range(len(rhs_columns))
    ]
