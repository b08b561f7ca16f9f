"""Objective functions behind an exact comparison oracle.

Two shapes are supported.  A linear objective is a cost vector paired
with the point by an exact dot product.  A composite objective is

    value(z) = c.z + sum_j f_j(r_j . z)

where each f_j is a univariate function that is convex on the integers
(nondecreasing forward differences).  Composites are only evaluated at
integer points; linear objectives also accept rational points.

Univariate pieces are closed forms (polynomial, scaled power of an
absolute deviation, finite table, zero), so every comparison is exact
rational arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimMismatch, DomainError, RationalPoint, UnboundedBox
from .linalg import dot

__all__ = [
    "LinearObjective",
    "CompositeObjective",
    "Poly",
    "AbsPower",
    "TableFn",
    "ZeroFn",
    "evaluate",
    "check_z_convex",
    "range_bound",
]


def _norm(x):
    # keep integers as ints so integer-data objectives stay integer-valued
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def _is_rat(x):
    return isinstance(x, (int, Fraction))


class Poly:
    """Polynomial with rational coefficients, constant term first."""

    kind = "poly"
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            coeffs = (0,)
        if not all(_is_rat(c) for c in coeffs):
            raise DomainError("polynomial coefficients must be rational")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return _norm(acc)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("poly", self.coeffs))


class AbsPower:
    """scale * |t - shift| ** power with scale >= 0, integer power >= 1.

    Fractional powers are rejected: comparing their values exactly would
    need algebraic-number arithmetic.
    """

    kind = "abs_power"
    __slots__ = ("scale", "power", "shift")

    def __init__(self, scale, power, shift=0):
        if not _is_rat(scale) or scale < 0:
            raise DomainError("scale must be a nonnegative rational")
        if not isinstance(power, int) or power < 1:
            raise DomainError("power must be an integer >= 1")
        if not isinstance(shift, int):
            raise DomainError("shift must be an integer")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __call__(self, t):
        return _norm(self.scale * abs(t - self.shift) ** self.power)

    def __repr__(self):
        return "AbsPower(%r, %r, %r)" % (self.scale, self.power, self.shift)

    def __eq__(self, other):
        return (
            isinstance(other, AbsPower)
            and (self.scale, self.power, self.shift) == (other.scale, other.power, other.shift)
        )

    def __hash__(self):
        return hash(("abs_power", self.scale, self.power, self.shift))


class TableFn:
    """Finite table of integer points; evaluation outside it is an error."""

    kind = "table"
    __slots__ = ("points",)

    def __init__(self, points):
        if hasattr(points, "items"):
            items = points.items()
        else:
            items = points
        table = {}
        for t, v in items:
            if not isinstance(t, int) or not _is_rat(v):
                raise DomainError("table entries must map an integer to a rational")
            table[t] = v
        if not table:
            raise DomainError("table must be nonempty")
        object.__setattr__(self, "points", tuple(sorted(table.items())))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __call__(self, t):
        for tt, v in self.points:
            if tt == t:
                return _norm(v)
        raise DomainError("point %r outside table domain" % (t,))

    def __repr__(self):
        return "TableFn(%r)" % (self.points,)

    def __eq__(self, other):
        return isinstance(other, TableFn) and self.points == other.points

    def __hash__(self):
        return hash(("table", self.points))


class ZeroFn:
    kind = "zero"
    __slots__ = ()

    def __call__(self, t):
        return 0

    def __repr__(self):
        return "ZeroFn()"

    def __eq__(self, other):
        return isinstance(other, ZeroFn)

    def __hash__(self):
        return hash("zero")


@dataclass(frozen=True)
class LinearObjective:
    c: tuple

    def __post_init__(self):
        c = tuple(self.c)
        if not all(_is_rat(x) for x in c):
            raise DomainError("cost entries must be rational")
        object.__setattr__(self, "c", c)

    @property
    def dim(self):
        return len(self.c)


@dataclass(frozen=True)
class CompositeObjective:
    c: tuple
    rows: tuple  # of (coefficient vector, univariate function)

    def __post_init__(self):
        c = tuple(self.c)
        if not all(isinstance(x, int) for x in c):
            raise DomainError("linear part must be integer")
        rows = tuple((tuple(r), f) for r, f in self.rows)
        for r, f in rows:
            if len(r) != len(c):
                raise DimMismatch("row length %d, expected %d" % (len(r), len(c)))
            if not all(isinstance(x, int) for x in r):
                raise DomainError("row vectors must be integer")
            if not callable(f):
                raise DomainError("univariate piece must be callable")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self):
        return len(self.c)

    @property
    def s(self):
        return len(self.rows)


def evaluate(obj, z):
    """Exact objective value at z.

    Rational coordinates are accepted only with a linear objective; the
    univariate pieces of a composite are defined on integers.
    """
    z = tuple(z)
    if isinstance(obj, LinearObjective):
        if len(z) != obj.dim:
            raise DimMismatch("point has %d coordinates, objective %d" % (len(z), obj.dim))
        return _norm(sum(c * x for c, x in zip(obj.c, z)))
    if isinstance(obj, CompositeObjective):
        if len(z) != obj.dim:
            raise DimMismatch("point has %d coordinates, objective %d" % (len(z), obj.dim))
        if not all(isinstance(x, int) for x in z):
            raise RationalPoint("composite objectives are defined on integer points")
        acc = dot(obj.c, z)
        for r, f in obj.rows:
            acc = acc + f(dot(r, z))
        return _norm(acc)
    raise DomainError("unsupported objective %r" % (type(obj).__name__,))


def check_z_convex(f, a, b):
    """True iff the forward differences of f are nondecreasing on [a, b].

    This is discrete midpoint convexity: f(t+1) - f(t) <= f(t+2) - f(t+1)
    for every integer t with a <= t <= b - 2.  Vacuously true on ranges
    with fewer than three points.
    """
    t = a
    while t <= b - 2:
        if f(t + 1) - f(t) > f(t + 2) - f(t + 1):
            return False
        t += 1
    return True


def range_bound(obj, lower, upper):
    """Upper bound on max - min of the objective over an integer box.

    The linear part contributes sum |c_i| (upper_i - lower_i) exactly.
    Each univariate piece sees its inner product range over an interval;
    convexity puts the piece's maximum at an interval endpoint and the
    minimum at the integer bisection minimizer.  The result is therefore
    a valid (not necessarily tight) bound.  The bound is telemetry: the
    solvers never branch on it.
    """
    lower = tuple(lower)
    upper = tuple(upper)
    if len(lower) != len(upper):
        raise DimMismatch("bound vectors differ in length")
    if any(l is None for l in lower) or any(u is None for u in upper):
        raise UnboundedBox("range bound needs finite bounds")
    if not all(isinstance(x, int) for x in lower + upper):
        raise DomainError("range bound needs integer bounds")
    if any(l > u for l, u in zip(lower, upper)):
        raise DomainError("lower bound exceeds upper bound")

    def span(c):
        if len(c) != len(lower):
            raise DimMismatch("coefficient vector length %d, box %d" % (len(c), len(lower)))
        lo = hi = 0
        for ci, l, u in zip(c, lower, upper):
            if ci >= 0:
                lo += ci * l
                hi += ci * u
            else:
                lo += ci * u
                hi += ci * l
        return lo, hi

    if isinstance(obj, LinearObjective):
        lo, hi = span(obj.c)
        return _norm(hi - lo)
    if not isinstance(obj, CompositeObjective):
        raise DomainError("unsupported objective %r" % (type(obj).__name__,))

    lo, hi = span(obj.c)
    total = hi - lo
    from .augment import line_search  # import here: augment uses this module

    for r, f in obj.rows:
        rlo, rhi = span(r)
        fmax = max(f(rlo), f(rhi))
        fmin = f(line_search(f, rlo, rhi))
        total = total + (fmax - fmin)
    return _norm(total)
