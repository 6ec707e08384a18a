"""Exact rational scalars, 3-vectors, and the core sign predicates.

Every geometric decision in this package reduces to a handful of exact
sign computations on rational numbers.  A scalar is a Python ``int`` or
a ``Fraction``; ``rat`` lets both through and rejects floats, so an
inexact value raises where it enters instead of deciding anything.  No
routine here ever computes a square root; directions are kept as
unnormalized vectors throughout.  Sphere points store the primitive
integer representative of their direction (``scale_key``), so the
products on them are plain integer arithmetic; every triple product
of them, ``dot(cross(u, v), w)``, goes through ``det3``, which builds
no vector.
Predicates on a whole point set, such as a mesh's, run on one integer
representative of the set (``integer_representative``, the ints and
their one denominator) with the triple helpers ``cross3``, ``dot3`` and
``turn3``; ``integer_point`` puts one vector over its own denominator.

``dot``, ``cross`` and ``Vec3.norm_sq`` have a rational path for
Fraction coordinates.  The operator expression on Fractions normalises
every product and every sum, one gcd each.  The rational path reads each
coordinate's numerator and denominator once, works on ints over one
common denominator (``integer_point``'s, for ``cross`` and ``norm_sq``),
and builds one ``Fraction(n, d)`` per
result scalar.  It is taken when the x coordinate of the point argument
is a Fraction: ``dot``'s second argument (``dot(normal, point)``), the
first of ``cross``, ``norm_sq``'s vector.  One type test is all the int
path pays; any other mix of coordinates takes the operator expression.
Both paths give the same value and type: an int exactly when every
coordinate involved is an int, a Fraction otherwise (``Fraction(0)`` and
``Fraction(n, 1)`` included).  The ``Vec3`` constructor stores a vector
whose three coordinates are all integral as three ints, so it takes the
int paths; a vector with a fractional coordinate keeps its Fractions,
and ``exact_vec`` keeps the types it is given.  ``det3`` has no rational
path: its operands are always primitive integer directions or arc
normals.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Tuple, Union

Rational = Union[int, Fraction]

RationalLike = Union[Fraction, int, str]


class ZeroVector(ValueError):
    """A direction-consuming operation received the zero vector."""


class ZeroNormal(ValueError):
    """A plane predicate received a zero normal."""


class Sign(IntEnum):
    """Three-valued sign; doubles as SMALLER/EQUAL/LARGER for comparisons."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


SMALLER = Sign.NEGATIVE
EQUAL = Sign.ZERO
LARGER = Sign.POSITIVE


def sign(x: Rational) -> Sign:
    if x > 0:
        return Sign.POSITIVE
    if x < 0:
        return Sign.NEGATIVE
    return Sign.ZERO


def rat(x: RationalLike) -> Rational:
    """An exact rational: ints and Fractions pass unchanged, strings like
    "3/4" are parsed, and anything else (a float above all) raises."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not a rational value: {x!r}")


def scale_key(*nums: Rational) -> tuple:
    """Scale-invariant key of a rational tuple: the positive multiple of
    it whose entries are coprime integers.  Two tuples get the same key
    iff one is a positive rational multiple of the other; negation
    changes the key, and the zero tuple keys to zeros."""
    try:
        ints = nums
        g = gcd(*nums)  # ints only; a Fraction raises TypeError
    except TypeError:
        m = lcm(*(q.denominator for q in nums))
        ints = [q.numerator * (m // q.denominator) for q in nums]
        g = gcd(*ints)
    if g <= 1:  # already coprime, or the zero tuple
        return tuple(ints)
    return tuple(c // g for c in ints)


def integer_representative(points: Iterable["Vec3"]) -> Tuple[List[tuple], int]:
    """(coords, m): the points scaled by m, the lcm of all their
    denominators (1 for all-int points), as int triples, so that point i
    is triple i over m; all-int points come back as they are.  One
    positive scaling of every point changes no orientation, side,
    planarity or coplanarity sign, so exact predicates on a point set
    can run on these ints."""
    coords = [(p.x, p.y, p.z) for p in points]
    if all(type(x) is int and type(y) is int and type(z) is int for x, y, z in coords):
        return coords, 1
    ratios = [c.as_integer_ratio() for t in coords for c in t]
    m = lcm(*(d for _, d in ratios))
    scaled = iter([n * (m // d) for n, d in ratios])
    return list(zip(scaled, scaled, scaled)), m


def integer_point(v: "Vec3") -> Tuple[int, int, int, int]:
    """(x, y, z, m) with v = (x, y, z) / m: ints, m > 0 the lcm of v's
    denominators (1 for an all-int vector)."""
    x, y, z = v.x, v.y, v.z
    p, q, r = x.denominator, y.denominator, z.denominator
    m = lcm(p, q, r)
    return x.numerator * (m // p), y.numerator * (m // q), z.numerator * (m // r), m


def cross3(u: tuple, v: tuple) -> tuple:
    """Cross product of coordinate triples (see integer_representative)."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot3(u: tuple, v: tuple) -> Rational:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def turn3(a: tuple, b: tuple, c: tuple) -> tuple:
    """cross(b - a, c - b) of coordinate triples: the right-hand normal
    of the triangle abc (equal to cross(b - a, c - a)), zero iff the
    three points are collinear."""
    return cross3(
        (b[0] - a[0], b[1] - a[1], b[2] - a[2]),
        (c[0] - b[0], c[1] - b[1], c[2] - b[2]),
    )


def format_rat(x: Rational) -> str:
    """Canonical "p/q" (or bare "p") literal used by all file formats."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Frozen:
    """Base of the package's immutable value classes.  Their fields are
    __slots__, set once in __init__ through object.__setattr__; assigning
    or deleting one afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which takes the
        # fields in __slots__ order
        return (self.__class__, tuple(getattr(self, f) for f in self.__slots__))


class Vec3(Frozen):
    """Immutable exact 3-vector over the rationals (ints or Fractions);
    equal and hashed as its coordinate triple."""

    __slots__ = ("x", "y", "z")
    x: Rational
    y: Rational
    z: Rational

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        x, y, z = rat(x), rat(y), rat(z)
        if x.denominator == 1 and y.denominator == 1 and z.denominator == 1:
            # an all-integral vector is stored as ints, so it takes the
            # int paths of dot and cross
            x, y, z = x.numerator, y.numerator, z.numerator
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Vec3:
            return NotImplemented
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    # Sums, differences and products of exact coordinates are exact, so
    # the arithmetic below builds its results with exact_vec.

    def __add__(self, other: "Vec3") -> "Vec3":
        return exact_vec(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return exact_vec(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return exact_vec(-self.x, -self.y, -self.z)

    def scale(self, k: RationalLike) -> "Vec3":
        k = rat(k)
        return exact_vec(self.x * k, self.y * k, self.z * k)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def norm_sq(self) -> Rational:
        if type(self.x) is not Fraction:
            return self.x * self.x + self.y * self.y + self.z * self.z
        return _norm_sq_rational(self)

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.z)

    def ratio_key(self) -> tuple:
        """Each coordinate's (numerator, denominator): a key of ints that
        two vectors share iff they are equal (an int n and Fraction(n)
        both give (n, 1)).  Hashing it computes no Fraction hash, which
        takes a modular inverse per coordinate."""
        return (
            self.x.as_integer_ratio(),
            self.y.as_integer_ratio(),
            self.z.as_integer_ratio(),
        )

    def __repr__(self) -> str:
        return f"({format_rat(self.x)}, {format_rat(self.y)}, {format_rat(self.z)})"


_set_x, _set_y, _set_z = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__


def exact_vec(x: Rational, y: Rational, z: Rational) -> Vec3:
    """A Vec3 of coordinates already known to be ints or Fractions, such
    as results of ring operations on exact coordinates; it skips rat's
    checks, which cost more than the arithmetic on small ints."""
    v = object.__new__(Vec3)
    _set_x(v, x)
    _set_y(v, y)
    _set_z(v, z)
    return v


ZERO3 = Vec3(0, 0, 0)


def dot(u: Vec3, v: Vec3) -> Rational:
    """Exact inner product; rational path when v.x is a Fraction."""
    if type(v.x) is not Fraction:
        return u.x * v.x + u.y * v.y + u.z * v.z
    return _dot_rational(u, v)


def det3(u: Vec3, v: Vec3, w: Vec3) -> Rational:
    """dot(cross(u, v), w), the orientation of three directions, without
    building the cross product."""
    return (
        (u.y * v.z - u.z * v.y) * w.x
        + (u.z * v.x - u.x * v.z) * w.y
        + (u.x * v.y - u.y * v.x) * w.z
    )


def dot_sign(u: Vec3, v: Vec3) -> Sign:
    """Sign of the exact inner product."""
    return sign(dot(u, v))


def cross(u: Vec3, v: Vec3) -> Vec3:
    """Exact cross product; zero iff the inputs are parallel.  Rational
    path when u.x is a Fraction."""
    if type(u.x) is not Fraction:
        return exact_vec(
            u.y * v.z - u.z * v.y,
            u.z * v.x - u.x * v.z,
            u.x * v.y - u.y * v.x,
        )
    return _cross_rational(u, v)


# -- the rational paths (see the module docstring) ----------------------------
#
# They are helpers so that the int paths above keep small frames.


def _norm_sq_rational(v: Vec3) -> Fraction:
    x, y, z, d = integer_point(v)
    return Fraction(x * x + y * y + z * z, d * d)


def _dot_rational(u: Vec3, v: Vec3) -> Fraction:
    d, s = v.x.as_integer_ratio()
    e, t = v.y.as_integer_ratio()
    f, w = v.z.as_integer_ratio()
    a, b, c = u.x, u.y, u.z
    # u is most often an integer normal, whose ratios need no reading
    if type(a) is not int or type(b) is not int or type(c) is not int:
        a, p = a.as_integer_ratio()
        b, q = b.as_integer_ratio()
        c, r = c.as_integer_ratio()
        s, t, w = p * s, q * t, r * w
    # s, t and w are the denominators of the three products
    st = s * t
    return Fraction((a * d * t + b * e * s) * w + c * f * st, st * w)


def _cross_rational(u: Vec3, v: Vec3) -> Vec3:
    ux, uy, uz, du = integer_point(u)
    vx, vy, vz, dv = integer_point(v)
    d = du * dv
    # u.x is a factor of the y and z coordinates, so they are Fractions;
    # the x coordinate is an int when its four factors are.
    if all(isinstance(c, int) for c in (u.y, u.z, v.y, v.z)):
        x = u.y * v.z - u.z * v.y
    else:
        x = Fraction(uy * vz - uz * vy, d)
    return exact_vec(x, Fraction(uz * vx - ux * vz, d), Fraction(ux * vy - uy * vx, d))


def side_of_origin_plane(normal: Vec3, p: Vec3) -> Sign:
    """Side of the plane through the origin with the given normal.

    POSITIVE means p lies on the side the normal points into.
    """
    if normal.is_zero():
        raise ZeroNormal("plane normal must be nonzero")
    return sign(dot(normal, p))


def parallel_same_direction(u: Vec3, v: Vec3) -> bool:
    """True iff v is a positive multiple of u (both nonzero)."""
    return cross(u, v).is_zero() and dot_sign(u, v) == Sign.POSITIVE


# -- angular order about an axis ---------------------------------------------


def ccw_class(axis: Vec3, start: Vec3, v: Vec3) -> int:
    """CCW angle of v from start around axis: 0 codirectional, 1 in
    (0, pi), 2 exactly pi, 3 in (pi, 2*pi).  start and v are nonzero
    vectors in the plane normal to axis."""
    c = det3(start, v, axis)
    if c > 0:
        return 1
    if c < 0:
        return 3
    return 0 if dot(start, v) > 0 else 2


def ccw_strictly_before(axis: Vec3, start: Vec3, probe: Vec3, target: Vec3) -> bool:
    """In the plane normal to axis, is probe reached strictly before
    target when rotating CCW from start?  A probe codirectional with
    start is never strictly before anything, and a probe codirectional
    with target ties toward "not before"."""
    kp = ccw_class(axis, start, probe)
    if kp == 0:
        return False
    kt = ccw_class(axis, start, target)
    if kp != kt:
        return kp < kt
    # same open half-turn: one orientation test decides
    return det3(probe, target, axis) > 0
