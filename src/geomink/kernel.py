"""Exact rational scalars, 3-vectors, and the core sign predicates.

Every geometric decision in this package reduces to a handful of exact
sign computations on rational numbers.  A scalar is a Python ``int`` or
a ``Fraction``; ``rat`` lets both through and rejects floats, so an
inexact value raises where it enters instead of deciding anything.  No
routine here ever computes a square root; directions are kept as
unnormalized vectors throughout.  Sphere points store the primitive
integer representative of their direction (``scale_key``), so the
products on them are plain integer arithmetic; every triple product
``dot(cross(u, v), w)`` goes through ``det3``, which builds no vector.
Predicates on a whole point set, such as a mesh's, run on one integer
representative of the set (``integer_coords``) with the triple helpers
``cross3``, ``dot3`` and ``turn3``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def integer_coords(points: Iterable["Vec3"]) -> List[Tuple[int, int, int]]:
    """The points scaled by the lcm of all their denominators, as int
    triples; all-int points come back as they are.  One positive scaling
    of every point changes no orientation, side, planarity or coplanarity
    sign, so exact predicates on a point set can run on these ints."""
    coords = [(p.x, p.y, p.z) for p in points]
    m = lcm(*(c.denominator for t in coords for c in t))
    return [tuple(c.numerator * (m // c.denominator) for c in t) for t in coords]


def cross3(u: tuple, v: tuple) -> tuple:
    """Cross product of coordinate triples (see integer_coords)."""
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


@dataclass(frozen=True, slots=True)
class Vec3:
    """Immutable exact 3-vector over the rationals (ints or Fractions)."""

    x: Rational
    y: Rational
    z: Rational

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        object.__setattr__(self, "x", rat(x))
        object.__setattr__(self, "y", rat(y))
        object.__setattr__(self, "z", rat(z))

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
        return self.x * self.x + self.y * self.y + self.z * self.z

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.z)

    def canonical(self) -> tuple:
        """Scale-invariant key of the direction (see scale_key)."""
        return scale_key(self.x, self.y, self.z)

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
    return u.x * v.x + u.y * v.y + u.z * v.z


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
    """Exact cross product; zero iff the inputs are parallel."""
    return exact_vec(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


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


# -- planar (2D) helpers for azimuthal comparisons -------------------------


def cross2(ax: Rational, ay: Rational, bx: Rational, by: Rational) -> Rational:
    return ax * by - ay * bx


def ccw_strictly_before(start: tuple, probe: tuple, target: tuple) -> bool:
    """Rotating counterclockwise from `start`, is `probe`'s ray reached
    strictly before `target`'s ray?

    All three are nonzero planar vectors given as (x, y) pairs of
    rationals.  Conventions: a probe codirectional with `start` is never
    strictly before anything, and a probe codirectional with `target`
    ties toward "not before".
    """
    sx, sy = start
    px, py = probe
    tx, ty = target
    if (sx == 0 and sy == 0) or (px == 0 and py == 0) or (tx == 0 and ty == 0):
        raise ZeroVector("ccw_strictly_before requires nonzero planar vectors")

    def angle_class(vx, vy):
        # CCW angle from `start`: 0 codirectional, 1 in (0,pi), 2 exactly
        # pi, 3 in (pi, 2*pi).
        c = cross2(sx, sy, vx, vy)
        if c > 0:
            return 1
        if c < 0:
            return 3
        return 0 if sx * vx + sy * vy > 0 else 2

    kp = angle_class(px, py)
    kt = angle_class(tx, ty)
    if kp == 0:
        return False  # probe codirectional with start: not strictly before
    if kp != kt:
        return kp < kt
    # Same open half-turn: the relative angle is below pi, so a single
    # orientation test decides; codirectional probe/target gives 0 (ties
    # break toward "not before").
    return cross2(px, py, tx, ty) > 0
