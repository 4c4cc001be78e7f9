"""Seeded random instances for the test and demonstration harnesses.

Every generator is a pure function of an integer seed: it draws from its
own `random.Random`, verifies the promised preconditions exactly (joint
emptiness, pairwise meeting, the colorful Helly property, fraction
thresholds) and resamples until they hold, so downstream checks can take
them for granted.  Failure to hit the preconditions within the retry cap
raises a generation error instead of returning a silently weaker instance.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .colorful import check_ch
from .errors import GenerationError
from .geometry import (
    ColoredFamily,
    Halfspace,
    Hyperplane,
    Polyhedron,
    first_meeting,
    polytope_from_vertices,
    sets_meet,
)
from .hypergraphs import Hypergraph
from .rationals import ONE, ZERO, dot, is_zero_vec, rat, vadd

_RETRIES = 400


def random_hypergraph(seed: int) -> Hypergraph:
    """Random hypergraph on 2..12 vertices with 1..20 nonempty edges."""
    rng = random.Random(f"hypergraph:{seed}")
    n = rng.randint(2, 12)
    m = rng.randint(1, 20)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, tuple(edges))


def _random_polygon(rng: random.Random) -> Polyhedron:
    """Full-dimensional convex polygon with integer vertices in [-8, 8]^2."""
    for _ in range(_RETRIES):
        k = rng.randint(3, 6)
        pts = [
            (rat(rng.randint(-8, 8)), rat(rng.randint(-8, 8)))
            for _ in range(k)
        ]
        poly = polytope_from_vertices(2, pts)
        if not poly.equalities:
            return poly
    raise GenerationError("could not draw a full-dimensional polygon")


def random_polygon_family(seed: int) -> list[Polyhedron]:
    """2..5 planar polygons, some clustered so intersections occur."""
    rng = random.Random(f"polygons:{seed}")
    count = rng.randint(2, 5)
    out = []
    for _ in range(count):
        poly = _random_polygon(rng)
        if rng.random() < 0.5:
            shift = (rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3)))
        else:
            shift = (rat(rng.randint(-12, 12)), rat(rng.randint(-12, 12)))
        out.append(poly.translated(shift))
    return out


def random_two_colored(seed: int, dim: int) -> tuple[list, list]:
    """(A, B) with empty joint A-intersection but every (A_i, B_j) meeting.

    A is a positively spanning collection of halfspaces n . x <= -1 pushed
    off the origin (joint emptiness verified by LP); B consists of boxes
    large enough to reach into every A-halfspace, resampled on failure.  A
    halfspace meets the box [c - size, c + size] exactly when it holds the
    box corner that minimizes n . x, `_lowest_corner`: a test in ints.
    """
    rng = random.Random(f"twocolor:{dim}:{seed}")
    for _ in range(_RETRIES):
        k = rng.randint(dim + 1, dim + 2)
        normals = []
        for _ in range(k):
            normal = tuple(rat(rng.randint(-3, 3)) for _ in range(dim))
            if is_zero_vec(normal):
                break
            normals.append(normal)
        if len(normals) < k:
            continue
        a_sets = [Polyhedron(dim, (Halfspace(n, rat(-1)),)) for n in normals]
        if sets_meet(a_sets):
            continue
        boxes = []
        for _ in range(rng.randint(2, 4)):
            center = [rng.randint(-4, 4) for _ in range(dim)]
            boxes.append((center, rng.randint(9, 14)))
        if all(
            a.contains(_lowest_corner(n, *box)) for n, a in zip(normals, a_sets) for box in boxes
        ):
            return a_sets, [
                Polyhedron.box([rat(c - size) for c in center], [rat(c + size) for c in center])
                for center, size in boxes
            ]
    raise GenerationError("two-colored instance preconditions not reached")


def _lowest_corner(normal: Sequence, center: Sequence[int], size: int) -> tuple:
    """The corner of the box [center - size, center + size] at which
    normal . x is least: c_i - size where n_i > 0, and c_i + size otherwise."""
    return tuple(c - size if n > 0 else c + size for n, c in zip(normal, center))


def _polygon_containing_origin(rng: random.Random) -> Polyhedron:
    for _ in range(_RETRIES):
        poly = _random_polygon(rng)
        if poly.contains((ZERO, ZERO)):
            return poly
    raise GenerationError("could not draw a polygon around the origin")


def _slab(axis: int, dim: int, lo, hi) -> Polyhedron:
    normal = tuple(ONE if j == axis else ZERO for j in range(dim))
    neg = tuple(-x for x in normal)
    return Polyhedron(dim, (Halfspace(normal, hi), Halfspace(neg, -lo)))


def random_ch_pair(seed: int) -> ColoredFamily:
    """Two planar classes with every cross pair meeting (verified).

    Three shapes are drawn from: both classes sharing a common point;
    axis-aligned slab bundles in transverse directions; and halfplane
    triples with empty own-class intersections but all cross pairs meeting.
    """
    rng = random.Random(f"chpair:{seed}")
    for _ in range(_RETRIES):
        style = rng.choice(("shared", "slabs", "halfplanes"))
        if style == "shared":
            p = (rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5)))
            classes = tuple(
                tuple(
                    _polygon_containing_origin(rng).translated(p)
                    for _ in range(rng.randint(2, 3))
                )
                for _ in range(2)
            )
        elif style == "slabs":
            classes = []
            for axis in (1, 0):
                sets = []
                for _ in range(rng.randint(2, 3)):
                    lo = rng.randint(-8, 6)
                    sets.append(_slab(axis, 2, rat(lo), rat(lo + rng.randint(1, 3))))
                classes.append(tuple(sets))
            classes = tuple(classes)
        else:
            shift = rng.randint(-2, 2)
            first = (
                Polyhedron(2, (Halfspace((ZERO, ONE), rat(shift)),)),
                Polyhedron(2, (Halfspace((rat(-1), rat(-1)), rat(-1 - shift)),)),
                Polyhedron(2, (Halfspace((ONE, rat(-1)), rat(-1)),)),
            )
            second = (
                Polyhedron(2, (Halfspace((ONE, ZERO), rat(-3)),)),
                Polyhedron(2, (Halfspace((rat(-1), rat(2)), rat(2)),)),
                Polyhedron(2, (Halfspace((rat(-1), rat(-2)), rat(2 + shift)),)),
            )
            classes = (first, second)
        fam = ColoredFamily(2, classes)
        if check_ch(fam).holds:
            return fam
    raise GenerationError("colorful pair generation failed")


def _identity(d: int) -> list[list]:
    return [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]


def _mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _random_unimodular(rng: random.Random, d: int) -> tuple[list[list], list[list]]:
    """Integer matrix with integer inverse, as a product of shears."""
    m = _identity(d)
    minv = _identity(d)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(d), 2)
        k = rat(rng.randint(-2, 2))
        shear = _identity(d)
        shear[i][j] = k
        unshear = _identity(d)
        unshear[i][j] = -k
        m = _mat_mul(shear, m)
        minv = _mat_mul(minv, unshear)
    return m, minv


def _affine_image(
    poly: Polyhedron, m: Sequence[Sequence], minv: Sequence[Sequence], t: Sequence
) -> Polyhedron:
    """Image of a polyhedron under x -> m x + t (m invertible, exact)."""
    d = poly.dim
    minv_t = [[minv[r][c] for r in range(d)] for c in range(d)]

    def push_normal(n: Sequence) -> tuple:
        return tuple(dot(row, n) for row in minv_t)

    ineqs = []
    for h in poly.inequalities:
        n = push_normal(h.normal)
        ineqs.append(Halfspace(n, h.offset + dot(n, t)))
    eqs = []
    for h in poly.equalities:
        n = push_normal(h.normal)
        eqs.append(Hyperplane(n, h.offset + dot(n, t)))
    hint = None
    if poly.vertices_hint is not None:
        hint = tuple(
            vadd(tuple(dot(row, v) for row in m), t) for v in poly.vertices_hint
        )
    return Polyhedron(d, tuple(ineqs), tuple(eqs), vertices_hint=hint)


def random_ch_family(seed: int, dim: int) -> ColoredFamily:
    """(dim+1)-colored family with the colorful Helly property, verified.

    Either every class clusters around a shared point, or a sheared copy of
    the axis-parallel hyperplane family (optionally with the whole-space
    class replaced by one large box) supplies a family where only one class
    has a common point.
    """
    rng = random.Random(f"chfamily:{dim}:{seed}")
    for _ in range(_RETRIES):
        style = rng.choice(("shared", "axis", "boxed-axis"))
        if style == "shared":
            p = tuple(rat(rng.randint(-4, 4)) for _ in range(dim))
            classes = []
            for _ in range(dim + 1):
                sets = []
                for _ in range(rng.randint(1, 2)):
                    size = rng.randint(2, 5)
                    lo = [c - rat(size) for c in p]
                    hi = [c + rat(size) for c in p]
                    jitter = tuple(rat(rng.randint(-1, 1)) for _ in range(dim))
                    sets.append(Polyhedron.box(lo, hi).translated(jitter))
                classes.append(tuple(sets))
            classes = tuple(classes)
        else:
            n = rng.randint(1, 3)
            m, minv = _random_unimodular(rng, dim)
            t = tuple(rat(rng.randint(-3, 3)) for _ in range(dim))
            classes = []
            for axis in range(dim):
                normal = tuple(ONE if j == axis else ZERO for j in range(dim))
                sets = tuple(
                    _affine_image(
                        Polyhedron(dim, (), (Hyperplane(normal, rat(c)),)), m, minv, t
                    )
                    for c in range(1, n + 1)
                )
                classes.append(sets)
            if style == "axis":
                classes.append((Polyhedron.whole_space(dim),))
            else:
                big = Polyhedron.box([rat(-20)] * dim, [rat(20)] * dim)
                classes.append((_affine_image(big, m, minv, t),))
            classes = tuple(classes)
        fam = ColoredFamily(dim, classes)
        if check_ch(fam).holds:
            return fam
    raise GenerationError("colorful family generation failed")


def random_fractional_instance(seed: int) -> tuple[list, list, object]:
    """Planar (A, B, alpha) whose meeting-pair fraction is exactly alpha >= 1/2."""
    rng = random.Random(f"fractional:{seed}")
    half = rat(1, 2)
    for _ in range(_RETRIES):
        a_sets = [
            _polygon_containing_origin(rng).translated(
                (rat(rng.randint(-2, 2)), rat(rng.randint(-2, 2)))
            )
            for _ in range(rng.randint(3, 5))
        ]
        b_sets = [
            _random_polygon(rng).translated(
                (rat(rng.randint(-4, 4)), rat(rng.randint(-4, 4)))
            )
            for _ in range(rng.randint(2, 4))
        ]
        meeting = sum(
            first_meeting([a, b], 2) is not None
            for a, b in itertools.product(a_sets, b_sets)
        )
        alpha = rat(meeting, len(a_sets) * len(b_sets))
        if alpha >= half:
            return a_sets, b_sets, alpha
    raise GenerationError("fractional instance generation failed")
