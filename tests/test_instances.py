"""Seeded random instances: each generator's stated contract, re-verified."""

from __future__ import annotations

import itertools

from conftest import count_calls
from hellykit import instances
from hellykit.colorful import check_ch
from hellykit.geometry import Halfspace, Polyhedron, first_meeting, polyhedra_intersect
from hellykit.instances import (
    random_ch_family,
    random_ch_pair,
    random_fractional_instance,
    random_hypergraph,
    random_polygon_family,
    random_two_colored,
)
from hellykit.rationals import rat
from hellykit.serialize import digest, family_to_doc


def test_random_hypergraph_shape_and_determinism():
    for seed in range(10):
        h = random_hypergraph(seed)
        assert 1 <= h.vertex_count <= 12
        assert 1 <= len(h.edges) <= 20
        for edge in h.edges:
            assert edge
            assert all(0 <= v < h.vertex_count for v in edge)
        again = random_hypergraph(seed)
        assert again.vertex_count == h.vertex_count
        assert again.edges == h.edges


def test_random_polygon_family_shape():
    for seed in range(10):
        fam = random_polygon_family(seed)
        assert 2 <= len(fam) <= 5
        for poly in fam:
            assert poly.dim == 2
            assert polyhedra_intersect([poly]).feasible


def test_random_two_colored_contract():
    for seed in range(6):
        for dim in (2, 3):
            a_sets, b_sets = random_two_colored(seed, dim)
            assert not polyhedra_intersect(a_sets).feasible
            for a, b in itertools.product(a_sets, b_sets):
                assert polyhedra_intersect([a, b]).feasible


def test_two_colored_corner_verdict_matches_the_meeting_lp(monkeypatch):
    """Each (A halfspace, B box) pair the generator decides by its lowest
    corner gets the verdict of `first_meeting`, over seeds 0-299 in R^2 and
    R^3.  The drawn boxes all meet, so each pair is also tried with the box
    shrunk to a point and to size 1, where some do not."""
    verdicts = set()
    for dim in (2, 3):
        for seed in range(300):
            pairs = count_calls(monkeypatch, instances, "_lowest_corner")
            random_two_colored(seed, dim)
            monkeypatch.undo()
            for normal, center, drawn in pairs:
                a = Polyhedron(dim, (Halfspace(normal, rat(-1)),))
                for size in (drawn, 1, 0):
                    box = Polyhedron.box(
                        [rat(c - size) for c in center], [rat(c + size) for c in center]
                    )
                    meets = a.contains(instances._lowest_corner(normal, center, size))
                    assert meets == (first_meeting([a, box], 2) is not None)
                    verdicts.add((size == drawn, meets))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_random_ch_pair_is_two_colored_and_ch():
    for seed in range(8):
        fam = random_ch_pair(seed)
        assert fam.dim == 2
        assert fam.num_classes == 2
        assert check_ch(fam).holds


def test_random_ch_family_has_dim_plus_one_classes():
    for seed in range(4):
        for dim in (2, 3):
            fam = random_ch_family(seed, dim)
            assert fam.dim == dim
            assert fam.num_classes == dim + 1
            assert check_ch(fam).holds


def test_colorful_families_are_pinned():
    # digest taken when each draw's CH check solved every rainbow by LP
    docs = [family_to_doc(random_ch_family(s, d)) for s in range(40) for d in (2, 3)]
    docs += [family_to_doc(random_ch_pair(s)) for s in range(40)]
    assert digest(docs) == (
        "dd356d33ad72a0972345556b10d589e5f761f7d28118d12c5a47fb6f366bf6ae"
    )


def test_random_fractional_instance_alpha_is_exact():
    for seed in range(8):
        a_sets, b_sets, alpha = random_fractional_instance(seed)
        meeting = sum(
            1
            for a, b in itertools.product(a_sets, b_sets)
            if polyhedra_intersect([a, b]).feasible
        )
        assert alpha == rat(meeting, len(a_sets) * len(b_sets))
        assert alpha >= rat(1, 2)


def test_generators_vary_across_seeds():
    pairs = {
        tuple(len(cls) for cls in random_ch_pair(seed).classes) for seed in range(12)
    }
    counts = {random_hypergraph(seed).vertex_count for seed in range(12)}
    assert len(pairs) > 1 or len(counts) > 1
