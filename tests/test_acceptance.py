"""Acceptance sweep: nine exact, timed criteria covering the whole toolbox.

Each test prints one PASS/FAIL line.  Values are asserted with exact
rational arithmetic (no tolerances) and every certificate returned by the
library is re-verified here with independent primitives.  Run with -s to
see the per-criterion lines as they complete.
"""

from __future__ import annotations

import contextlib
import itertools
import time

from conftest import corpus_paths, load_fixture
from oracles import brute_line_cover, brute_pierce, flat_family_from_doc

from hellykit.bounds import BETA_DEFAULT_LABEL, lam
from hellykit.budgets import DEFAULT_BUDGET
from hellykit.colorful import (
    HyperplaneCover,
    LineCover,
    PiercedClass,
    check_ch,
    fractional_two_color_search,
    intersecting_class,
    theorem_main_d2,
    two_color_lemma,
)
from hellykit.constructions import (
    generate_planar,
    generate_simplex_family,
    max_simplex_facets_crossed,
    verify_relint_property,
)
from hellykit.geometry import flat_crosses, hyperplane_crosses, polyhedra_intersect
from hellykit.hypergraphs import duality_report, line_cover_number, piercing_number
from hellykit.instances import (
    random_ch_family,
    random_ch_pair,
    random_fractional_instance,
    random_hypergraph,
    random_two_colored,
)
from hellykit.rationals import rat
from hellykit.serialize import family_from_doc, hypergraph_from_doc

WIDE_BUDGET = DEFAULT_BUDGET.scaled(
    max_subfamily_sets=40,
    max_tau_vertices=80,
    max_tau_edges=160,
    max_rainbow_tuples=1_000_000,
)


@contextlib.contextmanager
def criterion(num: int, description: str, cap_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - started
        print(f"criterion {num} ({description}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.monotonic() - started
    line = (
        f"criterion {num} ({description}): "
        f"{'PASS' if elapsed < cap_seconds else 'FAIL'} "
        f"in {elapsed:.1f}s (cap {cap_seconds:.0f}s)"
    )
    print(line)
    assert elapsed < cap_seconds, line


def test_criterion_1_duality_sandwich():
    with criterion(1, "duality sandwich", 60):
        fixtures = [
            hypergraph_from_doc(load_fixture(name))
            for name in (
                "hypergraph_triangle.json",
                "hypergraph_path.json",
                "hypergraph_fano.json",
            )
        ]
        hypergraphs = [random_hypergraph(seed) for seed in range(50)]
        for h in hypergraphs:
            assert h.vertex_count <= 12 and len(h.edges) <= 20
        for i, h in enumerate(hypergraphs):
            _assert_sandwich(h, 1 + i % 3)
        for h in fixtures:
            for b in (1, 2, 3):
                _assert_sandwich(h, b)


def _assert_sandwich(h, b: int) -> None:
    rep = duality_report(h, b)
    assert rep.sandwich_ok
    nu_star = rep.nu_star_result.value
    tau_star = rep.tau_star_result.value
    assert nu_star == tau_star
    assert rat(rep.nu_b_value, b) <= nu_star
    assert rep.tau_result is not None
    assert tau_star <= rep.tau_result.size


def test_criterion_2_two_color_hyperplanes():
    with criterion(2, "two-colored crossing lemma", 120):
        for seed in range(50):
            for dim in (2, 3):
                a_sets, b_sets = random_two_colored(seed, dim)
                assert not polyhedra_intersect(a_sets).feasible
                out = two_color_lemma(a_sets, b_sets)
                assert isinstance(out, HyperplaneCover)
                assert 1 <= len(out.hyperplanes) <= dim
                for b in b_sets:
                    assert any(hyperplane_crosses(h, b) for h in out.hyperplanes)


def test_criterion_3_planar_dichotomy():
    with criterion(3, "d=2 dichotomy", 120):
        families = [random_ch_pair(seed) for seed in range(50)]
        families += [generate_planar(f, seed=11).family for f in (1, 2, 3)]
        for fam in families:
            out = theorem_main_d2(fam, WIDE_BUDGET)
            assert isinstance(out, (PiercedClass, LineCover))
            if isinstance(out, PiercedClass):
                assert len(out.points) == 1
                point = out.points[0]
                for s in fam.classes[out.class_index]:
                    assert s.contains(point.coords)
            else:
                assert len(out.lines) <= 4
                for s in fam.all_sets():
                    assert any(flat_crosses(line, s) for line in out.lines)


def test_criterion_4_planar_lower_bounds():
    with criterion(4, "planar lower bounds", 180):
        for f in (1, 2, 3):
            c = generate_planar(f, seed=11)
            assert c.m == 2 * f
            assert piercing_number(list(c.triangles), WIDE_BUDGET).size >= f
            assert piercing_number(list(c.segments), WIDE_BUDGET).size == 3 * c.m
            cover = line_cover_number(list(c.triangles) + list(c.segments), WIDE_BUDGET)
            assert cover.size >= 2
            for trio in itertools.combinations(c.triangles, 3):
                assert not polyhedra_intersect(list(trio)).feasible


def test_criterion_5_simplex_family_d3():
    with criterion(5, "simplex lower bounds in R^3", 300):
        for f in (1, 2):
            c = generate_simplex_family(3, f, seed=5)
            assert check_ch(c.family, WIDE_BUDGET).holds
            for cls in c.cone_classes:
                assert piercing_number(list(cls), WIDE_BUDGET).size >= f
            assert line_cover_number(list(c.all_sets), WIDE_BUDGET).size >= 2
        crossing = max_simplex_facets_crossed(3)
        assert crossing.value == 2


def test_criterion_6_relint_sweep():
    with criterion(6, "facet relative-interior sweep", 120):
        for d in (2, 3):
            rep = verify_relint_property(generate_simplex_family(d, 1, seed=5))
            assert rep.holds
            assert rep.failures == ()
            for entry in rep.entries:
                assert entry.margin is not None and entry.margin > 0
                assert entry.point is not None


def test_criterion_7_intersecting_class():
    with criterion(7, "colorful Helly consequence", 120):
        families = [
            family_from_doc(load_fixture(name))[0]
            for name in ("family_ch_d2.json", "family_ch_d3.json")
        ]
        families += [
            random_ch_family(seed, dim) for seed in range(25) for dim in (2, 3)
        ]
        for fam in families:
            index, point = intersecting_class(fam)
            for s in fam.classes[index]:
                assert s.contains(point.coords)


def test_criterion_8_fractional_thresholds():
    with criterion(8, "fractional dichotomy thresholds", 120):
        assert lam(rat(1), 2) == rat(1, 216)
        for seed in range(20):
            a_sets, b_sets, alpha = random_fractional_instance(seed)
            assert alpha >= rat(1, 2)
            rep = fractional_two_color_search(a_sets, b_sets, alpha)
            assert rep.holds
            assert rep.beta_label == BETA_DEFAULT_LABEL
            point_ok = (
                rep.best_point is not None
                and rat(len(rep.point_covered)) >= rep.gamma_target
            )
            hyperplane_ok = (
                rep.best_hyperplane is not None
                and rat(len(rep.hyperplane_covered)) >= rep.lambda_target
            )
            assert point_ok or hyperplane_ok
            if point_ok:
                for i in rep.point_covered:
                    assert a_sets[i].contains(rep.best_point.coords)


def test_criterion_9_oracle_equivalence():
    with criterion(9, "brute-force oracle equivalence", 180):
        paths = corpus_paths()
        assert paths, "polygon corpus is missing"
        for path in paths:
            fam, _ = flat_family_from_doc(load_fixture(f"corpus/{path.name}"))
            assert len(fam) <= 5
            assert piercing_number(fam, WIDE_BUDGET).size == brute_pierce(fam)
            assert line_cover_number(fam, WIDE_BUDGET).size == brute_line_cover(fam)
