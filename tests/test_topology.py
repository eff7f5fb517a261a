import math

import pytest

from ccbilliards import (build_polygon, double_surface_invariants,
                         growth_class, pi1_presentation)
from ccbilliards.errors import PolygonError
from ccbilliards.topology import (phase_space_description,
                                  presentation_from_counts)


def regular_ngon(n):
    return build_polygon(0, [(math.cos(2 * math.pi * j / n),
                              math.sin(2 * math.pi * j / n))
                             for j in range(n)])


def annulus():
    return build_polygon(0, [(0, 0), (3, 0), (3, 3), (0, 3)],
                         holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])


class TestInvariants:
    def test_simply_connected(self, sq):
        assert double_surface_invariants(sq) == (0, 2)

    def test_annulus_is_torus(self):
        assert double_surface_invariants(annulus()) == (1, 0)

    def test_two_holes(self):
        poly = build_polygon(0, [(0, 0), (6, 0), (6, 3), (0, 3)],
                             holes=[[(1, 1), (2, 1), (2, 2), (1, 2)],
                                    [(4, 1), (5, 1), (5, 2), (4, 2)]])
        assert double_surface_invariants(poly) == (2, -2)


class TestPresentation:
    def test_triangle_trivial_three_sphere(self):
        pres = pi1_presentation(regular_ngon(3))
        assert pres.classification == "trivial"
        assert "3-sphere" in phase_space_description(pres)

    def test_ngon_cyclic(self):
        for n in range(4, 9):
            pres = pi1_presentation(regular_ngon(n))
            assert pres.classification == "finite-cyclic"
            assert pres.cyclic_order == n - 2

    def test_exponent_identity(self):
        # relation exponent + N = Euler characteristic, every table
        for poly in (regular_ngon(5), annulus()):
            pres = pi1_presentation(poly)
            _, chi = double_surface_invariants(poly)
            assert pres.exponent + pres.n_vertices == chi

    def test_annulus_relation(self):
        pres = pi1_presentation(annulus())
        assert pres.genus == 1
        assert pres.exponent == -8
        assert pres.generators == ("a1", "b1", "f")
        assert "[a1,b1] = f^-8" in str(pres)

    def test_counts_helper_matches_spec_case(self):
        pres = presentation_from_counts(2, 4)
        assert pres.exponent == -4
        assert "[a1,b1] = f^-4" in str(pres)

    def test_simply_connected_reduction(self):
        # the g = 0 relation is the cyclic one with order N - 2
        pres = presentation_from_counts(1, 7)
        assert pres.relations() == ("f^5 = 1",)
        assert pres.cyclic_order == 5

    def test_too_few_vertices_rejected(self):
        with pytest.raises(PolygonError):
            presentation_from_counts(1, 2)


class TestPhaseSpaceDescription:
    def test_holed_square_infinite_presentation(self):
        assert (phase_space_description(pi1_presentation(annulus()))
                == "infinite presentation; see relations")


class TestGrowth:
    def test_cyclic_not_exponential(self):
        for n in (3, 5, 8):
            assert growth_class(pi1_presentation(regular_ngon(n))) == \
                "not_exponential"

    def test_genus_one_unknown(self):
        assert growth_class(pi1_presentation(annulus())) == "unknown"
