"""Topology of the doubled table and the compactified phase space.

Doubling a planar-type table with b boundary loops gives a closed
orientable surface of genus b - 1.  The compactified phase space is a
circle bundle over that surface whose fundamental group has one extra
central fiber generator; the surface relator picks up the fiber to the
power (Euler characteristic - number of vertices).
"""

from typing import NamedTuple

from .errors import PolygonError


class GroupPresentation(NamedTuple):
    """Presentation of the phase-space fundamental group.

    Generators a1, b1, .., ag, bg are lifted surface generators; f is the
    central fiber loop.  The single relation is
    [a1,b1]...[ag,bg] = f**exponent with exponent = X(S) - N.
    """

    genus: int
    euler_characteristic: int
    n_vertices: int
    generators: tuple
    exponent: int
    classification: str        # "trivial" | "finite-cyclic" | "other"
    cyclic_order: int | None

    def relations(self):
        rel = []
        if self.genus == 0:
            rel.append(f"f^{-self.exponent} = 1")
        else:
            comm = " ".join(f"[a{i},b{i}]" for i in range(1, self.genus + 1))
            rel.append(f"{comm} = f^{self.exponent}")
            rel.append("f central")
        return tuple(rel)

    def __str__(self):
        gens = ", ".join(self.generators)
        rel = "; ".join(self.relations())
        return f"<{gens} | {rel}>"


def double_surface_invariants(poly):
    """(genus, Euler characteristic) of the doubled table.

    Planar-type tables only: a disc with holes doubles to genus b - 1
    where b is the number of boundary loops.
    """
    p = pi1_presentation(poly)
    return p.genus, p.euler_characteristic


def presentation_from_counts(boundary_components, n_vertices):
    """Presentation from raw loop/vertex counts (see pi1_presentation)."""
    if n_vertices < 3:
        raise PolygonError("a polygon needs at least 3 vertices")
    g = boundary_components - 1
    chi = 2 - 2 * g
    exponent = chi - n_vertices
    if g == 0:
        order = abs(exponent)    # relation f^(2 - N) = 1
        cls, cyc = ("trivial", 1) if order <= 1 else ("finite-cyclic", order)
        gens = ("f",)
    else:
        cls, cyc = "other", None
        gens = tuple(x for i in range(1, g + 1) for x in (f"a{i}", f"b{i}")) + ("f",)
    return GroupPresentation(g, chi, n_vertices, gens, exponent, cls, cyc)


def pi1_presentation(poly):
    """Fundamental group of the compactified phase space over the table."""
    return presentation_from_counts(poly.boundary_components, poly.n_vertices)


def growth_class(p):
    """Word growth certificate: finite and cyclic groups grow at most linearly."""
    if p.classification in ("trivial", "finite-cyclic"):
        return "not_exponential"
    return "unknown"


def phase_space_description(p):
    """Human-readable summary; a trivial group means the 3-sphere."""
    if p.classification == "trivial":
        return "trivial; phase space: the 3-sphere"
    if p.classification == "finite-cyclic":
        return (f"finite cyclic of order {p.cyclic_order}; "
                f"phase space: a lens-space-like circle bundle")
    return "infinite presentation; see relations"
