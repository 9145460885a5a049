"""Exact LP oracle over the atom simplex: the test-only reference for sharpness.

A sharp bound is the optimum of a linear program over the joints
consistent with the evidence.  The closed forms of `bounds` must coincide
with it; the test suite checks that they do.  No runtime module imports
this one, so a check against it never compares a result with itself.

Dimension is tiny (at most 8 atoms, 6 equality rows), so the solver
enumerates basic feasible solutions with rational Gaussian elimination:
every vertex of {x >= 0, sum x = 1, Ax = b} is the unique solution of a
nonsingular square subsystem, and an optimum of a bounded nonempty LP
sits at a vertex.  The rows `build_program` writes, with the implicit
sum-to-one row, are the 0/1 indicators of 1, y1, y0, a*, y1·a* and
y0·(1 − a*) on the atoms.  Each brings a monomial that the ones before it
lack, so they are linearly independent: the rank is the row count, and
every vertex solves the restriction to as many columns as there are rows.
The rows depend only on which evidence is present, so each such shape's
bases B are inverted once, and the vertices are the nonnegative B^-1 b.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .bounds import EvidenceSet, Interval
from .errors import IncompatibleEvidence, MissingObservational, NullStratum
from .model import ATOM_KEYS, ONE, ZERO

_P0_ONLY_KEYS = tuple((y0, y1) for y0 in (0, 1) for y1 in (0, 1))
_COORDS = ("y0", "y1", "astar")  # the names of an atom key's coordinates, in order
_RESPONSE_TYPES = {"harm": (0, 1), "benefit": (1, 0)}  # (y0, y1) of each type


class LinearProgram(namedtuple("LinearProgram", "num_atoms objective eq_constraints")):
    """Linear functional of the atoms under equality evidence constraints:
    the `objective` coefficients, one per atom, and `eq_constraints`, the
    (coefficients, value) rows.  Nonnegativity and sum-to-one are implicit.
    """

    __slots__ = ()


def _parse_target(target: str) -> tuple[tuple[int, int], int | None]:
    """The (y0, y1) response type and the A* stratum (None: all) of a report key."""
    kind, given, astar = target.partition("_given")
    if kind not in _RESPONSE_TYPES or astar not in (("0", "1") if given else ("",)):
        raise ValueError(f"unknown target {target!r}")
    return _RESPONSE_TYPES[kind], int(astar) if given else None


def _indicator(keys: tuple[tuple[int, ...], ...], **coords: int) -> tuple[Fraction, ...]:
    """The 0/1 row of the atoms whose named coordinates have the given values."""
    where = [(_COORDS.index(name), value) for name, value in coords.items()]
    return tuple(ONE if all(key[i] == value for i, value in where) else ZERO for key in keys)


def build_program(evidence: EvidenceSet, target: str) -> LinearProgram:
    """Encode the evidence as equality rows and the target as the objective.

    Fused problems run over the 8 atoms of (y0, y1, astar); experimental-only
    problems over the 4 atoms of (y0, y1).  Conditional objectives are the
    within-stratum numerator; the caller rescales by the known stratum mass.
    """
    (y0, y1), astar = _parse_target(target)
    p0, p1 = evidence.p0, evidence.p1
    if p1 is None and astar is not None:
        raise MissingObservational("conditional target requires natural-choice data")
    keys = _P0_ONLY_KEYS if p1 is None else ATOM_KEYS
    rows = [(_indicator(keys, y1=1), p0.p_do1), (_indicator(keys, y0=1), p0.p_do0)]
    if p1 is not None:
        rows.append((_indicator(keys, astar=1), p1.pi1))
        if p1.q1 is not None:
            rows.append((_indicator(keys, y1=1, astar=1), p1.pi1 * p1.q1))
        if p1.q0 is not None:
            rows.append((_indicator(keys, y0=1, astar=0), (1 - p1.pi1) * p1.q0))
    stratum = {} if astar is None else {"astar": astar}
    return LinearProgram(len(keys), _indicator(keys, y0=y0, y1=y1, **stratum), tuple(rows))


def _solve_square(
    rows: list[list[Fraction]], rhs: list[list[Fraction]], cols: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], ...] | None:
    """Solve the square restriction to `cols` exactly for each column of `rhs`; None if singular."""
    aug = [[row[j] for j in cols] + b for row, b in zip(rows, rhs)]
    for col in range(len(cols)):
        pivot = next((i for i in range(col, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for i, other in enumerate(aug):
            if i != col and other[col] != 0:
                factor = other[col]
                aug[i] = [a - factor * b for a, b in zip(other, aug[col])]
    return tuple(tuple(row[len(cols):]) for row in aug)


@lru_cache(maxsize=None)
def _bases(
    num_atoms: int, coefficients: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]], ...]:
    """(columns, d, d * inverse) of each nonsingular square restriction of the
    sum-to-one row and `coefficients`, d clearing the inverse's denominators.
    If there is none, the rows are linearly dependent, which no program of
    `build_program` is: that raises ValueError."""
    rows = [[ONE] * num_atoms] + [list(row) for row in coefficients]
    identity = [[ONE if i == j else ZERO for j in range(len(rows))] for i in range(len(rows))]
    bases = []
    for cols in combinations(range(num_atoms), len(rows)):
        inverse = _solve_square(rows, identity, cols)
        if inverse is not None:
            d = lcm(*(a.denominator for row in inverse for a in row))
            bases.append((cols, d, tuple(tuple(int(a * d) for a in row) for row in inverse)))
    if not bases:
        raise ValueError("the equality rows are linearly dependent")
    return tuple(bases)


@lru_cache(maxsize=1024)
def _feasible_vertices(
    num_atoms: int,
    eq_constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...],
) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of {x >= 0, sum x = 1, Ax = b}; cached per constraint set.

    Each nonnegative B^-1 b is computed in integers over b's common denominator.
    """
    rhs = (ONE, *(b for _, b in eq_constraints))
    denominator = lcm(*(b.denominator for b in rhs))
    rhs_int = [b.numerator * (denominator // b.denominator) for b in rhs]
    vertices: set[tuple[Fraction, ...]] = set()
    for cols, d, inverse in _bases(num_atoms, tuple(coeffs for coeffs, _ in eq_constraints)):
        solution = [sum(a * b for a, b in zip(row, rhs_int)) for row in inverse]
        if min(solution) >= 0:
            point = [ZERO] * num_atoms
            for j, v in zip(cols, solution):
                point[j] = Fraction(v, d * denominator)
            vertices.add(tuple(point))
    return tuple(sorted(vertices))


def sharp_interval(evidence: EvidenceSet, target: str) -> Interval:
    """[min, max] of the target ("harm", "benefit", "harm_given<a*>" or
    "benefit_given<a*>", the report's keys) over all joints consistent with
    the evidence; IncompatibleEvidence if there is none."""
    lp = build_program(evidence, target)
    _, astar = _parse_target(target)
    scale = ONE if astar is None else evidence.p1.pi1 if astar else 1 - evidence.p1.pi1
    if scale == 0:
        raise NullStratum(f"P(A*={astar}) = 0")
    vertices = _feasible_vertices(lp.num_atoms, lp.eq_constraints)
    if not vertices:
        raise IncompatibleEvidence("no joint distribution matches the evidence")
    values = [sum(c * x for c, x in zip(lp.objective, vertex) if c) for vertex in vertices]
    return Interval(min(values) / scale, max(values) / scale)
