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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .bounds import EvidenceSet, Interval
from .errors import IncompatibleEvidence, MissingObservational, NullStratum
from .model import ATOM_KEYS, ONE, ZERO

_P0_ONLY_KEYS = tuple((y0, y1) for y0 in (0, 1) for y1 in (0, 1))
_COORDS = ("y0", "y1", "astar")  # the names of an atom key's coordinates, in order
_RESPONSE_TYPES = {"harm": (0, 1), "benefit": (1, 0)}  # (y0, y1) of each type


@dataclass(frozen=True)
class LinearProgram:
    """Linear functional of the atoms under equality evidence constraints.

    Nonnegativity and sum-to-one are implicit.
    """

    num_atoms: int
    objective: tuple[Fraction, ...]
    eq_constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_atoms:
            raise ValueError("objective length mismatch")
        for coeffs, _rhs in self.eq_constraints:
            if len(coeffs) != self.num_atoms:
                raise ValueError("constraint length mismatch")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible"
    value: Optional[Fraction] = None
    witness: Optional[tuple[Fraction, ...]] = None


def _parse_target(target: str) -> tuple[tuple[int, int], Optional[int]]:
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
    rows: list[list[Fraction]], rhs: list[Fraction], cols: tuple[int, ...]
) -> Optional[list[Fraction]]:
    """Solve the square restriction to `cols` exactly; None if it is singular."""
    aug = [[row[j] for j in cols] + [b] for row, b in zip(rows, rhs)]
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
    return [row[-1] for row in aug]


@lru_cache(maxsize=1024)
def _feasible_vertices(
    num_atoms: int,
    eq_constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...],
) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of {x >= 0, sum x = 1, Ax = b}; cached per constraint set.

    If no square restriction is nonsingular, the rows are linearly dependent,
    which no program of `build_program` is: that raises ValueError.
    """
    rows = [[ONE] * num_atoms] + [list(coeffs) for coeffs, _ in eq_constraints]
    rhs = [ONE] + [b for _, b in eq_constraints]
    vertices: set[tuple[Fraction, ...]] = set()
    nonsingular = False
    for cols in combinations(range(num_atoms), len(rows)):
        solution = _solve_square(rows, rhs, cols)
        if solution is None:
            continue
        nonsingular = True
        if any(v < 0 for v in solution):
            continue
        point = [ZERO] * num_atoms
        for j, v in zip(cols, solution):
            point[j] = v
        vertices.add(tuple(point))
    if not nonsingular:
        raise ValueError("the equality rows are linearly dependent")
    return tuple(sorted(vertices))


def solve(lp: LinearProgram, sense: str) -> LpResult:
    """Exact optimum of the program; infeasibility signals incompatible evidence."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    vertices = _feasible_vertices(lp.num_atoms, lp.eq_constraints)
    if not vertices:
        return LpResult(status="infeasible")
    best_value: Optional[Fraction] = None
    best_vertex: Optional[tuple[Fraction, ...]] = None
    for vertex in vertices:
        value = sum(c * x for c, x in zip(lp.objective, vertex))
        if (
            best_value is None
            or (sense == "min" and value < best_value)
            or (sense == "max" and value > best_value)
        ):
            best_value, best_vertex = value, vertex
    return LpResult(status="optimal", value=best_value, witness=best_vertex)


def sharp_interval(evidence: EvidenceSet, target: str) -> Interval:
    """[min, max] of the target ("harm", "benefit", "harm_given<a*>" or
    "benefit_given<a*>", the report's keys) over all joints consistent with
    the evidence."""
    _, astar = _parse_target(target)
    scale = ONE
    if astar is not None:
        if evidence.p1 is None:
            raise MissingObservational("conditional target requires natural-choice data")
        mass = evidence.p1.pi1 if astar == 1 else 1 - evidence.p1.pi1
        if mass == 0:
            raise NullStratum(f"P(A*={astar}) = 0")
        scale = mass
    lp = build_program(evidence, target)
    low = solve(lp, "min")
    high = solve(lp, "max")
    if low.status == "infeasible" or high.status == "infeasible":
        raise IncompatibleEvidence("no joint distribution matches the evidence")
    assert low.value is not None and high.value is not None
    return Interval(low.value / scale, high.value / scale)
