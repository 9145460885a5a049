"""Exact LP oracle over the atom simplex: the test-only reference for sharpness.

A sharp bound is the optimum of a linear program over the joints
consistent with the evidence.  The closed forms of `bounds` must coincide
with it; the test suite checks that they do.  No runtime module imports
this one, so a check against it never compares a result with itself.

Dimension is tiny (at most 8 atoms, 6 equality rows), so the solver
enumerates basic feasible solutions with rational Gaussian elimination:
every vertex of {x >= 0, sum x = 1, Ax = b} is the unique solution of a
full-column-rank square subsystem, and an optimum of a bounded nonempty LP
sits at a vertex.
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


def _parse_target(target: str) -> tuple[str, Optional[int]]:
    if target in ("harm", "benefit"):
        return target, None
    for kind in ("harm", "benefit"):
        for astar in (0, 1):
            if target == f"{kind}_given_{astar}":
                return kind, astar
    raise ValueError(f"unknown target {target!r}")


def build_program(evidence: EvidenceSet, target: str) -> LinearProgram:
    """Encode the evidence as equality rows and the target as the objective.

    Fused problems run over the 8 atoms of (y0, y1, astar); experimental-only
    problems over the 4 atoms of (y0, y1).  Conditional objectives are the
    within-stratum numerator; the caller rescales by the known stratum mass.
    """
    kind, astar = _parse_target(target)
    p0, p1 = evidence.p0, evidence.p1
    if p1 is None:
        if astar is not None:
            raise MissingObservational("conditional target requires natural-choice data")
        rows = (
            (tuple(ONE if y1 == 1 else ZERO for (_y0, y1) in _P0_ONLY_KEYS), p0.p_do1),
            (tuple(ONE if y0 == 1 else ZERO for (y0, _y1) in _P0_ONLY_KEYS), p0.p_do0),
        )
        if kind == "harm":
            objective = tuple(
                ONE if (y0, y1) == (0, 1) else ZERO for (y0, y1) in _P0_ONLY_KEYS
            )
        else:
            objective = tuple(
                ONE if (y0, y1) == (1, 0) else ZERO for (y0, y1) in _P0_ONLY_KEYS
            )
        return LinearProgram(4, objective, rows)

    rows_list: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (tuple(ONE if y1 == 1 else ZERO for (_y0, y1, _a) in ATOM_KEYS), p0.p_do1),
        (tuple(ONE if y0 == 1 else ZERO for (y0, _y1, _a) in ATOM_KEYS), p0.p_do0),
        (tuple(ONE if a == 1 else ZERO for (_y0, _y1, a) in ATOM_KEYS), p1.pi1),
    ]
    if p1.q1 is not None:
        rows_list.append(
            (
                tuple(ONE if (y1, a) == (1, 1) else ZERO for (_y0, y1, a) in ATOM_KEYS),
                p1.pi1 * p1.q1,
            )
        )
    if p1.q0 is not None:
        rows_list.append(
            (
                tuple(ONE if (y0, a) == (1, 0) else ZERO for (y0, _y1, a) in ATOM_KEYS),
                (1 - p1.pi1) * p1.q0,
            )
        )
    pattern = (0, 1) if kind == "harm" else (1, 0)
    objective = tuple(
        ONE
        if (y0, y1) == pattern and (astar is None or a == astar)
        else ZERO
        for (y0, y1, a) in ATOM_KEYS
    )
    return LinearProgram(len(ATOM_KEYS), objective, tuple(rows_list))


def _solve_square(
    rows: list[list[Fraction]], rhs: list[Fraction], cols: tuple[int, ...]
) -> Optional[list[Fraction]]:
    """Solve the restriction to `cols` exactly; None unless uniquely solvable."""
    m, k = len(rows), len(cols)
    aug = [[rows[i][j] for j in cols] + [rhs[i]] for i in range(m)]
    pivots: list[int] = []
    row = 0
    for col in range(k):
        pivot = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pivot is None:
            return None  # rank-deficient restriction: no unique solution
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if len(pivots) < k:
        return None
    for i in range(row, m):
        if aug[i][k] != 0:
            return None  # inconsistent
    return [aug[r][k] for r in range(k)]


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


@lru_cache(maxsize=1024)
def _feasible_vertices(
    num_atoms: int,
    eq_constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...],
) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of {x >= 0, sum x = 1, Ax = b}; cached per constraint set."""
    rows = [[ONE] * num_atoms] + [list(coeffs) for coeffs, _ in eq_constraints]
    rhs = [ONE] + [b for _, b in eq_constraints]
    rank = _matrix_rank(rows)
    vertices: set[tuple[Fraction, ...]] = set()
    for cols in combinations(range(num_atoms), rank):
        solution = _solve_square(rows, rhs, cols)
        if solution is None or any(v < 0 for v in solution):
            continue
        point = [ZERO] * num_atoms
        for j, v in zip(cols, solution):
            point[j] = v
        vertices.add(tuple(point))
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
    """[min, max] of the target ("harm", "benefit", "harm_given_<a*>" or
    "benefit_given_<a*>") over all joints consistent with the evidence."""
    kind, astar = _parse_target(target)
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
