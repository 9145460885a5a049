"""Deterministic inputs for the benchmark workloads.

Every input is a function of the seed alone.  The program under test only
ever sees the written study file (or, for ``harness``, the command-line
arguments); the generating joints stay here and feed the output checks.

Run directly to print the sha256 of one workload's input, which the
benchmark compares with its own generation's:

    python3 bench/workloads.py --workload fused_study --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harmbounds.identification import compatibility_check  # noqa: E402
from harmbounds.model import (  # noqa: E402
    ATOM_KEYS,
    ExperimentalParams,
    JointDistribution,
    degenerate_grid,
    observables_from_joint,
    sample_joint,
)

# Input sizes.  One CLI call takes one to two seconds today, so a run holds
# a few dozen calls for its median.  With the fused harm and benefit bounds
# computed in closed form instead of by the LP oracle, a call still spends
# about 0.18 s (fused_study) or 0.14 s (harness) inside main(), and the run
# medians stayed as steady (bench/README.md).
FUSED_STRATA = 60
SCREENING_STRATA = 1500
SCREENING_EXPERIMENTAL_ONLY_EVERY = 5  # every fifth screening stratum has no natural-choice arm
HARNESS_SAMPLES = 40
# `verify --seed s` samples the joints of seeds s .. s+HARNESS_SAMPLES-1, so neighbouring
# benchmark seeds are spread this far apart to check disjoint joints.
HARNESS_SEED_STRIDE = 1000

@dataclass(frozen=True)
class Stratum:
    """One generated stratum: its label, how it was built, and its source joint.

    ``kind`` is ``fused`` (both sources, compatible), ``experimental_only``
    (no natural-choice arm) or ``incompatible``.  For an ``incompatible``
    stratum the joint generated the observational arm and the untreated
    experimental arm; the treated experimental arm was moved so that no
    joint reproduces all of them.
    """

    label: str
    kind: str
    joint: JointDistribution
    p_do1: Fraction
    p_do0: Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    strata: tuple[Stratum, ...]  # empty for harness
    study_bytes: bytes  # the file the program reads; empty for harness
    harness_samples: int = 0
    harness_constructed: int = 0

    @property
    def verify_seed(self) -> int:
        return self.seed * HARNESS_SEED_STRIDE

    @property
    def items(self) -> int:
        if self.name == "harness":
            return self.harness_samples + self.harness_constructed
        return len(self.strata)


def _integer_weights(joint: JointDistribution) -> tuple[list[int], int]:
    """Atoms as integer weights over a common total W (atom = w / W)."""
    total = math.lcm(*(p.denominator for p in joint.atoms))
    return [int(p * total) for p in joint.atoms], total


def _mass(weights: list[int], y0=None, y1=None, astar=None) -> int:
    total = 0
    for (k0, k1, ka), w in zip(ATOM_KEYS, weights):
        if (y0 is None or k0 == y0) and (y1 is None or k1 == y1) and (astar is None or ka == astar):
            total += w
    return total


def _cell(events: int, total: int) -> dict:
    return {"events": events, "total": total}


def _counts_entry(label: str, joint: JointDistribution, p_do1_events: Optional[int], observational: bool) -> dict:
    """A stratum as exact integer counts; each arm's total is W or a part of it."""
    weights, total = _integer_weights(joint)
    treated_events = _mass(weights, y1=1) if p_do1_events is None else p_do1_events
    entry: dict = {
        "labels": {"stratum": label},
        "experimental": {
            "treated": _cell(treated_events, total),
            "untreated": _cell(_mass(weights, y0=1), total),
        },
    }
    if observational:
        entry["observational"] = {
            "treated": _cell(_mass(weights, y1=1, astar=1), _mass(weights, astar=1)),
            "untreated": _cell(_mass(weights, y0=1, astar=0), _mass(weights, astar=0)),
        }
    return entry


def _parameters_entry(label: str, joint: JointDistribution) -> dict:
    """A stratum whose natural-choice arm is empty, which counts cannot express."""
    p0, p1 = observables_from_joint(joint)
    params = {"p_do1": str(p0.p_do1), "p_do0": str(p0.p_do0), "pi1": str(p1.pi1)}
    if p1.q1 is not None:
        params["q1"] = str(p1.q1)
    if p1.q0 is not None:
        params["q0"] = str(p1.q0)
    return {"labels": {"stratum": label}, "parameters": params}


def _study_bytes(entries: list[dict]) -> bytes:
    return (json.dumps({"strata": entries}, indent=1) + "\n").encode("utf-8")


def _joints(rng: random.Random):
    while True:
        yield sample_joint(rng.getrandbits(62))


def fused_study(seed: int) -> Workload:
    """FUSED_STRATA distinct strata, each the exact observables of a sampled joint."""
    rng = random.Random(f"fused_study:{seed}")
    seen: set = set()
    strata: list[Stratum] = []
    entries: list[dict] = []
    for joint in _joints(rng):
        if len(strata) == FUSED_STRATA:
            break
        p0, p1 = observables_from_joint(joint)
        key = (p0.p_do1, p0.p_do0, p1.pi1, p1.q1, p1.q0)
        if key in seen:
            continue
        seen.add(key)
        label = f"f{len(strata):05d}"
        if p1.pi1 in (0, 1):
            entries.append(_parameters_entry(label, joint))
        else:
            entries.append(_counts_entry(label, joint, None, observational=True))
        strata.append(Stratum(label, "fused", joint, p0.p_do1, p0.p_do0))
    return Workload("fused_study", seed, tuple(strata), _study_bytes(entries))


def screening_study(seed: int) -> Workload:
    """Experimental-only strata plus strata made incompatible by construction.

    An incompatible stratum starts from a joint with both natural-choice arms
    non-empty and moves P(Y=1|do(A=1)) outside the interval
    [pi1*q1, pi1*q1 + 1 - pi1] that the observational counts imply.
    """
    rng = random.Random(f"screening_study:{seed}")
    joints = _joints(rng)
    strata: list[Stratum] = []
    entries: list[dict] = []
    for i in range(SCREENING_STRATA):
        label = f"s{i:05d}"
        if i % SCREENING_EXPERIMENTAL_ONLY_EVERY == 0:
            joint = next(joints)
            p0, _ = observables_from_joint(joint)
            entries.append(_counts_entry(label, joint, None, observational=False))
            strata.append(Stratum(label, "experimental_only", joint, p0.p_do1, p0.p_do0))
            continue
        joint = next(j for j in joints if 0 < j.mass(astar=1) < 1)
        weights, total = _integer_weights(joint)
        lo = _mass(weights, y1=1, astar=1)  # W * pi1 * q1
        hi = lo + _mass(weights, astar=0)  # W * (pi1 * q1 + 1 - pi1)
        if lo > 0 and (hi == total or rng.random() < 0.5):
            events = rng.randrange(0, lo)
        else:
            events = rng.randrange(hi + 1, total + 1)
        p0, _ = observables_from_joint(joint)
        entries.append(_counts_entry(label, joint, events, observational=True))
        strata.append(Stratum(label, "incompatible", joint, Fraction(events, total), p0.p_do0))
    return Workload("screening_study", seed, tuple(strata), _study_bytes(entries))


def harness(seed: int) -> Workload:
    """``verify`` checks HARNESS_SAMPLES sampled joints plus the demo joint and the degenerate grid."""
    return Workload("harness", seed, (), b"", HARNESS_SAMPLES, 1 + len(degenerate_grid()))


GENERATORS = {"fused_study": fused_study, "screening_study": screening_study, "harness": harness}


def check_workload(workload: Workload) -> list[str]:
    """Problems with the generated input itself; empty when it is as specified."""
    problems = []
    if workload.name == "fused_study":
        keys = set()
        for s in workload.strata:
            p0, p1 = observables_from_joint(s.joint)
            keys.add((p0.p_do1, p0.p_do0, p1.pi1, p1.q1, p1.q0))
            if not compatibility_check(p0, p1).compatible:
                problems.append(f"{s.label}: fused stratum is not compatible")
        if len(keys) != len(workload.strata):
            problems.append("fused strata are not distinct")
    if workload.name == "screening_study":
        if not any(s.kind == "experimental_only" for s in workload.strata):
            problems.append("no experimental-only stratum, so analyze would exit 2")
        for s in workload.strata:
            if s.kind == "incompatible":
                _, p1 = observables_from_joint(s.joint)
                if compatibility_check(ExperimentalParams(s.p_do1, s.p_do0), p1).compatible:
                    problems.append(f"{s.label}: meant to be incompatible but is compatible")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(hashlib.sha256(GENERATORS[args.workload](args.seed).study_bytes).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
