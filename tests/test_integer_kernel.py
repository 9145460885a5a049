"""The integer kernel against the rational formulas it replaces.

`compatibility_check`, `EvidenceSet` and `bounds` work in integers over one
common denominator and form a Fraction only for a reported number.  These
tests draw the five parameters with unrelated, pairwise coprime denominators
of up to 100 digits, so that the common denominator is as large as it gets,
and hold every view, bound, violation text and cross risk to the README's
formulas evaluated in `Fraction`s.
"""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbounds import (
    EvidenceSet,
    ExperimentalParams,
    Interval,
    ObservationalParams,
    ate_bounds,
    benefit_bounds,
    cate_bounds,
    compatibility_check,
    conditional_benefit_bounds,
    conditional_harm_bounds,
    harm_bounds,
    identify_stratum_risks,
    observables_from_joint,
)
from harmbounds.identification import Stratum
from harmbounds.model import degenerate_grid, sample_joint

F = Fraction
KERNEL = settings(max_examples=300, deadline=None)


@st.composite
def parameters(draw):
    """(p0, p1) of five rationals in [0, 1] whose denominators, of up to 100
    digits, are pairwise coprime.  pi1 is 0 or 1 in about half the draws, and
    the do-risks are drawn inside the ranges that compatibility allows in
    about two of three, so that both outcomes of the check are common."""
    used = 1  # the product of the denominators drawn so far

    def rational(lo=F(0), hi=F(1)):
        nonlocal used
        den = draw(st.integers(1, 10**100) | st.integers(10**99, 10**100))
        while (common := gcd(den, used)) > 1:
            den //= common
        used *= den
        first, last = -(-lo.numerator * den // lo.denominator), hi.numerator * den // hi.denominator
        if first > last:  # no multiple of 1/den in [lo, hi]
            first, last = 0, den
        return F(draw(st.integers(first, last)), den)

    kind = draw(st.sampled_from(["interior", "interior", "zero", "one"]))
    pi1 = rational() if kind == "interior" else F(kind == "one")
    q1 = rational() if pi1 else None
    q0 = rational() if pi1 < 1 else None
    inside = draw(st.sampled_from([True, True, False]))
    do_risks = []
    for mass, risk in ((pi1, q1), (1 - pi1, q0)):
        seen = mass * risk if risk is not None else F(0)
        do_risks.append(rational(seen, seen + 1 - mass) if inside else rational())
    return ExperimentalParams(*do_risks), ObservationalParams(pi1, q1, q0)


def _table(p0, p1):
    """The README's table: {astar: (mass, j1, j0)} for every stratum, empty ones too."""
    seen1 = p1.pi1 * p1.q1 if p1.q1 is not None else F(0)
    seen0 = (1 - p1.pi1) * p1.q0 if p1.q0 is not None else F(0)
    return {1: (p1.pi1, seen1, p0.p_do0 - seen0), 0: (1 - p1.pi1, p0.p_do1 - seen1, seen0)}


def _fusion(p0, p1):
    """The violation texts and cross risks, from the identity in Fractions."""
    violations, cross = [], {}
    for arm, p_do, mass, risk in ((1, p0.p_do1, p1.pi1, p1.q1), (0, p0.p_do0, 1 - p1.pi1, p1.q0)):
        seen = F(0) if risk is None else mass * risk
        rest = 1 - mass
        if risk is not None and not 0 <= p_do - seen <= rest:
            violations.append(
                f"P(Y=1|do(A={arm})) = {p_do} outside [{seen}, {seen + rest}] "
                f"implied by P(A*={arm}) = {mass}, P(Y=1|A*={arm}) = {risk}"
            )
        if rest:
            cross[1 - arm] = (p_do - seen) / rest
    return tuple(violations), cross


def _frechet(strata, benefit=False):
    """Sum over (mass, j1, j0) of [max(0, u - v), min(u, mass - v)], (u, v) = (j1, j0) or swapped."""
    lower = upper = F(0)
    for mass, j1, j0 in strata:
        u, v = (j0, j1) if benefit else (j1, j0)
        lower += max(F(0), u - v)
        upper += min(u, mass - v)
    return lower, upper


def _views(stratum):
    return tuple(F(n, stratum.scale) for n in (stratum.mass, stratum.joint1, stratum.joint0))


def _assert_fractions(interval):
    assert type(interval.lower) is Fraction is type(interval.upper)
    return tuple(interval)


@KERNEL
@given(parameters())
def test_strata_and_fusion_report_follow_the_formulas(params):
    """Each stratum's views are the table's; the violations and cross risks are the identity's."""
    p0, p1 = params
    report = compatibility_check(p0, p1)
    violations, cross = _fusion(p0, p1)
    assert report.violations == violations
    assert report.compatible == (not violations)
    assert report.derived_cross_risks == cross and list(report.derived_cross_risks) == list(cross)
    assert all(type(risk) is Fraction for risk in report.derived_cross_risks.values())
    if violations:
        assert report.strata is None
        return
    table = _table(p0, p1)
    assert [s.astar for s in report.strata] == [s for s in (0, 1) if table[s][0]]
    assert len({stratum.scale for stratum in report.strata}) == 1
    for stratum in report.strata:
        mass, j1, j0 = table[stratum.astar]
        assert _views(stratum) == (mass, j1, j0)
        assert stratum.cate == (j1 - j0) / mass
        assert identify_stratum_risks(p0, p1, stratum.astar) == (j1 / mass, j0 / mass)


@KERNEL
@given(parameters())
def test_every_bound_is_the_direct_closed_form(params):
    """Every bound at both evidence levels equals its closed form in Fractions."""
    p0, p1 = params
    alone = EvidenceSet(p0)
    assert _views(alone.strata[0]) == (1, p0.p_do1, p0.p_do0)
    marginal = [(F(1), p0.p_do1, p0.p_do0)]
    assert _assert_fractions(harm_bounds(alone)) == _frechet(marginal)
    assert _assert_fractions(benefit_bounds(alone)) == _frechet(marginal, benefit=True)
    assert _assert_fractions(ate_bounds(alone)) == (p0.p_do1 - p0.p_do0,) * 2
    fused = EvidenceSet(p0, p1)
    if not fused.fusion.compatible:
        return
    table = _table(p0, p1)
    strata = [table[s] for s in (0, 1) if table[s][0]]
    assert _assert_fractions(harm_bounds(fused)) == _frechet(strata)
    assert _assert_fractions(benefit_bounds(fused)) == _frechet(strata, benefit=True)
    assert _assert_fractions(ate_bounds(fused)) == (p0.p_do1 - p0.p_do0,) * 2
    p_y = sum(mass * risk for mass, risk in ((p1.pi1, p1.q1), (1 - p1.pi1, p1.q0)) if mass)
    assert harm_bounds(fused).lower == max(F(0), p_y - p0.p_do0) + max(F(0), p0.p_do1 - p_y)
    for astar in (0, 1):
        mass, j1, j0 = table[astar]
        if not mass:
            continue
        r1, r0 = j1 / mass, j0 / mass
        assert _assert_fractions(conditional_harm_bounds(fused, astar)) == (max(F(0), r1 - r0), min(r1, 1 - r0))
        assert _assert_fractions(conditional_benefit_bounds(fused, astar)) == (max(F(0), r0 - r1), min(r0, 1 - r1))
        assert _assert_fractions(cate_bounds(fused, astar)) == (r1 - r0,) * 2


def _mass_sums(joint):
    """`observables_from_joint` through `JointDistribution.mass`, as it was written in Fractions."""
    pi1 = joint.mass(astar=1)
    q1 = joint.mass(y1=1, astar=1) / pi1 if pi1 > 0 else None
    q0 = joint.mass(y0=1, astar=0) / (1 - pi1) if pi1 < 1 else None
    return ExperimentalParams(joint.mass(y1=1), joint.mass(y0=1)), ObservationalParams(pi1, q1, q0)


def test_observables_from_joint_are_the_mass_sums():
    """On every lattice joint of n = 4 and 200 sampled ones."""
    for joint in degenerate_grid(4) + [sample_joint(seed) for seed in range(200)]:
        observed = observables_from_joint(joint)
        assert observed == _mass_sums(joint), joint
        assert all(type(value) is Fraction for params in observed for value in params if value is not None)


def test_interval_with_lower_above_upper_still_raises():
    """The public constructor checks the ends, and so does the integer path,
    here fed a stratum whose joint number exceeds its mass."""
    with pytest.raises(ValueError, match="lower 1/2 exceeds upper 1/3"):
        Interval(F(1, 2), F(1, 3))
    broken = SimpleNamespace(strata=(Stratum(0, 10, 5, 8, 0),))
    with pytest.raises(ValueError, match="lower 4/5 exceeds upper 1/2"):
        harm_bounds(broken)
