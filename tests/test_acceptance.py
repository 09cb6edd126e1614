"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were computed from independent
oracles (subset-selection rank sums, codeword enumeration, dense scans)
before being frozen here.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dgldpc.cli import run as cli_run
from dgldpc.codes import (
    ComponentCode,
    delta_params,
    min_distance_at_least,
    min_distance_bruteforce,
    min_independent_set_size,
)
from dgldpc.density_evolution import find_threshold
from dgldpc.ensembles import design_rate, parse_ensemble, validate
from dgldpc.exit_charts import (
    cnd_evaluator,
    exit_coefficients,
    vnd_evaluator_at_q,
)
from dgldpc.stability import (
    dgldpc_stability_check,
    gldpc_stability_bound,
    stability_report,
)

from conftest import (
    HAMMING_74_TEXT,
    SPC_32_TEXT,
    ensemble,
    fixture_suite,
    generic_node,
    random_component_code,
    rep_node,
    serialize_ensemble,
    spc_node,
    to_text,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    print(f"criterion {num:2d} PASS  {description}")


@pytest.fixture(scope="module")
def suite_thresholds():
    results = []
    for ens in fixture_suite():
        results.append((ens, find_threshold(ens)))
    return results


def test_criterion_1_independent_set_equals_distance():
    with criterion(1, "independent-set size equals brute-force minimum distance"):
        start = time.monotonic()
        rng = random.Random(20260809)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 10)
            k = rng.randint(1, n - 1)
            code = random_component_code(rng, n, k)
            assert min_independent_set_size(code) == min_distance_bruteforce(code)
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_closed_form_reductions():
    with criterion(2, "generic EXIT reproduces repetition and SPC closed forms"):
        p_grid = [i / 100 for i in range(101)]
        for j in range(2, 7):
            code = ComponentCode.repetition(j)
            for q in [i / 10 for i in range(11)]:
                for p in p_grid:
                    expected = 1.0 - q * p ** (j - 1)
                    assert abs(exit_coefficients(code, "variable").at_q(q)(p) - expected) <= 1e-12
        for j in range(2, 9):
            code = ComponentCode.single_parity_check(j)
            for p in p_grid:
                assert abs(exit_coefficients(code, "check").at_q()(p) - (1.0 - p) ** (j - 1)) <= 1e-12


def test_criterion_3_coefficient_laws():
    with criterion(3, "a_0 laws hold and a_1 terms vanish exactly when d_min >= 3"):
        codes = [
            ComponentCode.from_text(SPC_32_TEXT),
            ComponentCode.from_text(HAMMING_74_TEXT),
            ComponentCode.from_text("1011\n0111"),
            ComponentCode.from_text("1100\n0111"),
        ]
        codes += [ComponentCode.repetition(j) for j in (2, 3, 4)]
        codes += [ComponentCode.single_parity_check(j) for j in (3, 4, 5)]
        rng = random.Random(77)
        found = 0
        while found < 40:
            n = rng.randint(3, 8)
            code = random_component_code(rng, n, rng.randint(1, min(5, n - 1)))
            if not min_distance_at_least(code.gen, 2):
                continue
            codes.append(code)
            found += 1
        for code in codes:
            check, variable = exit_coefficients(code, "check").coeffs, exit_coefficients(code, "variable").coeffs
            assert check[0] == (0,)
            assert all(a == 0 for a in variable[0])
            dmin3 = min_distance_bruteforce(code) >= 3
            assert (check[1] == (0,)) == dmin3
            assert all(a == 0 for a in variable[1]) == dmin3


def test_criterion_4_ldpc_special_case():
    with criterion(4, "stability bound reduces to [lambda_2 rho'(1)]^-1 for LDPC"):
        check_sides = [
            ((6, 1.0),),
            ((5, 0.5), (6, 0.5)),
        ]
        for lam2 in (0.25, 0.5, 1.0):
            variables = [rep_node(2, lam2)]
            if lam2 < 1.0:
                variables.append(rep_node(3, 1.0 - lam2))
            for spcs in check_sides:
                ens = ensemble(variables, [spc_node(j, f) for j, f in spcs])
                rho_prime = sum(Fraction(f) * (j - 1) for j, f in spcs)
                expected = float(1 / (Fraction(lam2) * rho_prime))
                bound = gldpc_stability_bound(ens)
                assert bound is not None
                assert abs(bound - expected) <= 1e-12


def test_criterion_5_equality_case():
    with criterion(5, "equality-case LDPC: threshold equals the bound, tangent at p=0"):
        start = time.monotonic()
        ens = ensemble([rep_node(2, 1.0)], [spc_node(6, 1.0)])
        result = find_threshold(ens)
        bound = gldpc_stability_bound(ens)
        assert abs(bound - 0.2) <= 1e-15
        # derivative matching: the threshold is the stability boundary itself
        # (g_q peaks at x = 0), where the two chart curves are tangent at p = 0
        assert result.x_star == 0.0
        assert result.q_star == bound
        assert abs(dgldpc_stability_check(ens, result.q_star).margin) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_6_necessity(suite_thresholds):
    with criterion(6, "stability inequality holds just below every DE threshold"):
        assert len(suite_thresholds) >= 10
        for ens, result in suite_thresholds:
            check = dgldpc_stability_check(ens, result.q_star - 1e-6)
            assert check.holds, f"violated at q*={result.q_star}"


def test_criterion_7_generic_equals_closed_form():
    with criterion(7, "generic re-declarations leave stability slopes unchanged"):
        for j in range(3, 7):
            spc_code = ComponentCode.single_parity_check(j)
            assert 2 * delta_params(spc_code)[-1] == spc_code.n * (j - 1)
            closed = ensemble([rep_node(3, 1.0)], [spc_node(j, 1.0)])
            generic = ensemble([rep_node(3, 1.0)], [generic_node(to_text(spc_code.gen), 1.0)])
            slopes = [stability_report(e).cnd_slope_at_zero for e in (closed, generic)]
            assert abs(slopes[0] - slopes[1]) <= 1e-12
        closed = ensemble([rep_node(2, 1.0)], [spc_node(6, 1.0)])
        generic = ensemble([generic_node("11", 1.0)], [spc_node(6, 1.0)])
        for q in [i / 10 for i in range(11)]:
            assert abs(
                dgldpc_stability_check(closed, q).lhs - dgldpc_stability_check(generic, q).lhs
            ) <= 1e-12


def test_criterion_8_finite_difference_audit():
    with criterion(8, "analytic p=0 slopes match centered differences of the EXIT mixtures"):
        h = 1e-6
        for ens in fixture_suite():
            cnd_diff = (cnd_evaluator(ens)(h) - cnd_evaluator(ens)(-h)) / (2 * h)
            assert abs(cnd_diff - stability_report(ens).cnd_slope_at_zero) <= 1e-6
            for q in (0.1, 0.5, 0.9):
                vnd_diff = (vnd_evaluator_at_q(ens, q)(h) - vnd_evaluator_at_q(ens, q)(-h)) / (2 * h)
                assert abs(vnd_diff + dgldpc_stability_check(ens, q).lhs) <= 1e-6


def test_criterion_9_de_sanity(suite_thresholds):
    with criterion(9, "thresholds match the derived oracle and capacity bound"):
        ens36, result36 = suite_thresholds[0]
        assert abs(result36.q_star - 0.4294) <= 5e-4
        for ens, result in suite_thresholds:
            assert result.q_star <= 1.0 - design_rate(ens) + 1e-3
            assert result.bisection_steps <= 30
            assert result.converged


# q* of the interior fixtures from the parent's bisection on 100000-iteration
# DE runs, frozen; their DE recursion converges geometrically, so it carries
# no iteration-cap bias beyond the 1e-7 bracket
DE_INTERIOR_THRESHOLDS = {
    0: 0.42943981289863586,
    2: 0.4241909682750702,
    3: 0.8439695537090302,
    4: 0.7916075885295868,
    5: 0.6631282866001129,
    7: 0.36880776286125183,
    9: 0.7564522325992584,
}


def test_thresholds_match_closed_forms_and_density_evolution(suite_thresholds):
    closed_forms = {
        6: math.sqrt(1.3) - 1,
        8: (math.sqrt(2185) - 35) / 20,
        10: math.sqrt(2) - 1,
    }
    assert suite_thresholds[1][1].q_star == 0.2
    for i, root in closed_forms.items():
        assert abs(suite_thresholds[i][1].q_star - root) <= 1e-12, i
    for i, q in DE_INTERIOR_THRESHOLDS.items():
        assert abs(suite_thresholds[i][1].q_star - q) <= 1e-6, i
        assert suite_thresholds[i][1].x_star > 0.0, i
    # the float q_stab may lie above the exact root, as F1's does; a probe
    # never compares g_q(0) with 1, so its one probe, at q_stab, settles
    # every stability-limited fixture
    assert Fraction(0.2) > Fraction(1, 5)
    for i in (1, *closed_forms):
        ens, result = suite_thresholds[i]
        assert result.x_star == 0.0, i
        assert result.bisection_steps == 1, i
        assert abs(dgldpc_stability_check(ens, result.q_star).margin) <= 1e-12, i


def test_criterion_10_format_round_trip(tmp_path, capsys):
    with criterion(10, "parse/serialize round-trips; CLI output is byte-identical"):
        docs = [
            serialize_ensemble(ens)
            for ens in (
                fixture_suite()[0],
                fixture_suite()[5],
                fixture_suite()[8],
            )
        ]
        for doc in docs:
            ens = validate(parse_ensemble(doc))
            assert parse_ensemble(serialize_ensemble(ens)) == ens
            assert serialize_ensemble(parse_ensemble(serialize_ensemble(ens))) == serialize_ensemble(ens)

        path = tmp_path / "mixed.json"
        path.write_text(docs[2], encoding="utf-8")
        outputs = []
        for _ in range(2):
            assert cli_run(["analyze", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])

        charts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli_run(["exit-chart", str(path), "--q", "0.25", "--npoints", "41", "--out", str(out)]) == 0
            charts.append(out.read_bytes())
        capsys.readouterr()
        assert charts[0] == charts[1]
