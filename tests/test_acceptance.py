"""Acceptance gate: the nine release criteria, one pass/fail line each.

The criteria run once per session (they share ensembles of trajectories)
and each test asserts a single criterion's verdict, so a red line here
points directly at the broken guarantee. Run with -s to see the lines.
"""

import math

import numpy as np
import pytest

from thermolight.acceptance import markov_steady_state_occupation, run_all


@pytest.fixture(scope="module")
def verdicts():
    return {r.index: r for r in run_all()}


def _report(r):
    line = f"{'PASS' if r.passed else 'FAIL'}  criterion {r.index} ({r.name}): {r.detail}"
    print(line)
    assert r.passed, line


def test_criterion_1_sunlight_cooling_rate(verdicts):
    _report(verdicts[1])


def test_criterion_2_top_hat_grayness(verdicts):
    _report(verdicts[2])


def test_criterion_3_integrated_single_mode_power(verdicts):
    _report(verdicts[3])


def test_criterion_4_virtual_temperature(verdicts):
    _report(verdicts[4])


def test_criterion_5_on_axis_radiance_factor(verdicts):
    _report(verdicts[5])


def test_criterion_6_etendue_radiance_closure(verdicts):
    _report(verdicts[6])


def test_criterion_7_spectral_peak_discrimination(verdicts):
    _report(verdicts[7])


def test_criterion_8_simulator_against_oracles(verdicts):
    _report(verdicts[8])


def test_criterion_9_pipeline_round_trip(verdicts):
    _report(verdicts[9])


def test_all_nine_criteria_present(verdicts):
    assert sorted(verdicts) == list(range(1, 10))


def _markov_matrix_by_loops(gamma, eta_sp, tau_i, h, n_max, transfer_prob):
    """Element-by-element build of the oracle's transition matrix and dwell integrals."""
    ge = gamma * eta_sp
    size = n_max + 1
    mean_i = h * tau_i
    pois = [math.exp(-mean_i)]
    while sum(pois) < 1.0 - 1e-15 and len(pois) < size:
        pois.append(pois[-1] * mean_i / len(pois))
    pois = np.array(pois)
    pois[-1] += max(0.0, 1.0 - pois.sum())
    q = h / (h + ge)
    geom = [(1.0 - q)]
    while sum(geom) < 1.0 - 1e-15 and len(geom) < size:
        geom.append(geom[-1] * q)
    geom = np.array(geom)
    geom[-1] += max(0.0, 1.0 - geom.sum())
    p_matrix = np.zeros((size, size))
    expected_nt = np.zeros(size)
    expected_t = np.zeros(size)
    for n in range(size):
        expected_nt[n] = n * tau_i + h * tau_i ** 2 / 2.0
        expected_t[n] = tau_i
        for i, pi in enumerate(pois):
            m_mid = min(n + i, n_max)
            if m_mid == 0:
                p_matrix[n, 0] += pi
                continue
            p_matrix[n, m_mid] += (1.0 - transfer_prob) * pi  # the interval ends without a transfer
            pt = transfer_prob * pi
            m = m_mid - 1
            expected_nt[n] += pt * (m / ge + h / ge ** 2)
            expected_t[n] += pt / ge
            for j, pj in enumerate(geom):
                p_matrix[n, min(m + j, n_max)] += pt * pj
    return p_matrix, expected_nt, expected_t


def _oracle_case(*args, transfer_prob=1.0):
    """One oracle case; its id names the transfer probability only below 1."""
    shown = args if transfer_prob == 1.0 else (*args, transfer_prob)
    return pytest.param(*args, transfer_prob, id="-".join(map(str, shown)))


@pytest.mark.parametrize(
    "gamma, eta_sp, tau_i, h, n_max, transfer_prob",
    [_oracle_case(8.0, 0.9, 0.02, 4.0, 200), _oracle_case(8.0, 0.9, 0.02, 4.0, 5), _oracle_case(5.0, 0.5, 0.3, 6.0, 8),
     _oracle_case(10.0, 0.7, 0.01, 0.0, 20), _oracle_case(8.0, 0.9, 0.02, 4.0, 30, transfer_prob=0.6)],
)
def test_markov_oracle_equals_the_element_loop(gamma, eta_sp, tau_i, h, n_max, transfer_prob):
    # the array build must add the same terms in the same order, so the
    # result is bit-identical; small n_max exercises the lumping at n_max
    p_matrix, expected_nt, expected_t = _markov_matrix_by_loops(gamma, eta_sp, tau_i, h, n_max, transfer_prob)
    size = n_max + 1
    a = p_matrix.T - np.eye(size)
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi_vec = np.clip(np.linalg.solve(a, b), 0.0, None)
    pi_vec /= pi_vec.sum()
    want = float(np.dot(pi_vec, expected_nt) / np.dot(pi_vec, expected_t))
    assert markov_steady_state_occupation(gamma, eta_sp, tau_i, h, n_max=n_max, transfer_prob=transfer_prob) == want


@pytest.mark.parametrize(
    "triple, want",
    [
        ((11.06, 0.74, 0.010, 2.0), 0.09809116694989221),
        ((30.0, 0.50, 0.005, 1.0), 0.007660083782159798),
        ((8.0, 0.90, 0.020, 4.0), 1.017615176151648),
    ],
)
def test_markov_oracle_values_of_criterion_8(triple, want):
    # full-precision values of the element-loop build; the tolerance leaves
    # room only for another LAPACK's last bits in the solve
    assert markov_steady_state_occupation(*triple) == pytest.approx(want, rel=1e-14, abs=0.0)
