import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

from semisplit import CubeNoiseSemigroup, TriangleDomain, harmonic_measure, strip_damping

# property tests draw the same examples on every run and keep no example database
settings.register_profile("semisplit", derandomize=True, deadline=None, database=None)
settings.load_profile("semisplit")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_domain():
    return TriangleDomain.with_defaults(-0.5 * math.log(0.5))


@pytest.fixture(scope="session")
def default_measure(default_domain):
    return harmonic_measure(default_domain, 64)


@pytest.fixture(scope="session")
def cube3():
    return CubeNoiseSemigroup(3)


@pytest.fixture(scope="session")
def level_residuals(default_domain, default_measure):
    """Per-level quadrature residuals |r_k| of the damped mean-value identity.

    The cube semigroup acts on Walsh level k by e^(-zk), so the reconstruction
    residual T(t) - (1-theta) T0 - theta T1 is -sum_k r_k P_k, with P_k the
    projection onto level k and r_k = sum_i w_i psi_i e^(-k z_i) - e^(-k t).
    Returns |r_k| for k = 0..n, computed from the harmonic measure alone.
    """
    hm = default_measure

    def residuals(eps, n):
        levels = np.arange(n + 1)
        psi = strip_damping(hm.theta, eps, hm.w_strip)
        nodes = np.exp(-np.outer(levels, hm.z))
        return np.abs(nodes @ (hm.weights * psi) - np.exp(-levels * default_domain.t))

    return residuals


@pytest.fixture(scope="session")
def assert_same_certificate():
    """Field-for-field exact equality of two certificates, operator entries included."""

    def check(a, b):
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name in ("T0", "T1"):
                assert np.array_equal(x.entries, y.entries), f.name
            else:
                assert x == y, (f.name, x, y)

    return check
