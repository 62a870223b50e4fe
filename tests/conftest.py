import pytest
from hypothesis import HealthCheck, settings

from qgrass.echelon import apply_map
from qgrass.lagrangian import normal_form
from qgrass.schur import _pieri_map

from oracles import _columns

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def schubert_row():
    def row_of(indices, n):
        """e_(indices[0]) ... e_(indices[-1]) in LG(n, 2n) as a dense row over the
        Schubert basis of its degree: [1] pushed through the Pieri map of each factor."""
        row, d = [1], 0
        for i in indices:
            d += i
            row = apply_map(enumerate(row), _pieri_map(n, n, 1, d, i), len(_columns(n, n, 1, d)[0]))
        return row

    return row_of


@pytest.fixture
def check_normal_form(schubert_row):
    def check(indices, n):
        """Assert that normal_form(indices, n), the sum of c_lambda e_lambda, has
        the Schubert row of the monomial itself: an oracle independent of the
        rewriting system, since the Pieri maps never see the quadratic relation."""
        want = schubert_row(indices, n)
        got = [0] * len(want)
        for lam, c in normal_form(indices, n).items():
            for j, a in enumerate(schubert_row(lam.parts, n)):
                got[j] += c * a
        assert got == want, (tuple(indices), n)

    return check
