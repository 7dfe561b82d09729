import numpy as np
import pytest

from juryselect import Juror, solver


@pytest.fixture(autouse=True)
def cold_oracle_memo():
    """Each test starts with no oracle tables held, so no answer or counter
    depends on which test ran before it."""
    solver._oracle_tables.cache_clear()


@pytest.fixture
def fig1_pool():
    """The seven-candidate motivating pool: A..G with rising error rates."""
    eps = [0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]
    return [Juror(name, e) for name, e in zip("ABCDEFG", eps)]


def random_jury_epsilons(rng: np.random.Generator, max_n: int = 19) -> np.ndarray:
    """Odd-sized vector of error rates drawn uniformly from (0.01, 0.99)."""
    n = int(rng.integers(0, (max_n + 1) // 2)) * 2 + 1
    return rng.uniform(0.01, 0.99, n)
