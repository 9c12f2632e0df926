import concurrent.futures

import numpy as np
import pytest

from uncpool import SurveyData


def make_dixie(cdc_se_factor: float) -> SurveyData:
    """Three-survey Dixie County estimates; CDC SE is a multiple of the HS SE."""
    se = np.array([0.014, 0.028, 0.028 * cdc_se_factor])
    return SurveyData(
        labels=("SAHIE", "HS", "CDC"),
        y_hat=np.array([0.254, 0.361, 0.359]),
        v=se ** 2,
    )


def make_orange(sahie_se: float) -> SurveyData:
    """Three-survey Orange County estimates with a widened SAHIE SE."""
    se = np.array([sahie_se, 0.018, 0.009])
    return SurveyData(
        labels=("SAHIE", "HS", "CDC"),
        y_hat=np.array([0.294, 0.257, 0.179]),
        v=se ** 2,
    )


@pytest.fixture
def dixie_panel1() -> SurveyData:
    return make_dixie(0.5)


class _Started(list):
    """Each fake pool's worker count; ``chunks`` holds the chunk sizes of each map."""

    def __init__(self):
        super().__init__()
        self.chunks = []


@pytest.fixture
def fake_pool(monkeypatch):
    """Stand in for the process pool: record each pool's worker count and map in-process."""
    started = _Started()

    class FakePool:
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            items = list(iterable)
            started.chunks.append([len(items[i:i + chunksize])
                                   for i in range(0, len(items), chunksize)])
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return started
