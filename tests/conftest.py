import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool `classifier.train_runs` builds."""
    sizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes
