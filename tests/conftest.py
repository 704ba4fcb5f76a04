"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def columns_tv_calls(monkeypatch):
    """Counts of ``columns_tv`` calls: ``good_cells``'s subsets under "subsets", the
    pipeline's own pair tests under "pairs"."""
    import cellprobe.infotheory
    import cellprobe.pipeline

    calls = {"subsets": 0, "pairs": 0}
    for key, module in (("subsets", cellprobe.infotheory), ("pairs", cellprobe.pipeline)):
        def counted(*args, _kernel=module.columns_tv, _key=key):
            calls[_key] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, "columns_tv", counted)
    return calls
