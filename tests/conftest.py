"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def src_env():
    """The environment for a fresh Python process that imports this checkout's cellprobe."""
    import cellprobe

    src = os.path.dirname(os.path.dirname(os.path.abspath(cellprobe.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def columns_tv_calls(monkeypatch):
    """Subsets tallied through ``infotheory.subset_tallies``: those of two or more columns
    that ``good_cells`` hands it under "subsets" (its lone columns are not counted, in
    whichever call they come), the pipeline's own pair tests, through ``columns_tv``, under
    "pairs"."""
    import cellprobe.infotheory
    import cellprobe.pipeline

    calls = {"subsets": 0, "pairs": 0}
    inside = []

    def subset_tallies(rows, subsets, *args, _kernel=cellprobe.infotheory.subset_tallies):
        subsets = list(subsets)
        if not inside:
            calls["subsets"] += sum(len(s) >= 2 for s in subsets)
        return _kernel(rows, subsets, *args)

    def columns_tv(rows, subsets, *args, _kernel=cellprobe.pipeline.columns_tv):
        calls["pairs"] += len(subsets)
        inside.append(subsets)
        try:
            return _kernel(rows, subsets, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(cellprobe.infotheory, "subset_tallies", subset_tallies)
    monkeypatch.setattr(cellprobe.pipeline, "columns_tv", columns_tv)
    return calls


@pytest.fixture
def decoder_calls(monkeypatch):
    """Counts of ``Scheme.decode`` calls: those made inside
    ``RestrictedScheme.preserves_answers`` under "preserves_answers", the rest under "other"."""
    from cellprobe.core import RestrictedScheme, Scheme

    calls = {"preserves_answers": 0, "other": 0}
    inside = []

    def decode(self, i, values, _kernel=Scheme.decode):
        calls["preserves_answers" if inside else "other"] += 1
        return _kernel(self, i, values)

    def preserves_answers(self, _kernel=RestrictedScheme.preserves_answers):
        inside.append(self)
        try:
            return _kernel(self)
        finally:
            inside.pop()

    monkeypatch.setattr(Scheme, "decode", decode)
    monkeypatch.setattr(RestrictedScheme, "preserves_answers", preserves_answers)
    return calls
