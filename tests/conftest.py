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
