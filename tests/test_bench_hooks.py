"""The traced benchmark wraps engine names by their module paths; a
rename that drops one must fail here, not silently drop a metric."""

from pathlib import Path


def test_every_traced_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    assert tracing.Tracer().absent == []
