"""The benchmark's tracer finds every function it instruments.

`perfbench/spans.py` wraps library functions by their module-global names;
a refactor that renames or inlines one would silently drop its span.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_instrumented_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert tracer.missing_bindings() == []
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
