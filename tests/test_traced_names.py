"""The benchmark's span tracer finds every name it traces.

``bench/spans.py`` wraps the functions and methods named in its ``TRACED``
table; a name deleted or renamed in ``attnga`` fails here at install, not
only in a traced benchmark run.
"""

import os

from attnga import metabbo

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_every_traced_name_installs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    original = metabbo.meta_fitness
    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        assert metabbo.meta_fitness is not original
    finally:
        tracer.uninstall()
    assert metabbo.meta_fitness is original
