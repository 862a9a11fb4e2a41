"""The benchmark's per-layer tracer finds every entry point it names.

``perfbench/layers.py`` wraps named functions of the program in place;
a name the program no longer has is reported as "not traced" and its
layer silently loses that time.  Renaming or deleting a wrapped function
must fail here, with the rest of the tests, not only in the benchmark's
own self-test.
"""

from perfbench.layers import LayerTracer


def test_every_layer_entry_point_exists():
    tracer = LayerTracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
