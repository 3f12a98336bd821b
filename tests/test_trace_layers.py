"""Every function the benchmark's traced runs wrap still exists."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_traced_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"pgph.{layer}.{fn}" for layer, fns in spans.LAYERS.items()
               for fn in fns
               if not hasattr(importlib.import_module(f"pgph.{layer}"), fn)]
    assert not missing
