"""The benchmark's traced entry points still exist in the package.

`ajbench/spans.py` wraps the functions it lists in `LAYERS` by module and
attribute path; a rename or a deletion there would break `--trace 1`
without failing anything else, so this resolves every path.
"""

import importlib.util
import pathlib

import pytest

import ajlab

SPANS = pathlib.Path(__file__).resolve().parents[1] / "ajbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_ajbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("module, path", [(m, p) for _, m, p in _layers()])
def test_traced_entry_point_resolves(module, path):
    owner = getattr(ajlab, module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_jones_cache_is_readable():
    # the trace summary reports figure8._jones_cached.cache_info()
    info = ajlab.figure8._jones_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0
