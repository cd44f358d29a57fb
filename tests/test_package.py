"""The package namespace: submodules load on first use.

`ajlab/__init__.py` maps each public name to its home submodule and
imports that module only when the name is first looked up.  What a fresh
interpreter has loaded is checked in a subprocess, since this test
process has long since imported every submodule.
"""

import pathlib
import subprocess
import sys

import pytest

import ajlab

SRC = pathlib.Path(ajlab.__file__).resolve().parents[1]


def _loaded_after(statement: str) -> list:
    """The ``ajlab.*`` submodules a fresh interpreter holds after running
    `statement`, sorted."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('ajlab.'))))")
    # -I -S: no site hooks or environment that could import them first
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return out.stdout.split()


def test_import_loads_no_submodule():
    assert _loaded_after("import ajlab") == []


def test_a_summand_loads_only_the_exact_layer():
    assert _loaded_after("import ajlab; ajlab.habiro_figure_eight()") == [
        "ajlab.errors", "ajlab.laurent", "ajlab.qhg"]


def test_colored_jones_loads_no_gcd_layer():
    # J_n is a sum of runs in integer lists: neither the gcd layer nor
    # rational functions are compiled for it, in q or at a rational q
    loaded = _loaded_after(
        "import ajlab; ajlab.jones_symbolic(5); ajlab.jones_eval(5, 2)")
    assert loaded == ["ajlab.errors", "ajlab.laurent", "ajlab.qhg"]


def test_the_saddle_side_loads_no_operator_layer():
    loaded = _loaded_after(
        "import ajlab; s = ajlab.builtin_potential(); "
        "ajlab.solve_saddle(s, 0.9 + 0.3j); ajlab.asymptotic_check(); "
        "ajlab.volume()")
    assert "ajlab.potential" in loaded
    assert not {"ajlab.ore", "ajlab.figure8"} & set(loaded)


def test_a_submodule_resolves_before_it_is_imported():
    loaded = _loaded_after(
        "import ajlab; assert ajlab.figure8.p0_operator is ajlab.p0_operator")
    assert "ajlab.figure8" in loaded and "ajlab.potential" not in loaded


@pytest.mark.parametrize("name", ajlab.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(ajlab, name)
    home = sys.modules["ajlab." + ajlab._HOME[name]]
    assert obj is getattr(home, name)
    assert obj.__module__ == home.__name__


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from ajlab import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ajlab.__all__
    assert len(ajlab.__all__) == 56


def test_dir_covers_all():
    assert set(ajlab.__all__) <= set(dir(ajlab))
    assert "__version__" in dir(ajlab)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        ajlab.nope
