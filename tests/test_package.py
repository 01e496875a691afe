"""The lazy package, and the process policy of the CLI module."""

import importlib
import os
import subprocess
import sys
import types
import unittest.mock
from pathlib import Path

import pytest

import wisealice

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("classical", "cli", "game", "lattice", "quantum", "scenario", "simulate",
          "solver", "svg")


def fresh_python(code: str, **env: str) -> str:
    """Stdout of `code` run by a new interpreter, OPENBLAS_NUM_THREADS unset unless given."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-c", code], env=environ, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_layer_and_no_numpy():
    out = fresh_python("import sys, wisealice; print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] == 'numpy' or m.startswith('wisealice.')))")
    assert out == "[]\n"


def test_every_export_is_the_object_its_home_module_defines():
    # importing a layer binds it on the package, so no export may share a
    # layer's name
    assert not set(wisealice.__all__) & set(LAYERS)
    importlib.import_module("wisealice.simulate")
    for name in wisealice.__all__:
        obj = getattr(wisealice, name)
        assert obj.__module__.startswith("wisealice.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_the_simulate_module_is_reached_by_its_dotted_name(unit_instance):
    import wisealice.simulate as m

    assert isinstance(m, types.ModuleType)
    h, (frame_a, frame_b) = unit_instance
    config = m.SimulationConfig(10, 1, h, frame_a, frame_b, wisealice.StrategyAngle(0),
                                wisealice.StrategyAngle(0))
    with unittest.mock.patch("wisealice.simulate._uniforms",
                             side_effect=RuntimeError("patched draw")):
        with pytest.raises(RuntimeError, match="patched draw"):
            m.simulate(config)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'not_a_name'"):
        wisealice.not_a_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from wisealice import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(wisealice.__all__)


@pytest.mark.parametrize("setting, expected", [(None, "1"), ("3", "3")])
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise(setting, expected):
    env = {} if setting is None else {"OPENBLAS_NUM_THREADS": setting}
    out = fresh_python("import os, wisealice.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])", **env)
    assert out == f"{expected}\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's task list")
def test_cli_process_starts_no_blas_thread():
    out = fresh_python("import os, wisealice.cli; print(len(os.listdir('/proc/self/task')))")
    assert out == "1\n"


def test_cli_import_loads_every_layer():
    """`import wisealice.cli` loads all nine layer modules.

    perfbench's traced replay imports wisealice.cli and then wraps the layer
    modules it finds in sys.modules.  A layer first imported inside a
    command would go unwrapped, and its per-layer metrics would read zero.
    """
    out = fresh_python("import sys, wisealice.cli; "
                       "print(' '.join(sorted(m for m in sys.modules "
                       "if m.startswith('wisealice.'))))")
    assert out.split() == [f"wisealice.{layer}" for layer in LAYERS]


def test_cli_import_loads_no_fractions():
    """fractions loads when a plane realization is built, not with the CLI."""
    out = fresh_python("import sys, wisealice.cli; print('fractions' in sys.modules)")
    assert out == "False\n"
