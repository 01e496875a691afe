"""The lazy package, the process policy of the CLI module, and what the test
references import from the package."""

import ast
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
TWO_EQUILIBRIA = SRC.parent / "scenarios" / "two_equilibria.txt"
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
    with unittest.mock.patch("wisealice.simulate._draws",
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
    # `import wisealice.cli` loads no numpy, so run a command that does
    argv = ["equilibria", "--scenario", str(TWO_EQUILIBRIA)]
    out = fresh_python(f"import os, sys, wisealice.cli; wisealice.cli.main({argv!r}); "
                       "print(len(os.listdir('/proc/self/task')), 'numpy' in sys.modules)")
    assert out.splitlines()[-1] == "1 True"


def test_cli_import_loads_every_layer():
    """`import wisealice.cli` registers all nine layer modules.

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


# the layers each command executes, and its arguments besides --scenario
COMMAND_LAYERS = {
    "lattice-check": ({"cli", "game", "lattice"}, ["--theta", "30"]),
    "analyze": ({"classical", "cli", "game", "quantum", "scenario", "solver"}, []),
    "equilibria": ({"cli", "game", "quantum", "scenario", "solver"}, []),
    "curves": ({"cli", "game", "quantum", "scenario", "solver", "svg"}, ["--out", "{tmp}/c"]),
    "sweep": ({"cli", "game", "quantum", "scenario", "solver"},
              ["--theta-a", "10:20", "--theta-b", "10:20"]),
    "simulate": ({"cli", "game", "quantum", "scenario", "simulate"},
                 ["--alpha", "10", "--beta", "20", "--rounds", "10"]),
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_executes_only_its_layers(command, tmp_path):
    """A command runs the layers it uses and no other; lattice-check loads no numpy.

    A layer that is registered but not yet used is a LazyLoader subclass of
    ModuleType, so `type(m) is ModuleType` marks the executed ones.
    """
    layers, args = COMMAND_LAYERS[command]
    argv = [command, *(arg.format(tmp=tmp_path) for arg in args)]
    if command != "lattice-check":
        argv += ["--scenario", str(TWO_EQUILIBRIA)]
    out = fresh_python(
        "import contextlib, io, sys, types, wisealice.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = wisealice.cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, ' '.join(sorted(\n"
        "    name for name, m in sys.modules.items()\n"
        "    if name.startswith('wisealice.') and type(m) is types.ModuleType)))")
    code, numpy_loaded, *executed = out.split()
    assert code == "0"
    assert executed == sorted(f"wisealice.{layer}" for layer in layers)
    assert numpy_loaded == str(command != "lattice-check")


@pytest.mark.parametrize("module", ["oracles.py", "simulate_reference.py"])
def test_oracles_import_no_private_name_of_the_package(module):
    """An oracle checks the package with code of its own, not the package's helpers."""
    tree = ast.parse((Path(__file__).resolve().parent / module).read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "wisealice"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
