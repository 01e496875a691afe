"""The lazy package, the process policy of the CLI module, how a CLI process
ends, what the test references import from the package, and the corpus
comparison of tests/corpus_diff.py."""

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
from wisealice import cli

import corpus_diff

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


def test_classical_solve_loads_no_numpy():
    # the classical baseline and the probability check it shares with the
    # quantum weights are plain Python
    out = fresh_python("import sys\n"
                       "from wisealice import PayoffMatrix, solve_zero_sum\n"
                       "solve_zero_sum(PayoffMatrix(3, 3, 5, 1))\n"
                       "print('numpy' in sys.modules)")
    assert out == "False\n"


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


def fresh_cli(argv: list[str], cwd: Path | None = None,
              stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python -m wisealice.cli argv` in a new process, with stdout buffered."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    environ["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "wisealice.cli", *argv], cwd=cwd,
                          env=environ, stdout=stdout, stderr=subprocess.PIPE)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


SCENARIOS = SRC.parent / "scenarios"
SIMULATE = ["simulate", "--scenario", str(SCENARIOS / "unit_payoffs.txt"), "--alpha", "10",
            "--beta", "20", "--rounds", "5"]

SAME_RESULT = {
    "analyze": ["analyze", "--scenario", str(TWO_EQUILIBRIA), "--format", "json"],
    "equilibria": ["equilibria", "--scenario", str(SCENARIOS / "interior_equilibrium.txt")],
    "curves": ["curves", "--scenario", str(TWO_EQUILIBRIA), "--out", "c"],
    # 1089 rows, several times stdout's 8 KiB buffer
    "sweep": ["sweep", "--scenario", str(TWO_EQUILIBRIA), "--theta-a", "5:85",
              "--theta-b", "5:85", "--step", "2.5"],
    "simulate": ["simulate", "--scenario", str(SCENARIOS / "unit_payoffs.txt"), "--alpha", "10",
                 "--beta", "20", "--rounds", "5000", "--transcript", "t.csv"],
    "lattice-check": ["lattice-check", "--theta", "30"],
    "missing-scenario": ["equilibria", "--scenario", "no_such_file.txt"],
    "usage-error": ["sweep", "--scenario", str(TWO_EQUILIBRIA)],
    "help": ["--help"],
}


@pytest.mark.parametrize("case", SAME_RESULT)
def test_a_fresh_process_gives_what_main_gives(case, tmp_path, monkeypatch, capsysbinary):
    """stdout, stderr, output files and exit code of `python -m wisealice.cli`
    are those of main(argv) in this process."""
    argv = SAME_RESULT[case]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    proc = fresh_cli(argv, cwd=fresh)
    monkeypatch.chdir(here)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsysbinary.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert files(fresh) == files(here)
    assert code == {"missing-scenario": 1, "usage-error": 2}.get(case, 0)
    if case == "missing-scenario":
        assert err.startswith(b"error: ") and err.count(b"\n") == 1
    elif case == "usage-error":
        assert err.startswith(b"usage: wisealice sweep")
    else:
        assert out and not err


def test_main_returns_its_code_and_never_ends_the_process(monkeypatch, capsys):
    def exit_(code):
        raise AssertionError(f"os._exit({code})")

    monkeypatch.setattr(os, "_exit", exit_)
    assert cli.main(["lattice-check", "--theta", "30"]) == 0
    assert cli.main(["equilibria", "--scenario", "no_such_file.txt"]) == 1
    out, err = capsys.readouterr()
    assert "plane realization" in out and err.startswith("error: ")


def closed_stdout(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """The CLI run by sh with its stdout closed, so sys.stdout is None."""
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh",
                           sys.executable, "-m", "wisealice.cli", *argv],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
@pytest.mark.parametrize("argv", [["lattice-check", "--theta", "45"],
                                  ["curves", "--scenario", str(TWO_EQUILIBRIA), "--out", "c"],
                                  SIMULATE + ["--transcript", "t.csv"]])
def test_a_closed_stdout_is_one_error_line_before_any_work(argv, tmp_path):
    proc = closed_stdout(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "error: stdout is closed\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
def test_out_works_with_stdout_closed(tmp_path):
    proc = closed_stdout(["lattice-check", "--theta", "45", "--out", "l.txt"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "l.txt").read_bytes() == fresh_cli(
        ["lattice-check", "--theta", "45"]).stdout


def broken_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


def dev_full() -> int:
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("sink, message", [
    (broken_pipe, "[Errno 32] Broken pipe"),
    pytest.param(dev_full, "[Errno 28] No space left on device", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
])
@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_a_failed_write_to_stdout_is_one_error_line(sink, message, command):
    """analyze's report sits in stdout's buffer until the process ends, so it
    fails in run()'s flush; sweep's rows overflow the buffer inside main."""
    fd = sink()
    try:
        proc = fresh_cli(SAME_RESULT[command], stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr.decode()) == (1, f"error: {message}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_transcript_that_cannot_be_written_fails_before_the_report(tmp_path):
    # the transcript sat in its buffer until the file closed, after the
    # report had gone to stdout
    proc = fresh_cli(SIMULATE + ["--transcript", "/dev/full"], cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"error: [Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_a_transcript_into_stdout_is_refused_before_any_draw(sink, tmp_path):
    # the transcript overwrote the report: with stdout a file, the file held
    # the transcript and then the report's last bytes, with exit 0
    argv = SIMULATE + ["--format", "json", "--transcript", "/dev/stdout"]
    if sink == "pipe":
        proc = fresh_cli(argv, cwd=tmp_path)
        written = proc.stdout
    else:
        fd = os.open(tmp_path / "o.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            proc = fresh_cli(argv, cwd=tmp_path, stdout=fd)
        finally:
            os.close(fd)
        written = (tmp_path / "o.txt").read_bytes()
    assert (proc.returncode, proc.stderr, written) == (
        1, b"error: --transcript names the file stdout writes to: /dev/stdout\n", b"")


def test_curves_refuse_a_csv_that_is_their_stdout(tmp_path):
    # the "wrote" line overwrote the CSV's header, with exit 0
    (tmp_path / "c.csv").write_text("keep me\n")
    fd = os.open(tmp_path / "c.csv", os.O_WRONLY)
    try:
        proc = fresh_cli(["curves", "--scenario", str(SCENARIOS / "unit_payoffs.txt"),
                          "--resolution", "45", "--out", "c"], cwd=tmp_path, stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (
        1, b"error: --out names the file stdout writes to: c.csv\n")
    assert files(tmp_path) == {"c.csv": b"keep me\n"}


def test_dev_null_takes_the_transcript_and_the_report(tmp_path):
    proc = fresh_cli(SIMULATE + ["--transcript", os.devnull], cwd=tmp_path,
                     stdout=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_the_console_script_is_the_entry_the_main_block_calls():
    """pyproject.toml is read as text: Python 3.10 has no tomllib."""
    text = (SRC.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entries = dict(line.replace(" ", "").split("=", 1)
                   for line in scripts.splitlines() if "=" in line)
    module = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in module.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = [node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert entries["wisealice"] == f'"wisealice.cli:{called[0]}"'
    assert called == ["run"]


@pytest.mark.parametrize("module", ["oracles.py", "simulate_reference.py"])
def test_oracles_import_no_private_name_of_the_package(module):
    """An oracle checks the package with code of its own, not the package's helpers."""
    tree = ast.parse((Path(__file__).resolve().parent / module).read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "wisealice"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_corpus_diff_names_each_file_and_its_first_differing_line(tmp_path):
    line = "x" * 501 + "{}" + "x" * 500 + "\n"
    trees = {"left": {"same.csv": "a\nb\n", "moved.csv": "a\nb\nc,d\n", "longer.csv": "a\nb\n",
                      "long.svg": line.format("a"), "sub/old.txt": "x\n"},
             "right": {"same.csv": "a\nb\n", "moved.csv": "a\nb\nc,e\n", "longer.csv": "a\n",
                       "long.svg": line.format("b"), "new.txt": "y\n"}}
    for side, texts in trees.items():
        for name, text in texts.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    left, right = tmp_path / "left", tmp_path / "right"
    assert corpus_diff.differences(left, right, "REV", "working tree") == [
        "only in REV: sub/old.txt",
        "only in working tree: new.txt",
        "differs: long.svg, first at line 1, column 502\n"
        f"    REV: ...{'x' * 40}a{'x' * 79}...\n    working tree: ...{'x' * 40}b{'x' * 79}...",
        "differs: longer.csv, first at line 2, column 1\n"
        "    REV: b\n    working tree: (end of file)",
        "differs: moved.csv, first at line 3, column 3\n    REV: c,d\n    working tree: c,e",
    ]
    assert corpus_diff.differences(left, left, "REV", "working tree") == []
