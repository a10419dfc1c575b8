"""What importing tsk costs: the package resolves its names on first
read, and each command loads only the modules it runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsk

SRC = Path(tsk.__file__).resolve().parents[1]
CLI_DOCS = SRC.parent / "perfbench" / "data" / "cli-docs"


def run_bare(code: str, *args: str) -> str:
    """Stdout of `code` run by a fresh `python -S` that finds tsk in src/
    (-S: only what tsk imports, not what site hooks bring in)."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


LOADED = "import sys; print(sorted(m[4:] for m in sys.modules if m.startswith('tsk.')))"


def test_all_is_the_lazy_table():
    # Every name the table resolves is exported, and nothing else but the
    # version: the two lists cannot drift apart.
    assert len(tsk.__all__) == len(set(tsk.__all__))
    assert set(tsk.__all__) == {*tsk._OWNERS, "__version__"}
    assert "solve_p" in tsk.__all__


def test_import_tsk_loads_no_submodule():
    assert run_bare(f"import tsk; {LOADED}") == "[]\n"


def test_a_missing_name_is_an_attribute_error():
    assert not hasattr(tsk, "nope")
    with pytest.raises(AttributeError, match=r"^module 'tsk' has no attribute 'nope'$"):
        tsk.nope  # noqa: B018


def test_dir_and_star_import_name_all():
    assert set(tsk.__all__) <= set(dir(tsk))
    namespace: dict = {}
    exec("from tsk import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tsk.__all__)
    assert namespace["solve_p"] is tsk.prescribe.solve_p


def test_from_tsk_imports_submodules():
    out = run_bare("from tsk import cli, multifilt; print(cli.__name__, multifilt.__name__)")
    assert out == "tsk.cli tsk.multifilt\n"


# The tsk modules each command loads, cli's own imports first: ray data is
# read, checked and judged stable without the family layer.
BASE = ["cli", "documents", "fan", "linalg", "record", "reflexive", "ring"]
FAMILY = BASE + ["multifilt"]
CHERN = FAMILY + ["chern"]
LOADS = {
    "stability-ray": ("stability start.json", BASE),
    "validate-ray": ("validate start.json", BASE),
    "validate-cones": ("validate e.json", FAMILY),
    "stability-cones": ("stability f.json", FAMILY),
    "factorize": ("factorize e.json f.json", FAMILY),
    "chern-resolution": ("chern start.json --method resolution", BASE),
    "chern-ray": ("chern start.json", CHERN),
    "chern-cones": ("chern e.json", CHERN),
    "obstruct": ("obstruct p4.json", CHERN + ["obstruct"]),
    "prescribe": ("prescribe --n 4 --start 1,6,6,0,0 --closed-form", CHERN + ["prescribe"]),
    "family": ("family --which p4-odd --t 1", CHERN + ["prescribe"]),
}


@pytest.mark.parametrize("command, modules", LOADS.values(), ids=LOADS)
def test_each_command_loads_only_what_it_runs(command, modules):
    code = (
        "import io, sys; from tsk import cli; out, sys.stdout = sys.stdout, io.StringIO();"
        f" code = cli.main(sys.argv[1:]); sys.stdout = out; print(code); {LOADED}"
    )
    argv = [str(CLI_DOCS / a) if a.endswith(".json") else a for a in command.split()]
    assert run_bare(code, *argv) == f"0\n{sorted(modules)}\n"
