"""The package compiles only the modules a caller runs.

Each probe runs in a fresh interpreter that writes no bytecode, as a cold
command does, and lists the modules of a package (this one by default) it
ended up importing.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diracembed

ROOT = Path(__file__).resolve().parents[1]

TRIPLE_MODULES = {"diracembed", "diracembed.scalars", "diracembed.lie",
                  "diracembed.clifford", "diracembed.spin",
                  "diracembed.triple"}


def loaded_after(code, package="diracembed"):
    listing = (f"print(' '.join(sorted(m for m in sys.modules "
               f"if m.split('.')[0] == {package!r})))")
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{listing}"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True, cwd=ROOT)
    return set(done.stdout.split())


def test_version_loads_no_submodule():
    assert loaded_after("import diracembed; diracembed.__version__") == \
        {"diracembed"}


def test_building_the_triple_loads_only_its_dependencies():
    assert loaded_after("import diracembed; diracembed.build_sl2_triple()") \
        == TRIPLE_MODULES


@pytest.mark.parametrize("argv, also", [
    (["verify", "embedding", "--weight", "0"],
     {"diracembed.cli", "diracembed.dirac", "diracembed.report"}),
    (["verify", "spectral", "--weight", "0"],
     {"diracembed.cli", "diracembed.dirac", "diracembed.report",
      "diracembed.spectral"}),
    (["table64", "--weight", "0"],
     {"diracembed.cli", "diracembed.dirac", "diracembed.spectral"}),
], ids=["verify-embedding", "verify-spectral", "table64"])
def test_commands_load_only_what_they_run(argv, also, tmp_path):
    out = tmp_path / "out.txt"
    loaded = loaded_after(f"import diracembed.cli\n"
                          f"diracembed.cli.main({argv + ['--out', str(out)]!r})")
    assert out.read_text(encoding="utf-8")
    # verify embedding never compiles spectral.py, table64 never report.py,
    # and none of them the triple's text format
    assert loaded == TRIPLE_MODULES | also


def test_a_text_report_does_not_load_json(tmp_path):
    # only table64 and --format json serialize
    out = tmp_path / "out.txt"
    argv = ["verify", "embedding", "--weight", "0", "--out", str(out)]
    assert loaded_after(f"import diracembed.cli\n"
                        f"diracembed.cli.main({argv!r})", "json") == set()
    assert out.read_text(encoding="utf-8").startswith("theorem51/")


def test_every_lazy_name_is_its_home_modules_object():
    for name, home in diracembed._HOME_OF.items():
        module = importlib.import_module(f"diracembed.{home}")
        assert getattr(diracembed, name) is getattr(module, name), name
    assert set(diracembed.__all__) <= set(dir(diracembed))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        diracembed.no_such_name


def test_version_matches_the_project_metadata():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert diracembed.__version__ == \
        re.search(r'^version = "([^"]+)"$', text, re.M).group(1)
