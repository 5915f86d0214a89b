"""README.md's examples print what it says they print."""

import contextlib
import io
import os
import re
import shlex
import shutil

import pytest

from dcrsim.cli import main

from conftest import HERE, golden_path

README_PATH = os.path.join(HERE, os.pardir, "README.md")


@pytest.fixture(scope="module")
def readme():
    with open(README_PATH, encoding="utf-8") as f:
        return f.read()


@pytest.fixture
def in_copy(tmp_path, monkeypatch):
    """Run in tmp_path, which holds a copy of examples/, as the README's
    relative paths expect."""
    shutil.copytree(os.path.join(HERE, os.pardir, "examples"), tmp_path / "examples")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def dcrsim(command):
    """`$ dcrsim <command>` as the README shows it, then what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == 0
    return f"$ dcrsim {command}\n{out.getvalue()}"


def test_build_and_eval_overlay_examples(readme, in_copy):
    assert dcrsim("build-overlay examples/square.top --alg 3") in readme
    block = (dcrsim("build-overlay examples/square.top --alg 3 --out sq.overlay")
             + dcrsim("eval-overlay sq.overlay"))
    assert block in readme


def test_compare_example(readme, in_copy):
    lines = dcrsim("compare --seed 7 --count 3 --n 6..8").splitlines()
    assert "\n".join(lines[:5] + ["..."] + lines[-3:]) + "\n" in readme


def test_run_example_and_its_trace(readme, in_copy):
    command = "run examples/square.top examples/migration.scn --alg 3"
    printed = dcrsim(f"{command} --trace migration.trace")
    assert printed.replace(" --trace migration.trace", "", 1) in readme
    trace = (in_copy / "migration.trace").read_text(encoding="utf-8")
    assert f"```\n{trace}```" in readme


def test_quick_start_prints_the_migration_golden(readme, in_copy):
    (code,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    metrics, csv = out.getvalue().split("\n", 1)
    assert [round(float(v), 2) for v in metrics.split()] == [20.0, 12.36, 54.14]
    with open(golden_path("migration.report.csv"), encoding="utf-8") as f:
        assert csv == f.read() + "\n"
