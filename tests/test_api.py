import argparse
import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bibdea
from bibdea import AssessmentConfig
from bibdea.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library entry points", 1)[1].split("```python", 1)[1]
    imported = block.split("from bibdea import (", 1)[1].split(")", 1)[0]
    names = re.findall(r"\b[A-Za-z_]\w*\b", re.sub(r"#.*", "", imported))
    # the block lists each exported function once, and nothing else
    functions = [n for n in bibdea.__all__ if inspect.isfunction(getattr(bibdea, n))]
    assert sorted(names) == sorted(functions)


def test_readme_flag_table_is_the_parser():
    text = README.read_text(encoding="utf-8")
    lines = text.split("## CLI", 1)[1].split("## File formats", 1)[0].splitlines()
    header, _, *rows = [line.strip("|").split("|") for line in lines if line.startswith("|")]
    verbs = [re.sub(r"[` ]", "", cell) for cell in header[1:]]
    documented = {verb: set() for verb in verbs}
    for flags, *marks in rows:
        for verb, mark in zip(verbs, marks):
            if mark.strip() == "yes":
                documented[verb].update(re.findall(r"`(--[\w-]+)", flags))
    # the options of each subparser, but --help
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        verb: {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for verb, parser in sub.choices.items()
    }
    assert documented == parsed


def test_readme_config_keys_are_the_config_fields():
    text = README.read_text(encoding="utf-8")
    sentence = text.split("- config JSON keys (all optional):", 1)[1].split(". ", 1)[0]
    documented = re.findall(r"`(\w+)`", sentence)
    assert documented == [field.name for field in dataclasses.fields(AssessmentConfig)]


def test_src_imports_are_used():
    # __init__.py imports to re-export; every other module must use each
    # name that its top-level imports bind.
    unused = []
    for path in sorted(Path(bibdea.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert unused == []


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_blas_threads_default_to_one(preset, expected):
    # The variable is read when numpy is first imported, so it is checked in
    # a fresh interpreter; this process may have set it already.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys, bibdea.cli; "
        "tasks = os.listdir('/proc/self/task') if sys.platform == 'linux' else [0]; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(tasks))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    value, threads = result.stdout.split()
    assert value == expected
    if preset is None:
        assert threads == "1"
