"""README.md against the code: its quick start runs, and its names exist."""

import importlib
import re
from pathlib import Path

from blaschke import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# the modules whose docstrings the README points to
MODULES = ("hardy", "feval", "reduction", "search", "cgd", "pipeline", "targets", "suites",
           "cli")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_quick_start_runs():
    (block,) = _blocks("python")
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["model"].degree == 6


def test_every_command_is_registered():
    commands = {line.split()[1] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("blaschke ")}
    assert commands == set(cli.main.commands)


def test_every_module_reference_resolves():
    references = re.findall(rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)`", README)
    assert references
    for reference in references:
        module, *names = reference.split(".")
        value = importlib.import_module(f"blaschke.{module}")
        for name in names:
            assert hasattr(value, name), f"README.md names `{reference}`, which does not exist"
            value = getattr(value, name)
