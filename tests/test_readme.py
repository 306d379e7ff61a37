"""The README's examples, run as tests: each printed ``# -> `` line must hold."""

import re
import shlex
from pathlib import Path

from naqae import cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_examples(capsys):
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    (printed,) = re.findall(r"# -> (.*)", block)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed + "\n"

    command, printed = re.search(r"\n(naqae schedule .*)\n# -> (.*)\n", README).groups()
    argv = shlex.split(command)[1:]
    assert argv == ["schedule", "--depths", "0..12", "--base-shots", "20", "--k-sigma", "0.055"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_readme_reproduces_a_tally_with_plain_numpy(capsys):
    (block,) = re.findall(r"## Notes on determinism\n.*?```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"
