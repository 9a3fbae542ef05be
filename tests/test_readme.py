"""The README's Python quick start runs and its CLI lines parse as documented."""

import re
import shlex
from pathlib import Path

from symloss import cli

README = Path(__file__).parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, f"{README}:python", "exec"), {})


def test_cli_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("symloss ")]
    parser = cli.build_parser()
    # each line parses, and every subcommand has one
    commands = {parser.parse_args(shlex.split(line, comments=True)[1:]).command for line in lines}
    assert commands == set(cli._SUBCOMMANDS)
