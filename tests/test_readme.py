"""The Python and CLI examples in README.md run against the current package."""
import re
import shlex
from pathlib import Path

from sprayflow import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert blocks, "README.md has no python blocks"
    for index, block in enumerate(blocks):
        # Each block is a self-contained example with its own namespace.
        exec(compile(block, f"README.md python block {index}", "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch):
    # In order, since a later example may read a file an earlier one wrote.
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert block, "README.md has no CLI Examples block"
    commands = [shlex.split(line, comments=True) for line in block.group(1).splitlines()]
    assert commands and all(argv[0] == "sprayflow" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, shlex.join(argv)


def test_configuration_table_lists_every_key():
    section = re.search(r"^### Configuration\n(.*?)^###? ", README.read_text("utf-8"), re.M | re.S)
    assert section, "README.md has no Configuration section"
    first_cells = re.findall(r"^\| (`.*?) \|", section.group(1), re.M)
    keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert sorted(keys) == sorted(cli.CONFIG_KEYS)
