"""README.md: its examples run against the current package, and its figures hold."""
import json
import re
import shlex
from pathlib import Path

from sprayflow import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_sweep_claim_counts_match_the_reference():
    # Recounted from the pinned sweep figures; nothing is run.
    reference = json.loads((ROOT / "bench" / "reference" / "sweep.json").read_text("ascii"))
    rows = [
        dict(zip(reference["columns"], row))
        for design in reference["designs"].values()
        for row in design["scenarios"]
    ]
    counts = {}
    for figure in ("overshoot", "deviation"):
        pairs = [(row[f"{figure}_fuzzy"], row[f"{figure}_pid"]) for row in rows]
        assert all(fuzzy != pid for fuzzy, pid in pairs), f"a tie in {figure}"
        counts[figure] = sum(fuzzy < pid for fuzzy, pid in pairs)
    assert (len(rows), counts["overshoot"], counts["deviation"]) == (1024, 955, 227)
    text = " ".join(README.read_text("utf-8").split())
    assert "fuzzy-PID overshoots less than PID in 955 of 1024 scenarios" in text
    assert "the smaller peak deviation in only 227 of 1024" in text
