"""The Python examples in README.md run against the current package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S)
    assert blocks, "README.md has no python blocks"
    for index, block in enumerate(blocks):
        # Each block is a self-contained example with its own namespace.
        exec(compile(block, f"README.md python block {index}", "exec"), {})
