"""The one compile point of the generated code.

`define` is the package's only `exec`. It compiles the loop, the plant
step, the inference and the rule kernels, so a test can rewrite any of
their sources before it is compiled by setting an `exec` on this module.
"""
from __future__ import annotations

from collections.abc import Callable


def define(name: str, params: str, body: list[str], **globals: object) -> Callable:
    """The function `def name(params):` whose body is the given lines.

    The lines are indented one level under the def line, and the source
    runs in a fresh namespace that holds the given globals only.
    """
    lines = [f"def {name}({params}):", *(f"    {line}" for line in body)]
    namespace = dict(globals)
    exec("\n".join(lines), namespace)
    return namespace[name]
