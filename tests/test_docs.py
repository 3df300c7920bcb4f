"""The figures README.md states about the interpreter's limits and
schedules are the constants of lambdix.deep."""

import re
from pathlib import Path

import pytest

from lambdix import deep

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("pattern,constant", [
    (r"--depth-limit N` \(default [\d,]+, at most ([\d,]+)",
     "MAX_DEPTH_LIMIT"),
    (r"accepts\s+at\s+most\s+([\d,]+)", "MAX_DEPTH_LIMIT"),
    (r"recursion\s+limit\s+\(([\d,]+)\s+frames\)", "RECURSION_LIMIT"),
    (r"threshold\s+to\s+([\d,]+)", "GC_YOUNG_THRESHOLD"),
], ids=["depth-limit-option", "depth-limit-notes", "recursion-limit",
        "young-threshold"])
def test_readme_figure_is_the_constant(pattern, constant):
    found = re.findall(pattern, README)
    assert found, f"README states no figure for {constant}"
    assert {int(f.replace(",", "")) for f in found} \
        == {getattr(deep, constant)}
