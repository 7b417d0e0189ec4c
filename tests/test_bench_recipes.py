"""Every recipe text in the frozen benchmark workloads parses and labels
back to itself.

perfbench/workloads.py builds its spaces with SpaceRecipe.parse, so a
parser that rejected one of its texts would break every benchmark run.
The file is read as text and never imported or changed."""
import pathlib
import re

from gdskit.spaces import SpaceRecipe

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RECIPE = re.compile(r'"((?:two_point|hamming_cube|path|random_cloud):[^"]*)"')


def test_workload_recipes_round_trip():
    texts = sorted(set(RECIPE.findall(WORKLOADS.read_text())))
    # the workloads held 23 distinct recipe literals when this test was
    # written; fewer means the pattern stopped matching them
    assert len(texts) >= 23
    for text in texts:
        filled = text.format(1234567)
        assert SpaceRecipe.parse(filled).label() == filled
