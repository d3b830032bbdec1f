"""tools/layers.py runs each probe end to end, at small sizes, on this checkout.

The probes reach private paths of passklab (bandit._success_and_grad,
SuccessProfile._on_checked_mass, optimizer._objective_values), so a refactor
of those paths fails here instead of breaking the tool unseen.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "step": (1, {"prompts": 300, "k": 5, "steps": 3, "passes": 2}),
    "mc": (1, {"prompts": 300, "draws": 4, "k": 2, "steps": 2}),
    "io": (1, {"shapes": [[20, 4]], "repeats": 2}),
}
ROWS = {
    "step": ["policy", "split", "objectives", "table", "report", "step"],
    "mc": ["step 0 ms", "step 0 faults", "step 1 ms", "step 1 faults"],
    "io": [
        f"20x4 {name}"
        for name in ("export ms", "import ms", "file MB", "export peak MB", "import peak MB")
    ],
}


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.PROBES = SMALL  # the child reads the sizes from its argv
    return module


@pytest.mark.parametrize("probe", SMALL)
def test_each_probe_prints_its_rows(layers, capsys, probe):
    layers.main([probe])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"  [0] {ROOT}"
    assert [line[:22].rstrip() for line in lines[3:]] == ROWS[probe]


def test_one_path_twice_is_two_columns(layers, capsys):
    layers.main(["mc", str(ROOT), str(ROOT)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"  [0] {ROOT}", f"  [1] {ROOT}"]
    assert lines[3].split() == ["row", "[0]", "[1]", "[1]/[0]"]
    for line in lines[4:]:
        # per column a median and its [lowest, highest], then [1]'s change
        cells = line[22:].split()
        assert len(cells) == 7 and (cells[-1] == "-" or cells[-1].endswith("%"))


def test_a_round_trip_that_differs_stops_the_run(layers, tmp_path):
    shutil.copytree(ROOT / "src" / "passklab", tmp_path / "src" / "passklab")
    with open(tmp_path / "src" / "passklab" / "mc.py", "a") as mc:
        mc.write(
            "\n_read = import_samples\n"
            "def import_samples(path):\n"
            "    s = _read(path)\n"
            "    return SampleSet(s.ids, s.offsets, s.actions, 1.0 - s.rewards, s.scores)\n"
        )
    with pytest.raises(SystemExit, match="import did not give back the set"):
        layers.main(["io", str(tmp_path)])
