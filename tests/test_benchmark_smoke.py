"""The benchmark's workloads at smoke size, in this process, against their
references: a change that drops what perfbench/workloads.py calls, or moves
a reference value, fails here and not only in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SMOKE = json.loads((PERFBENCH / "reference.json").read_text())["smoke"]
CASES = [(name, int(seed)) for name in sorted(SMOKE) for seed in sorted(SMOKE[name], key=int)]


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{name}-{seed}" for name, seed in CASES])
def test_workload_passes_its_checks(tmp_path, name, seed):
    setup, run, check, _ = workloads.WORKLOADS[name]
    inputs = setup(seed, workloads.SIZES["smoke"][name])
    out = run(inputs, tmp_path, workloads.Watch())
    checks, _ = check(out, inputs, SMOKE[name][str(seed)])
    failed = [(item, detail) for item, ok, detail in checks.items if not ok]
    assert not failed
    compared = {item for item, _, _ in checks.items if item.startswith("reference ")}
    assert compared == {f"reference {key}" for key in SMOKE[name][str(seed)]}
