"""Seeded mutation fuzz of the three JSONL loaders.

Each case rewrites one line of a small valid file: it drops a key, changes
a value's type, puts a value out of range, truncates the line or inserts
NaN.  The loader must then either load the file or raise its own error
type with "line N" in the message; any other exception fails the test.
"""

import json
import math
import random
import re

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    GradLogError,
    GradLogRecord,
    load_gradlog,
    sample_actions,
    sample_prompts,
)
from passklab.bandit import export_batch, import_batch
from passklab.gradlog import export_gradlog
from passklab.mc import export_samples, import_samples

CASES_PER_LOADER = 300

# Replacement values, by mutation kind.  A list entry may be replaced as well
# as a top-level value.
WRONG_TYPES = [None, True, False, "x", "0.5", "12", [], [1], [[0.5]], {}, {"a": 1}]
OUT_OF_RANGE = [-1, 2, 7, 1.5, -0.25, 1e300, -1e300, math.inf, -math.inf, 10**400, ""]


def _write_samples(path):
    batch = sample_prompts(BanditConfig(seed=2), 3)
    export_samples(sample_actions(np.array([0.3, -0.7]), batch, 2, seed=4), path)


def _write_gradlog(path):
    records = [
        GradLogRecord(f"p{i}", pass1=0.2 * i, grad=[0.5 - i, 0.25 * i], label="x")
        for i in range(5)
    ]
    export_gradlog(records, path)


def _write_batch(path):
    export_batch(sample_prompts(BanditConfig(seed=5), 5), path)


LOADERS = {
    "import_samples": (_write_samples, import_samples, DomainError),
    "load_gradlog": (_write_gradlog, load_gradlog, GradLogError),
    "import_batch": (_write_batch, import_batch, DomainError),
}


def _mutate_record(rng: random.Random, rec: dict) -> dict:
    key = rng.choice(sorted(rec))
    kind = rng.choice(["drop", "type", "range", "nan"])
    if kind == "drop":
        del rec[key]
        return rec
    value = {"type": WRONG_TYPES, "range": OUT_OF_RANGE, "nan": [math.nan]}[kind]
    new = rng.choice(value)
    if isinstance(rec[key], list) and rec[key] and rng.random() < 0.5:
        rec[key][rng.randrange(len(rec[key]))] = new
    else:
        rec[key] = new
    return rec


def _mutate(rng: random.Random, lines: list) -> list:
    lines = list(lines)
    i = rng.randrange(len(lines))
    if rng.random() < 0.2:
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    else:
        lines[i] = json.dumps(_mutate_record(rng, json.loads(lines[i])))
    return lines


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_mutated_files_load_or_name_the_line(tmp_path, name):
    write, load, error = LOADERS[name]
    valid = tmp_path / "valid.jsonl"
    write(valid)
    lines = valid.read_text().splitlines()
    load(valid)  # the unmutated file loads
    rng = random.Random(f"fuzz-{name}")
    path = tmp_path / "mutated.jsonl"
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(CASES_PER_LOADER):
        mutated = _mutate(rng, lines)
        path.write_text("\n".join(mutated) + "\n")
        try:
            load(path)
        except error as exc:
            match = re.search(r"line (\d+)", str(exc))
            assert match, f"case {case}: no line number in {exc!r}\n{mutated}"
            assert 1 <= int(match.group(1)) <= len(lines), f"case {case}: {exc!r}"
            outcomes["rejected"] += 1
        except Exception as exc:  # any other type is the failure
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{mutated}")
        else:
            outcomes["loaded"] += 1
    # the mutations reach the validators, not only the JSON parser
    assert outcomes["rejected"] > CASES_PER_LOADER // 2
