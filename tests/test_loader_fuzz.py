"""Seeded mutation fuzz of the two JSONL loaders.

Each case rewrites one line of a small valid file: it drops a key, changes
a value's type, puts a value out of range, truncates the line, inserts
NaN or inserts a byte that is not UTF-8.  The loader must then either load
the file or raise DomainError with "<path>: line N" in the message; any
other exception fails the test.  The rules both loaders share (a prompt_id
that is a JSON string, at least one record) are checked on each as well.
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
    GradLogRecord,
    load_gradlog,
    sample_actions,
    sample_prompts,
)
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


LOADERS = {
    "import_samples": (_write_samples, import_samples, DomainError),
    "load_gradlog": (_write_gradlog, load_gradlog, DomainError),
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
    roll = rng.random()
    if roll < 0.2:
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    elif roll < 0.3:
        # written with surrogateescape, U+DC80..U+DCFF is the lone byte
        # 0x80..0xff, which is never valid UTF-8 next to ASCII text
        j = rng.randrange(len(lines[i]) + 1)
        byte = chr(0xDC00 + rng.randrange(0x80, 0x100))
        lines[i] = lines[i][:j] + byte + lines[i][j:]
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
        text = "\n".join(mutated) + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        try:
            load(path)
        except error as exc:
            assert str(exc).startswith(f"{path}: line "), f"case {case}: {exc!r}"
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


@pytest.mark.parametrize("value", [1, None, ["a"]], ids=["int", "null", "list"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_prompt_id_must_be_a_json_string(tmp_path, name, value):
    # line 1 carries the id str() would make of line 2's, so a loader that
    # coerced ids would merge the two lines or call line 2 a duplicate
    write, load, error = LOADERS[name]
    path = tmp_path / "ids.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    for i, pid in enumerate([str(value), value]):
        lines[i] = json.dumps({**json.loads(lines[i]), "prompt_id": pid})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as info:
        load(path)
    expected = f"{path}: line 2: prompt_id must be a JSON string, got {json.dumps(value)}"
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "value", [[1, 2], "a", 3, None], ids=["list", "str", "int", "null"]
)
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_record_must_be_a_json_object(tmp_path, name, value):
    write, load, error = LOADERS[name]
    path = tmp_path / "records.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps(value)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"{path}: line 2: record must be an object"


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_file_without_records_is_empty(tmp_path, name):
    _, load, error = LOADERS[name]
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n\n")
    with pytest.raises(error, match=re.escape(f"{path}: empty")):
        load(path)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("pass1", "0.05", 'pass1 must be a number, not "0.05"'),
        ("pass1", None, "pass1 must be a number, not null"),
        ("mass", "1", 'mass must be a number, not "1"'),
        ("mass", None, "mass must be a number, not null"),
        ("grad", ["1.5", "2"], 'grad entries must be finite numbers, got "1.5"'),
        ("grad", [True, False], "grad entries must be finite numbers, got true"),
        ("grad", [None, 1.0], "grad entries must be finite numbers, got null"),
        ("label", 7, "label must be a string, got 7"),
        ("label", ["x"], 'label must be a string, got ["x"]'),
        ("label", None, "label must be a string, got null"),
    ],
)
def test_gradlog_reads_no_text_as_numbers(tmp_path, key, value, message):
    path = tmp_path / "log.jsonl"
    _write_gradlog(path)
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), key: value})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError) as info:
        load_gradlog(path)
    assert str(info.value) == f"{path}: line 3: {message}"


def test_gradlog_boolean_among_numbers_is_rejected(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"prompt_id": "a", "pass1": 0.5, "grad": [true, 1.5]}\n')
    with pytest.raises(DomainError) as info:
        load_gradlog(path)
    assert str(info.value) == f"{path}: line 1: grad entries must be finite numbers, got true"


# the list of numbers in each loader's records
NUMBER_KEYS = {"import_samples": "score", "load_gradlog": "grad"}


@pytest.mark.parametrize(
    "value,fault",
    [
        ([], "{key} must be a nonempty list of numbers, got []"),
        ("1.5", '{key} must be a nonempty list of numbers, got "1.5"'),
        (None, "{key} must be a nonempty list of numbers, got null"),
        (0.5, "{key} must be a nonempty list of numbers, got 0.5"),
        ([0.5, "1.5"], '{key} entries must be finite numbers, got "1.5"'),
        ([0.5, None], "{key} entries must be finite numbers, got null"),
        ([True, 0.5], "{key} entries must be finite numbers, got true"),
        ([0.5, False], "{key} entries must be finite numbers, got false"),
        ([[0.5], 0.5], "{key} entries must be finite numbers, got [0.5]"),
        ([0.5, math.nan], "{key} entries must be finite numbers, got NaN"),
        ([-math.inf, 0.5], "{key} entries must be finite numbers, got -Infinity"),
        ([0.5, 10**400], "int too large to convert to float"),
    ],
    ids=repr,
)
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_one_number_list_rule(tmp_path, name, value, fault):
    # the same fault gives the same message in both loaders, naming the line
    write, load, error = LOADERS[name]
    path = tmp_path / "records.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    key = NUMBER_KEYS[name]
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"{path}: line 2: " + fault.format(key=key)


def _load_second_row(tmp_path, name, value) -> np.ndarray:
    """Load a file whose second record's number list is value; return that row."""
    write, load, _ = LOADERS[name]
    path = tmp_path / "records.jsonl"
    write(path)
    lines = path.read_text().splitlines()
    key = NUMBER_KEYS[name]
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    path.write_text("\n".join(lines) + "\n")
    loaded = load(path)
    return loaded.scores[1] if name == "import_samples" else loaded[1].grad


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_integers_beyond_64_bits_load_as_floats(tmp_path, name):
    grads = _load_second_row(tmp_path, name, [2**64, -(2**70)])
    assert grads.tolist() == [2.0**64, -(2.0**70)]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_finite_entries_whose_sum_overflows_load(tmp_path, name):
    # the one-pass sum is inf, so the row is read entry by entry, and kept
    assert _load_second_row(tmp_path, name, [1e308, 1e308]).tolist() == [1e308, 1e308]
