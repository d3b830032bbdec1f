"""Arrays, ids and scalars built in code: each bad one is one DomainError line."""

import json
import math
import re

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    FilterSpec,
    GradientTable,
    GradLogRecord,
    PromptBatch,
    SampleSet,
    SuccessProfile,
    conflict_bound,
    conflict_report,
    delta_bound,
    derive_reference_theta,
    fk,
    k_star,
    make_synthetic_conflict_log,
    max_safe_step,
    pass_at_k_bounds,
    run_trajectory,
    sample_prompts,
    smoothness_constants,
    success_probs,
    wk,
)

FEATURES = [[1.0, 0.5], [1.0, -0.5]]
LABELS = ["easy", "hard"]

# (case, call, the message's start): numpy or tuple() refused each of these
# with its own TypeError, ValueError or OverflowError
BAD_COLUMNS = [
    ("batch ragged labels",
     lambda: PromptBatch(("a", "b"), FEATURES, ["easy", ["hard"]], [0, 1]),
     "bad labels ("),
    ("batch ragged actions",
     lambda: PromptBatch(("a", "b"), FEATURES, LABELS, [0, [1]]),
     "bad correct_actions ("),
    ("batch no ids",
     lambda: PromptBatch(None, [[1.0, 0.5]], ["easy"], [0]),
     "bad ids ('NoneType' object is not iterable)"),
    ("table no ids",
     lambda: GradientTable(np.ones((1, 2)), None),
     "bad ids ('NoneType' object is not iterable)"),
    ("profile no ids",
     lambda: SuccessProfile([0.5], [1.0], None),
     "bad ids ('NoneType' object is not iterable)"),
    ("sample set no ids",
     lambda: SampleSet(None, [0, 1], [0], [0.0], [[1.0]]),
     "bad ids ('NoneType' object is not iterable)"),
    ("sample set offset past int64",
     lambda: SampleSet(("a",), [0, 2**70], [0], [0.0], [[1.0]]),
     "bad offsets ("),
    ("grads past the float range",
     lambda: GradientTable.uniform([[1.0, 10**400]]),
     "bad grads (int too large to convert to float)"),
]


@pytest.mark.parametrize(
    "call,start", [case[1:] for case in BAD_COLUMNS], ids=[case[0] for case in BAD_COLUMNS]
)
def test_bad_column_is_one_domain_error(call, start):
    with pytest.raises(DomainError) as info:
        call()
    message = str(info.value)
    assert message.startswith(start), message
    assert "\n" not in message


# (case, call, message): a number array built in code follows a file's number
# rule (objectives._reals), and its first bad entry is named as JSON writes it;
# numpy parsed these entries as numbers, or refused them in its own words
BAD_NUMBER_ARRAYS = [
    ("batch text features",
     lambda: PromptBatch(("a",), np.array([["1", "x"]]), ["easy"], [0]),
     'features entries must be finite numbers, got "1"'),
    ("batch ragged features",
     lambda: PromptBatch(("a", "b"), [[1.0, 0.5], [1.0]], LABELS, [0, 1]),
     "features entries must be finite numbers, got [1.0, 0.5]"),
    ("table text grads",
     lambda: GradientTable(np.array([["1", "a"]]), ("x",)),
     'grads entries must be finite numbers, got "1"'),
    ("uniform table text grads",
     lambda: GradientTable.uniform([["a"]]),
     'grads entries must be finite numbers, got "a"'),
    ("profile text probs",
     lambda: SuccessProfile(["a"], [1.0], ("x",)),
     'probs entries must be finite numbers, got "a"'),
    ("profile text mass",
     lambda: SuccessProfile([0.5], ["a"], ("x",)),
     'mass entries must be finite numbers, got "a"'),
    ("uniform profile text probs",
     lambda: SuccessProfile.uniform(["a"]),
     'probs entries must be finite numbers, got "a"'),
    ("text theta",
     lambda: success_probs(["a", "b"], sample_prompts(BanditConfig(), 3)),
     'theta entries must be finite numbers, got "a"'),
    ("numpy bool in a list",
     lambda: GradientTable.uniform([[np.float32(0.5), np.True_]]),
     "grads entries must be finite numbers, got true"),
    ("float32 NaN in a list",
     lambda: SuccessProfile.uniform([0.5, np.float32("nan")]),
     "probs entries must be finite numbers, got NaN"),
]


@pytest.mark.parametrize(
    "call,message", [case[1:] for case in BAD_NUMBER_ARRAYS],
    ids=[case[0] for case in BAD_NUMBER_ARRAYS],
)
def test_bad_number_array_is_one_domain_error(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# (array, call with a value in its place, the array's valid entries)
NUMBER_ARRAYS = [
    ("features", lambda a: PromptBatch(("a",), a, ["easy"], [0]), [[1.0, 0.2]]),
    ("grads", lambda a: GradientTable(a, ("a",)), [[0.5, 1.0]]),
    ("grads", GradientTable.uniform, [[0.5, 1.0]]),
    ("probs", lambda a: SuccessProfile(a, [0.5, 0.5], ("a", "b")), [0.5, 0.25]),
    ("probs", SuccessProfile.uniform, [0.5, 0.25]),
    ("mass", lambda a: SuccessProfile([0.5, 0.25], a, ("a", "b")), [0.5, 0.5]),
    ("theta", lambda a: run_trajectory(theta0=a, steps=1, n=10), [0.1, 0.2]),
    ("grad", lambda a: GradLogRecord("a", 0.5, a), [0.5, 1.0]),
    ("reward", lambda a: SampleSet(("a",), [0, 1], [1], a, [[0.5]]), [1.0]),
    ("score", lambda a: SampleSet(("a",), [0, 1], [1], [1.0], a), [[0.5]]),
]
NUMBER_ARRAY_IDS = [f"{i}-{name}" for i, (name, _, _) in enumerate(NUMBER_ARRAYS)]


def _each(rows, convert) -> list:
    return [_each(r, convert) if isinstance(r, list) else convert(r) for r in rows]


@pytest.mark.parametrize("build", [list, np.array], ids=["list", "ndarray"])
@pytest.mark.parametrize(
    "convert",
    [str, bool, lambda v: math.nan, lambda v: -math.inf],
    ids=["text", "bool", "nan", "-inf"],
)
@pytest.mark.parametrize("name,call,rows", NUMBER_ARRAYS, ids=NUMBER_ARRAY_IDS)
def test_array_entry_that_is_not_a_finite_number(name, call, rows, convert, build):
    # numeric text and true/false are refused as in a file, not read as numbers
    value = _each(rows, convert)
    shown = json.dumps(value[0][0] if isinstance(value[0], list) else value[0])
    message = f"{name} entries must be finite numbers, got {shown}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(build(value))


@pytest.mark.parametrize(
    "build",
    [lambda rows: np.array(rows, np.float32), lambda rows: _each(rows, np.float32)],
    ids=["float32 array", "float32 list"],
)
@pytest.mark.parametrize("name,call,rows", NUMBER_ARRAYS, ids=NUMBER_ARRAY_IDS)
def test_numpy_numbers_stay_numbers(name, call, rows, build):
    call(build(rows))


def test_integer_arrays_stay_numbers():
    table = GradientTable.uniform(np.array([[3, -4]], dtype=np.int32))
    assert table.grads.dtype == float and table.grads.tolist() == [[3.0, -4.0]]
    batch = PromptBatch(("a",), np.array([[1, 0]], dtype=np.uint8), ["easy"], [0])
    assert batch.features.tolist() == [[1.0, 0.0]]
    samples = SampleSet(("a",), [0, 1], [1], np.array([1]), np.array([[2]]))
    assert samples.rewards.tolist() == [1.0] and samples.scores.tolist() == [[2.0]]


def _report(margin):
    table = GradientTable.uniform([[1.0], [-1.0]])
    return conflict_report(table, SuccessProfile.uniform([0.5, 0.5]), 2, margin=margin)


# (parameter, call with the value under test): a text value reached a
# comparison or float() and raised TypeError or ValueError, and True ran as 1
# wherever 1 lies in the parameter's range
SCALARS = [
    ("separation", lambda v: BanditConfig(separation=v)),
    ("hard_fraction", lambda v: BanditConfig(hard_fraction=v)),
    ("delta1", lambda v: FilterSpec(v, 0.1)),
    ("delta2", lambda v: FilterSpec(0.85, v)),
    ("p_easy_target", lambda v: derive_reference_theta(v, 0.1)),
    ("p_hard_target", lambda v: derive_reference_theta(0.86, v)),
    ("eps", lambda v: k_star(v, 0.5, 0.1, 0.01, 1.0)),
    ("q", lambda v: conflict_bound(3, 0.05, 0.5, v, 0.01, 1.0)),
    ("m", lambda v: conflict_bound(3, 0.05, 0.5, 0.1, v, 1.0)),
    ("eta", lambda v: run_trajectory(eta=v, steps=1, n=10)),
    ("hard_fraction", lambda v: make_synthetic_conflict_log(hard_fraction=v)),
    ("margin", _report),
    ("g2", lambda v: smoothness_constants(v, 1, 3)),
    ("f", lambda v: smoothness_constants(1, v, 3)),
    ("g2", lambda v: delta_bound(1e-6, 1.0, 1.0, v)),
    ("delta_theta", lambda v: max_safe_step(v, 1, 1)),
    ("c2", lambda v: max_safe_step(1, v, 1)),
    ("lk", lambda v: max_safe_step(1, 1, v)),
    ("p", lambda v: fk(v, 2)),
    ("p", lambda v: wk(v, 2)),
    ("j1", lambda v: pass_at_k_bounds(v, 2)),
]


@pytest.mark.parametrize(
    "value,shown", [("a", '"a"'), (True, "true/false")], ids=["text", "bool"]
)
@pytest.mark.parametrize(
    "name,call", SCALARS, ids=[f"{i}-{name}" for i, (name, _) in enumerate(SCALARS)]
)
def test_scalar_that_is_not_a_number(name, call, value, shown):
    with pytest.raises(DomainError, match=f"^{name} must be a number, not {shown}$"):
        call(value)


def test_margin_none_is_not_a_number():
    with pytest.raises(DomainError, match="^margin must be a number, not null$"):
        _report(None)


@pytest.mark.parametrize(
    "value", [np.float64(0.25), np.float32(0.25), np.int64(1)],
    ids=["float64", "float32", "int64"],
)
def test_numpy_scalars_stay_numbers(value):
    assert FilterSpec(0.85, value * 0.1).delta2 == value * 0.1
    assert fk(value, 3) == fk(float(value), 3)
    assert math.isfinite(delta_bound(1e-6, 1.0, 1.0, value))


# an int past the float range escaped float() as a bare OverflowError
PAST_THE_FLOAT_RANGE = SCALARS + [
    ("pass1", lambda v: GradLogRecord("a", v, [1.0])),
    ("mass", lambda v: GradLogRecord("a", 0.5, [1.0], mass=v)),
]


@pytest.mark.parametrize(
    "name,call", PAST_THE_FLOAT_RANGE,
    ids=[f"{i}-{name}" for i, (name, _) in enumerate(PAST_THE_FLOAT_RANGE)],
)
def test_scalar_past_the_float_range(name, call):
    with pytest.raises(DomainError, match=rf"^bad {name} \(int too large to convert to float\)$"):
        call(10**400)
