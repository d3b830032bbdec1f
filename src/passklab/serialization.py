"""Text I/O helpers: fixed-precision floats for CSV, stable JSON, the
line reader behind every input file and its rule for lists of numbers."""

import csv
import json
import math
from pathlib import Path

from .errors import DomainError


def fmt(x) -> str:
    """Render a number with 17 significant digits (float round-trip safe)."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows of mixed scalars; floats formatted via fmt()."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError before the
    file is opened."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def line_error(path, lineno: int, problem) -> DomainError:
    """The one form of an input-file error; problem is a message or the
    exception raised, a KeyError naming the record's missing key."""
    if isinstance(problem, KeyError):
        problem = f"missing key {problem.args[0]!r}"
    return DomainError(f"{path}: line {lineno}: {problem}")


def read_lines(path):
    """Yield (lineno, text) for each line of a UTF-8 file, stripped of ASCII
    whitespace; a byte that is not UTF-8 raises DomainError naming the line."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.strip().decode()
            except UnicodeDecodeError as exc:
                raise line_error(path, lineno, f"not UTF-8 text ({exc})") from exc
            yield lineno, text


def parse_record(path, lineno: int, line: str) -> dict:
    """The record on a nonblank line of a JSON-lines file: an object whose
    prompt_id is a JSON string."""
    try:
        rec = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an int too long to parse
        raise line_error(path, lineno, f"invalid JSON ({exc})") from exc
    if type(rec) is not dict:
        raise line_error(path, lineno, "record must be an object")
    if type(rec.get("prompt_id")) is not str:
        got = json.dumps(rec["prompt_id"]) if "prompt_id" in rec else "nothing"
        raise line_error(path, lineno, f"prompt_id must be a JSON string, got {got}")
    return rec


def no_records(path) -> DomainError:
    return DomainError(f"{path}: empty file, no records")


_JSON_NUMBER = frozenset((int, float))  # the types json.loads gives a JSON number


def number_list(value, name: str) -> list:
    """value itself when it is a nonempty list of finite JSON numbers: no
    true/false, text, null or nested list.  Otherwise DomainError names the
    first bad entry; an integer too large for a float raises OverflowError.
    """
    if type(value) is not list or not value:
        raise DomainError(f"{name} must be a nonempty list of numbers, got {json.dumps(value)}")
    # one C pass for the types and one for the sum; a row that fails either,
    # or whose integer sum is past the float range, is read entry by entry
    try:
        if _JSON_NUMBER.issuperset(map(type, value)) and math.isfinite(sum(value)):
            return value
    except OverflowError:
        pass
    for v in value:
        if type(v) not in _JSON_NUMBER or not math.isfinite(v):
            raise DomainError(f"{name} entries must be finite numbers, got {json.dumps(v)}")
    return value  # finite entries whose sum overflows
