"""Text I/O helpers: fixed-precision floats for CSV, stable JSON, and the
line reader behind every input file."""

import csv
import json
from pathlib import Path

from .errors import DomainError


def fmt(x) -> str:
    """Render a number with 17 significant digits (float round-trip safe)."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows of mixed scalars; floats formatted via fmt()."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError before the
    file is opened."""
    text = json.dumps(obj, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_lines(path):
    """Yield (lineno, text) for each line of a UTF-8 file, stripped of ASCII
    whitespace; a byte that is not UTF-8 raises DomainError naming the line."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.strip().decode()
            except UnicodeDecodeError as exc:
                bad = f"not UTF-8 text ({exc})"
                raise DomainError(f"{path}: line {lineno}: {bad}") from exc
            yield lineno, text


def read_records(path):
    """Yield (lineno, record) per nonblank line of a JSON-lines file with at
    least one record, each an object whose prompt_id is a JSON string."""
    empty = True
    for lineno, line in read_lines(path):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int too long to parse
            raise DomainError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
        if type(rec) is not dict:
            raise DomainError(f"{path}: line {lineno}: record must be an object")
        if type(rec.get("prompt_id")) is not str:
            got = json.dumps(rec["prompt_id"]) if "prompt_id" in rec else "nothing"
            bad = f"prompt_id must be a JSON string, got {got}"
            raise DomainError(f"{path}: line {lineno}: {bad}")
        empty = False
        yield lineno, rec
    if empty:
        raise DomainError(f"{path}: empty file, no records")
