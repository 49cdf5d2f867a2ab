"""Small shared helpers: atomic file writes, the binary-array check and
the key=value config codec.

Config text is one `key=value` per line in dataclass field order. Blank
lines and lines starting with `#` are skipped. A nested dataclass field
contributes its own keys under a `name.` prefix (`loss.alpha`,
`model.t_in`). Tuples are comma-separated ints (empty for `()`), and bools
are written `true`/`false` and read from true/1/yes or false/0/no in any
case. A key given twice is rejected.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields, is_dataclass
from typing import get_type_hints

import numpy as np


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file + rename so readers never see partials."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def is_binary(arr: np.ndarray) -> bool:
    """True when every element is 0 or 1.

    Unsigned and bool arrays take one pass (their maximum); float and
    signed arrays need the full test, which also rejects NaN and negatives.
    """
    if arr.dtype.kind in "ub":
        return arr.size == 0 or bool(arr.max() <= 1)
    return bool(np.all((arr == 0) | (arr == 1)))


def config_to_text(cfg) -> str:
    """The key=value text of a config dataclass instance."""
    return "".join(f"{key}={value}\n" for key, value in _config_items(cfg))


def _config_items(cfg, prefix: str = ""):
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            yield from _config_items(v, f"{prefix}{f.name}.")
            continue
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, tuple):
            v = ",".join(str(e) for e in v)
        yield prefix + f.name, v


def config_from_text(cls, text: str):
    """Build `cls` from key=value text; omitted keys keep their defaults.

    Raises ValueError naming the line for a malformed line, a duplicate or
    unknown key, or a value that does not parse; `cls` validates the rest.
    """
    entries: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r} "
                             f"(first given on line {entries[key][0]})")
        entries[key] = (lineno, value.strip())
    return _build_config(cls, entries, "")


def _build_config(cls, entries: dict[str, tuple[int, str]], prefix: str):
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs, nested = {}, {}
    for key, (lineno, value) in entries.items():
        name, dot, rest = key.partition(".")
        if name not in names or is_dataclass(hints[name]) != bool(dot):
            raise ValueError(f"line {lineno}: unknown "
                             f"{prefix.replace('.', ' ')}key {key!r}")
        if dot:
            nested.setdefault(name, {})[rest] = (lineno, value)
            continue
        try:
            kwargs[name] = _parse_value(hints[name], value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {prefix}{key}: {exc}") from None
    for name, sub in nested.items():
        kwargs[name] = _build_config(hints[name], sub, f"{prefix}{name}.")
    return cls(**kwargs)


def _parse_value(kind, value: str):
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean {value!r}")
    if kind is tuple:
        return tuple(int(v) for v in value.split(",")) if value else ()
    return kind(value)
