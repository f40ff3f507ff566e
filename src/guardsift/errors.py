"""Exception types shared across the toolkit, and the file readers that raise them."""

import json
import typing
from pathlib import Path


class GuardsiftError(Exception):
    """A stage failure; its message says what failed. The base of the other errors."""


class ParseError(GuardsiftError):
    """A log line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StoreError(GuardsiftError):
    """A store that matches its file is malformed; ``kind`` is "cell-log" or "trace"."""

    def __init__(self, path, message: str, kind: str = "cell-log"):
        file = "log" if kind == "cell-log" else f"{kind} file"
        super().__init__(f"bad {kind} store {path}: {message}; delete the store to read the {file}")


class ConfigError(GuardsiftError):
    """A scenario or pipeline configuration is invalid."""


def decode_utf8(data: bytes) -> str:
    """``data`` as text; a byte that is not UTF-8 raises ``ParseError`` naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None


def is_header(field: str) -> bool:
    """Whether a file's first data line is a header, given the field that
    every data line holds an integer in: it is when ``int`` cannot read it."""
    try:
        int(field)
    except ValueError:
        return True
    return False


def read_utf8(path) -> str:
    """The text of a file; a byte that is not UTF-8 raises ``ParseError`` naming its line."""
    return decode_utf8(Path(path).read_bytes())


def read_config(path, what: str, cls):
    """Build the dataclass ``cls`` from the JSON object in a config file.

    Each key must name a field, and its value must have the JSON type of
    the field's annotation: an int64 integer (not a boolean) for ``int``, any
    number for ``float``, null where the annotation allows ``None``, and a
    list of one value per item for a ``tuple``. ``NaN`` and ``Infinity``,
    which Python's JSON reader would accept, are not JSON. Anything else
    is a ``ConfigError`` naming the key.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_not_json)
    except ValueError as exc:
        raise ConfigError(f"bad {what} config {path}: not JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"bad {what} config {path}: not JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(
            f"bad {what} config {path}: expected a JSON object, got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"bad {what} config: unknown key {key!r}")
        if not _json_fits(value, hints[key]):
            raise ConfigError(
                f"bad {what} config: {key} must be {cls.__annotations__[key]}, got {json.dumps(value)}"
            )
        if isinstance(value, list):
            data[key] = tuple(value)
    try:
        return cls(**data)
    except ConfigError as exc:  # a value the config class rejects
        raise ConfigError(f"bad {what} config: {exc}") from None


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


def _json_fits(value, hint) -> bool:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(
            map(_json_fits, value, args)
        )
    if args:  # a union such as int | None
        return any(_json_fits(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is int:  # the stages compute on int64
        return isinstance(value, int) and -(2**63) <= value < 2**63
    return isinstance(value, (int, float) if hint is float else hint)
