"""Small shared helpers: seeding, deterministic RNG, float sums, formula
names read in any case, the type and range rule of config fields, output
directories, the one reader of input files, and atomic file writes of one
``os.open`` and one rename, JSON artifacts among them."""

import enum
import hashlib
import json
import math
import numbers
import operator
import os
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError


def derive_seed(seed: int, *labels) -> int:
    """Derive a child seed from a base seed and a sequence of stage labels.

    Uses SHA-256 rather than Python's hash() so derived seeds are stable
    across processes and platforms.
    """
    key = "|".join([str(int(seed))] + [str(l) for l in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator; identical streams on every platform."""
    return np.random.Generator(np.random.Philox(seed))


def sum_left(values) -> float:
    """``values`` added left to right from 0.0, as ``sum`` did before Python
    3.12 compensated it; artifacts get the same bits on every Python."""
    total = 0.0
    for v in values:
        total += v
    return total


class Formula(enum.Enum):
    """A formula enum of lower-case names, each of which ``from_name``
    reads in any case; an unknown name is a ConfigurationError."""

    @classmethod
    def from_name(cls, name: str):
        try:
            return cls(name.lower())
        except ValueError:
            kind = cls.__name__.removesuffix("Formula").lower()
            valid = ", ".join(f.value for f in cls)
            raise ConfigurationError(
                f"unknown {kind} formula {name!r} (one of: {valid})")


# The types the rule checks, each with what a value of it must be.
_KINDS = {bool: "a bool", int: "an integer", float: "a finite real number",
          str: "a str", tuple[int, int]: "a pair of integers"}


def field_types(config) -> dict:
    """Each field's type by name, in a config dataclass or instance: its
    annotation without a last ``| None``."""
    return {f.name: typing.get_args(f.type)[0]
            if type(None) in typing.get_args(f.type) else f.type
            for f in fields(config)}


def check_fields(config) -> None:
    """The type and range rule of the config dataclasses. An ``int`` field
    takes an integer, numpy's too, that ``str()`` can print; a ``float``
    field, a real number whose ``float()`` is finite; a bool is no number
    here. A ``bool`` or ``str`` field takes a bool or a str, a
    ``tuple[int, int]`` field a tuple of two such integers in order, and a
    field typed ``... | None`` None as well; other fields are not checked.
    Once every field has its type, each value must lie within the bounds
    its field's metadata gives (``_BOUNDS``), both entries of a pair. A
    value refused is a ConfigurationError naming its field; one taken is
    stored as the field's Python type."""
    types = field_types(config)
    for f in fields(config):
        type_, value = types[f.name], getattr(config, f.name)
        if type_ not in _KINDS or value is None and type_ is not f.type:
            continue
        try:
            object.__setattr__(config, f.name, _converted(value, type_))
        except (ValueError, OverflowError):
            try:
                shown = repr(value)
            except ValueError:   # an int too long for str(), or one inside
                shown = (f"an int of {value.bit_length()} bits"
                         if isinstance(value, int) else
                         f"a {type(value).__name__} holding an int too "
                         "long to print")
            raise ConfigurationError(
                f"{f.name} must be {_KINDS[type_]}, got {shown}") from None
    for f in fields(config):
        check_range(f.name, getattr(config, f.name), f.metadata)


# Each bound a field's metadata may give: the test a value must pass, and
# how a message writes the bound alone and as an interval's end.
_BOUNDS = {"min": (operator.ge, ">=", "["), "above": (operator.gt, ">", "("),
           "max": (operator.le, "<=", "]"), "below": (operator.lt, "<", ")")}


def check_range(name: str, value, metadata) -> None:
    """ConfigurationError unless a pair ``value`` is in order and every
    entry of ``value`` passes each bound in ``metadata``; None passes."""
    if isinstance(value, tuple) and value[0] > value[1]:
        raise ConfigurationError(f"{name} lower bound {value[0]} is above "
                                 f"its upper bound {value[1]}")
    bounds = [(key, metadata[key]) for key in _BOUNDS if key in metadata]
    entries = value if isinstance(value, tuple) else (value,)
    if value is None or all(_BOUNDS[key][0](v, bound)
                            for v in entries for key, bound in bounds):
        return
    if len(bounds) == 1:
        (key, bound), = bounds
        allowed = f"{_BOUNDS[key][1]} {bound}"
    else:
        (low, lo), (high, hi) = bounds
        allowed = f"in {_BOUNDS[low][2]}{lo}, {hi}{_BOUNDS[high][2]}"
    raise ConfigurationError(f"{name} must be {allowed}, got {value}")


def _converted(value, type_):
    """``value`` as ``type_`` if the type rule takes it, else ValueError
    (OverflowError for a number past the float range)."""
    args = typing.get_args(type_)   # (int, int) for a pair
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if args:
        ok = isinstance(value, tuple) and len(value) == len(args)
    elif type_ is int:   # str() raises ValueError past its digit limit
        ok = number and isinstance(value, numbers.Integral) and str(value)
    elif type_ is float:
        ok = number and math.isfinite(value)
    else:
        ok = isinstance(value, type_)
    if not ok:
        raise ValueError
    return tuple(map(_converted, value, args)) if args else type_(value)


def make_dirs(path) -> None:
    """Create directory `path` and its parents. A file where a directory
    must be is a ConfigurationError naming that file, and any other refusal
    of the OS one giving its reason."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        blocker = next(p for p in (path, *path.parents) if p.exists())
        raise ConfigurationError(f"cannot create directory {path}: "
                                 f"{blocker} is not a directory") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot create directory {path}: "
                                 f"{exc.strerror}") from None


def read_text(path, what: str, error=DataError) -> str:
    """The UTF-8 text of input file `path`, which `what` names in errors.
    A missing file, one that is not UTF-8 or one that cannot be read (a
    directory, say) raises `error` naming `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8: {path} "
                    f"({exc.reason})") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def atomic_write_chunks(path, chunks) -> None:
    """Write the text chunks of the iterable ``chunks``, in order, as UTF-8
    to a new temp file beside `path`, named ``.<12 random hex>.tmp`` so
    that its name fits wherever the name of `path` does, then rename it
    over `path`. The kernel gives it mode 0666 less the umask, as with
    ``open``; the directory is made only when missing, and only once the
    first chunk is encoded, so a text that cannot be encoded creates
    nothing. A failure, a chunk that raises among them, leaves no temp
    file. A directory at `path`, or any other refusal of the OS to make
    the directory, open, write or rename, is a ConfigurationError."""
    data = (chunk.encode("utf-8") for chunk in chunks)
    first = next(data, b"")
    tmp = Path(path).parent / f".{os.urandom(6).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        try:
            fd = os.open(tmp, flags, 0o666)
        except (FileNotFoundError, NotADirectoryError):
            make_dirs(tmp.parent)
            fd = os.open(tmp, flags, 0o666)
    except OSError as exc:
        raise _write_error(path, exc) from None
    try:
        with open(fd, "wb") as fh:
            fh.write(first)
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _write_error(path, exc) from None
        raise


def _write_error(path, exc: OSError) -> ConfigurationError:
    reason = ("it is a directory" if isinstance(exc, IsADirectoryError)
              else exc.strerror or exc)
    return ConfigurationError(f"cannot write {path}: {reason}")


def atomic_write_text(path, text: str) -> None:
    """``atomic_write_chunks`` of the one chunk ``text``."""
    atomic_write_chunks(path, [text])


def write_json(path, doc) -> None:
    """Write ``doc`` to `path` as every JSON artifact is written: sorted
    keys, an indent of two and a final newline, by ``atomic_write_text``."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
