"""Small shared helpers: seeding, deterministic RNG, float sums, output
directories, the one reader of input files, and atomic file writes of one
``os.open`` and one rename, JSON artifacts among them."""

import hashlib
import json
import os
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


def make_dirs(path) -> None:
    """Create directory `path` and its parents. A file where a directory
    must be is a ConfigurationError naming that file."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        blocker = next(p for p in (path, *path.parents) if p.exists())
        raise ConfigurationError(f"cannot create directory {path}: "
                                 f"{blocker} is not a directory") from None


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
    to a new temp file ``<name>.<random hex>`` beside `path`, then rename
    it over `path`. The kernel gives it mode 0666 less the umask, as with
    ``open``; the directory is made only when missing, and only once the
    first chunk is encoded, so a text that cannot be encoded creates
    nothing. A failure, a chunk that raises among them, leaves no temp
    file, and a directory at `path` is a ConfigurationError."""
    data = (chunk.encode("utf-8") for chunk in chunks)
    first = next(data, b"")
    tmp = f"{path}.{os.urandom(6).hex()}"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
    except (FileNotFoundError, NotADirectoryError):
        make_dirs(Path(path).parent)
        fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(first)
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, IsADirectoryError):
            raise ConfigurationError(
                f"cannot write {path}: it is a directory") from None
        raise


def atomic_write_text(path, text: str) -> None:
    """``atomic_write_chunks`` of the one chunk ``text``."""
    atomic_write_chunks(path, [text])


def write_json(path, doc) -> None:
    """Write ``doc`` to `path` as every JSON artifact is written: sorted
    keys, an indent of two and a final newline, by ``atomic_write_text``."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
