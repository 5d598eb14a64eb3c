"""Small shared helpers: seeding, deterministic RNG, float sums, output
directories and atomic file writes."""

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


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


def atomic_write_text(path, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory,
    creating the directory first (``make_dirs``). The file gets mode 0666
    less the process umask, as ``open`` would give it. A directory at
    `path` is a ConfigurationError."""
    path = Path(path)
    make_dirs(path.parent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; os.umask only reads the mask
            # by setting it, so set it back at once.
            umask = os.umask(0o077)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, IsADirectoryError):
            raise ConfigurationError(
                f"cannot write {path}: it is a directory") from None
        raise
