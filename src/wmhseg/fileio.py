"""Crash-safe replacement of output files, and the ``key=value`` text reader."""

from __future__ import annotations

import contextlib
import os
import re
import uuid
from pathlib import Path

# atomic_write's temporary file for <dir>/<name>: <dir>/.<name>.<12 hex>.tmp
_TMP_HEX = 12


@contextlib.contextmanager
def atomic_write(path):
    """Open a binary file that replaces ``path`` only once fully written.

    The bytes go to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` when the block exits normally. If the
    block raises, the temporary file is deleted and ``path`` keeps its old
    contents (or stays absent). This covers a write that fails midway, a
    process that dies before the rename and one that is interrupted
    (SIGINT); there is no fsync, so it does not cover power loss. An
    ``OSError`` that names no file (a failed write, such as a full disk or a
    file-size limit) is raised again naming ``path``.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:_TMP_HEX]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        # an interrupt can land before the open or after the rename, when
        # there is no temporary file
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is None \
                and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def remove_temporaries(path) -> None:
    """Delete the temporary files that ``atomic_write(path)`` left behind in
    a process that was killed (SIGKILL) before its block exited. A process
    writing ``path`` at the same time would lose its temporary file."""
    head, tail = os.path.split(os.fspath(path))
    stale = re.compile(rf"\.{re.escape(tail)}\.[0-9a-f]{{{_TMP_HEX}}}\.tmp")
    for name in os.listdir(head or "."):
        if stale.fullmatch(name):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(head, name))


def read_key_values(path, error) -> dict[str, tuple[int, str]]:
    """The ``key=value`` lines of a UTF-8 text file, as key -> (line, value).

    Blank lines and lines starting with ``#`` are skipped; keys and values
    are stripped. Raises ``error`` (an exception type) naming the file and
    the line for undecodable text, a line without ``=`` and a repeated key.
    """
    entries: dict[str, tuple[int, str]] = {}
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        where = f"{path}, line {number}"
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise error(f"{where}: undecodable text ({exc.reason})") from None
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise error(f"{where}: expected key=value, got {line!r}")
        if key in entries:
            raise error(f"{where}: repeated key {key!r} "
                        f"(first on line {entries[key][0]})")
        entries[key] = (number, value.strip())
    return entries
