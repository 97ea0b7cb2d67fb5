"""Crash-safe replacement of output files."""

from __future__ import annotations

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_write(path):
    """Open a binary file that replaces ``path`` only once fully written.

    The bytes go to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` when the block exits normally. If the
    block raises, the temporary file is deleted and ``path`` keeps its old
    contents (or stays absent). This covers a write that fails midway and a
    process that dies before the rename; there is no fsync, so it does not
    cover power loss.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:12]}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
