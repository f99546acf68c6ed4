"""Small file-handling helpers: atomic writes and digests.

Every artifact writer in the package goes through the atomic helpers so a
failed or interrupted run never leaves a partially written file behind.
"""

from __future__ import annotations

import hashlib
import os
import secrets
from collections.abc import Sequence
from pathlib import Path


def atomic_write_bytes(path: str | Path, buffers: Sequence) -> None:
    """Write ``buffers`` in order to a temp file in the target directory, then rename.

    Each buffer is any C-contiguous bytes-like object, a NumPy array
    included, and is written from its own memory: nothing is joined or
    copied first. The file gets mode 0666 less the umask, as one made by
    ``open()`` does.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
