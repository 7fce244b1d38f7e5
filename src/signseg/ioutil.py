"""Small file helpers: outputs land via temp file plus atomic rename, so a
crash mid-write never leaves a partial artifact behind."""
from __future__ import annotations

import os
import uuid
from pathlib import Path


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the byte buffers `chunks`, one after another, to a fresh temp
    file beside `path`, fsync it, then rename it over `path`; the temp file
    is removed if any step fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a unique name, so concurrent writers and leftovers never collide; created
    # like a plain open() (mode 0o666 less the umask), unlike mkstemp's 0o600
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
