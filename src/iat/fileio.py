"""All-or-nothing file writes."""

import os
import secrets
import stat
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new temp file beside `path` for writing, as text ("w") or bytes ("wb").

    When the block exits cleanly the temp file replaces `path` in one
    `os.replace`, so readers see the old file or the whole new one. When the
    block raises, the temp file is removed and `path` keeps its old bytes.
    A symlink is written through to the file it names, and an existing file
    keeps its permission bits. A path that exists but is not a regular file
    (a pipe, a device such as /dev/stdout) cannot be replaced and is written
    directly.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, mode) as fh:
            yield fh
        return
    path = path.resolve()
    # same directory, so os.replace is a rename within one file system
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x" + mode[1:]) as fh:
            yield fh
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
