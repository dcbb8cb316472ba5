"""The file boundary: a failed read or write of a path the caller names
raises IoError naming the artifact and the path."""

import os
from pathlib import Path

from .errors import IoError


def read_bytes(path: str | Path, what: str) -> bytes:
    """The file's bytes; IoError naming ``what`` if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


def read_text(path: str | Path, what: str) -> str:
    """The file as UTF-8 text, less a leading byte-order mark, line ends as
    stored; IoError if it cannot be read or is not UTF-8."""
    data = read_bytes(path, what)
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


def write_atomic(path: str | Path, data: bytes, what: str) -> None:
    """Replaces the file at ``path`` with ``data``, all or nothing.

    The bytes go to a temporary file in the target's directory, which is
    flushed and fsynced and then renamed over the target with
    ``os.replace``, atomic within one filesystem: a crash leaves either
    the old file or the new one, never a torn mix. On failure the
    temporary file is removed and the target is untouched.

    Raises:
        IoError: the temporary file could not be written or renamed;
            ``what`` names the artifact in the message.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        try:
            with open(tmp, "xb") as out:
                out.write(data)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc
