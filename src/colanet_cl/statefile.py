"""Binary state-file framing shared by the network and baseline formats.

A state file starts with a 4-byte magic and a little-endian uint32 format
version, followed by fixed-layout fields and float64 arrays. Reading checks
every declared length against the bytes left in the file before taking it,
so a truncated file or a corrupt size field fails with ``StateFormatError``
instead of an oversized read; bytes left over after the payload, and NaN or
infinite array values, are rejected too.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np


class StateFormatError(Exception):
    """Raised when a serialized model file fails a structural check."""


@contextlib.contextmanager
def replacing(path: str, mode: str = "w"):
    """Write ``path`` (mode ``"w"``, UTF-8, or ``"wb"``) through a temporary
    file in its directory, moved into place by ``os.replace`` when the block
    ends; if the block raises, ``path`` keeps its previous bytes. An OSError
    about the temporary file is raised again naming ``path``."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def write_header(f, magic: bytes, version: int) -> None:
    """Write the magic and format version that open every state file."""
    f.write(magic)
    f.write(struct.pack("<I", version))


class StateReader:
    """Reads one state file field by field from an open binary file.

    Construction checks the magic and the version; ``finish`` checks that
    nothing follows the payload.
    """

    def __init__(self, f, path: str, magic: bytes, version: int):
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size
        found = f.read(len(magic))
        self.left -= len(found)
        if found != magic:
            raise self.error(f"bad magic {found!r}")
        (found_version,) = self.unpack("<I", "header")
        if found_version != version:
            raise self.error(f"unsupported format version {found_version}")

    def error(self, message: str) -> StateFormatError:
        return StateFormatError(f"{self.path}: {message}")

    def take(self, size: int, what: str) -> bytes:
        """The next ``size`` bytes; raises when the file holds fewer."""
        if size > self.left:
            raise self.error(f"truncated {what}")
        self.left -= size
        return self.f.read(size)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A little-endian float64 array of ``shape``, read straight into
        the array returned.

        Raises when any element is NaN or infinite: no model stores one.
        """
        size = math.prod(shape) * 8
        if size > self.left:
            raise self.error(f"truncated {what}")
        values = np.empty(shape, dtype="<f8")
        if self.f.readinto(values) != size:
            raise self.error(f"truncated {what}")
        self.left -= size
        # min and max propagate NaN, and an infinity is one of them.
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise self.error(f"non-finite value in {what}")
        return values

    def finish(self) -> None:
        if self.left:
            raise self.error("trailing bytes after payload")
