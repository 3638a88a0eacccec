"""Append-only checksummed record file with torn-write recovery.

Layout: 4-byte magic, 1 version byte, then records framed as
`len (u32 BE) | payload | crc32 (u32 BE)`. Opening an existing file
scans it, truncates at the first frame that is empty, fails its checksum
or is torn, and reports how many bytes were dropped. Appends flush to the OS;
the crash model is process exit, not power loss.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

STORE_MAGIC = b"CWOB"
STORE_VERSION = 1
_HEADER = STORE_MAGIC + bytes([STORE_VERSION])


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload + struct.pack(">I", zlib.crc32(payload))


class StoreFormatError(Exception):
    """File has a bad magic header or a record of an unknown type."""


class RecordFile:
    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: list[bytes] = []  # the valid records found at open
        self.dropped_bytes = self._open()  # torn or corrupt tail dropped at open
        self._f = open(self.path, "ab")

    def _open(self) -> int:
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.write_bytes(_HEADER)
            return 0
        data = self.path.read_bytes()
        if data[:5] != _HEADER:
            raise StoreFormatError(f"{self.path}: bad magic header")
        pos = 5
        valid_end = 5
        while pos < len(data):
            if pos + 4 > len(data):
                break
            (n,) = struct.unpack(">I", data[pos : pos + 4])
            if n == 0 or pos + 4 + n + 4 > len(data):
                break
            payload = data[pos + 4 : pos + 4 + n]
            (crc,) = struct.unpack(">I", data[pos + 4 + n : pos + 8 + n])
            if zlib.crc32(payload) != crc:
                break
            self.records.append(payload)
            pos += 8 + n
            valid_end = pos
        dropped = len(data) - valid_end
        if dropped:
            with open(self.path, "r+b") as f:
                f.truncate(valid_end)
        return dropped

    def append(self, payload: bytes) -> None:
        self.extend([payload])

    def extend(self, payloads: list[bytes]) -> None:
        """Append each payload's frame, in one write and one flush."""
        self._f.write(b"".join(map(_frame, payloads)))
        self._f.flush()

    def close(self) -> None:
        self._f.close()

    def rewrite(self, payloads: list[bytes]) -> None:
        """Atomically replace the file contents (compaction)."""
        self._f.close()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as f:
            f.write(_HEADER)
            for payload in payloads:
                f.write(_frame(payload))
        tmp.replace(self.path)
        self._f = open(self.path, "ab")
