"""Hand-edit a saved checkpoint's JSON header, keeping its CRC valid."""

import json
import struct
import zlib


def rewrite_header(path, edit):
    """Apply `edit` to the header dict of the checkpoint at `path` in place."""
    buf = path.read_bytes()
    (hlen,) = struct.unpack("<I", buf[8:12])
    header = json.loads(buf[12 : 12 + hlen])
    edit(header)
    new_header = json.dumps(header).encode()
    body = buf[:8] + struct.pack("<I", len(new_header)) + new_header + buf[12 + hlen : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
