"""Stable content fingerprints of p-sequences and venues.

:func:`sequence_fingerprint` hashes the raw records of a p-sequence; batch
decoding coalesces duplicate sequences by it.  :func:`space_fingerprint`
hashes a venue's semantic regions; scenario fingerprints build on it.  Two
sequences (or venues) with equal content produce equal digests across
processes and sessions — the digests are stable hashes, not ``id()``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any


def fingerprint(*parts: Any) -> str:
    """A stable hex digest over heterogeneous parts.

    Strings and bytes hash as their raw bytes; everything else hashes as its
    ``repr``.  Part boundaries are length-prefixed so ``("ab", "c")`` and
    ``("a", "bc")`` cannot collide.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        elif isinstance(part, str):
            blob = part.encode("utf-8")
        else:
            blob = repr(part).encode("utf-8")
        digest.update(struct.pack("<Q", len(blob)))
        digest.update(blob)
    return digest.hexdigest()


def sequence_fingerprint(sequence: Any) -> str:
    """Fingerprint a p-sequence by object id and raw record content."""
    blob = bytearray()
    for record in sequence:
        location = record.location
        blob += struct.pack(
            "<dddq", location.x, location.y, record.timestamp, location.floor
        )
    return fingerprint(getattr(sequence, "object_id", ""), bytes(blob))


def space_fingerprint(space: Any) -> str:
    """Fingerprint an indoor space by its semantic-region content.

    Hashes, per region: id, name, floor, owning partitions and the vertices
    of every geometry — the exact inputs the label-independent preparation
    (candidate queries, overlaps, distances) depends on.  Two venues that
    differ anywhere a decode could notice produce different digests.
    """
    blob = bytearray()
    for region in getattr(space, "regions", []):
        header = f"{region.region_id}|{region.name}|{region.floor}|{region.partition_ids}"
        blob += header.encode("utf-8")
        for geometry in getattr(region, "geometries", []):
            for vertex in getattr(geometry, "vertices", []):
                blob += struct.pack("<dd", vertex.x, vertex.y)
    return fingerprint(type(space).__name__, bytes(blob))
