"""Renderings of cache records for tests: a simulation result in a form
that does not depend on the cache's entry format, for tests that pin a
result's values by hash, and a format-4 record body taken apart into its
header and sections, for tests that forge records."""

import struct

#: A format-4 simulate record's header, as docs/ROBUSTNESS.md lays it out:
#: magic, format, batch, frequency_ghz, created_unix, the byte lengths of
#: the kind, design, network, unit list and layer names, then the unit and
#: layer counts.
RECORD_HEAD = struct.Struct("<4siqddIIIIIII")

#: The sections after the header, in record order.
RECORD_SECTIONS = ("kind", "design", "network", "units", "activity", "names", "block")

#: Index of each length and count field in an unpacked header.
LENGTH_FIELDS = {"kind": 5, "design": 6, "network": 7, "units": 8, "names": 9,
                 "unit_count": 10, "layer_count": 11}

#: int64 rows of a record's block: one per layer field after ``name``.
BLOCK_ROWS = 10


def columns_document(run):
    """The simulate payload as entry format 2 stored it: the result's
    scalars, its layer columns as lists and its activity.  A hash of its
    sorted-key JSON moves only when a stored value moves."""
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "layers": run.columns,
        "activity": dict(run.activity.effective_cycles),
    }


def unpack_record(body):
    """``(header fields, {section: bytes})`` of a format-4 record body,
    the sections cut where the header's lengths and counts put them."""
    head = list(RECORD_HEAD.unpack_from(body))
    sizes = (*head[5:9], 8 * head[10], head[9], 8 * BLOCK_ROWS * head[11])
    sections, at = {}, RECORD_HEAD.size
    for name, size in zip(RECORD_SECTIONS, sizes):
        sections[name] = body[at:at + size]
        at += size
    assert at == len(body), "the header's lengths and counts frame the body"
    return head, sections


def pack_record(head, sections):
    """A record body of ``head``'s fields, as given, and ``sections``."""
    return RECORD_HEAD.pack(*head) + b"".join(sections[name] for name in RECORD_SECTIONS)


def unstamped(body):
    """A record body with its ``created_unix`` set to 0, for comparing
    records written at different times."""
    head, sections = unpack_record(body)
    head[4] = 0.0
    return pack_record(head, sections)
