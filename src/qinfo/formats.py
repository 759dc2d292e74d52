"""File formats used by the command-line interface.

Matrices travel as JSON ``{"dim": d, "re": [...], "im": [...]}`` with entries
row major; distributions as plain JSON arrays; channels as
``{"rows": [[...]]}``; their readers raise ValueError on any other shape.
Linear codes use a small text format: first line "n k", then k generator
columns as n-character 0/1 strings, optionally followed by a line "H" and n-k
parity rows.  CSV output is locale free: csv_row writes str cells as given,
bools as 0/1, Python and NumPy integers as digits and every other value
through fmt, with 12 significant digits.  JSON output (dump_json) is
json.dumps(obj, indent=2, sort_keys=True).  write_transcripts(transcripts,
fh) writes exactly dump_json([transcript_to_json(t) for t in transcripts])
plus a newline, but takes the transcripts one at a time, so a stream of them
is never held whole.  Each transcript, with the separator before it, is one
write of one %-format of a template built once from the sorted field names:
the bit strings are slices of one ASCII buffer made from their arrays, the
index lists are rows looked up in a table of JSON cells, and only the five
scalar fields go through json; transcript_to_json and dump_json stay as its
reference.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from collections.abc import Iterable
from typing import TextIO

import numpy as np

from . import _check
from .bb84 import ProtocolTranscript
from .codes import LinearCode, _sized_bits, bits_to_str


def fmt(value: float) -> str:
    """Diffable numeric formatting: 12 significant digits, '.' decimal."""
    return f"{value:.12g}"


def csv_row(values) -> str:
    """One CSV data line; the cell rule is in the module docstring."""
    return ",".join(v if isinstance(v, str)
                    else str(int(v)) if isinstance(v, (int, np.integer, np.bool_))
                    else fmt(v) for v in values)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def _holds_non_number(obj) -> bool:
    return (isinstance(obj, (bool, str))
            or isinstance(obj, list) and any(map(_holds_non_number, obj)))


def _floats(obj, what: str) -> np.ndarray:
    """Float array from a JSON array (possibly nested) of numbers; true, false
    and strings are not numbers, although numpy reads them as 1, 0 and "0.5"
    as 0.5."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON array of numbers")
    try:
        out = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        out = None
    # only an array that converted is walked, so the walk is at most 64 deep
    if out is None or _holds_non_number(obj):
        raise ValueError(f"{what} must hold only numbers")
    return out


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix must be a JSON object with an integer dim")
    d = _check.integer(obj.get("dim"), "matrix dim", 1)
    re = _floats(obj["re"], "matrix re")
    im = _floats(obj["im"], "matrix im") if "im" in obj else np.zeros(d * d)
    if re.size != d * d or im.size != d * d:
        raise ValueError(f"matrix payload does not hold {d}x{d} entries")
    return (re + 1j * im).reshape(d, d)


def dist_from_json(obj) -> np.ndarray:
    return _floats(obj, "distribution")


def channel_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("channel must be a JSON object {rows: [[...]]}")
    return _floats(obj["rows"], "channel rows")


def code_to_text(code: LinearCode) -> str:
    lines = [f"{code.n} {code.k}"]
    for j in range(code.k):
        lines.append(bits_to_str(code.generator[:, j]))
    lines.append("H")
    for i in range(code.n - code.k):
        lines.append(bits_to_str(code.parity_check[i]))
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LinearCode:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n k'")
    n, k = int(head[0]), int(head[1])
    cols = lines[1:1 + k]
    if len(cols) != k:
        raise ValueError(f"expected {k} generator columns")
    gen = np.zeros((n, k), dtype=np.uint8)
    for j, col in enumerate(cols):
        gen[:, j] = _sized_bits(col, n, f"generator column {j}")
    rest = lines[1 + k:]
    parity = None
    if rest:
        if rest[0] != "H":
            raise ValueError("expected 'H' separator before parity rows")
        rows = rest[1:]
        if len(rows) != n - k:
            raise ValueError(f"expected {n - k} parity rows")
        parity = np.zeros((n - k, n), dtype=np.uint8)
        for i, row in enumerate(rows):
            parity[i] = _sized_bits(row, n, f"parity row {i}")
    return LinearCode(gen, parity)


def transcript_to_json(t: ProtocolTranscript) -> dict:
    def s(b):
        return None if b is None else bits_to_str(b)

    return {
        "config_seed": t.config_seed,
        "aborted": t.aborted,
        "abort_reason": t.abort_reason,
        "alice_bits": s(t.alice_bits),
        "alice_bases": s(t.alice_bases),
        "bob_bases": s(t.bob_bases),
        "bob_bits": s(t.bob_bits),
        "sift_mask": s(t.sift_mask),
        "check_indices": t.check_indices.tolist(),
        "keep_indices": t.keep_indices.tolist(),
        "disagreements": t.disagreements,
        "qber_estimate": None if np.isnan(t.qber_estimate) else t.qber_estimate,
        "announced_offset": s(t.announced_offset),
        "alice_key": s(t.alice_key),
        "bob_key": s(t.bob_key),
        "block_success": s(t.block_success),
        "eve_mask": s(t.eve_mask),
        "eve_bases": s(t.eve_bases),
        "eve_bits": s(t.eve_bits),
    }


def batch_summary_rows(transcripts: list[ProtocolTranscript], start: int = 0) -> list[str]:
    """Per-trial CSV lines: trial, aborted, sifted_count, qber, key_len, keys_match.

    Trials are numbered from start.
    """
    return [csv_row([i, t.aborted, t.sift_mask.sum(),
                     "" if np.isnan(t.qber_estimate) else t.qber_estimate,
                     t.alice_key.size, t.keys_match])
            for i, t in enumerate(transcripts, start)]


# transcript_to_json's keys in sorted order, and how the writer prints each value
_TRANSCRIPT_KEYS = tuple(sorted(f.name for f in dataclasses.fields(ProtocolTranscript)))
_INDEX_FIELDS = ("check_indices", "keep_indices")
_SCALAR_FIELDS = ("abort_reason", "aborted", "config_seed", "disagreements", "qber_estimate")
_BIT_FIELDS = tuple(k for k in _TRANSCRIPT_KEYS if k not in _INDEX_FIELDS + _SCALAR_FIELDS)
# the separator before a list element, then the element: dump_json(transcript_to_json(t))
# with each line after the first indented two more spaces
_TRANSCRIPT_TEMPLATE = "%(sep)s{\n    " + ",\n    ".join(
    f'"{k}": %({k})s' for k in _TRANSCRIPT_KEYS) + "\n  }"
# the five scalars as one JSON list with NUL between its items; json escapes a NUL inside
# a string, so the text between NULs is each item's json.dumps
_scalars_json = json.JSONEncoder(separators=("\0", ":")).encode
# '"' less 48, mod 256: the + 48 that turns bits into ASCII digits turns it into a quote
_QUOTE = np.array([(ord('"') - 48) % 256], np.uint8)


@functools.lru_cache(maxsize=16)
def _index_cells(size: int) -> np.ndarray:
    """Row i is the separator a JSON index list puts before i (a comma, a newline
    and six spaces), then str(i), in ASCII and NUL-padded to one width W.

    A read-only (size,) array of W-byte rows, so indices are looked up, not formatted.
    """
    cells = np.array([f",\n      {i}".encode() for i in range(size)], dtype=bytes)
    cells.flags.writeable = False
    return cells


def _index_list(v: np.ndarray, cells: np.ndarray) -> str:
    """The JSON text of index list v at a transcript's depth, its rows looked up in cells.

    An index that is not an integer in [0, len(cells)) sends the whole list through json."""
    if not v.size:
        return "[]"
    if v.dtype.kind in "iu" and v[v.argmin()] >= 0:   # a negative index would wrap in take
        try:
            rows = cells.take(v)
        except IndexError:   # past the end: a hand-built transcript, not a protocol run
            pass
        else:   # the joined rows less their leading comma
            return "[" + rows.tobytes().replace(b"\0", b"")[1:].decode() + "\n    ]"
    return json.dumps(v.tolist(), indent=2).replace("\n", "\n    ")


def _transcript_text(t: ProtocolTranscript, sep: str) -> str:
    """sep, then t as an element of write_transcripts' top-level list: one %-format of
    _TRANSCRIPT_TEMPLATE.

    The five scalars come from one encoding of a list, split into json.dumps of each.  The
    bit fields that are not None become one ASCII string, '"f1"f2"..."fk"': one
    concatenation, cast to uint8 as bits_to_str's np.asarray(b, np.uint8) casts (int64
    and bool fields print as digits), plus 48 and one decode; each field is one slice,
    quotes included.  Each index list is one take from _index_cells."""
    qber = t.qber_estimate
    text = dict(zip(_SCALAR_FIELDS, _scalars_json(
        [t.abort_reason, t.aborted, t.config_seed, t.disagreements,
         None if math.isnan(qber) else qber])[1:-1].split("\0")), sep=sep)
    present, parts = [], [_QUOTE]
    for name in _BIT_FIELDS:
        v = getattr(t, name)
        if v is None:
            text[name] = "null"
        else:
            present.append((name, len(v)))
            parts += (v, _QUOTE)
    digits = np.concatenate(parts, dtype=np.uint8, casting="unsafe") + 48
    joined = digits.tobytes().decode("ascii")
    at = 0
    for name, size in present:   # a field's closing quote opens the next one
        text[name] = joined[at:at + size + 2]
        at += size + 1
    cells = _index_cells(len(t.alice_bits))   # a protocol run's indices point into the qubits sent
    for name in _INDEX_FIELDS:
        text[name] = _index_list(getattr(t, name), cells)
    return _TRANSCRIPT_TEMPLATE % text


def write_transcripts(transcripts: Iterable[ProtocolTranscript], fh: TextIO) -> None:
    """Write dump_json([transcript_to_json(t) for t in transcripts]) and a newline to fh,
    one transcript at a time, so a lazy iterable is written as it is produced."""
    sep = "[\n  "
    for t in transcripts:
        fh.write(_transcript_text(t, sep))
        sep = ",\n  "
    fh.write("[]\n" if sep == "[\n  " else "\n]\n")


def dump_json(obj) -> str:
    """JSON text of obj: json.dumps(obj, indent=2, sort_keys=True)."""
    return json.dumps(obj, indent=2, sort_keys=True)
