"""File formats used by the command-line interface.

Matrices travel as JSON ``{"dim": d, "re": [...], "im": [...]}`` with entries
row major; distributions as plain JSON arrays; channels as
``{"rows": [[...]]}``; their readers raise ValueError on any other shape.
Linear codes use a small text format: first line "n k", then k generator
columns as n-character 0/1 strings, optionally followed by a line "H" and n-k
parity rows.  CSV output is locale free: csv_row writes str cells as given,
bools as 0/1, Python and NumPy integers as digits and every other value
through fmt, with 12 significant digits.  JSON output (dump_json) is
byte-identical to json.dumps(obj, indent=2, sort_keys=True); strings go
through json's own C escaper.  write_transcripts(transcripts, fh) writes
exactly dump_json([transcript_to_json(t) for t in transcripts]) plus a
newline, but builds each transcript's text straight from its arrays and
takes the transcripts one at a time, so a stream of them is never held
whole; transcript_to_json and dump_json stay as its reference.
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


# transcript_to_json's keys in sorted order, with how the writer prints each value
_TRANSCRIPT_KEYS = tuple(sorted(f.name for f in dataclasses.fields(ProtocolTranscript)))
_INDEX_FIELDS = {"check_indices", "keep_indices"}
_SCALAR_FIELDS = {"abort_reason", "aborted", "config_seed", "disagreements", "qber_estimate"}


@functools.lru_cache(maxsize=16)
def _decimals(size: int) -> list[str]:
    """int.__repr__ of 0 .. size-1, looked up instead of formatted per index."""
    return [str(i) for i in range(size)]


def _transcript_text(t: ProtocolTranscript) -> str:
    """_json_text(transcript_to_json(t), "\n  "): one element of the top-level list."""
    decimals = _decimals(t.alice_bits.size)   # every index points into the qubits sent
    cells = []
    for name in _TRANSCRIPT_KEYS:
        v = getattr(t, name)
        if name in _INDEX_FIELDS:
            text = ("[\n      " + ",\n      ".join(map(decimals.__getitem__, v.tolist()))
                    + "\n    ]") if v.size else "[]"
        elif name in _SCALAR_FIELDS:
            text = _json_text(None if name == "qber_estimate" and np.isnan(v) else v, "")
        else:   # bits hold only 0 and 1, which json leaves unescaped
            text = "null" if v is None else f'"{bits_to_str(v)}"'
        cells.append(f'"{name}": {text}')
    return "{\n    " + ",\n    ".join(cells) + "\n  }"


def write_transcripts(transcripts: Iterable[ProtocolTranscript], fh: TextIO) -> None:
    """Write dump_json([transcript_to_json(t) for t in transcripts]) and a newline to fh,
    one transcript at a time, so a lazy iterable is written as it is produced."""
    sep = "[\n  "
    for t in transcripts:
        fh.write(sep + _transcript_text(t))
        sep = ",\n  "
    fh.write("[]\n" if sep == "[\n  " else "\n]\n")


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str) -> str:
    """obj as json.dumps(indent=2, sort_keys=True) writes it; pad is the line
    break and indent before obj's closing bracket.

    Types are tested in json's own order, so bool is not an int, float
    subclasses print through float.__repr__ and tuples are lists.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_json_text(x, inner) for x in obj])
        return f"[{inner}{body}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([f"{_encode_str(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)])
        return f"{{{inner}{body}{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj, path=None) -> str:
    """JSON text of obj, byte for byte json.dumps(obj, indent=2, sort_keys=True).

    Dict keys must be str (a non-str key raises TypeError).  With a path the
    file gets the text plus a trailing newline.
    """
    text = _json_text(obj, "\n")
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
