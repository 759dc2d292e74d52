"""Command-line front end.

Subcommands: entropy, qinfo, codes, compress, capacity, qkd.  Every stochastic
command requires an explicit --seed and is bit-for-bit reproducible.  Exit
codes: 0 on success (protocol aborts are data, not failures); every bad input
exits 2 with one ``error:`` line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import _check, bb84, capacity, codes, entropy, formats, qentropy, typical
from .states import DensityMatrix


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:   # json's own depth limit; a bad input like any other
        raise ValueError("JSON input is nested too deeply") from None


def _read_json(path: str):
    with open(path) as fh:
        return _parse_json(fh.read())


def _read_code(path: str) -> codes.LinearCode:
    with open(path) as fh:
        return formats.code_from_text(fh.read())


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(args, result: dict, row: dict | None = None) -> int:
    """Write result as JSON, or row (default: result) as a CSV header and one line."""
    if args.format == "json":
        _emit([formats.dump_json(result)], args.out)
    else:
        row = result if row is None else row
        _emit([",".join(row), formats.csv_row(row.values())], args.out)
    return 0


def cmd_entropy(args) -> int:
    raw = _parse_json(args.inline) if args.dist is None else _read_json(args.dist)
    p = formats.dist_from_json(raw)
    result = {"shannon_entropy": entropy.shannon_entropy(p)}
    if args.relative:
        q = formats.dist_from_json(_read_json(args.relative))
        result["relative_entropy"] = entropy.relative_entropy(p, q)
    return _emit_result(args, result)


def cmd_qinfo(args) -> int:
    rho = DensityMatrix(formats.matrix_from_json(_read_json(args.density)))
    result = {"von_neumann_entropy": qentropy.von_neumann_entropy(rho)}
    if args.fidelity_with:
        sigma = DensityMatrix(formats.matrix_from_json(_read_json(args.fidelity_with)))
        result["fidelity"] = qentropy.fidelity(rho, sigma)
    return _emit_result(args, result)


def cmd_codes(args) -> int:
    code = _read_code(args.code)
    report = codes.code_bounds(code)
    return _emit_result(args, {
        "n": report.n, "k": report.k, "d": report.distance, "t": report.t,
        "singleton_ok": report.singleton_ok, "gv_rate": report.gv_rate,
        "meets_gv_rate": report.meets_gv_rate,
        "weakly_self_dual": codes.is_weakly_self_dual(code),
    })


def cmd_compress(args) -> int:
    probs = tuple(formats.dist_from_json(_parse_json(args.probs)).tolist())
    blocks = [int(x) for x in args.blocks.split(",")]
    if args.quantum:
        header = "n,epsilon,rank,typical_mass,fidelity"
        rows = typical.schumacher_sweep(np.diag(np.array(probs, dtype=complex)), blocks, args.eps)
    else:
        header = "n,epsilon,set_size,typical_mass,reliability"
        rows = typical.shannon_sweep(probs, blocks, args.eps, args.rate)
    _emit([header] + [formats.csv_row([n, args.eps, *row]) for n, row in zip(blocks, rows)],
          args.out)
    return 0


def cmd_capacity(args) -> int:
    t = formats.channel_from_json(_read_json(args.channel))
    cap, px = capacity.channel_capacity(t, tol=args.tol)
    return _emit_result(args, {"capacity": cap, "input": [float(x) for x in px]},
                        {"capacity": cap, **{f"p{i}": x for i, x in enumerate(px)}})


def _css_from_config(obj) -> codes.CssCode:
    if obj == "steane":
        return codes.steane_css()
    if isinstance(obj, dict) and all(isinstance(obj.get(k), str) for k in ("c1", "c2")):
        return codes.css_construct(_read_code(obj["c1"]), _read_code(obj["c2"]))
    raise ValueError("code must be 'steane' or {'c1': path, 'c2': path}")


def cmd_qkd(args) -> int:
    _check.integer(args.trials, "--trials", 1)
    conf = _read_json(args.config)
    if not isinstance(conf, dict) or not isinstance(conf.get("channel"), dict):
        raise ValueError("qkd config must be a JSON object whose channel is an object")
    css = _css_from_config(conf.get("code", "steane"))
    n, delta, param = conf["n"], conf.get("delta", 1.0), conf["channel"].get("param", 0.0)
    # JSON numbers only (no bool, str, null, or json's non-standard NaN and Infinity)
    if not all(type(v) is int or type(v) is float and math.isfinite(v)
               for v in (n, conf.get("threshold", 0), delta, param)):
        raise ValueError("qkd config n, threshold, delta and param must be numbers: "
                         "integers n and threshold, finite delta and param")
    # no default threshold for an n beyond a float, which ProtocolConfig rejects by name
    threshold = conf.get("threshold", round(0.11 * n) if n <= sys.float_info.max else 0)
    cfg = bb84.ProtocolConfig(n=n, delta=delta, threshold=threshold, code=css,
                              master_seed=args.seed)
    ch = bb84.ChannelModel(conf["channel"]["kind"], param)
    header = ["trial,aborted,sifted_count,qber,key_len,keys_match"]
    qbers, totals = [], collections.Counter()
    with contextlib.ExitStack() as files:   # both outputs open before the first trial runs
        out = files.enter_context(open(args.out, "w")) if args.out else sys.stdout
        dump = files.enter_context(open(args.transcripts, "w")) if args.transcripts else None

        def trials():   # one chunk at a time: its CSV rows, then its transcripts
            for chunk in bb84.run_chunks(cfg, ch, args.trials):
                rows = formats.batch_summary_rows(chunk, totals["trials"])
                out.write("\n".join(rows if totals["trials"] else header + rows) + "\n")
                totals.update(trials=len(chunk), aborts=sum(t.aborted for t in chunk),
                              matches=sum(t.keys_match for t in chunk))
                qbers.extend(t.qber_estimate for t in chunk if not np.isnan(t.qber_estimate))
                yield from chunk

        if dump:
            formats.write_transcripts(trials(), dump)
        else:
            collections.deque(trials(), maxlen=0)
        survivors = totals["trials"] - totals["aborts"]
        out.write(formats.csv_row(["aggregate", totals["aborts"] / totals["trials"],
                                   float(np.mean(qbers)) if qbers else "",
                                   totals["matches"] / survivors if survivors else 0.0]) + "\n")
    return 0


@functools.cache   # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qinfo",
                                 description="information measures, coding and BB84 simulation")
    sub = ap.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("entropy", parents=[table], help="Shannon entropy of a distribution")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", help="JSON file holding a probability vector")
    source.add_argument("--inline", help="inline JSON probability vector")
    p.add_argument("--relative", help="JSON file with a second distribution for H(p||q)")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("qinfo", parents=[table], help="von Neumann entropy of a density matrix")
    p.add_argument("--density", required=True, help="JSON matrix {dim, re, im}")
    p.add_argument("--fidelity-with", dest="fidelity_with")
    p.set_defaults(func=cmd_qinfo)

    p = sub.add_parser("codes", parents=[table],
                       help="validate a linear code file and report bounds")
    p.add_argument("--code", required=True, help="text code file")
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("compress", parents=[out], help="typical-set compression sweep")
    p.add_argument("--probs", required=True, help="inline JSON symbol distribution")
    p.add_argument("--blocks", required=True, help="comma-separated block lengths")
    p.add_argument("--eps", type=float, required=True)
    scheme = p.add_mutually_exclusive_group()
    scheme.add_argument("--rate", type=float, default=1.0)
    scheme.add_argument("--quantum", action="store_true",
                        help="sweep the quantum scheme of the diagonal source instead")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("capacity", parents=[table], help="capacity of a discrete channel")
    p.add_argument("--channel", required=True, help="JSON file {rows: [[...]]}")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("qkd", parents=[out], help="batch BB84 simulation")
    p.add_argument("--config", required=True, help="JSON protocol configuration")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--transcripts", help="optional path for full JSON transcripts")
    p.set_defaults(func=cmd_qkd)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:   # a JSON object lacks a required field
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError, MemoryError, capacity.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
