"""Command-line front end: witness runs, visibility scans, protocol
simulation, network checks, and sampling campaigns against the bounds.

Exit codes are strict: 0 for a completed run (whatever the verdict says),
1 when a sampling campaign finds a bound violation, 2 for input errors, 3
when the report cannot be written to stdout.
Verdicts live in the report body so pipelines can tell "ran and said
not-witnessed" from "failed to run".
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .networks import connectivity_check, parse_network_spec, source_reports
from .oracle import (
    _WITNESS_SET,
    MAX_ITERS,
    SamplerConfig,
    _sample_block,
    block_length,
    maximize_witness,
)
from .states import (
    MAX_SEED,
    _entry,
    _integer,
    _list,
    _positive,
    _real,
    _seed as _read_seed,
    apply_blind_channel,
    build_state,
    channel_from_dict,
    family_sites,
    parse_state_spec,
    spec_to_dict,
    werner_mix,
)
from .witnesses import (
    EPS_EQ,
    EPS_NZ,
    FAMILY_NAMES,
    LEAKAGE_TOL,
    NOT_WITNESSED,
    BatteryReport,
    Exact,
    WitnessReport,
    critical_visibility,
    evaluate_battery,
    witness_family,
)
from .zkp import (
    DEFAULT_Z,
    FixedOutcomesStrategy,
    HonestStrategy,
    SeparableDiagStrategy,
    _verdict,
    leakage_view,
    run_protocol,
    write_transcript,
)

__all__ = ["main", "build_parser"]

# Rows one scan-visibility run may print: 10^6 rows are about 72 MB of CSV.
MAX_SCAN_ROWS = 10**6


class InputError(ValueError):
    """Bad file, malformed JSON, or out-of-range argument (exit code 2)."""


class StdoutError(Exception):
    """The report could not be written to stdout (exit code 3)."""


def _seed(text: str) -> int:
    """An argparse type: a seed in 0..2^64-1, the range the library reads."""
    try:
        return _read_seed("seed", int(text))
    except ValueError:
        message = f"seed must be an integer in 0..{MAX_SEED} (2^64 - 1), got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return data


def _out_path(name: str) -> Path:
    """Resolve a relative output path against QEW_OUT_DIR when it is set."""
    path = Path(name)
    base = os.environ.get("QEW_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


@contextlib.contextmanager
def _writing(path: Path):
    """Make the parent directory of ``path`` for the write in the body; an
    OSError of either is an input error naming the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise StdoutError(str(exc)) from None
    else:
        path = _out_path(out)
        with _writing(path):
            path.write_text(text, encoding="utf-8")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _fmt12(x: float) -> str:
    return f"{x:.11e}"


def _witness_dict(rep: WitnessReport) -> dict:
    out = {
        "lhs": rep.lhs,
        "bound": rep.bound,
        "margin": rep.margin,
        "verdict": rep.verdict,
        "leakage": rep.leakage,
        "elements": {
            "basis": list(rep.elements.basis),
            "populations": {str(i): p for i, p in rep.elements.populations.items()},
            "coherences": {
                f"{a},{b}": _pair(c) for (a, b), c in rep.elements.coherences.items()
            },
        },
    }
    if rep.alt_bound is not None:
        out["alt_bound"] = rep.alt_bound
    if rep.verdict == NOT_WITNESSED and rep.leakage > LEAKAGE_TOL:
        # the bound holds with or without leakage, so only this reading needs a caveat
        out["inconclusive"] = (
            f"leakage {rep.leakage:.3e} exceeds {LEAKAGE_TOL:.1e}: population outside the "
            "family subspace can hide entanglement, so not-witnessed does not mean separable"
        )
    return out


def _battery_dict(rep: BatteryReport) -> dict:
    items = []
    for r in rep.items:
        entry = {
            "label": r.label,
            "contract": type(r.contract).__name__,
            "value": _pair(r.value),
            "magnitude": r.magnitude,
            "passed": r.passed,
        }
        if isinstance(r.contract, Exact):
            entry["target"] = _pair(r.contract.value)
        if r.companion_value is not None:
            entry["companion_value"] = _pair(r.companion_value)
        items.append(entry)
    return {"passed": rep.passed, "items": items}


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _check_tolerances(args: argparse.Namespace) -> None:
    _positive("--tol-eq", args.tol_eq)
    _positive("--tol-nz", args.tol_nz)


def cmd_witness(args: argparse.Namespace) -> int:
    _check_tolerances(args)
    spec = parse_state_spec(_load_json(args.state))
    rho = build_state(spec)
    if args.channel:
        rho = apply_blind_channel(rho, channel_from_dict(_load_json(args.channel)))
    if args.noise is not None:
        rho = werner_mix(rho, args.noise)
    fam = witness_family(spec.family())
    wrep = fam.witness(rho, eps_eq=args.tol_eq)
    brep = evaluate_battery(rho, fam.battery(rho.sites), eps_eq=args.tol_eq, eps_nz=args.tol_nz)
    report = {
        "family": fam.name,
        "state": spec_to_dict(spec),
        "witness": _witness_dict(wrep),
        "battery": _battery_dict(brep),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# scan-visibility
# ---------------------------------------------------------------------------


def cmd_scan_visibility(args: argparse.Namespace) -> int:
    start, stop, step = args.start, args.stop, _positive("--step", args.step)
    if not (0.0 <= start <= stop <= 0.5 + 1e-12):
        raise InputError(
            f"offdiag range must lie within [0, 1/2], got start={start} stop={stop}"
        )
    # compared as a float: a tiny step makes the row count overflow an int
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_SCAN_ROWS:
        raise InputError(f"row budget exceeded: --step {step} gives over {MAX_SCAN_ROWS} rows")
    count = int(count)
    values = np.minimum(start + step * np.arange(count), 0.5)
    lines = ["offdiag,v_witness,v_chsh,v_svetlichny3"]
    for c in values:
        c = float(c)
        lines.append(
            ",".join(
                _fmt12(x)
                for x in (
                    c,
                    critical_visibility(c, "witness"),
                    critical_visibility(c, "chsh"),
                    critical_visibility(c, "svetlichny_3"),
                )
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# zkp
# ---------------------------------------------------------------------------


def _as_complex(x) -> complex:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise InputError(f"complex entries are [re, im] pairs, got {x!r}")
        return complex(_real("verifier_qubit", x[0]), _real("verifier_qubit", x[1]))
    return complex(_real("verifier_qubit", x))


def _parse_strategy(data: Mapping) -> HonestStrategy | SeparableDiagStrategy | FixedOutcomesStrategy:
    kind = _entry("strategy spec", data, "kind")
    if kind == "honest":
        channel = data.get("channel")
        return HonestStrategy(
            state=parse_state_spec(_entry("strategy spec", data, "state")),
            channel=channel_from_dict(channel) if channel is not None else None,
            visibility=_real("noise", data.get("noise", 1.0)),
        )
    if kind == "separable_diag":
        return SeparableDiagStrategy(p0=_real("p0", data.get("p0", 0.5)))
    if kind == "fixed_outcomes":
        raw = _list("outcomes", _entry("strategy spec", data, "outcomes"))
        outcomes = tuple(_integer("outcomes", x) for x in raw)
        vq = data.get("verifier_qubit")
        if vq is not None:
            vq = tuple(
                tuple(_as_complex(x) for x in _list("verifier_qubit", row))
                for row in _list("verifier_qubit", vq)
            )
        return FixedOutcomesStrategy(outcomes=outcomes, verifier_qubit=vq)
    raise InputError(f"unknown strategy kind {kind!r}")


def _cells_dict(cells) -> dict:
    """Per-cell statistics; a z-score of +/-inf (a nonzero deviation over a
    zero standard error) is written as null."""
    return {
        name: {
            "count": c.count,
            "estimate": c.estimate,
            "std_error": c.std_error,
            "z": c.z if math.isfinite(c.z) else None,
        }
        for name, c in cells.items()
    }


def cmd_zkp(args: argparse.Namespace) -> int:
    _positive("--z", args.z)
    strategy = _parse_strategy(_load_json(args.strategy))
    transcript = run_protocol(strategy, args.n, args.seed, workers=args.workers)
    tpath = _out_path(args.transcript)
    with _writing(tpath):
        write_transcript(transcript, tpath)
    leak = leakage_view(transcript)
    verdict = _verdict(leak.cells, args.z)
    report = {
        "accepted": verdict.accepted,
        "failed": list(verdict.failed),
        "z_threshold": verdict.z_threshold,
        "n_rounds": transcript.n_rounds,
        "seed": transcript.seed,
        "cells": _cells_dict(verdict.cells),
        "leakage_view": {
            "populations": list(leak.populations),
            "re_offdiag": leak.re_offdiag,
            "im_offdiag_bound": leak.im_offdiag_bound,
        },
        "transcript": str(tpath),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def cmd_network(args: argparse.Namespace) -> int:
    _check_tolerances(args)
    spec = parse_network_spec(_load_json(args.spec))
    channel = channel_from_dict(_load_json(args.channel)) if args.channel else None
    reports = source_reports(spec, channel, eps_eq=args.tol_eq, eps_nz=args.tol_nz)
    connected, components = connectivity_check(spec)
    report = {
        "parties": list(spec.parties),
        "connected": connected,
        "components": components,
        "all_passed": all(r.passed for r in reports),
        "sources": [
            {
                "index": i,
                "kind": src.state.kind,
                "owners": list(src.owners),
                "battery": _battery_dict(rep),
            }
            for i, (src, rep) in enumerate(zip(spec.sources, reports))
        ],
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    kind = args.witness
    if args.samples < 1:
        raise InputError(f"need at least one sample, got {args.samples}")
    if args.iters < 1:
        raise InputError("iters must be >= 1")
    if args.iters > MAX_ITERS:
        raise InputError(f"search budget exceeded: --iters {args.iters} exceeds {MAX_ITERS}")
    fam = witness_family(kind)
    sites = family_sites(kind, args.n, args.d)
    cfg = SamplerConfig(sites=sites, terms=args.terms, seed=args.seed)
    t0 = time.perf_counter()
    max_lhs, argmax_index, first_violation = -np.inf, None, None
    violations = 0
    step = block_length(cfg)
    for start in range(0, args.samples, step):
        indices = np.arange(start, min(start + step, args.samples), dtype=np.uint64)
        lhs = fam.lhs(_sample_block(_WITNESS_SET[kind], cfg, indices), sites)
        at = int(np.argmax(lhs))  # the lowest index on ties
        if lhs[at] > max_lhs:
            max_lhs, argmax_index = lhs[at], start + at
        # a crossing as the witness report reads one: lhs > bound + EPS_EQ
        over = np.flatnonzero(lhs > fam.bound + EPS_EQ)
        violations += over.size
        if first_violation is None and over.size:
            first_violation = start + int(over[0])
    search_max, _ = maximize_witness(kind, cfg, args.iters)
    if search_max > fam.bound + EPS_EQ:
        violations += 1
    report = {
        "witness": kind,
        "sites": list(sites),
        "terms": args.terms,
        "seed": args.seed,
        "samples": args.samples,
        "bound": fam.bound,
        "max_lhs": float(max_lhs),
        "argmax_index": argmax_index,
        "search_max": float(search_max),
        "violations": violations,
        "first_violation": first_violation,
        "runtime_s": time.perf_counter() - t0,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_tolerances(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-eq", type=float, default=EPS_EQ, metavar="E",
                   help="equality/zero tolerance (default %(default)s)")
    p.add_argument("--tol-nz", type=float, default=EPS_NZ, metavar="E",
                   help="nonzero threshold (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qew",
        description="Entanglement witnesses, paradox batteries, and protocol tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("witness", help="run a family witness and its battery on a state")
    w.add_argument("state", help="state JSON file")
    w.add_argument("--channel", metavar="PATH", help="blind-channel JSON file")
    w.add_argument("--noise", type=float, metavar="V",
                   help="mix in white noise at visibility V in [0, 1]")
    _add_tolerances(w)
    w.add_argument("--out", metavar="PATH", help="write the JSON report here")
    w.set_defaults(func=cmd_witness)

    s = sub.add_parser("scan-visibility",
                       help="CSV of critical visibilities over an off-diagonal range")
    s.add_argument("--start", type=float, default=0.0)
    s.add_argument("--stop", type=float, default=0.5)
    s.add_argument("--step", type=float, default=0.05)
    s.add_argument("--out", metavar="PATH", help="write the CSV here")
    s.set_defaults(func=cmd_scan_visibility)

    z = sub.add_parser("zkp", help="simulate the interactive proof and verify it")
    z.add_argument("strategy", help="prover strategy JSON file")
    z.add_argument("--n", type=int, default=10000, help="number of rounds")
    z.add_argument("--seed", type=_seed, required=True, help="protocol randomness seed, 0..2^64-1")
    z.add_argument("--z", type=float, default=DEFAULT_Z, help="z-test threshold")
    z.add_argument("--workers", type=int, default=1)
    z.add_argument("--transcript", metavar="PATH", default="zkp_transcript.txt",
                   help="transcript output file (default %(default)s)")
    z.add_argument("--out", metavar="PATH", help="write the verdict JSON here")
    z.set_defaults(func=cmd_zkp)

    n = sub.add_parser("network", help="build a cluster network and check every source")
    n.add_argument("spec", help="network JSON file")
    n.add_argument("--channel", metavar="PATH", help="blind-channel JSON file")
    _add_tolerances(n)
    n.add_argument("--out", metavar="PATH", help="write the JSON report here")
    n.set_defaults(func=cmd_network)

    o = sub.add_parser("oracle",
                       help="sample (bi)separable states against a witness bound")
    o.add_argument("--witness", choices=FAMILY_NAMES, required=True)
    o.add_argument("--samples", type=int, default=10000)
    o.add_argument("--seed", type=_seed, required=True, help="sampler seed, 0..2^64-1")
    o.add_argument("--n", type=int, help="site count (ghz/qudit)")
    o.add_argument("--d", type=int, help="local dimension (qudit)")
    o.add_argument("--terms", type=int, default=4, help="mixture terms per sample")
    o.add_argument("--iters", type=int, default=200,
                   help="random starts for the maximizing search")
    o.add_argument("--out", metavar="PATH", help="write the JSON summary here")
    o.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every call with, built on the first call of
    the process rather than at import.  Its ``set_defaults(func=cmd_*)``
    binds each subcommand's function when it is built, so rebinding a
    ``cmd_*`` name later does not reach ``main``."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StdoutError as exc:
        print(f"error: cannot write the report to stdout: {exc}", file=sys.stderr)
        # point stdout at the null device, so the flush at exit has nowhere to fail
        with contextlib.suppress(OSError):  # a stdout without a descriptor
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 3


if __name__ == "__main__":
    sys.exit(main())
