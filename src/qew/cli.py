"""Command-line front end: witness runs, visibility scans, protocol
simulation, network checks, and sampling campaigns against the bounds.

Exit codes are strict: 0 for a completed run (whatever the verdict says),
1 when a sampling campaign finds a bound violation, 2 for input errors.
Verdicts live in the report body so pipelines can tell "ran and said
not-witnessed" from "failed to run".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .networks import (
    connectivity_check,
    generate_cluster,
    parse_network_spec,
    source_batteries,
)
from .oracle import SamplerConfig, _sample_block, block_length, maximize_witness
from .states import (
    _integer,
    _list,
    _positive,
    _real,
    apply_blind_channel,
    build_state,
    channel_from_dict,
    parse_state_spec,
    spec_to_dict,
    werner_mix,
)
from .witnesses import (
    EPS_EQ,
    EPS_NZ,
    FAMILY_NAMES,
    BatteryReport,
    Exact,
    WitnessReport,
    critical_visibility,
    evaluate_battery,
    witness_family,
)
from .zkp import (
    FixedOutcomesStrategy,
    HonestStrategy,
    SeparableDiagStrategy,
    leakage_view,
    run_protocol,
    verify_transcript,
    write_transcript,
)

__all__ = ["main", "build_parser"]

ORACLE_SLACK = 1e-9
# Seeds are read as unsigned 64-bit integers: the random source folds any
# other integer into that range, so two different seeds could name one stream.
MAX_SEED = 2**64 - 1
# Rows one scan-visibility run may print: 10^6 rows are about 72 MB of CSV.
MAX_SCAN_ROWS = 10**6


class InputError(ValueError):
    """Bad file, malformed JSON, or out-of-range argument (exit code 2)."""


def _seed(text: str) -> int:
    """An argparse type: a seed in 0..2^64-1."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in 0..{MAX_SEED} (2^64 - 1), got {text!r}"
        )
    return seed


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = _out_path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
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
    family = spec.family() if args.family == "auto" else args.family
    if args.noise is not None:
        rho = werner_mix(rho, args.noise)
    fam = witness_family(family)
    wrep = fam.witness(rho, eps_eq=args.tol_eq)
    brep = evaluate_battery(rho, fam.battery(rho.sites), eps_eq=args.tol_eq, eps_nz=args.tol_nz)
    report = {
        "family": family,
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
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count > MAX_SCAN_ROWS:
        raise InputError(f"row budget exceeded: {count} rows exceed {MAX_SCAN_ROWS}")
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
    kind = data.get("kind")
    if kind == "honest":
        channel = data.get("channel")
        return HonestStrategy(
            state=parse_state_spec(data["state"]),
            channel=channel_from_dict(channel) if channel is not None else None,
            visibility=_real("noise", data.get("noise", 1.0)),
        )
    if kind == "separable_diag":
        return SeparableDiagStrategy(p0=_real("p0", data.get("p0", 0.5)))
    if kind == "fixed_outcomes":
        outcomes = tuple(_integer("outcomes", x) for x in _list("outcomes", data["outcomes"]))
        if len(outcomes) != 2:
            raise InputError("fixed_outcomes needs two entries (a for k=0, a for k=1)")
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
    try:
        strategy = _parse_strategy(_load_json(args.strategy))
    except KeyError as exc:
        raise InputError(f"strategy spec missing entry: {exc}") from None
    transcript = run_protocol(strategy, args.n, args.seed, workers=args.workers)
    tpath = _out_path(args.transcript)
    tpath.parent.mkdir(parents=True, exist_ok=True)
    write_transcript(transcript, tpath)
    verdict = verify_transcript(transcript, z=args.z)
    leak = leakage_view(transcript)
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
    rho = generate_cluster(spec, channel)
    reports = [
        evaluate_battery(rho, b, eps_eq=args.tol_eq, eps_nz=args.tol_nz)
        for b in source_batteries(spec)
    ]
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
    fam = witness_family(kind)
    sites = fam.sites(args.n, args.d)
    cfg = SamplerConfig(sites=sites, terms=args.terms, seed=args.seed)
    t0 = time.perf_counter()
    max_lhs, argmax_index, first_violation = -np.inf, None, None
    violations = 0
    step = block_length(cfg)
    for start in range(0, args.samples, step):
        indices = np.arange(start, min(start + step, args.samples), dtype=np.uint64)
        lhs = fam.lhs(_sample_block(fam.sampler, cfg, indices), sites)
        at = int(np.argmax(lhs))  # the lowest index on ties
        if lhs[at] > max_lhs:
            max_lhs, argmax_index = lhs[at], start + at
        over = np.flatnonzero(lhs > fam.bound + ORACLE_SLACK)
        violations += over.size
        if first_violation is None and over.size:
            first_violation = start + int(over[0])
    search_max, _ = maximize_witness(kind, cfg, args.iters)
    if search_max > fam.bound + ORACLE_SLACK:
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
    w.add_argument("--family", choices=("auto", *FAMILY_NAMES), default="auto",
                   help="witness family (default: the one the state's kind names)")
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
    z.add_argument("--z", type=float, default=5.0, help="z-test threshold")
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
