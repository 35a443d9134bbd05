"""The benchmark's workloads: inputs made from a seed, timed operations, and
a correctness check on every operation's output.

Operation ``i`` belongs to class ``i % classes`` (a sample shape, or proof
and audit; the other workloads have one class); all operations of one class
do the same work, so the median of a class means one thing.  ``prepare``
makes the inputs and warms the path up; it is the timed set-up.  ``op(i)``
runs operation ``i`` and returns its output; only this call is timed.
``check(i, output)`` returns whether the output is correct.  Everything is
deterministic in ``(seed, i)``.

Every operation is short (under a second), so a run holds enough of them
for its medians to ride out swings in machine speed that last seconds.

``op`` runs ``qew.cli.main`` in-process where a subcommand exists, and
otherwise looks qew functions up on their module at call time
(``q.oracle.ppt_check``), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

# Slack on a witness bound, as in ``qew oracle``.
BOUND_SLACK = 1e-9
# Gate 02 keeps a channel image only when |rho_00;11| reaches this.
KEPT_COHERENCE = 0.05
# Mixture terms per oracle sample.
TERMS = 4
# States per ``qew oracle`` campaign: enough that the samples, not the
# one-start search the subcommand ends with, make most of an operation.
SAMPLES = 500
# Channel images per oracle-channels operation.
IMAGES = 16
# Protocol rounds per proof.  Transcript cost is linear in the rounds; at
# 10^6 a proof took 2.4 s and an audit 3.5 s, too few per run for a steady
# median on a machine whose speed swings by 2x for seconds at a time.
ROUNDS = 100_000


def _cli(q, argv: list[str]) -> tuple[int, str]:
    """Run ``qew <argv>`` in-process; return the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = q.cli.main(argv)
    return code, buf.getvalue()


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


class OracleSamples:
    """``qew oracle`` sampling campaigns: a separable (2,2) pair against the
    EPR witness, a separable (3,3) pair against the qudit witness, and
    biseparable four-qubit states against the GHZ witness, one shape per
    class.  Each campaign checks ``samples`` states against the bound.

    The subcommand always ends with a ``maximize_witness`` search; it runs
    at its minimum, one start, whose work is fixed by the shape (for ``ghz``
    the single start takes the first bipartition), so the seed does not
    change the work of an operation.
    """

    name = "oracle-samples"
    classes = 3
    nominal_op_s = 0.45
    # (witness, extra arguments, sites, bound)
    KINDS = (
        ("epr", [], [2, 2], 0.0),
        ("qudit", ["--d", "3"], [3, 3], 0.0),
        ("ghz", ["--n", "4"], [2, 2, 2, 2], 0.0),
    )

    def __init__(self, samples: int = SAMPLES) -> None:
        self.samples = samples

    def prepare(self, q, seed: int, workdir: str) -> None:
        self.q, self.seed = q, seed
        # warm up on small campaigns
        samples, self.samples = self.samples, min(self.samples, 20)
        for i in range(self.classes):
            self.check(i, self.op(i))
        self.samples = samples

    def op(self, i: int) -> tuple[int, str]:
        kind, extra, _sites, _bound = self.KINDS[i % self.classes]
        seed = self.seed * 1_000_003 + i // self.classes
        return _cli(self.q, ["oracle", "--witness", kind, *extra, "--samples", str(self.samples),
                             "--terms", str(TERMS), "--iters", "1", "--seed", str(seed)])

    def check(self, i: int, output: tuple[int, str]) -> bool:
        code, out = output
        if code != 0:
            return False
        _kind, _extra, sites, bound = self.KINDS[i % self.classes]
        report = json.loads(out)
        return (
            report["sites"] == sites
            and report["samples"] == self.samples
            and report["violations"] == 0
            and max(report["max_lhs"], report["search_max"]) <= bound + BOUND_SLACK
        )

    def named(self, medians: list[float]) -> dict:
        return {"sample_checks_per_s": (self.classes * self.samples / sum(medians), "1/s")}


class OracleChannels:
    """Blind-channel images of EPR states, witness verdict against PPT (gate
    02 style); ``qew`` has no subcommand for this check.

    An operation draws a block of ``IMAGES`` images, four with each term
    count from 1 to 4, and checks every kept one, so every operation does
    the same mix of work.  With one image per operation, the four term
    counts made four kinds of operation of different cost under one median.
    """

    name = "oracle-channels"
    classes = 1
    nominal_op_s = 0.01

    def prepare(self, q, seed: int, workdir: str) -> None:
        self.q, self.seed = q, seed
        self.check(0, self.op(0))

    def op(self, i: int) -> list[tuple[str, bool]]:
        """Draw images ``IMAGES * i`` onwards; test every kept one both ways."""
        if i == 0:
            self.drawn = self.kept = 0
        q = self.q
        thetas = np.random.default_rng((self.seed, i)).uniform(0.15, np.pi / 2 - 0.15, IMAGES)
        out = []
        for j, theta in enumerate(thetas, start=i * IMAGES):
            ch = q.oracle.random_blind_channel((2, 2), terms=1 + j % 4, seed=self.seed, index=j)
            rho = q.states.apply_blind_channel(q.states.epr_state(float(theta)), ch)
            if abs(rho.mat[0, 3]) >= KEPT_COHERENCE:
                out.append((q.witnesses.witness_epr(rho).verdict, q.oracle.ppt_check(rho).npt))
        self.drawn += IMAGES
        self.kept += len(out)
        return out

    def check(self, i: int, output: list[tuple[str, bool]]) -> bool:
        return all((verdict == "entangled") == npt for verdict, npt in output)

    def named(self, medians: list[float]) -> dict:
        return {"channel_checks_per_s": (IMAGES * self.kept / self.drawn / medians[0], "1/s")}

    def counters(self) -> dict[str, float]:
        return {"oracle.channel_images.kept_frac": self.kept / self.drawn}


def network_spec(seed: int, ghz_n: int = 4) -> tuple[dict, dict]:
    """EPR + GHZ-n + W sources over four parties, three CP gates, and a blind
    channel that dephases the GHZ source.  Angles and amplitudes come from
    the seed and stay away from the family boundaries."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.4, 1.0, 4)
    parties = ["A", "B", "C", "D"]
    spec = {
        "parties": parties,
        "sources": [
            {"state": {"kind": "epr", "theta": float(rng.uniform(0.3, 1.2))}, "owners": ["A", "B"]},
            {"state": {"kind": "ghz", "n": ghz_n, "theta": float(rng.uniform(0.3, 1.2))},
             "owners": [parties[j % 4] for j in range(ghz_n)]},
            {"state": {"kind": "w", "a": list(w / np.linalg.norm(w))}, "owners": ["B", "C", "D"]},
        ],
    }
    n = 2 + ghz_n + 3
    owners = [o for src in spec["sources"] for o in src["owners"]]
    # one gate per party A, B, C: its first qubit (EPR or GHZ) with its last one
    gates = []
    for party in "ABC":
        held = [q for q in range(1, n + 1) if owners[q - 1] == party]
        gates.append({"party": party, "theta": float(rng.uniform(0.3, 2.8)), "qubits": [held[0], held[-1]]})
    spec["cp_gates"] = gates
    # two equal terms; the second flips the phase of one GHZ qubit by pi
    flip = 3 + int(rng.integers(ghz_n))
    zero = [[0.0, 0.0] for _ in range(n)]
    flipped = [[0.0, np.pi] if q == flip else [0.0, 0.0] for q in range(1, n + 1)]
    channel = {"terms": [{"p": 0.5, "site_phases": zero}, {"p": 0.5, "site_phases": flipped}]}
    return spec, channel


class NetworkReport:
    """``qew network`` on one cluster network; per-source verdicts pinned."""

    name = "network-report"
    classes = 1
    nominal_op_s = 1.0
    # EPR passes, the dephased GHZ source fails, W passes
    EXPECTED = [True, False, True]

    def __init__(self, ghz_n: int = 4) -> None:
        self.ghz_n = ghz_n

    def prepare(self, q, seed: int, workdir: str) -> None:
        self.q = q
        spec, channel = network_spec(seed, self.ghz_n)
        self.argv = [
            "network", _write_json(os.path.join(workdir, "net.json"), spec),
            "--channel", _write_json(os.path.join(workdir, "channel.json"), channel),
        ]
        self.reference = None
        self.check(0, self.op(0))

    def op(self, i: int) -> tuple[int, str]:
        return _cli(self.q, self.argv)

    def check(self, i: int, output: tuple[int, str]) -> bool:
        code, out = output
        if code != 0:
            return False
        if self.reference is None:
            self.reference = out
        report = json.loads(out)
        passed = [src["battery"]["passed"] for src in report["sources"]]
        return out == self.reference and passed == self.EXPECTED and report["connected"]

    def named(self, medians: list[float]) -> dict:
        return {"network_report_s": (medians[0], "s")}


def honest_strategy(seed: int) -> dict:
    """Honest EPR prover behind a two-term blind channel, no white noise.

    Phases stay below 0.6 rad so the xx cell keeps a large real part.  At
    visibility < 1 the zz cell sits below +1, and the verifier rejects an
    honest prover at these round counts, so the visibility is left at 1.
    """
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.3, 0.7))
    terms = [
        {"p": w, "site_phases": [[0.0, float(rng.uniform(0, 0.6))], [0.0, float(rng.uniform(0, 0.6))]]}
        for w in (p, 1.0 - p)
    ]
    return {"kind": "honest", "state": {"kind": "epr", "theta": float(rng.uniform(0.6, 0.97))},
            "channel": {"terms": terms}}


def zkp_argv(seed: int, workdir: str) -> list[str]:
    """``qew zkp`` arguments for the seed's honest prover, less ``--n`` and
    ``--seed``; the transcript path comes last."""
    strategy = _write_json(os.path.join(workdir, "strategy.json"), honest_strategy(seed))
    return ["zkp", strategy, "--transcript", os.path.join(workdir, "transcript.txt")]


class ZkpTranscript:
    """Two classes in turn on one transcript file.  ``proof`` (even
    operations): ``qew zkp`` simulates an honest proof with a fresh protocol
    seed, writes the transcript, verifies it and reports.  ``audit`` (odd
    operations): ``read_transcript`` and ``verify_transcript`` on the file
    the proof just wrote; ``qew`` has no subcommand for this.
    """

    name = "zkp-transcript"
    classes = 2
    nominal_op_s = 0.3

    def __init__(self, rounds: int = ROUNDS) -> None:
        self.rounds = rounds

    def prepare(self, q, seed: int, workdir: str) -> None:
        self.q, self.seed = q, seed
        self.argv = zkp_argv(seed, workdir)
        self.path = self.argv[-1]
        data = honest_strategy(seed)
        self.strategy = q.zkp.HonestStrategy(
            state=q.states.parse_state_spec(data["state"]), channel=q.states.channel_from_dict(data["channel"])
        )
        self.report = None
        for i in range(self.classes):
            self.check(i, self.op(i))

    def _protocol_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i // 2

    def op(self, i: int):
        if i % 2 == 0:
            return _cli(self.q, self.argv + ["--n", str(self.rounds), "--seed", str(self._protocol_seed(i))])
        t = self.q.zkp.read_transcript(self.path)
        return t, self.q.zkp.verify_transcript(t)

    def check(self, i: int, output) -> bool:
        return self._check_proof(i, *output) if i % 2 == 0 else self._check_audit(i, *output)

    def _check_proof(self, i: int, code: int, out: str) -> bool:
        """Accepted, with the cell counts adding up to the rounds; the report
        is kept for the audit that follows."""
        self.report = json.loads(out) if code == 0 else None
        r = self.report
        return (
            r is not None
            and r["accepted"] is True
            and r["seed"] == self._protocol_seed(i)
            and r["n_rounds"] == self.rounds == sum(c["count"] for c in r["cells"].values())
        )

    def _check_audit(self, i: int, t, verdict) -> bool:
        """The transcript read back is bit-identical to the one the protocol
        produces for the proof's seed, and the verdict is the one the proof
        reported."""
        if self.report is None:
            return False
        e = self.q.zkp.run_protocol(self.strategy, self.rounds, self._protocol_seed(i))
        same = (t.seed, t.n_rounds) == (e.seed, e.n_rounds) and all(
            np.array_equal(getattr(t, f), getattr(e, f)) and getattr(t, f).dtype == getattr(e, f).dtype
            for f in ("k", "a", "s", "b")
        )
        cells = {n: [c.count, c.estimate, c.std_error] for n, c in verdict.cells.items()}
        return (
            same
            and verdict.accepted is self.report["accepted"] is True
            and cells == {n: [c["count"], c["estimate"], c["std_error"]] for n, c in self.report["cells"].items()}
        )

    def named(self, medians: list[float]) -> dict:
        return {"proof_s": (medians[0], "s"), "audit_s": (medians[1], "s")}


WORKLOADS = {w.name: w for w in (OracleSamples, OracleChannels, NetworkReport, ZkpTranscript)}
