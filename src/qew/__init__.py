"""qew — verification of entangled states known only up to local phase noise.

The package verifies entanglement of states that are "unknown" in a precise
sense: the verifier knows the state belongs to a family of blind-channel
images of a parameterized pure state (EPR-type pairs, GHZ-type states,
W-type states, qudit analogues, cluster states from networks) but not the
mixture weights or phases.  Detection is done with nonlinear witnesses on
subspace matrix elements, correlation batteries of Pauli (or clock/shift)
expectation values, and a statistical interactive-proof simulator.  An
independent brute-force oracle (random separable/biseparable sampling,
witness maximization, partial-transpose tests) validates every bound.

Layout:

- :mod:`qew.qmat`      dense complex-matrix kernel (states, observables,
  measurement)
- :mod:`qew.states`    state families, blind phase channels, white-noise
  mixing, subspace element extraction
- :mod:`qew.witnesses` nonlinear inequalities, correlation batteries,
  noise thresholds, Svetlichny evaluation
- :mod:`qew.networks`  network sources, controlled-phase gates, cluster
  generation, LOCC reductions (GHZ -> pair, entanglement swapping)
- :mod:`qew.zkp`       interactive entanglement-proof simulation and
  transcript verification
- :mod:`qew.oracle`    separable/biseparable samplers, witness
  maximization, PPT checks
- :mod:`qew.cli`       command-line front end (``qew``)
"""

from __future__ import annotations

from .networks import (
    NetworkSpec,
    connectivity_check,
    generate_cluster,
    parse_network_spec,
    reduce_ghz_to_epr,
    source_batteries,
    swap_branches,
)
from .oracle import (
    SamplerConfig,
    bisect_threshold,
    maximize_witness,
    ppt_check,
    sample_biseparable,
    sample_separable,
)
from .qmat import DensityMatrix, Observable, expectation, obs, tensor_product
from .states import (
    BlindChannel,
    StateSpec,
    apply_blind_channel,
    build_state,
    epr_state,
    ghz_state,
    parse_state_spec,
    qudit_ghz_state,
    subspace_elements,
    w_state,
    werner_mix,
)
from .witnesses import (
    battery_epr,
    battery_ghz,
    battery_qudit_2,
    battery_qudit_n,
    battery_w,
    classical_assignment_search,
    critical_visibility,
    evaluate_battery,
    noise_witness,
    svetlichny_value,
    witness_epr,
    witness_ghz,
    witness_qudit,
    witness_w,
)
from .zkp import (
    FixedOutcomesStrategy,
    HonestStrategy,
    SeparableDiagStrategy,
    Transcript,
    leakage_view,
    run_protocol,
    verify_transcript,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "Observable",
    "BlindChannel",
    "StateSpec",
    "NetworkSpec",
    "SamplerConfig",
    "Transcript",
    "HonestStrategy",
    "SeparableDiagStrategy",
    "FixedOutcomesStrategy",
    "expectation",
    "obs",
    "tensor_product",
    "apply_blind_channel",
    "build_state",
    "parse_state_spec",
    "epr_state",
    "ghz_state",
    "w_state",
    "qudit_ghz_state",
    "subspace_elements",
    "werner_mix",
    "witness_epr",
    "witness_ghz",
    "witness_w",
    "witness_qudit",
    "noise_witness",
    "svetlichny_value",
    "battery_epr",
    "battery_ghz",
    "battery_w",
    "battery_qudit_2",
    "battery_qudit_n",
    "critical_visibility",
    "evaluate_battery",
    "classical_assignment_search",
    "parse_network_spec",
    "generate_cluster",
    "source_batteries",
    "connectivity_check",
    "reduce_ghz_to_epr",
    "swap_branches",
    "sample_separable",
    "sample_biseparable",
    "maximize_witness",
    "ppt_check",
    "bisect_threshold",
    "run_protocol",
    "verify_transcript",
    "leakage_view",
    "__version__",
]
