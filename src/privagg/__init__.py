"""Privacy-preserving data aggregation for sensor networks.

A library plus CLI simulating a server-orchestrated masked-chain secure sum
over randomly pre-distributed, per-node-permuted key banks, with adversary
analyses (semi-honest observation, neighbor collusion, malicious-server
probing, link compromise), disclosure-probability curves, and a
polynomial-shares cluster kernel as a computational baseline.
"""

from .adversary import (
    AttackNotApplicableError,
    AttackOutcome,
    empirical_disclosure_rate,
    observed_masked_values,
    probe_all_initiators,
    run_collusion_attack,
    run_link_compromise,
    run_server_probe,
    semi_honest_view,
)
from .analysis import (
    CurvePoint,
    DisclosureModel,
    chain_disclosure_probability,
    curve_csv,
    disclosure_probability,
    probability_grid,
    sweep_curve,
)
from .cpda import (
    BenchResult,
    Cluster,
    OpCounter,
    assemble_cluster_sum,
    bench_csv,
    benchmark_kernel,
    cluster_round,
    compute_shares,
    next_prime,
    share_row,
)
from .keying import (
    SERVER,
    KeyBank,
    KeyBankConfig,
    KeyDirectory,
    Permutation,
    SessionKey,
    SourceKeyring,
    pairwise_key_value,
)
from .masking import chain_add, collusion_recover, mask_initial, unmask
from .protocol import (
    Message,
    MessageKind,
    RoundOutcome,
    RoundResult,
    RoundRunner,
    node_label,
)
from .simnet import (
    ConfigError,
    Network,
    NoLinkError,
    ScenarioConfig,
    Topology,
    TraceEvent,
    Transcript,
    generate_topology,
    run_scenario,
    scenario_values,
)

__version__ = "0.1.0"

__all__ = [
    "AttackNotApplicableError",
    "AttackOutcome",
    "BenchResult",
    "Cluster",
    "ConfigError",
    "CurvePoint",
    "DisclosureModel",
    "KeyBank",
    "KeyBankConfig",
    "KeyDirectory",
    "Message",
    "MessageKind",
    "Network",
    "NoLinkError",
    "OpCounter",
    "Permutation",
    "RoundOutcome",
    "RoundResult",
    "RoundRunner",
    "SERVER",
    "ScenarioConfig",
    "SessionKey",
    "SourceKeyring",
    "Topology",
    "TraceEvent",
    "Transcript",
    "assemble_cluster_sum",
    "bench_csv",
    "benchmark_kernel",
    "chain_add",
    "chain_disclosure_probability",
    "cluster_round",
    "collusion_recover",
    "compute_shares",
    "curve_csv",
    "disclosure_probability",
    "empirical_disclosure_rate",
    "generate_topology",
    "mask_initial",
    "next_prime",
    "node_label",
    "observed_masked_values",
    "pairwise_key_value",
    "probability_grid",
    "probe_all_initiators",
    "run_collusion_attack",
    "run_link_compromise",
    "run_scenario",
    "run_server_probe",
    "scenario_values",
    "semi_honest_view",
    "share_row",
    "sweep_curve",
    "unmask",
]
