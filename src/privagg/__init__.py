"""Privacy-preserving data aggregation for sensor networks.

A library plus CLI simulating a server-orchestrated masked-chain secure sum
over randomly pre-distributed, per-node-permuted key banks, with adversary
analyses (semi-honest observation, neighbor collusion, malicious-server
probing, link compromise), disclosure-probability curves, and a
polynomial-shares cluster kernel as a computational baseline.
"""

from .simnet import ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = ["ScenarioConfig", "run_scenario"]
