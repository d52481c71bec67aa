"""Trust-point vehicle network: identity, ledger, consensus, simulation.

A deterministic simulator for a vehicle-to-vehicle trust protocol:
dealer-issued cryptographic identities, a hash-linked transaction
ledger, majority endorsement by provably active vehicles, and an
intersection-arbitration use case with trust-point rewards.
"""

from . import arbitration, cli, consensus, identity, ledger, netsim, scenario, sim, vehicle

__version__ = "0.1.0"
