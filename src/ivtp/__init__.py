"""Trust-point vehicle network: identity, ledger, consensus, simulation.

A deterministic simulator for a vehicle-to-vehicle trust protocol:
dealer-issued cryptographic identities, a hash-linked transaction
ledger, majority endorsement by provably active vehicles, and an
intersection-arbitration use case with trust-point rewards.
"""

from . import arbitration, cli, consensus, identity, ledger, netsim, scenario, sim, vehicle
from .arbitration import (
    REWARD_MILLI_TRUST,
    IntersectionSession,
    Phase,
    Schedule,
    compute_order,
    elect_scheduler,
)
from .consensus import (
    ConsensusConfig,
    Endorsement,
    active_vehicles,
    pod_check,
    quorum_threshold,
    try_commit,
)
from .identity import DealerAuthority, Issuance, KeyPair, ivtp_id_from, keygen
from .ledger import (
    ArbitrationTx,
    Block,
    Chain,
    CommTx,
    RegisterTx,
    RewardTx,
    Transaction,
    load_chain,
    merkle_root,
    save_chain,
    validate_chain,
)
from .netsim import Network, NetworkConfig, Rng
from .scenario import ScenarioConfig, load_scenario, scenario_from_dict
from .sim import LedgerHost, build_report, run
from .vehicle import Frame, Vehicle

__version__ = "0.1.0"
