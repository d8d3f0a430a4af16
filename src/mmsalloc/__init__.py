"""Approximate maximin-share allocation of indivisible goods.

Exact-arithmetic solvers, per-agent maximin oracles, and verification tools
for fair division instances with integer values on a common scale.
"""

from .core import (
    Allocation,
    Certificate,
    GuaranteeError,
    InputError,
    Instance,
    PartitionError,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    instance_from_json,
    instance_to_json,
    load_allocation,
    load_instance,
    save_instance,
    verify_allocation,
)
from .experiments import (
    TrialConfig,
    TrialStats,
    gen_uniform_instance,
    report_text,
    run_existence_trials,
)
from .half import apx_mms_half
from .matching import (
    PreferenceGraph,
    XPlusDecomposition,
    build_preference_graph,
    compute_x_plus,
    maximum_matching,
)
from .oracle import (
    EXACT_ITEM_CAP,
    MaximinCertificate,
    ShareOracle,
    greedy_floor,
    mms_approx,
    mms_exact,
    xi_vector,
)
from .round_robin import greedy_round_robin, modified_greedy_round_robin
from .ternary import exact_mms_012
from .three_agents import apx_3_mms
from .two_thirds import apx_mms, rec_mms, rho

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Certificate",
    "EXACT_ITEM_CAP",
    "GuaranteeError",
    "InputError",
    "Instance",
    "MaximinCertificate",
    "PartitionError",
    "PreferenceGraph",
    "ShareOracle",
    "TrialConfig",
    "TrialStats",
    "XPlusDecomposition",
    "allocation_from_json",
    "allocation_to_json",
    "apx_3_mms",
    "apx_mms",
    "apx_mms_half",
    "build_preference_graph",
    "bundle_value",
    "compute_x_plus",
    "exact_mms_012",
    "gen_uniform_instance",
    "greedy_floor",
    "greedy_round_robin",
    "instance_from_json",
    "instance_to_json",
    "load_allocation",
    "load_instance",
    "maximum_matching",
    "mms_approx",
    "mms_exact",
    "modified_greedy_round_robin",
    "rec_mms",
    "report_text",
    "rho",
    "run_existence_trials",
    "save_instance",
    "verify_allocation",
    "xi_vector",
    "__version__",
]
