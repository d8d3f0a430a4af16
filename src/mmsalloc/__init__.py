"""Approximate maximin-share allocation of indivisible goods.

Exact-arithmetic solvers, per-agent maximin oracles, and verification tools
for fair division instances with integer values on a common scale.

``import mmsalloc`` executes :mod:`mmsalloc.core` and :mod:`mmsalloc.oracle`
only.  Every other module is registered in ``sys.modules``, and as an
attribute of the package, through :class:`importlib.util.LazyLoader`: it is
compiled and executed on its first attribute access, so a command compiles
only the modules it runs.  A public name from such a module is looked up in
``_LAZY_NAMES`` on its first use, which executes its module.
"""

import importlib.util
import sys

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
from .oracle import (
    EXACT_ITEM_CAP,
    MaximinCertificate,
    ShareOracle,
    greedy_floor,
    mms_approx,
    mms_exact,
    xi_vector,
)


def _lazy(name: str):
    """The module mmsalloc.name, registered but not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


experiments = _lazy("experiments")
half = _lazy("half")
matching = _lazy("matching")
round_robin = _lazy("round_robin")
ternary = _lazy("ternary")
three_agents = _lazy("three_agents")
two_thirds = _lazy("two_thirds")

#: Each public name of a lazy module, mapped to that module.
_LAZY_NAMES = {
    "TrialConfig": experiments,
    "TrialStats": experiments,
    "gen_uniform_instance": experiments,
    "report_text": experiments,
    "run_existence_trials": experiments,
    "apx_mms_half": half,
    "PreferenceGraph": matching,
    "XPlusDecomposition": matching,
    "build_preference_graph": matching,
    "compute_x_plus": matching,
    "maximum_matching": matching,
    "greedy_round_robin": round_robin,
    "modified_greedy_round_robin": round_robin,
    "exact_mms_012": ternary,
    "apx_3_mms": three_agents,
    "apx_mms": two_thirds,
    "rho": two_thirds,
}


def __getattr__(name: str):
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


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
    "report_text",
    "rho",
    "run_existence_trials",
    "save_instance",
    "verify_allocation",
    "xi_vector",
    "__version__",
]
