"""Approximate maximin-share allocation of indivisible goods.

Exact-arithmetic solvers, per-agent maximin oracles, and verification tools
for fair division instances with integer values on a common scale.

``import mmsalloc`` executes no module of the package.  Each module named in
``_PUBLIC`` is registered in ``sys.modules``, and as an attribute of the
package, through :class:`importlib.util.LazyLoader`: it is compiled and
executed on its first attribute access, so a command compiles only the
modules it runs.  A public name is looked up in ``_PUBLIC`` on its first
use, which executes its module.
"""

import importlib.util
import sys

#: Each module of the package, mapped to the public names it defines.
_PUBLIC = {
    "core": (
        "Certificate", "GuaranteeError", "InputError", "Instance",
        "PartitionError", "allocation_from_json", "allocation_to_json",
        "bundle_value", "instance_from_json", "instance_to_json",
        "load_allocation", "load_instance", "save_instance", "verify_allocation",
    ),
    "oracle": (
        "EXACT_ITEM_CAP", "MaximinCertificate", "greedy_floor", "mms_approx",
        "mms_exact", "share", "xi_vector",
    ),
    "experiments": (
        "TrialConfig", "TrialStats", "gen_uniform_instance", "report_text",
        "run_existence_trials",
    ),
    "half": ("apx_mms_half",),
    "matching": (
        "PreferenceGraph", "XPlusDecomposition", "build_preference_graph",
        "compute_x_plus", "maximum_matching",
    ),
    "round_robin": ("greedy_round_robin", "modified_greedy_round_robin"),
    "ternary": ("exact_mms_012",),
    "three_agents": ("apx_3_mms",),
    "two_thirds": ("apx_mms", "rho"),
}


def _lazy(name: str):
    """The module mmsalloc.name, registered but not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((module, _lazy(module)) for module in _PUBLIC)

#: Each public name, mapped to the module that defines it.
_HOME = {name: globals()[module] for module, names in _PUBLIC.items() for name in names}


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]
