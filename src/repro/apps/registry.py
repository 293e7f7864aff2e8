"""Registry of the available wavefront applications."""

from __future__ import annotations

from repro.apps.base import WavefrontApplication
from repro.core.exceptions import InvalidParameterError, UnknownApplicationError
from repro.apps.editdistance import EditDistanceApp
from repro.apps.knapsack import ExpectedKnapsackApp, KnapsackApp
from repro.apps.lcs import LCSApp
from repro.apps.matrixchain import MatrixChainApp
from repro.apps.nash import NashEquilibriumApp
from repro.apps.sequence import SequenceComparisonApp
from repro.apps.stochastic_path import StochasticPathApp
from repro.apps.synthetic import SyntheticApp
from repro.apps.viterbi import ViterbiApp

#: Application classes by name; each constructor takes no required arguments.
APPLICATIONS: dict[str, type[WavefrontApplication]] = {
    "synthetic": SyntheticApp,
    "nash-equilibrium": NashEquilibriumApp,
    "sequence-comparison": SequenceComparisonApp,
    "knapsack": KnapsackApp,
    "knapsack-ev": ExpectedKnapsackApp,
    "edit-distance": EditDistanceApp,
    "lcs": LCSApp,
    "matrix-chain": MatrixChainApp,
    "stochastic-path": StochasticPathApp,
    "viterbi": ViterbiApp,
}


def _factory(name: str) -> type[WavefrontApplication]:
    """The registered class of ``name``, or a typed unknown-name error."""
    try:
        return APPLICATIONS[name]
    except KeyError:
        known = ", ".join(sorted(APPLICATIONS))
        raise UnknownApplicationError(
            f"unknown application {name!r}; known: {known}"
        ) from None


def default_dim(name: str) -> int:
    """The problem size a registered application builds when none is given.

    Read off the class, so a cache lookup can name the instance without
    constructing the application.
    """
    return _factory(name).default_dim


def get_application(name: str, **kwargs) -> WavefrontApplication:
    """Build a registered application by name.

    Keyword arguments are forwarded to the application's constructor, e.g.
    ``get_application("synthetic", dim=256, tsize=750)``; one it does not
    take, or a value it cannot use, is a typed
    :class:`~repro.core.exceptions.InvalidParameterError` naming them — this
    is where caller-supplied overrides (CLI, ``POST /solve``) are applied.
    """
    factory = _factory(name)
    try:
        return factory(**kwargs)
    except InvalidParameterError:
        raise
    except (TypeError, ValueError) as error:
        raise InvalidParameterError(
            f"invalid arguments {sorted(kwargs)} for application {name!r}: {error}"
        ) from None


def resolve_application(
    app: str | WavefrontApplication, **kwargs
) -> WavefrontApplication:
    """The one registry path every caller resolves applications through.

    Accepts either a registered name (constructed via
    :func:`get_application`, forwarding ``kwargs``) or an already-built
    :class:`~repro.apps.base.WavefrontApplication` instance (returned as-is;
    passing constructor ``kwargs`` alongside an instance is an error).
    """
    if isinstance(app, WavefrontApplication):
        if kwargs:
            raise UnknownApplicationError(
                f"cannot apply constructor arguments {sorted(kwargs)} to an "
                f"already-built application instance {app.name!r}"
            )
        return app
    return get_application(app, **kwargs)


def available_applications() -> list[str]:
    """Names of all registered applications, sorted."""
    return sorted(APPLICATIONS)
