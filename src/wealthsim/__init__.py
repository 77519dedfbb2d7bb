"""Simulation and analytics for a stochastic wealth-distribution economy.

Households invest in and work for overlapping subsets of firms whose
productivity is noisy; prices clear each instant through a concave
technology, flat taxes are redistributed equally, and the resulting
wealth distribution is either stationary or riding a sustained-growth
path.  The package simulates the household panel, evaluates every
closed-form equilibrium density and tail index, and checks the two
against each other.  It exports each module's ``__all__``.
"""

from . import analytics, errors, market, network, params, runconfig, scenarios, simulate, tails
from .analytics import *
from .errors import *
from .market import *
from .network import *
from .params import *
from .runconfig import *
from .scenarios import *
from .simulate import *
from .tails import *

__all__ = [name for module in (analytics, errors, market, network, params, runconfig,
                               scenarios, simulate, tails)
           for name in module.__all__]

__version__ = "0.1.0"
