"""Runtime policy enforcement for component lifecycles.

The toolkit intercepts an application's event stream (lifecycle callbacks
and API calls) and rewrites it through a stack of small edit automata, so
that resource-handling rules like "release the camera before pausing" hold
by construction. Policies and their checking counterparts (monitors) are
written in a compact text language; a brute-force verifier can then show,
up to a bound, that an enforced stream never violates the monitored
property while compliant streams pass through untouched.

A camera policy that releases the camera before a pause, applied to a
trace that pauses while holding it:

>>> from enforcekit import (
...     ModuleRegistry, enforce_trace, parse_policy, parse_trace, serialize_trace)
>>> policy = parse_policy('''
... policy CameraRelease
... instantiate per-component
... alphabet api Camera.open, api Camera.release, cb onPause
... initial FREE
... state FREE:
...   on api Camera.open -> HELD emit [$in]
... state HELD:
...   on api Camera.release -> FREE emit [$in]
...   on cb onPause -> FREE emit [api Camera.release, $in]
... end
... ''')
>>> trace = parse_trace('''
... 1 api:Camera.open@A1
... 2 cb:onPause@A1
... ''')
>>> registry = ModuleRegistry.from_policies([policy])
>>> enforced, report = enforce_trace(registry, trace)
>>> print(serialize_trace(enforced))
1 api:Camera.open@A1
2 !api:Camera.release@A1
3 cb:onPause@A1
>>> report.total.inserted
1
"""

from . import dsl, enforcement, events, oracle, policy, simulator
from .dsl import *
from .enforcement import *
from .events import *
from .oracle import *
from .policy import *
from .simulator import *

__version__ = "0.1.0"

# Each library module's __all__ is the one list of its public names.
# enforcekit.cli stays out: its main is the console script.
__all__ = ["__version__"]
__all__ += events.__all__
__all__ += policy.__all__
__all__ += dsl.__all__
__all__ += enforcement.__all__
__all__ += oracle.__all__
__all__ += simulator.__all__
