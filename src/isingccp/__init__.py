"""isingccp: chain operator algebra on a discrete Minkowski net with
correlating states and common-cause (screening-off) analysis.

The package provides, layer by layer:

- :mod:`isingccp.geometry`  -- minimal double cones, light cones, pasts;
- :mod:`isingccp.algebra`   -- the generator algebra, traces, projections
  and a dense-matrix oracle;
- :mod:`isingccp.dynamics`  -- the parametrized causal time step and
  space translation;
- :mod:`isingccp.states`    -- sector-weighted faithful states and the
  partition conditional expectation;
- :mod:`isingccp.causal`    -- classical, commuting and noncommuting
  screening-off deciders, including the exact rank-profile enumeration;
- :mod:`isingccp.search`    -- a numerical search for noncommuting
  screening-off partitions;
- :mod:`isingccp.cli`       -- the `isingccp` command.

Exact mode carries scalars in Q(i)[pi] so correlation values and the
commuting screening-off decision are computed with no floating tolerance.

The package republishes each module's ``__all__`` but those of cli and halfint.
"""

__version__ = "0.1.0"

from .algebra import *
from .causal import *
from .dynamics import *
from .errors import *
from .exact import *
from .geometry import *
from .search import *
from .states import *

__all__ = ["__version__"]
__all__ += algebra.__all__
__all__ += causal.__all__
__all__ += dynamics.__all__
__all__ += errors.__all__
__all__ += exact.__all__
__all__ += geometry.__all__
__all__ += search.__all__
__all__ += states.__all__
