"""The tiled SoC: the AAF DRBPF platform of four Montium cores.

* :mod:`repro.soc.config` — platform presets (the paper's 4-tile,
  100 MHz AAF DRBPF and parameterised variants).
* :mod:`repro.soc.links` — inter-tile communication channels with
  rate accounting (the "factor T lower" exchange).
* :mod:`repro.soc.tile_grid` — the tile array and its lock-step
  integration-step choreography.
* :mod:`repro.soc.runner` — end-to-end DSCF computation on the
  simulated platform, returning values, cycle tables and timing.
* :mod:`repro.soc.emulation` — the same computation with one OS
  process per tile (multiprocessing), exchanging boundary values over
  pipes.
* :mod:`repro.soc.compiled` — the trace-compiled execution engine:
  the same cycle-exact results replayed as vectorised NumPy operations
  (see :mod:`repro.montium.compiler`), plus the batched Monte-Carlo
  plan.  The pipeline's ``soc`` backend always runs on it; the
  instruction-level interpreter (:mod:`repro.soc.tile_grid`) stays the
  reference it is tested against.
"""

from .config import PlatformConfig, aaf_drbpf
from .links import TileLink
from .runner import SoCRunResult, SoCRunner
from .tile_grid import TiledSoC
from .emulation import ParallelSoCEmulation
from .compiled import CompiledSoC, CompiledSoCPlan

__all__ = [
    "CompiledSoC",
    "CompiledSoCPlan",
    "ParallelSoCEmulation",
    "PlatformConfig",
    "SoCRunResult",
    "SoCRunner",
    "TileLink",
    "TiledSoC",
    "aaf_drbpf",
]
