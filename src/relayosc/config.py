"""One place for every default of the library.

Values here are engineering choices, not theory. Flags override
``detect_tol``, ``oracle_cap`` and ``sim_steps`` (``--oracle-cap`` also
lowers ``analyze_oracle_pmax``); ``--pmax`` replaces the sweep ceiling
that ``pmax_slack`` pads, and no flag sets ``divergence_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    #: waveform repetition tolerance for steady-state detection
    detect_tol: float = 1e-9
    #: refuse the exhaustive 3^P oracle beyond this period
    oracle_cap: int = 16
    #: analyze embeds the oracle diff for periods up to this ceiling
    analyze_oracle_pmax: int = 12
    #: divergence guard: abort when |u| exceeds this multiple of the l1 bound
    divergence_factor: float = 1e3
    #: extra periods swept past the provable upper bound
    pmax_slack: int = 2
    #: simulation horizon when none is requested
    sim_steps: int = 400


DEFAULTS = Defaults()
