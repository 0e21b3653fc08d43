"""gridcoord: TSO-DSO coordinated reactive power dispatch engine.

Modules cover the linearized unbalanced feeder model with a nonlinear
backward/forward sweep oracle (``feeder``), IEEE-1547 droop-mode MILP
encodings (``inverter``), an embedded LP/MILP solver with SOS1
branching (``milp``), the hierarchical DSO dispatch stages
(``dso_dispatch``), transmission-side Newton power flow and reactive
dispatch (``tso``) and the checksummed scenario bundle (``data``).
Each piece runs once per call; the ``gridcoord run`` command (``cli``)
runs one dispatch round of them.
"""

__version__ = "0.1.0"
