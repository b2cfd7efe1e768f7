"""ClassBench-style synthetic workloads (rulesets + traces).

The paper's evaluation rests on ClassBench filter sets (acl1/fw1/ipc1) and
their companion packet traces; this subpackage regenerates statistically
similar workloads from embedded seed models that keep the structure the
paper's results depend on (see :mod:`.seeds`).
"""

from .generator import generate_ruleset
from .seeds import FAMILIES
from .trace import generate_trace, generate_zipf_trace
from .updates import churn_schedule, generate_update_stream

__all__ = [
    "churn_schedule",
    "generate_ruleset",
    "generate_update_stream",
    "FAMILIES",
    "generate_trace",
    "generate_zipf_trace",
]
