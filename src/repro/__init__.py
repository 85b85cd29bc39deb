"""repro — reproduction of Briceño, Oltikar, Siegel & Maciejewski,
"Study of an Iterative Technique to Minimize Completion Times of
Non-Makespan Machines" (IPPS/HCW 2007).

Quickstart::

    from repro import (
        ETCMatrix, IterativeScheduler, get_heuristic, compare_iterative,
    )

    etc = ETCMatrix([[4, 5, 5], [6, 2, 2], [5, 6, 3], [4, 1, 3]])
    result = IterativeScheduler(get_heuristic("min-min")).run(etc)
    print(compare_iterative(result))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    Assignment,
    DeterministicTieBreaker,
    IterationRecord,
    IterativeComparison,
    IterativeResult,
    IterativeScheduler,
    MachineComparison,
    Mapping,
    RandomTieBreaker,
    ScriptedTieBreaker,
    SeededIterativeScheduler,
    TieBreaker,
    compare_iterative,
    make_tie_breaker,
    validate_iterative_result,
    validate_mapping,
)
from repro.etc import (
    Consistency,
    ETCMatrix,
    Heterogeneity,
    generate_cvb,
    generate_ensemble,
    generate_range_based,
)
from repro.heuristics import (
    PAPER_HEURISTICS,
    Heuristic,
    get_heuristic,
    heuristic_names,
)

__version__ = "1.13.0"

__all__ = [
    "__version__",
    # etc
    "ETCMatrix",
    "Consistency",
    "Heterogeneity",
    "generate_range_based",
    "generate_cvb",
    "generate_ensemble",
    # core
    "Mapping",
    "Assignment",
    "TieBreaker",
    "DeterministicTieBreaker",
    "RandomTieBreaker",
    "ScriptedTieBreaker",
    "make_tie_breaker",
    "IterativeScheduler",
    "SeededIterativeScheduler",
    "IterationRecord",
    "IterativeResult",
    "MachineComparison",
    "IterativeComparison",
    "compare_iterative",
    "validate_mapping",
    "validate_iterative_result",
    # heuristics
    "Heuristic",
    "get_heuristic",
    "heuristic_names",
    "PAPER_HEURISTICS",
]
