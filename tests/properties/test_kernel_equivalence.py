"""Decision-identity of the incremental kernels vs the reference paths.

The optimised kernels (``incremental=True``, the default) must be
decision-for-decision identical to the retained reference
implementations: same assignments (task, machine, start, completion,
order), same makespans (exact float equality, not approximate), same
tie-candidate sets and tie-breaker draw order, and byte-identical
``repro.obs`` event streams.  Random ETCs include an integer-grid mode
that makes genuine ties common, so the tolerance logic and the random
policy's draw-consumption discipline are both exercised hard.

Untraced deterministic runs have three paths — reference, the Python
incremental kernels and the compiled kernels of
:mod:`repro.heuristics.native` — and the ``test_paths_*`` batteries run
all three, including on :func:`near_ties` inputs that sit at the tie
tolerance's boundary.
"""

import itertools
import math
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.ties import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DeterministicTieBreaker,
    RandomTieBreaker,
)
from repro.etc.matrix import ETCMatrix
from repro.etc.witness import (
    KPB_EXAMPLE_PERCENT,
    SWA_EXAMPLE_HIGH_THRESHOLD,
    SWA_EXAMPLE_LOW_THRESHOLD,
    kpb_example_etc,
    mct_met_example_etc,
    minmin_example_etc,
    sufferage_example_etc,
    swa_example_etc,
)
from repro.heuristics import native
from repro.heuristics.kpb import KPercentBest
from repro.heuristics.mct import MCT
from repro.heuristics.minmin import Duplex, MaxMin, MinMin
from repro.heuristics.sufferage import Sufferage
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer

FACTORIES = {
    "min-min": MinMin,
    "max-min": MaxMin,
    "mct": MCT,
    "sufferage": Sufferage,
    "duplex": Duplex,
    "k-percent-best": lambda **kw: KPercentBest(70.0, **kw),
}

TIE_POLICIES = {
    "deterministic": DeterministicTieBreaker,
    # Same seed on both sides: identical draw sequences prove the
    # kernels consume random draws at exactly the same decisions.
    "random": lambda: RandomTieBreaker(1234),
}


@st.composite
def etc_and_ready(draw):
    """An ETC up to 12 x 6 plus a ready-time vector.

    Three draw modes: ``plain``; ``duplicated``, which copies one row
    verbatim over another so every decision between the two ties
    exactly; and ``degenerate``, which draws the corner shapes — one
    task, one machine, or fewer tasks than machines.
    """
    mode = draw(st.sampled_from(["plain", "duplicated", "degenerate"]))
    num_machines = draw(st.integers(1, 6))
    num_tasks = draw(st.integers(1, 12))
    if mode == "degenerate":
        corner = draw(st.sampled_from(["one-task", "one-machine", "wide"]))
        if corner == "one-task":
            num_tasks = 1
        elif corner == "one-machine":
            num_machines = 1
        else:
            num_tasks = draw(st.integers(1, num_machines))
    if draw(st.booleans()):
        # Integer grid: tolerance ties are the norm, not the exception.
        cell = st.integers(1, 4).map(float)
    else:
        cell = st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False)
    values = draw(
        st.lists(
            st.lists(cell, min_size=num_machines, max_size=num_machines),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    if mode == "duplicated" and num_tasks > 1:
        src = draw(st.integers(0, num_tasks - 1))
        dst = draw(st.integers(0, num_tasks - 1))
        values[dst] = list(values[src])
    ready = draw(
        st.lists(
            st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
            min_size=num_machines,
            max_size=num_machines,
        )
    )
    return ETCMatrix(values), ready


@st.composite
def contest_heavy(draw):
    """Sufferage inputs where most of a pass fights over few machines.

    Rows are sorted, so the ETC is consistent (every task ranks the
    machines alike) and whole passes claim the same machine; rows are
    drawn from a handful of distinct ones, so duplicates tie exactly;
    the integer-grid mode adds sufferage ties on top.  Up to 40 x 8.
    """
    num_tasks = draw(st.integers(2, 40))
    num_machines = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cell = st.integers(1, 6).map(float)
    else:
        cell = st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False)
    distinct = draw(
        st.lists(
            st.lists(cell, min_size=num_machines, max_size=num_machines),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(
        st.lists(
            st.integers(0, len(distinct) - 1),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    ready = draw(
        st.lists(
            st.integers(0, 3).map(float),
            min_size=num_machines,
            max_size=num_machines,
        )
    )
    return ETCMatrix([sorted(distinct[i]) for i in picks]), ready


@st.composite
def near_ties(draw):
    """An ETC up to 10 x 5 plus ready times at the tie tolerance's edge.

    Every ETC value is ``scale + step`` and every ready time a ``step``,
    where the steps are 0, 0.5x, 0.9x, 1x, 1.8x and 2x the tolerance
    ``max(abs_tol, rel_tol * scale)`` and 1 ulp either side of it.  The
    0.9x and 1.8x steps make non-transitive chains (a ~ b, b ~ c, a !~ c);
    ``scale`` spans 1e-3, where the absolute and relative terms cross.  At
    the absolute tolerance's own scale the sums are exact, so differences
    land exactly on the tolerance and 1 ulp either side of it.
    """
    scale = draw(
        st.sampled_from(
            [DEFAULT_ABS_TOL, 3 * DEFAULT_ABS_TOL, 1e-4, 1e-3, 2e-3, 1.0, 7.0, 1e3, 1e6]
        )
    )
    tol = max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL * scale)
    step = st.sampled_from(
        [
            0.0,
            0.5 * tol,
            0.9 * tol,
            tol,
            math.nextafter(tol, 0.0),
            math.nextafter(tol, math.inf),
            1.8 * tol,
            2.0 * tol,
        ]
    )
    num_machines = draw(st.integers(1, 5))
    num_tasks = draw(st.integers(1, 10))
    values = draw(
        st.lists(
            st.lists(
                step.map(lambda s: scale + s),
                min_size=num_machines,
                max_size=num_machines,
            ),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    ready = draw(st.lists(step, min_size=num_machines, max_size=num_machines))
    return ETCMatrix(values), ready


def _inputs(name):
    """Sufferage also draws contest-heavy inputs."""
    if name == "sufferage":
        return st.one_of(etc_and_ready(), contest_heavy())
    return etc_and_ready()


def _traced_run(heuristic, etc, ready, tie_breaker):
    tracer = CollectingTracer()
    with use_tracer(tracer):
        mapping = heuristic.map_tasks(etc, list(ready), tie_breaker)
    return (
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ],
        mapping.makespan(),
        [event_to_dict(e) for e in tracer.events],
        getattr(heuristic, "last_trace", None),
    )


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(name, policy, data):
    etc, ready = data.draw(_inputs(name))
    runs = [
        _traced_run(
            FACTORIES[name](incremental=incremental),
            etc,
            ready,
            TIE_POLICIES[policy](),
        )
        for incremental in (True, False)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(data=etc_and_ready())
@settings(max_examples=20, deadline=None)
def test_kernel_matches_reference_untraced(name, data):
    """The no-tracer deterministic fast paths decide identically too."""
    etc, ready = data
    mappings = [
        FACTORIES[name](incremental=incremental).map_tasks(
            etc, list(ready), DeterministicTieBreaker()
        )
        for incremental in (True, False)
    ]
    assert [
        (a.task, a.machine, a.start, a.completion, a.order)
        for a in mappings[0].assignments
    ] == [
        (a.task, a.machine, a.start, a.completion, a.order)
        for a in mappings[1].assignments
    ]
    assert mappings[0].makespan() == mappings[1].makespan()


@pytest.mark.parametrize("policy", sorted(TIE_POLICIES))
@given(data=etc_and_ready())
@settings(max_examples=15, deadline=None)
def test_iterative_scheduler_equivalence(policy, data):
    """The full freeze/remap technique is invariant to the kernel choice."""
    etc, ready = data
    outcomes = []
    for incremental in (True, False):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = IterativeScheduler(
                MinMin(incremental=incremental),
                tie_breaker=TIE_POLICIES[policy](),
            ).run(etc, dict(zip(etc.machines, ready)))
        outcomes.append(
            (
                result.makespans(),
                result.removal_order,
                result.final_finish_times,
                [event_to_dict(e) for e in tracer.events],
            )
        )
    assert outcomes[0] == outcomes[1]


def _paper_examples():
    from repro.heuristics import get_heuristic
    from repro.heuristics.swa import SwitchingAlgorithm

    return {
        "min-min": (lambda **kw: MinMin(**kw), minmin_example_etc()),
        "mct": (lambda **kw: MCT(**kw), mct_met_example_etc()),
        "met": (lambda **kw: get_heuristic("met"), mct_met_example_etc()),
        "swa": (
            lambda **kw: SwitchingAlgorithm(
                low=SWA_EXAMPLE_LOW_THRESHOLD, high=SWA_EXAMPLE_HIGH_THRESHOLD
            ),
            swa_example_etc(),
        ),
        "kpb": (
            lambda **kw: KPercentBest(percent=KPB_EXAMPLE_PERCENT, **kw),
            kpb_example_etc(),
        ),
        "sufferage": (lambda **kw: Sufferage(**kw), sufferage_example_etc()),
    }


@pytest.mark.parametrize("example", sorted(_paper_examples()))
def test_paper_witness_examples_replay_identically(example):
    """All six paper worked examples run the same under either kernel.

    MET and SWA take no ``incremental`` flag (they have a single
    implementation); for them this degenerates to an idempotence check,
    which keeps the example set complete.
    """
    make, etc = _paper_examples()[example]
    outcomes = []
    for incremental in (True, False):
        try:
            heuristic = make(incremental=incremental)
        except TypeError:
            heuristic = make()
        tracer = CollectingTracer()
        with use_tracer(tracer):
            result = IterativeScheduler(heuristic).run(etc)
        outcomes.append(
            (
                result.makespans(),
                result.removal_order,
                result.final_finish_times,
                [event_to_dict(e) for e in tracer.events],
            )
        )
    assert outcomes[0] == outcomes[1]


@given(data=_inputs("sufferage"))
@settings(max_examples=20, deadline=None)
def test_sufferage_last_trace_identical(data):
    """Pass/decision traces (paper Tables 16–17) match across kernels.

    Untraced, so the incremental kernel's decision records are built
    from its pass arrays on first read of ``.decisions``.
    """
    etc, ready = data
    for policy in sorted(TIE_POLICIES):
        traces = []
        for incremental in (True, False):
            heuristic = Sufferage(incremental=incremental)
            heuristic.map_tasks(etc, list(ready), TIE_POLICIES[policy]())
            traces.append(
                [(p.index, p.decisions, p.committed) for p in heuristic.last_trace]
            )
        assert traces[0] == traces[1], policy


#: The three untraced deterministic paths.
PATHS = ("reference", "python", "compiled")

#: Heuristics of the three-path batteries (Duplex rides on Min-Min and
#: Max-Min).
PATH_FACTORIES = {name: FACTORIES[name] for name in FACTORIES if name != "duplex"}


def _on_path(path):
    """``(incremental, context)`` running ``path``."""
    if path == "reference":
        return False, nullcontext()
    if path == "python":
        return True, native.python_kernels()
    return True, nullcontext()


def _mapped_on(path, factory, etc, ready):
    incremental, context = _on_path(path)
    heuristic = factory(incremental=incremental)
    with context:
        mapping = heuristic.map_tasks(etc, list(ready), DeterministicTieBreaker())
    return (
        [
            (a.task, a.machine, a.start, a.completion, a.order)
            for a in mapping.assignments
        ],
        mapping.makespan(),
        getattr(heuristic, "last_trace", None),
    )


def _iterated_on(path, factory, etc, ready):
    incremental, context = _on_path(path)
    with context:
        result = IterativeScheduler(factory(incremental=incremental)).run(
            etc, list(ready)
        )
        final = result.final_mapping()
    return (
        result.makespans(),
        result.removal_order,
        result.final_finish_times,
        [rec.frozen_tasks for rec in result.iterations],
        [rec.trace for rec in result.iterations],
        [(a.task, a.machine, a.start, a.completion) for a in final.assignments],
    )


@pytest.mark.parametrize("name", sorted(PATH_FACTORIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_paths_agree(name, data):
    """Reference, Python incremental and compiled map identically."""
    etc, ready = data.draw(st.one_of(_inputs(name), near_ties()))
    outcomes = [_mapped_on(path, PATH_FACTORIES[name], etc, ready) for path in PATHS]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("name", sorted(PATH_FACTORIES))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_paths_agree_iterative(name, data):
    """The freeze/remap technique and its final mapping, on all paths."""
    etc, ready = data.draw(st.one_of(etc_and_ready(), near_ties()))
    outcomes = [
        _iterated_on(path, PATH_FACTORIES[name], etc, ready) for path in PATHS
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _boundary_grid():
    """Every 2x2 ETC over {1, 2, 3} x abs_tol with ready times in
    {0, 1} x abs_tol, plus the 2x1 and 1x3 shapes.

    At this scale the tolerance is the absolute term, and 2·tol − tol is
    exact: completion times differ by exactly the tolerance (tied), or
    by it ±1 ulp where a sum rounds (3·tol), in every decision a
    kernel makes — task and machine ties, Max-Min's peak, K-Percent
    Best's subset and Sufferage's contest.
    """
    unit = DEFAULT_ABS_TOL
    levels = [unit, 2 * unit, 3 * unit]
    for cells in itertools.product(levels, repeat=4):
        for ready in itertools.product([0.0, unit], repeat=2):
            yield [list(cells[:2]), list(cells[2:])], list(ready)
    for cells in itertools.product(levels, repeat=2):
        yield [[cells[0]], [cells[1]]], [0.0]
    for cells in itertools.product(levels, repeat=3):
        yield [list(cells)], [0.0, unit, 0.0]


@pytest.mark.parametrize("name", sorted(PATH_FACTORIES))
def test_paths_agree_on_boundary_grid(name):
    for values, ready in _boundary_grid():
        etc = ETCMatrix(values)
        outcomes = [
            _mapped_on(path, PATH_FACTORIES[name], etc, ready) for path in PATHS
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2], (values, ready)
        iterated = [
            _iterated_on(path, PATH_FACTORIES[name], etc, ready) for path in PATHS
        ]
        assert iterated[0] == iterated[1] == iterated[2], (values, ready)
