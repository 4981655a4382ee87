"""Structure-key routed removals against the visit-every-source loop.

``IncrementalGrouper.remove_replacements`` hands each dead candidate
only to the source of its structure key.  The reference below is the
loop it replaced: every source sees the whole dead set.  With pops and
removals interleaved — dead sets mixing popped, live and never-held
candidates — both groupers must emit the same group sequence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, Config
from repro.core.incremental import IncrementalGrouper
from repro.core.replacement import Replacement

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = (DEFAULT_CONFIG, Config(use_structure=False))

# A small alphabet so several candidates share a structure bucket.
side = st.text(alphabet="aB1 -", min_size=1, max_size=4)
candidate = st.tuples(side, side).filter(lambda p: p[0] != p[1])


class VisitEverySource(IncrementalGrouper):
    def remove_replacements(self, dead) -> None:
        dead_set = set(dead)
        if not dead_set:
            return
        self._best = None
        for source in self._sources:
            source.remove_replacements(dead_set)
        self._heap = None


def signature(group):
    if group is None:
        return None
    return group.replacements, group.program.canonical()


@st.composite
def scenarios(draw):
    pairs = draw(st.lists(candidate, min_size=2, max_size=12, unique=True))
    held = [Replacement(lhs, rhs) for lhs, rhs in pairs]
    # Candidates no source holds: some share a held bucket's key.
    extra = [
        Replacement(lhs, rhs)
        for lhs, rhs in draw(st.lists(candidate, max_size=4, unique=True))
        if (lhs, rhs) not in set(pairs)
    ]
    universe = held + extra
    steps = draw(
        st.lists(
            st.one_of(
                st.just(None),  # pop
                st.lists(st.sampled_from(universe), min_size=1, max_size=5),
            ),
            max_size=10,
        )
    )
    return held, steps


@SETTINGS
@given(scenarios(), st.sampled_from(CONFIGS))
def test_routed_removal_emits_the_reference_sequence(scenario, config):
    held, steps = scenario
    routed = IncrementalGrouper(held, config=config)
    reference = VisitEverySource(held, config=config)
    for step in steps:
        if step is None:
            got = signature(routed.next_group())
            assert got == signature(reference.next_group())
        else:
            routed.remove_replacements(step)
            reference.remove_replacements(step)
    while True:
        got = signature(routed.next_group())
        assert got == signature(reference.next_group())
        if got is None:
            break
