"""Fixture tests for the ``S803`` backend phase-structure rule."""

from repro.checks.engine import check_source
from repro.checks.flow.parity_rules import PARITY_RULES


def _codes(findings):
    return [f.rule for f in findings]


#: Two epoch loops (both profile deliver+transmit) with one label
#: vocabulary — the network.py / vectorized.py contract.
_LOOPS_ALIGNED = (
    "def run_reference(profiler):\n"
    "    profiler.lap('deliver')\n"
    "    profiler.lap('control')\n"
    "    profiler.lap('transmit')\n"
    "def run_vectorized(profiler):\n"
    "    profiler.lap('deliver')\n"
    "    profiler.lap('control')\n"
    "    profiler.lap('transmit')\n"
)

#: The second loop dropped the ``control`` phase its sibling profiles.
_LOOPS_DIVERGED = (
    "def run_reference(profiler):\n"
    "    profiler.lap('deliver')\n"
    "    profiler.lap('control')\n"
    "    profiler.lap('transmit')\n"
    "def run_vectorized(profiler):\n"
    "    profiler.lap('deliver')\n"
    "    profiler.lap('transmit')\n"
)


class TestS803BackendPhaseStructure:
    def test_aligned_loops_are_silent(self):
        findings = check_source(_LOOPS_ALIGNED, PARITY_RULES,
                                relpath="src/repro/core/network.py")
        assert findings == []

    def test_missing_phase_label_is_flagged(self):
        findings = check_source(_LOOPS_DIVERGED, PARITY_RULES,
                                relpath="src/repro/core/network.py")
        assert _codes(findings) == ["S803"]
        assert "run_vectorized" in findings[0].message
        assert "control" in findings[0].message

    def test_fluid_style_loop_is_not_an_epoch_loop(self):
        # The fluid simulator's advance/recompute loop never profiles
        # deliver/transmit; its distinct vocabulary must not count as a
        # divergence from the cell simulators.
        findings = check_source(
            _LOOPS_ALIGNED +
            "def run_fluid(profiler):\n"
            "    profiler.lap('setup')\n"
            "    profiler.lap('advance')\n"
            "    profiler.lap('recompute')\n",
            PARITY_RULES,
            relpath="src/repro/core/network.py",
        )
        assert findings == []

    def test_single_epoch_loop_has_no_siblings_to_diverge_from(self):
        findings = check_source(
            "def run(profiler):\n"
            "    profiler.lap('deliver')\n"
            "    profiler.lap('transmit')\n",
            PARITY_RULES,
            relpath="src/repro/core/network.py",
        )
        assert findings == []

    def test_dynamic_label_is_ignored(self):
        # Only literal labels define the vocabulary; a computed label
        # cannot be compared statically and must not flag its siblings.
        findings = check_source(
            _LOOPS_ALIGNED.replace("profiler.lap('control')\n"
                                   "    profiler.lap('transmit')\n"
                                   "def run_vectorized",
                                   "profiler.lap(name)\n"
                                   "    profiler.lap('control')\n"
                                   "    profiler.lap('transmit')\n"
                                   "def run_vectorized"),
            PARITY_RULES,
            relpath="src/repro/core/network.py",
        )
        assert findings == []
