"""ResultCache corruption handling: loud, then self-healing.

A missing entry is an ordinary miss.  A corrupt one warns, naming the
file and the parse error, and the next sweep recomputes the cell and
overwrites the entry with a valid payload.
"""

import json
import warnings

import pytest

from repro.exec import ExperimentSpec, ResultCache, SweepExecutor, config_digest
from repro.sim.config import SimulationConfig


def one_cell_spec():
    config = SimulationConfig(
        population=40,
        rounds=250,
        data_blocks=8,
        parity_blocks=8,
        repair_threshold=10,
        quota=24,
        seed=0,
    )
    return ExperimentSpec(
        name="cache-test",
        build=lambda params: config,
        grid={},
        seeds=(0,),
    )


class TestCorruptEntries:
    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ResultCache(tmp_path).load("ab" * 32) is None

    def test_truncated_entry_warns_then_is_overwritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = one_cell_spec()
        SweepExecutor(cache=cache).run(spec)
        digest = config_digest(spec.cells()[0].config)
        path = cache.path_for(digest)
        intact = path.read_text(encoding="utf-8")
        path.write_text(intact[: len(intact) // 2], encoding="utf-8")

        with pytest.warns(RuntimeWarning) as caught:
            sweep = SweepExecutor(cache=cache).run(spec)
        messages = [str(warning.message) for warning in caught]
        assert any(str(path) in message for message in messages), messages
        assert any("JSONDecodeError" in message for message in messages)
        assert sweep.stats.simulated == 1

        assert path.read_text(encoding="utf-8") == intact
        assert json.loads(intact) == cache.load(digest)

    def test_non_object_payload_warns(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="got list"):
            assert cache.load("cd" * 32) is None
