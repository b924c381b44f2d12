"""The (k, m) dimensions of the systematic Reed-Solomon code.

The paper takes the code as given (section 2.1): an archive becomes
``k`` data blocks plus ``m`` parity blocks, any ``k`` of the ``n = k + m``
decode it.  The simulator models only these counts, in
:class:`~repro.core.policy.RepairPolicy`.
"""

import pytest

from repro.core.policy import POLICY_PRESETS, RepairPolicy


def make_code(k: int, m: int) -> RepairPolicy:
    """The code's dimensions, with the repair threshold at its floor ``k``."""
    return RepairPolicy(k, k + m, k)


class TestConstruction:
    def test_parameters_exposed(self):
        code = make_code(4, 2)
        assert (code.k, code.parity_blocks, code.n) == (4, 2, 6)

    @pytest.mark.parametrize("k,m", [(0, 2), (-1, 2), (2, -1)])
    def test_invalid_parameters(self, k, m):
        with pytest.raises(ValueError):
            make_code(k, m)

    def test_paper_dimensions_construct(self):
        code = POLICY_PRESETS.create("paper")
        assert (code.k, code.parity_blocks, code.n) == (128, 128, 256)
