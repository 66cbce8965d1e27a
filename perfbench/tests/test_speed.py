import math

import pytest

import speed


def test_scaled_reads_at_the_nominal_unit_time():
    assert speed.scaled([1.0, 3.0], [0.5] * 3, 0.5) == 2.0
    # twice as slow a host: times measured on it are halved
    assert speed.scaled([2.0], [0.04, 0.04], 0.02) == pytest.approx(1.0)
    # means, not medians: a unit slowed for a third of the run counts a third
    assert speed.scaled([3.0], [1.0, 1.0, 4.0], 1.0) == pytest.approx(1.5)


def test_units_after_a_body_take_their_share():
    assert len(speed.units_after(0.0)) == 1
    times = speed.units_after(1.0)
    assert len(times) == math.ceil(speed.SHARE * 1.0 / speed.NOMINAL_UNIT_S)
    assert all(t > 0 for t in times)


def test_file_unit_writes_a_fresh_directory(tmp_path):
    assert speed.file_unit(tmp_path / "u0") > 0
    assert (tmp_path / "u0" / "unit.csv").read_text().count("\n") == 50
    with pytest.raises(FileExistsError):
        speed.file_unit(tmp_path / "u0")
