import numpy as np
import pytest

from pmufdi.blocks import (
    MeasurementBlock,
    generate_block,
    load_block,
    read_block_csv,
    read_block_npz,
    singular_spectrum,
    write_block_csv,
    write_block_npz,
)


def test_block_shape_and_metadata(ieee24_blocks):
    state, block, dep = ieee24_blocks
    assert block.n_steps == 150                 # 5 s at 30 Hz
    assert block.n_channels == dep.n_measurements == 41
    assert block.rate_hz == 30.0
    assert block.start_index == 1
    assert block.dependency_digest == dep.digest
    assert not block.attacked


def test_block_rejects_non_finite_entries_and_label_mismatch():
    z = np.ones((4, 3), dtype=complex)
    z[2, 1] = complex(np.inf, 0.0)
    with pytest.raises(ValueError, match="sample 7, channel 'b'"):
        MeasurementBlock(z, 30.0, 5, ("a", "b", "c"), "digest")
    with pytest.raises(ValueError, match="3 channels but 2 labels"):
        MeasurementBlock(np.ones((4, 3), dtype=complex), 30.0, 5, ("a", "b"), "digest")


def test_non_integral_sample_count_rejected(ieee24_case, ieee24_plan):
    with pytest.raises(ValueError, match="integer"):
        generate_block(ieee24_case, ieee24_plan, 5.01, 30.0, seed=1)


def test_pre_disturbance_rows_identical(ieee24_blocks):
    _, block, _ = ieee24_blocks
    first_second = block.z[:30]
    assert np.all(first_second == first_second[0])
    assert np.linalg.matrix_rank(first_second) == 1


def test_measurements_reproduce_states_exactly(ieee24_blocks):
    state, block, dep = ieee24_blocks
    assert np.array_equal(block.z, state.x @ dep.h.T)


def test_every_instant_converged(ieee24_blocks, ieee118_blocks):
    for state, _, _ in (ieee24_blocks, ieee118_blocks):
        assert max(state.mismatches) < 1e-8


def test_generation_deterministic(ieee24_case, ieee24_plan, ieee24_blocks):
    _, block, _ = ieee24_blocks
    _, again, _ = generate_block(ieee24_case, ieee24_plan, 5.0, 30.0, seed=2024)
    assert np.array_equal(block.z, again.z)
    _, other, _ = generate_block(ieee24_case, ieee24_plan, 5.0, 30.0, seed=2025)
    assert not np.array_equal(block.z, other.z)


def test_dominant_singular_value(ieee24_blocks):
    _, block, _ = ieee24_blocks
    sv = singular_spectrum(block)
    assert sv[0] / sv[1] > 10


def test_spectrum_of_known_matrices():
    ones = MeasurementBlock(
        z=np.ones((3, 3), dtype=complex), rate_hz=1.0, start_index=1,
        labels=("a", "b", "c"), dependency_digest="x",
    )
    assert singular_spectrum(ones) == pytest.approx([3.0, 0.0, 0.0], abs=1e-12)

    embedded = np.zeros((4, 5), dtype=complex)
    embedded[0, 0] = 3.0
    embedded[1, 1] = 4.0
    block = MeasurementBlock(
        z=embedded, rate_hz=1.0, start_index=1,
        labels=tuple("abcde"), dependency_digest="x",
    )
    sv = singular_spectrum(block)
    assert sv.shape == (4,)
    assert sv[:2] == pytest.approx([4.0, 3.0])
    assert np.all(np.diff(sv) <= 0)


def test_118_late_window_nuclear_norm_magnitude(ieee118_blocks):
    # reference value for this window and placement is 57.1; synthetic
    # data from a different generator can only match it in magnitude
    _, block, _ = ieee118_blocks
    nuclear = float(singular_spectrum(block.window(91, 150)).sum())
    assert 5.71 < nuclear < 571.0


def test_window_selection(ieee24_blocks):
    _, block, _ = ieee24_blocks
    w = block.window(31, 90)
    assert w.n_steps == 60
    assert w.start_index == 31
    assert np.array_equal(w.z, block.z[30:90])
    with pytest.raises(ValueError):
        block.window(0, 59)
    with pytest.raises(ValueError):
        block.window(100, 151)


def test_csv_round_trip(tmp_path, ieee24_blocks):
    _, block, _ = ieee24_blocks
    path = tmp_path / "block.csv"
    write_block_csv(block, path)
    back = read_block_csv(path)
    assert np.array_equal(back.z, block.z)
    assert back.labels == block.labels
    assert back.rate_hz == block.rate_hz
    assert back.start_index == block.start_index
    assert back.dependency_digest == block.dependency_digest
    assert back.attacked == block.attacked


def _cut_last_cell(line):
    return line.rsplit(",", 1)[0] if line.startswith("40,") else line


def _garble_second_cell(line):
    if not line.startswith("40,"):
        return line
    cells = line.split(",")
    cells[2] = "1.0+abcj"
    return ",".join(cells)


def _drop_rate(line):
    return None if line.startswith("# rate_hz:") else line


@pytest.mark.parametrize("edit, cause", [
    (_cut_last_cell, "sample 40 has 40 entries, expected 41"),
    (_garble_second_cell, "sample 40, channel 'V:2'"),
    (_drop_rate, "rate_hz"),
], ids=["short-row", "bad-cell", "no-rate"])
def test_malformed_csv_names_the_cause(tmp_path, ieee24_blocks, edit, cause):
    _, block, _ = ieee24_blocks
    path = tmp_path / "window.csv"
    write_block_csv(block.window(31, 90), path)
    lines = [edit(line) for line in path.read_text().splitlines()]
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")
    with pytest.raises(ValueError, match=cause) as err:
        read_block_csv(path)
    assert str(path) in str(err.value)


def test_npz_round_trip(tmp_path, ieee24_blocks):
    _, block, _ = ieee24_blocks
    path = tmp_path / "block.npz"
    write_block_npz(block, path)
    back = read_block_npz(path)
    assert np.array_equal(back.z, block.z)
    assert back.labels == block.labels


def test_load_block_dispatch(tmp_path, ieee24_blocks):
    _, block, _ = ieee24_blocks
    write_block_csv(block, tmp_path / "b.csv")
    write_block_npz(block, tmp_path / "b.npz")
    assert np.array_equal(load_block(tmp_path / "b.csv").z,
                          load_block(tmp_path / "b.npz").z)


def test_column_accessor(ieee24_blocks):
    _, block, _ = ieee24_blocks
    col = block.column("V:1")
    assert np.array_equal(col, block.z[:, 0])
