import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmufdi.blocks import MeasurementBlock, generate_block, singular_spectrum
from pmufdi.report import read_block_csv, write_block_csv


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
    for duration, rate in ((5.01, 30.0), (np.inf, 30.0), (5.0, np.inf), (1e300, 1e300)):
        with pytest.raises(ValueError, match=r"duration_s \* rate_hz must be an integer"):
            generate_block(ieee24_case, ieee24_plan, duration, rate, seed=1)
    # a negative duration and rate have a positive product
    with pytest.raises(ValueError, match="positive"):
        generate_block(ieee24_case, ieee24_plan, -5.0, -30.0, seed=1)


def test_block_ending_before_the_onset_rejected(ieee24_case, ieee24_plan):
    # 30 samples end before the disturbance starts at sample 31
    with pytest.raises(ValueError, match=r"duration_s=1\.0 at rate_hz=30\.0 .* sample 31"):
        generate_block(ieee24_case, ieee24_plan, 1.0, 30.0, seed=1)


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
    z = block.z.copy()
    z[0, 0] = complex(z[0, 0].real, -0.0)       # the sign of a zero survives too
    block = dataclasses.replace(block, z=z)
    path = tmp_path / "block.csv"
    write_block_csv(block, path)
    back = read_block_csv(path)
    assert np.array_equal(back.z.view(np.uint64), block.z.view(np.uint64))
    assert back.labels == block.labels
    assert back.rate_hz == block.rate_hz
    assert back.start_index == block.start_index
    assert back.dependency_digest == block.dependency_digest
    assert back.attacked == block.attacked


def test_csv_written_atomically_into_a_new_directory(tmp_path, ieee24_blocks):
    _, block, _ = ieee24_blocks
    path = tmp_path / "a" / "b" / "block.csv"
    assert write_block_csv(block, path) == path
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["block.csv"]
    assert np.array_equal(read_block_csv(path).z, block.z)


# finite parts only, as a block holds: signed zeros, subnormals and the
# largest magnitudes among them
PARTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
LABELS = st.lists(st.sampled_from([",", '"', " ", "\n", "\r", "\r\n", "#", "t"])
                  | st.text(st.characters(max_codepoint=0x2FF, exclude_categories=("Cs",)),
                            max_size=3)).map("".join)


@st.composite
def blocks(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    parts = draw(st.lists(PARTS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    z = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    return MeasurementBlock(
        z=z, rate_hz=draw(st.floats(1e-3, 1e6)), start_index=draw(st.integers(-10**6, 10**6)),
        labels=tuple(draw(st.lists(LABELS, min_size=cols, max_size=cols))),
        dependency_digest=draw(st.text("0123456789abcdef", max_size=12)),
        attacked=draw(st.booleans()))


@given(block=blocks())
def test_generated_blocks_round_trip_bit_for_bit(tmp_path_factory, block):
    path = tmp_path_factory.mktemp("block") / "block.csv"
    write_block_csv(block, path)
    back = read_block_csv(path)
    assert back.z.shape == block.z.shape
    assert np.array_equal(back.z.view(np.uint64), block.z.view(np.uint64))
    assert (back.labels, back.rate_hz, back.start_index, back.dependency_digest,
            back.attacked) == (block.labels, block.rate_hz, block.start_index,
                               block.dependency_digest, block.attacked)


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


def _set_meta(key, value):
    return lambda line: f"# {key}: {value}" if line.startswith(f"# {key}:") else line


def _duplicate_row(line):
    return f"{line}\n{line}" if line.startswith("40,") else line


def _delete_row(line):
    return None if line.startswith("40,") else line


def _swap_rows():
    held = []

    def edit(line):
        if line.startswith("40,"):
            held.append(line)
            return None
        return f"{line}\n{held.pop()}" if line.startswith("41,") else line
    return edit


@pytest.mark.parametrize("edit, cause", [
    (_cut_last_cell, "sample 40 has 40 entries, expected 41"),
    (_garble_second_cell, "sample 40, channel 'V:2'"),
    (_drop_rate, "rate_hz"),
    (_set_meta("rate_hz", "abc"), "bad '# rate_hz:' value 'abc'"),
    (_set_meta("start_index", "3.5"), "bad '# start_index:' value '3.5'"),
    (_set_meta("attacked", "yes"), "bad '# attacked:' value 'yes'"),
    (_duplicate_row, "sample 40 out of order, expected sample 41"),
    (_delete_row, "sample 41 out of order, expected sample 40"),
    (_swap_rows(), "sample 41 out of order, expected sample 40"),
], ids=["short-row", "bad-cell", "no-rate", "bad-rate", "bad-start", "bad-attacked",
        "duplicated-row", "deleted-row", "swapped-rows"])
def test_malformed_csv_names_the_cause(tmp_path, ieee24_blocks, edit, cause):
    _, block, _ = ieee24_blocks
    path = tmp_path / "window.csv"
    write_block_csv(block.window(31, 90), path)
    lines = [edit(line) for line in path.read_text().splitlines()]
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")
    with pytest.raises(ValueError, match=cause) as err:
        read_block_csv(path)
    assert str(path) in str(err.value)


# edits of a block file's metadata lines: a new value, an extra cell, a
# second line for the key with a new value, or no line
_META_EDITS = st.tuples(
    st.sampled_from(["pmufdi-block", "rate_hz", "start_index", "dependency", "attacked"]),
    st.sampled_from(["value", "cell", "repeat", "drop"]),
    st.sampled_from(["0", "1", "2", "7", "30", "-1", "x", "", "nan", "1e400", "d"]))


@example(edits=[("rate_hz", "cell", "5")])
@example(edits=[("start_index", "cell", "7")])
@example(edits=[("attacked", "repeat", "1")])
@example(edits=[("pmufdi-block", "value", "2")])
@given(edits=st.lists(_META_EDITS, max_size=3))
def test_a_read_block_carries_every_metadata_line_of_its_file(tmp_path_factory, edits):
    # either ValueError, or writing the block back gives each metadata line again
    path = tmp_path_factory.mktemp("meta") / "block.csv"
    write_block_csv(MeasurementBlock(z=np.ones((2, 2), dtype=complex), rate_hz=30.0,
                                     start_index=1, labels=("V:1", "V:2"),
                                     dependency_digest="d"), path)
    lines = path.read_text().splitlines()
    for key, op, value in edits:
        at = next((i for i, line in enumerate(lines) if line.startswith(f"# {key}:")), None)
        if at is None:
            continue
        line = f"# {key}: {value}"
        if op == "value":
            lines[at] = line
        elif op == "cell":
            lines[at] += f",{value}"
        elif op == "repeat":
            lines.insert(at + 1, line)
        else:
            del lines[at]
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            block = read_block_csv(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
    write_block_csv(block, path)
    written = {line.rstrip() for line in path.read_text().splitlines()}
    assert {line.rstrip() for line in lines if line.startswith("#")} <= written


def test_non_csv_file_names_the_file(tmp_path, ieee24_blocks):
    _, block, _ = ieee24_blocks
    path = tmp_path / "block.npz"
    np.savez_compressed(path, z=block.z)
    with pytest.raises(ValueError, match="not a block CSV") as err:
        read_block_csv(path)
    assert str(path) in str(err.value)


def test_column_accessor(ieee24_blocks):
    _, block, _ = ieee24_blocks
    col = block.column("V:1")
    assert np.array_equal(col, block.z[:, 0])
