import io

import numpy as np
import pytest

from rborch.sim import synthesize_window
from rborch.traces import (
    ArrivalTrace,
    ChannelTrace,
    SyntheticModel,
    TraceParseError,
    TraceValidationError,
    extend_cyclically,
    load_arrival_trace,
    load_channel_trace,
    sample_many,
)


def test_gap_fill_rule():
    csv = "tti,service_id,bits\n0,0,100\n2,0,50\n"
    tr = load_arrival_trace(io.StringIO(csv), 0)
    assert tr.bits_per_tti.tolist() == [100, 0, 50]


def test_packet_sizes_parse():
    csv = "tti,service_id,bits,packet_sizes\n0,0,100,60;40\n"
    tr = load_arrival_trace(io.StringIO(csv), 0)
    assert (tr.arrival.tolist(), tr.size.tolist(), tr.length) == ([0, 0], [60, 40], 1)
    assert tr.bits_per_tti.tolist() == [100]


def test_packet_sizes_sum_mismatch():
    csv = "tti,service_id,bits,packet_sizes\n0,0,100,60;50\n"
    with pytest.raises(TraceValidationError):
        load_arrival_trace(io.StringIO(csv), 0)


def test_negative_bits_rejected():
    with pytest.raises(TraceValidationError):
        load_arrival_trace(io.StringIO("tti,service_id,bits\n0,0,-5\n"), 0)


def test_malformed_row_reports_line():
    csv = "tti,service_id,bits\n0,0,100\nx,0,1\n"
    with pytest.raises(TraceParseError) as ei:
        load_arrival_trace(io.StringIO(csv), 0)
    assert ei.value.line == 3


def test_blank_row_skipped_but_counted():
    csv = "tti,service_id,bits\n0,0,100\n\n2,0,50\n"
    assert load_arrival_trace(io.StringIO(csv), 0).bits_per_tti.tolist() == [100, 0, 50]
    with pytest.raises(TraceParseError, match="^line 4: tti is not an integer: 'x'$"):
        load_arrival_trace(io.StringIO("tti,service_id,bits\n0,0,100\n\nx,0,1\n"), 0)


@pytest.mark.parametrize("rows, line", [("-1,0,5\n", 2), ("0,0,100\n-1,0,5\n", 3)])
@pytest.mark.parametrize("load, header", [(load_arrival_trace, "bits"), (load_channel_trace, "bits_per_rb")])
def test_negative_tti_rejected_at_its_line(rows, line, load, header):
    with pytest.raises(TraceParseError, match=f"^line {line}: tti must be non-negative$"):
        load(io.StringIO(f"tti,service_id,{header}\n{rows}"), 0)


def test_non_increasing_tti_rejected():
    csv = "tti,service_id,bits\n2,0,100\n1,0,50\n"
    with pytest.raises(TraceParseError):
        load_arrival_trace(io.StringIO(csv), 0)


def test_other_services_filtered():
    csv = "tti,service_id,bits\n0,0,100\n0,1,7\n1,1,9\n1,0,50\n"
    tr = load_arrival_trace(io.StringIO(csv), 1)
    assert tr.bits_per_tti.tolist() == [7, 9]


def test_arrival_plain_rows_are_one_packet_each():
    csv = "tti,service_id,bits\n0,3,10\n2,3,25\n3,3,0\n4,3,7\n"
    tr = load_arrival_trace(io.StringIO(csv), 3)
    assert tr.service_id == 3
    assert tr.bits_per_tti.tolist() == [10, 0, 25, 0, 7]
    assert (tr.arrival.tolist(), tr.size.tolist(), tr.length) == ([0, 2, 4], [10, 25, 7], 5)


def test_arrival_packets_keep_empty_tti():
    csv = "tti,service_id,bits,packet_sizes\n0,0,100,60;40\n1,0,0,\n2,0,30,30\n"
    tr = load_arrival_trace(io.StringIO(csv), 0)
    assert (tr.arrival.tolist(), tr.size.tolist(), tr.length) == ([0, 0, 2], [60, 40, 30], 3)
    assert tr.bits_per_tti.tolist() == [100, 0, 30]


def test_arrival_trace_columns_are_checked():
    ok = ArrivalTrace(0, [0, 0, 2], [60, 40, 30], 3)
    assert ok.arrival.dtype == ok.size.dtype == np.int64
    assert ok.bits_per_tti.tolist() == [100, 0, 30]
    assert ArrivalTrace(0, [], [], 4).bits_per_tti.tolist() == [0, 0, 0, 0]
    bad = {
        "unequal columns": ([0, 1], [5], 2),
        "out of order": ([1, 0], [5, 5], 2),
        "negative arrival": ([-1, 0], [5, 5], 2),
        "arrival at length": ([0, 2], [5, 5], 2),
        "zero size": ([0, 1], [5, 0], 2),
        "zero length": ([], [], 0),
    }
    for arrival, size, length in bad.values():
        with pytest.raises(TraceValidationError):
            ArrivalTrace(0, arrival, size, length)


def test_packet_row_errors_name_their_line():
    head = "tti,service_id,bits,packet_sizes\n0,0,100,60;40\n"
    cases = [
        ("1,0,50,20;x\n", TraceParseError, "line 3: bad packet_sizes: '20;x'"),
        ("1,0,50,50;0\n", TraceValidationError, "line 3: non-positive packet size"),
        ("1,0,50,20;20\n", TraceValidationError, "line 3: packet sizes sum to 40, bits say 50"),
        ("1,0,b,\n", TraceParseError, "line 3: bits is not an integer: 'b'"),
    ]
    for row, exc, msg in cases:
        with pytest.raises(exc) as ei:
            load_arrival_trace(io.StringIO(head + row + "2,0,5,5\n"), 0)
        assert str(ei.value) == msg


def test_channel_load_and_positivity():
    tr = load_channel_trace(io.StringIO("tti,service_id,bits_per_rb\n0,1,25\n1,1,30\n2,1,25\n"), 1)
    assert tr.service_id == 1
    assert tr.bits_per_rb.tolist() == [25, 30, 25]
    with pytest.raises(TraceValidationError):
        load_channel_trace(io.StringIO("tti,service_id,bits_per_rb\n0,1,0\n"), 1)


def write_traces(tmp_path, arr_name, ch_name):
    arr, ch = tmp_path / arr_name, tmp_path / ch_name
    arr.write_text("tti,service_id,bits\n0,0,100\n2,0,50\n")
    ch.write_text("tti,service_id,bits_per_rb\n0,0,25\n1,0,30\n")
    return arr, ch


def test_path_without_csv_suffix(tmp_path):
    arr, ch = write_traces(tmp_path, "arr.dat", "channel")
    assert load_arrival_trace(str(arr), 0).bits_per_tti.tolist() == [100, 0, 50]
    assert load_channel_trace(str(ch), 0).bits_per_rb.tolist() == [25, 30]


def test_pathlib_path(tmp_path):
    arr, ch = write_traces(tmp_path, "arr.csv", "channel.csv")
    assert load_arrival_trace(arr, 0).bits_per_tti.tolist() == [100, 0, 50]
    assert load_channel_trace(ch, 0).bits_per_rb.tolist() == [25, 30]


def test_path_closed_after_error(tmp_path, monkeypatch):
    p = tmp_path / "bad.csv"
    p.write_text("tti,service_id,bits\n0,0,100\n1,0,x\n")
    opened = []
    real_open = open

    def spy(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr("builtins.open", spy)
    with pytest.raises(TraceParseError) as ei:
        load_arrival_trace(p, 0)
    assert ei.value.line == 3
    assert opened and all(fh.closed for fh in opened)


def test_channel_gap_rejected():
    with pytest.raises(TraceValidationError):
        load_channel_trace(io.StringIO("tti,service_id,bits_per_rb\n0,0,25\n2,0,30\n"), 0)


def test_constant_model():
    rng = np.random.default_rng(0)
    m = SyntheticModel("constant", (100,))
    assert sample_many(m, rng, 1).tolist() == [100]
    assert sample_many(m, rng, 5).tolist() == [100] * 5


def test_single_entry_table():
    rng = np.random.default_rng(0)
    m = SyntheticModel("empirical-table", (42,), (1.0,))
    assert sample_many(m, rng, 1).tolist() == [42]


def test_two_point_lln_mean_100():
    m = SyntheticModel("two-point", (0, 200), (0.5, 0.5))
    draws = sample_many(m, np.random.default_rng(123), 1_000_000)
    assert abs(draws.mean() - 100.0) <= 1.0  # +/-1 %


def test_channel_two_point_lln_mean_14():
    m = SyntheticModel("two-point", (10, 50), (0.9, 0.1))
    draws = sample_many(m, np.random.default_rng(7), 1_000_000)
    assert abs(draws.mean() - 14.0) <= 0.14  # direct expectation 0.9*10+0.1*50


def test_seeded_reproducibility():
    m = SyntheticModel("uniform-integer", (10, 20))
    a = sample_many(m, np.random.default_rng(42), 1000)
    b = sample_many(m, np.random.default_rng(42), 1000)
    assert np.array_equal(a, b)
    assert a.min() >= 10 and a.max() <= 20


def test_bits_per_rb_requires_positive_support():
    m = SyntheticModel("two-point", (0, 50), (0.5, 0.5))
    arrival = SyntheticModel("constant", (100,))
    with pytest.raises(ValueError, match="strictly positive"):
        synthesize_window(arrival, m, 10, 2, np.random.default_rng(0), np.random.default_rng(1))
    ok = synthesize_window(arrival, SyntheticModel("two-point", (1, 50), (0.5, 0.5)), 10, 2,
                           np.random.default_rng(0), np.random.default_rng(1))
    assert len(ok.per_rb) == 20 and ok.per_rb.bits.min() >= 1


def test_model_validation():
    with pytest.raises(ValueError):
        SyntheticModel("two-point", (0, 200), (0.5, 0.6))  # probs don't sum to 1
    with pytest.raises(ValueError):
        SyntheticModel("constant", (-1,))
    with pytest.raises(ValueError):
        SyntheticModel("nope", (1,))
    with pytest.raises(ValueError):
        SyntheticModel("uniform-integer", (20, 10))


def test_extend_cyclically():
    vals = np.array([1, 2, 3])
    out = extend_cyclically(vals, 8)
    assert out.tolist() == [1, 2, 3, 1, 2, 3, 1, 2]
    assert extend_cyclically(vals, 2).tolist() == [1, 2]


SHARED_FILES = {
    "clean": "tti,service_id,bits\n0,0,100\n0,1,40\n2,0,50\n1,1,10\n",
    "bad tti in service 1 before a malformed row": "tti,service_id,bits\n0,0,1\n3,1,2\n2,1,3\n1,0,4\n0,0\n",
    "malformed row before bad tti in service 1": "tti,service_id,bits\n0,0,1\n3,1,2\n1,x,3\n2,1,4\n",
    "bad value in service 0 only": "tti,service_id,bits\n0,0,-5\n0,1,7\n",
    "no rows for service 2": "tti,service_id,bits\n0,0,1\n0,1,2\n",
    "bad header": "tti,service,bits\n0,0,1\n",
}


def load_outcome(*args):
    try:
        return load_arrival_trace(*args).bits_per_tti.tolist()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(SHARED_FILES))
def test_shared_tables_read_once_with_the_same_outcomes(name, tmp_path, monkeypatch):
    path = tmp_path / "arr.csv"
    path.write_text(SHARED_FILES[name])
    fresh = [load_outcome(path, sid) for sid in range(3)]
    opened = []
    real_open = open

    def spy(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    tables = {}
    assert [load_outcome(path, sid, tables) for sid in range(3)] == fresh
    # a file whose header fails is not kept: each call raises the same error again
    assert len(opened) == (3 if name == "bad header" else 1)
