"""Configuration and trace I/O contract tests."""

import itertools
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import replicast as rc
from oracles import reference_first_invalid_row, reference_parse_trace
from replicast.config import _TRACE_ROW_FMT, TRACE_HEADER, dump_json


def make_cfg(**overrides):
    base = dict(metric_kind="cc", target_value=5.0, n_max=4)
    base.update(overrides)
    return rc.AutoscalerConfig(**base)


class TestAutoscalerConfig:
    def test_defaults_match_stock_knative(self):
        cfg = make_cfg()
        assert cfg.t_eva_s == 2.0
        assert cfg.stable_window_s == 60.0
        assert cfg.mu_pro == 1.0
        assert cfg.mu_dep == 2.0

    @pytest.mark.parametrize("field,bad", [
        ("target_value", 0.0),
        ("target_value", -3.0),
        ("n_max", 0),
        ("t_eva_s", 0.0),
        ("t_eva_s", -1.0),
        ("stable_window_s", 0.5),
        ("mu_pro", 0.0),
        ("mu_dep", -2.0),
    ])
    def test_nonpositive_fields_rejected_with_field_name(self, field, bad):
        with pytest.raises(rc.ValidationError) as exc:
            make_cfg(**{field: bad})
        assert field in str(exc.value)

    @pytest.mark.parametrize("field", ["target_value", "t_eva_s", "mu_pro"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_fields_rejected(self, field, bad):
        with pytest.raises(rc.ValidationError):
            make_cfg(**{field: bad})

    def test_bad_metric_kind_rejected(self):
        with pytest.raises(rc.ValidationError, match="metric_kind"):
            make_cfg(metric_kind="latency")

    def test_n_max_must_be_integer(self):
        with pytest.raises(rc.ValidationError, match="n_max"):
            make_cfg(n_max=2.5)

    @pytest.mark.parametrize("window,expected", [
        (60.0, 60), (59.2, 60), (1.0, 1), (1.5, 2),
    ])
    def test_window_length_is_ceiling_of_seconds(self, window, expected):
        assert make_cfg(stable_window_s=window).window_length == expected

    def test_dict_round_trip(self):
        cfg = make_cfg(target_value=7.5, n_max=9, mu_dep=3.0)
        assert rc.AutoscalerConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        data = make_cfg().to_dict()
        data["panic_window"] = 6.0
        with pytest.raises(rc.ValidationError, match="panic_window"):
            rc.AutoscalerConfig.from_dict(data)

    def test_missing_key_rejected(self):
        data = make_cfg().to_dict()
        del data["target_value"]
        with pytest.raises(rc.ValidationError, match="target_value"):
            rc.AutoscalerConfig.from_dict(data)

    def test_json_file_round_trip(self, tmp_path):
        cfg = make_cfg(metric_kind="rps", target_value=12.0)
        path = tmp_path / "autoscaler.json"
        rc.save_autoscaler_config(cfg, path)
        assert rc.load_autoscaler_config(path) == cfg

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "autoscaler config must be a JSON object, got list"),
        ('{"n_max": 4', "not valid JSON"),
    ])
    def test_config_file_that_is_no_json_object_rejected(self, tmp_path, text, message):
        path = tmp_path / "autoscaler.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(rc.ValidationError, match=message):
            rc.load_autoscaler_config(path)

    def test_immutable(self):
        cfg = make_cfg()
        with pytest.raises(Exception):
            cfg.n_max = 7


class TestTraceRows:
    def test_row_fields_validated(self):
        with pytest.raises(rc.ValidationError, match="row 1: per_container_rate must be >= 0"):
            rc.trace_from_arrays([-1.0], [0.5], [0.2])
        with pytest.raises(rc.ValidationError, match="row 2: observed_metric must be >= 0"):
            rc.trace_from_arrays([1.0, 1.0], [0.5, -0.5], [0.2, 0.2])
        with pytest.raises(rc.ValidationError, match="mean_response_time_s must be > 0"):
            rc.trace_from_arrays([1.0], [0.5], [0.0])
        with pytest.raises(rc.ValidationError, match="observed_metric must be finite"):
            rc.trace_from_arrays([1.0], [math.nan], [0.2])
        with pytest.raises(rc.ValidationError, match="numeric column"):
            rc.trace_from_arrays([True], [0.5], [0.2])
        with pytest.raises(rc.ValidationError, match="lengths differ"):
            rc.trace_from_arrays([1.0, 2.0], [0.5], [0.2])

    def test_first_bad_row_and_first_rule_are_named(self):
        # row 2 breaks two rules and row 3 a third; the report names the
        # earliest row, and within it the rule checked first
        with pytest.raises(rc.ValidationError,
                           match=r"row 2: per_container_rate must be finite, got inf"):
            rc.trace_from_arrays([1.0, math.inf, -1.0], [0.5, -1.0, 0.5],
                                 [0.2, 0.2, 0.2])

    def test_vectorised_rules_match_row_by_row_reference(self):
        # every single row over values on each side of every rule, and
        # every pair of rows over a smaller set, against a scalar check
        wide = (0.0, -0.0, 0.5, -0.5, math.inf, -math.inf, math.nan)
        narrow = (0.0, 0.5, -0.5, math.nan)
        cases = [[row] for row in itertools.product(wide, repeat=3)]
        rows = list(itertools.product(narrow, repeat=3))
        cases += [list(pair) for pair in itertools.product(rows, repeat=2)]
        for case in cases:
            want = reference_first_invalid_row(case)
            if want is None:
                assert len(rc.trace_from_arrays(*zip(*case))) == len(case)
                continue
            with pytest.raises(rc.ValidationError) as exc:
                rc.trace_from_arrays(*zip(*case))
            assert str(exc.value) == f"trace row {want[0] + 1}: {want[1]}", case

    def test_zero_rate_row_allows_zero_rt(self):
        trace = rc.trace_from_arrays([0.0], [0.0], [0.0])
        assert trace.rates.tolist() == [0.0]

    def test_trace_from_arrays_and_accessors(self):
        trace = rc.trace_from_arrays([1.0, 2.0], [0.2, 0.4], [0.21, 0.2])
        assert len(trace) == 2
        assert trace.n_distinct_rates == 2
        assert trace.rates.tolist() == [1.0, 2.0]
        assert trace.observed.tolist() == [0.2, 0.4]
        assert trace.response_times.tolist() == [0.21, 0.2]
        assert trace.rates.dtype == np.float64

    def test_distinct_rates_match_set_of_values(self):
        # seeded columns drawn from a few levels, so values repeat, with
        # both signs of zero; plus one row and no rows
        gen = np.random.default_rng(11)
        levels = np.array([0.0, -0.0, 0.5, 1.0, 2.5, 1e-300, 7.0, 1e6])
        cases = [[], [0.0], [-0.0], [3.0], [0.0, -0.0]]
        for _ in range(100):
            size = int(gen.integers(1, 40))
            cases.append(gen.choice(levels[:int(gen.integers(1, levels.size + 1))],
                                    size=size).tolist())
        for rates in cases:
            trace = rc.trace_from_arrays(rates, [0.0] * len(rates), [0.2] * len(rates))
            assert trace.n_distinct_rates == len(set(rates)), rates

    def test_columns_are_copied_and_read_only(self):
        rates = np.array([1.0, 2.0])
        trace = rc.trace_from_arrays(rates, [0.2, 0.4], [0.21, 0.2])
        rates[0] = 5.0
        assert trace.rates.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            trace.observed[0] = 1.0
        with pytest.raises(Exception):
            trace.rates = np.array([3.0])

    def test_ragged_column_rejected(self):
        with pytest.raises(rc.ValidationError,
                           match="per_container_rate must be a one-dimensional numeric column"):
            rc.ProfilingTrace([1.0, [2.0, 3.0]], [0.2, 0.4], [0.2, 0.2])

    def test_extend_concatenates(self):
        a = rc.trace_from_arrays([1.0], [0.2], [0.2])
        b = rc.trace_from_arrays([2.0], [0.4], [0.2])
        joined = a.extend(b)
        assert len(joined) == 2
        assert joined.n_distinct_rates == 2
        assert joined.rates.tolist() == [1.0, 2.0]
        assert not joined.response_times.flags.writeable


class TestDumpJson:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_a_numerical_error(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(rc.NumericalError, match="non-finite"):
            dump_json({"nested": [1.0, value]}, path)
        assert not path.exists()


class TestTraceFileFormat:
    def test_two_row_example(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.21,0.205\n5.0,1.1,0.22\n")
        trace = rc.parse_trace(path)
        assert len(trace) == 2
        assert trace.observed[1] == 1.1

    def test_header_only_file_is_insufficient(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRACE_HEADER + "\n")
        with pytest.raises(rc.InsufficientDataError):
            rc.parse_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(rc.TraceParseError, match="empty file, expected header"):
            rc.parse_trace(path)

    def test_blank_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.2,0.2\n\n5.0,1.0,0.2\n")
        with pytest.raises(rc.TraceParseError, match="line 3: blank row"):
            rc.parse_trace(path)

    def test_malformed_row_names_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\nabc,1,1\n")
        with pytest.raises(rc.TraceParseError, match="line 2"):
            rc.parse_trace(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("rate,metric,rt\n1.0,0.2,0.2\n")
        with pytest.raises(rc.TraceParseError, match="line 1"):
            rc.parse_trace(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.2\n")
        with pytest.raises(rc.TraceParseError, match="line 2"):
            rc.parse_trace(path)

    def test_negative_rate_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n-1.0,0.2,0.2\n2.0,0.4,0.2\n")
        with pytest.raises(rc.TraceParseError, match="line 2"):
            rc.parse_trace(path)

    @pytest.mark.parametrize("body, line, rule", [
        ("1.0,0.2,0.2\n2.0,0.4,0.2\n3.0,-0.1,0.2\n", 4, "observed_metric must be >= 0"),
        ("1.0,0.2,0.2\n2.0,0.4,0.0\nabc,1,1\n", 3, "mean_response_time_s must be > 0"),
        ("1.0,0.2,0.2\n2.0,abc,1\n-1.0,0.2,0.2\n", 3, "observed_metric is not a number"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, body, line, rule):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n{body}")
        with pytest.raises(rc.TraceParseError, match=f"line {line}: {rule}"):
            rc.parse_trace(path)

    @staticmethod
    def long_trace_file(path, rows=5400):
        """A trace of profile-compare's size, written as fit reads it."""
        rng = np.random.default_rng(5)
        rc.write_trace(rc.trace_from_arrays(np.repeat(np.arange(1.0, 10.0), rows // 9),
                                            rng.exponential(2.0, rows),
                                            0.2 + rng.exponential(0.01, rows)), path)
        return path.read_text(encoding="utf-8")

    def test_long_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "t.csv"
        text = self.long_trace_file(path)
        back = rc.parse_trace(path)
        rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
        want = np.array(rows).T
        for k, name in enumerate(("rates", "observed", "response_times")):
            assert getattr(back, name).tobytes() == want[k].tobytes()
        again = tmp_path / "again.csv"
        rc.write_trace(back, again)
        assert again.read_bytes() == path.read_bytes()
        # the writer formats chunks of rows; each row reads as one row's format
        one_by_one = (_TRACE_ROW_FMT % row for row in zip(
            back.rates.tolist(), back.observed.tolist(), back.response_times.tolist()))
        assert text == TRACE_HEADER + "\n" + "".join(one_by_one)

    @pytest.mark.parametrize("row, rule", [
        ("1.0,0.2,abc", "mean_response_time_s is not a number: 'abc'"),
        ("1.0,0.2", "expected 3 fields, got 2"),
        ("", "blank row")])
    def test_bad_row_late_in_a_long_file_names_its_line(self, tmp_path, row, rule):
        path = tmp_path / "t.csv"
        lines = self.long_trace_file(path).splitlines()
        lines[4999] = row
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(rc.TraceParseError, match=f"line 5000: {rule}"):
            rc.parse_trace(path)

    def test_single_distinct_rate_is_insufficient(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.2,0.2\n1.0,0.25,0.21\n")
        with pytest.raises(rc.InsufficientDataError):
            rc.parse_trace(path)

    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        rc.write_trace(rc.ProfilingTrace(()), path)
        assert path.read_text(encoding="utf-8") == TRACE_HEADER + "\n"

    def test_round_trip_exact_for_short_decimals(self, tmp_path):
        trace = rc.trace_from_arrays([1.0, 5.0, 12.25], [0.21, 1.1, 3.5],
                                     [0.205, 0.22, 0.31])
        path = tmp_path / "t.csv"
        rc.write_trace(trace, path)
        back = rc.parse_trace(path)
        for name in ("rates", "observed", "response_times"):
            assert np.array_equal(getattr(back, name), getattr(trace, name))

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
        ),
        min_size=2, max_size=12,
    ))
    def test_round_trip_lossless_at_12_significant_digits(self, tmp_path_factory, rows):
        trace = rc.trace_from_arrays(*zip(*rows))
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        rc.write_trace(trace, path)
        try:
            back = rc.parse_trace(path)
        except rc.InsufficientDataError:
            assert trace.n_distinct_rates < 2
            return
        for name in ("rates", "observed", "response_times"):
            for a, b in zip(getattr(trace, name), getattr(back, name)):
                assert "%.12g" % a == "%.12g" % b


def _translate_digits(zero: str):
    table = str.maketrans("0123456789", "".join(chr(ord(zero) + k) for k in range(10)))
    return lambda v: ("%.12g" % v).translate(table)


# Ways to write a number that float reads; numpy's parser refuses the
# underscored and non-ASCII ones, and reads the \x1c-padded one, which
# float refuses.
_NUMBER_FORMS = (
    lambda v: "%.12g" % v,
    repr,
    lambda v: "%.3e" % v,
    lambda v: " %.12g\t" % v,
    lambda v: "+%.12g" % v,
    lambda v: "0_%.12g" % v,
    _translate_digits("٠"),
    _translate_digits("０"),
    lambda v: "%.12g\x1c" % v,
)
_MUTATIONS = ("none", "blank row", "trailing blank row", "spaces row", "crlf", "cr",
              "two fields", "four fields", "bad token", "negative", "not finite",
              "zero response time", "header only", "no final newline", "not utf-8")


@st.composite
def trace_texts(draw):
    """A trace CSV of valid rows in mixed number forms, mutated once.

    The "not utf-8" mutation puts a lone surrogate into a row, which
    ``encode("utf-8", "surrogateescape")`` writes as a byte that is not
    UTF-8."""
    value = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    rows = [list(row) for row in draw(st.lists(st.tuples(value, value, value),
                                               min_size=1, max_size=6))]
    mutation = draw(st.sampled_from(_MUTATIONS))
    at = draw(st.integers(0, len(rows) - 1))
    if mutation == "negative":
        rows[at][draw(st.integers(0, 1))] = -1.0
    elif mutation == "not finite":
        rows[at][draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf]))
    elif mutation == "zero response time":
        rows[at][0], rows[at][2] = 1.0, 0.0
    forms = st.one_of(st.just(_NUMBER_FORMS[0]), st.sampled_from(_NUMBER_FORMS))
    lines = [[draw(forms)(v) for v in row] for row in rows]
    if mutation == "two fields":
        lines[at].pop()
    elif mutation == "four fields":
        lines[at].append("1")
    elif mutation == "bad token":
        lines[at][draw(st.integers(0, 2))] = draw(st.sampled_from(["abc", "", "1e", "0x10", "1 2"]))
    lines = [",".join(parts) for parts in lines]
    if mutation == "not utf-8":
        cut = draw(st.integers(0, len(lines[at])))
        byte = chr(draw(st.integers(0xdc80, 0xdcff)))
        lines[at] = lines[at][:cut] + byte + lines[at][cut:]
    if mutation in ("blank row", "spaces row"):
        lines.insert(draw(st.integers(0, len(lines))), "" if mutation == "blank row" else "   ")
    elif mutation == "trailing blank row":
        lines.append("")
    elif mutation == "header only":
        lines = []
    newline = {"crlf": "\r\n", "cr": "\r"}.get(mutation, "\n")
    end = "" if mutation == "no final newline" else newline
    return newline.join([TRACE_HEADER, *lines]) + end


def _outcome(read, path):
    """The columns' bytes a reader returns, or the type and text of its error."""
    try:
        return [col.tobytes() for col in read(path)]
    except (rc.TraceParseError, rc.InsufficientDataError) as exc:
        return type(exc), str(exc)


def _parse_columns(path):
    trace = rc.parse_trace(path)
    return trace.rates, trace.observed, trace.response_times


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in MiB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTraceReaders:
    """parse_trace against the line-by-line reference reader."""

    @given(trace_texts())
    def test_reader_agrees_with_the_line_scan(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert _outcome(_parse_columns, path) == _outcome(reference_parse_trace, path)

    def test_trailing_blank_row_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.2,0.2\n5.0,1.0,0.2\n\n")
        with pytest.raises(rc.TraceParseError, match="line 4: blank row"):
            rc.parse_trace(path)

    @pytest.mark.parametrize("end, error, message", [
        ("", rc.InsufficientDataError, "0 distinct"),
        ("\n", rc.InsufficientDataError, "0 distinct"),
        ("\r\n", rc.InsufficientDataError, "0 distinct"),
        ("\n\n", rc.TraceParseError, "line 2: blank row"),
        ("\n\n\n", rc.TraceParseError, "line 2: blank row")])
    def test_file_without_rows_is_refused_without_a_warning(self, tmp_path, end, error,
                                                             message):
        # numpy's parser warns on input that holds no data
        path = tmp_path / "t.csv"
        path.write_bytes((TRACE_HEADER + end).encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=message):
                rc.parse_trace(path)
        assert caught == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("body, want", [
        ("1.0,0.2,0.2\n5.0,1.0,0.2\n", None),
        ("1.0,0.2,0.2\n5.0,1.0\n", "line 3: expected 3 fields, got 2")])
    def test_trace_is_read_from_a_pipe(self, tmp_path, body, want):
        # a pipe cannot be read twice, so the line scan reads it
        path = tmp_path / "t.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(f"{TRACE_HEADER}\n{body}",))
        writer.start()
        try:
            if want is None:
                assert rc.parse_trace(path).rates.tolist() == [1.0, 5.0]
            else:
                with pytest.raises(rc.TraceParseError, match=want):
                    rc.parse_trace(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_separator_that_float_refuses_is_refused(self, tmp_path):
        # numpy's parser would strip \x1c as whitespace and read 5.0
        path = tmp_path / "t.csv"
        path.write_text(f"{TRACE_HEADER}\n1.0,0.2,0.2\n5.0\x1c,1.0,0.2\n")
        with pytest.raises(rc.TraceParseError,
                           match=r"line 3: per_container_rate is not a number: '5.0\\x1c'"):
            rc.parse_trace(path)

    @pytest.mark.parametrize("tail, message", [
        (b"\xff,1.0,0.2\n", r"per_container_rate is not a number: '\\udcff'"),
        (b"5.0,1.0,0.2\xc3", r"mean_response_time_s is not a number: '0.2\\udcc3'")])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, tail, message):
        # past the first read chunk, so the line comes from the whole file;
        # the byte reads as a lone surrogate, which no number holds
        path = tmp_path / "t.csv"
        rows = "".join(f"{1 + k % 2}.0,0.2,0.2\n" for k in range(10_000))
        path.write_bytes(f"{TRACE_HEADER}\n{rows}".encode() + tail)
        with pytest.raises(rc.TraceParseError, match=f"line 10002: {message}"):
            rc.parse_trace(path)

    def test_long_trace_round_trips_in_bounded_memory(self, tmp_path):
        # 20 times profile-compare's 5,400 rows: 2.5 MiB of columns and
        # 3.4 MB of text.  The bounds leave room for one copy of the rows
        # beside the returned columns when reading, and for a chunk of
        # rows when writing.  A reader that keeps a str per line or a
        # Python float per token, or a writer that turns whole columns
        # into lists of floats, needs several times more.
        rows = 108_000
        rng = np.random.default_rng(11)
        trace = rc.trace_from_arrays(np.repeat(np.arange(1.0, 10.0), rows // 9),
                                     rng.exponential(2.0, rows),
                                     0.2 + rng.exponential(0.01, rows))
        path = tmp_path / "t.csv"
        _, write_mib = _traced_peak(rc.write_trace, trace, path)
        back, read_mib = _traced_peak(rc.parse_trace, path)
        again = tmp_path / "again.csv"
        rc.write_trace(back, again)
        assert again.read_bytes() == path.read_bytes()
        assert write_mib < 4.0, f"write_trace peak {write_mib:.1f} MiB"
        assert read_mib < 8.0, f"parse_trace peak {read_mib:.1f} MiB"
