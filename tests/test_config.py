"""Configuration and trace I/O contract tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import replicast as rc
from replicast.config import TRACE_HEADER, dump_json


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
        names = TRACE_HEADER.split(",")

        def first_invalid(rows):
            for i, (rate, obs, rt) in enumerate(rows):
                for name, v in zip(names, (rate, obs, rt)):
                    if not math.isfinite(v):
                        return i, f"{name} must be finite, got {v!r}"
                if rate < 0:
                    return i, f"per_container_rate must be >= 0, got {rate!r}"
                if obs < 0:
                    return i, f"observed_metric must be >= 0, got {obs!r}"
                if rate > 0 and not rt > 0:
                    return i, ("mean_response_time_s must be > 0 when "
                               f"per_container_rate > 0, got {rt!r}")
            return None

        wide = (0.0, -0.0, 0.5, -0.5, math.inf, -math.inf, math.nan)
        narrow = (0.0, 0.5, -0.5, math.nan)
        cases = [[row] for row in itertools.product(wide, repeat=3)]
        rows = list(itertools.product(narrow, repeat=3))
        cases += [list(pair) for pair in itertools.product(rows, repeat=2)]
        for case in cases:
            want = first_invalid(case)
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
