"""External gradient-log pipeline tests on synthetic fixtures."""

import csv
import json
import math

import numpy as np
import pytest

from passklab import (
    DomainError,
    FilterSpec,
    GradLogRecord,
    IdentityCheckError,
    SuccessProfile,
    conflict_report,
    diagnose,
    filter_by_difficulty,
    load_gradlog,
    make_synthetic_conflict_log,
    scatter_export,
)
from passklab.gradlog import (
    export_gradlog,
    report_rows_to_csv,
    report_to_json,
)
from passklab.interference import GradientTable


@pytest.fixture(scope="module")
def conflict_log():
    return make_synthetic_conflict_log(n=600, d=64, seed=0)


@pytest.fixture(scope="module")
def conflict_filtered(conflict_log):
    return filter_by_difficulty(conflict_log, FilterSpec(delta1=0.85, delta2=0.10))


class TestLoadGradlog:
    def test_round_trip_bit_exact(self, tmp_path):
        records = make_synthetic_conflict_log(n=10, d=8, seed=3)
        path = tmp_path / "log.jsonl"
        export_gradlog(records, path)
        loaded = load_gradlog(path)
        assert len(loaded) == 10
        for a, b in zip(records, loaded, strict=True):
            assert a.prompt_id == b.prompt_id
            assert a.pass1 == b.pass1
            np.testing.assert_array_equal(a.grad, b.grad)
            assert a.label == b.label

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DomainError, match="empty"):
            load_gradlog(path)

    def test_invalid_pass1_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\n'
            '{"prompt_id": "b", "pass1": 1.2, "grad": [1.0]}\n'
        )
        with pytest.raises(DomainError, match="line 2"):
            load_gradlog(path)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "dims.jsonl"
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0, 2.0]}\n'
            '{"prompt_id": "b", "pass1": 0.5, "grad": [1.0]}\n'
        )
        with pytest.raises(DomainError, match="line 2"):
            load_gradlog(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "syntax.jsonl"
        path.write_text('{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\nnot json\n')
        with pytest.raises(DomainError, match="line 2"):
            load_gradlog(path)

    def test_duplicate_prompt_id_names_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\n'
            '{"prompt_id": "b", "pass1": 0.5, "grad": [1.0]}\n'
            '{"prompt_id": "a", "pass1": 0.2, "grad": [2.0]}\n'
        )
        with pytest.raises(DomainError, match="line 3: duplicate prompt_id 'a'"):
            load_gradlog(path)

    def test_nonfinite_gradient_rejected(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        path.write_text('{"prompt_id": "a", "pass1": 0.5, "grad": [1e999]}\n')
        with pytest.raises(DomainError, match="line 1"):
            load_gradlog(path)

    @pytest.mark.parametrize("grad", [[1.5, 2**64], [-1, 2**63], [2**64, -(2**70)]])
    def test_integers_beyond_64_bits_load_as_floats(self, tmp_path, grad):
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps({"prompt_id": "a", "pass1": 0.5, "grad": grad}) + "\n")
        loaded = load_gradlog(path)[0].grad
        assert loaded.dtype == float and loaded.tolist() == [float(v) for v in grad]

    def test_integer_too_large_for_a_float_names_line(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0, 2.0]}\n'
            + json.dumps({"prompt_id": "b", "pass1": 0.5, "grad": [1.5, 10**400]})
            + "\n"
        )
        with pytest.raises(DomainError, match=r"line 2: int too large to convert to float"):
            load_gradlog(path)

    @pytest.mark.parametrize(
        "fields,name", [('"pass1": true', "pass1"), ('"pass1": 1, "mass": false', "mass")]
    )
    def test_boolean_pass1_or_mass_names_line(self, tmp_path, fields, name):
        path = tmp_path / "bool.jsonl"
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\n'
            '{"prompt_id": "b", ' + fields + ', "grad": [1.0]}\n'
        )
        with pytest.raises(
            DomainError, match=f"line 2: {name} must be a number, not true/false"
        ):
            load_gradlog(path)


    @pytest.mark.parametrize("key", ["pass1", "grad"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "missing.jsonl"
        record = {"prompt_id": "b", "pass1": 0.5, "grad": [1.0]}
        del record[key]
        path.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\n' + json.dumps(record) + "\n"
        )
        with pytest.raises(DomainError) as exc:
            load_gradlog(path)
        assert str(exc.value) == f"{path}: line 2: missing key {key!r}"


class TestCodeBuiltGrad:
    # a record built in code follows the number rule of a loaded log

    @pytest.mark.parametrize(
        "grad", [[True, 1.5], [1.5, False], [np.True_, 1.0], np.array([True, False])]
    )
    def test_true_false_refused(self, grad):
        with pytest.raises(DomainError, match="grad"):
            GradLogRecord("a", 0.5, grad)

    def test_true_false_refused_by_the_loader_too(self, tmp_path):
        path = tmp_path / "bool.jsonl"
        path.write_text('{"prompt_id": "a", "pass1": 0.5, "grad": [true, 1.5]}\n')
        with pytest.raises(DomainError, match="line 1: grad entries must be finite numbers"):
            load_gradlog(path)

    @pytest.mark.parametrize("grad", [[1.5, 2**64], [-1, 2**63], [2**64, -(2**70)]])
    def test_integers_beyond_64_bits_become_floats(self, tmp_path, grad):
        built = GradLogRecord("a", 0.5, grad).grad
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps({"prompt_id": "a", "pass1": 0.5, "grad": grad}) + "\n")
        loaded = load_gradlog(path)[0].grad
        assert built.dtype == float and built.tobytes() == loaded.tobytes()

    def test_integer_too_large_for_a_float_refused(self):
        with pytest.raises(DomainError, match="int too large to convert to float"):
            GradLogRecord("a", 0.5, [1.5, 10**400])

    @pytest.mark.parametrize("grad", [["1.5"], [None, 1.0], [[1.0], [1.0, 2.0]]])
    def test_text_null_and_ragged_lists_refused(self, grad):
        with pytest.raises(DomainError, match="grad entries must be finite numbers"):
            GradLogRecord("a", 0.5, grad)

    @pytest.mark.parametrize(
        "grad,message",
        [
            ([], "grad must be a nonempty 1-d vector"),
            ([np.nan], "grad entries must be finite numbers, got NaN"),
            (np.array([np.inf]), "grad entries must be finite numbers, got Infinity"),
        ],
        ids=["empty", "nan", "inf"],
    )
    def test_empty_or_nonfinite_grad_refused(self, grad, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            GradLogRecord("a", 0.5, grad)

    @pytest.mark.parametrize(
        "grad",
        [
            np.array([1.5, -2.0]),
            np.array([3, -4], dtype=np.int32),
            np.array([1.5, -2.0], dtype=np.float32),
            [np.float64(1.5), np.int64(-2)],
            np.array([1.5, -2], dtype=object),
        ],
    )
    def test_numpy_arrays_and_scalars_accepted(self, grad):
        got = GradLogRecord("a", 0.5, grad).grad
        assert got.dtype == float
        assert got.tolist() == [float(v) for v in grad]


class TestFilterByDifficulty:
    def test_threshold_bands(self):
        records = [
            GradLogRecord("lo", 0.05, np.ones(2)),
            GradLogRecord("mid", 0.5, np.ones(2)),
            GradLogRecord("hi", 0.9, np.ones(2)),
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        assert [r.prompt_id for r in filtered.records] == ["lo", "hi"]
        assert filtered.tags == ("hard", "easy")
        assert filtered.n_hard == 1 and filtered.n_easy == 1

    def test_boundary_values_dropped(self):
        records = [
            GradLogRecord("at_d2", 0.10, np.ones(2)),
            GradLogRecord("at_d1", 0.85, np.ones(2)),
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        assert len(filtered.records) == 0

    def test_counts_summary_format(self, conflict_filtered):
        text = conflict_filtered.counts_summary()
        n = len(conflict_filtered.records)
        assert text.startswith(f"{n} prompts: {conflict_filtered.n_hard} hard, ")
        assert "ratio" in text and text.endswith(":1")

    def test_invalid_spec(self):
        with pytest.raises(DomainError):
            FilterSpec(delta1=0.1, delta2=0.8)
        with pytest.raises(DomainError):
            FilterSpec(delta1=0.8, delta2=0.0)

    def test_widening_thresholds_monotone(self, conflict_log):
        kept = None
        for delta1, delta2 in [(0.9, 0.05), (0.85, 0.10), (0.8, 0.15)]:
            filtered = filter_by_difficulty(conflict_log, FilterSpec(delta1, delta2))
            ids = {r.prompt_id for r in filtered.records}
            if kept is not None:
                assert kept <= ids
            kept = ids


class TestDiagnose:
    def test_identical_gradients_all_positive(self):
        records = [GradLogRecord(f"p{i}", 0.3 + 0.01 * i, np.ones(4)) for i in range(6)]
        filtered = filter_by_difficulty(records, FilterSpec(0.9, 0.5))
        report = diagnose(filtered, 8)
        assert all(row[2] > 0 for row in report.rows)
        assert report.unweighted_mean_agreement > 0
        assert report.weighted_mean_agreement > 0

    def test_conflict_log_sign_pattern(self, conflict_filtered):
        report = diagnose(conflict_filtered, 32)
        assert report.unweighted_mean_agreement > 0
        assert report.weighted_mean_agreement < 0
        assert report.inner_product < 0
        assert report.mean_shift < 0

    def test_k1_no_shift(self, conflict_filtered):
        # 49 uniform masses of 1/49 sum to 1 - 2**-53, not 1
        small = filter_by_difficulty(
            make_synthetic_conflict_log(n=49, d=8, seed=3), FilterSpec(0.85, 0.10)
        )
        assert math.fsum([1.0 / 49] * 49) == 1.0 - 2.0**-53
        for filtered in (conflict_filtered, small):
            report = diagnose(filtered, 1)
            assert report.mean_shift == 0.0
            assert report.weighted_mean_agreement == pytest.approx(
                report.unweighted_mean_agreement, rel=1e-12
            )

    def test_weighted_identity(self, conflict_filtered):
        report = diagnose(conflict_filtered, 32)
        assert report.weighted_mean_agreement * report.mean_weight == pytest.approx(
            report.inner_product, rel=1e-10
        )
        assert report.mean_shift == (
            report.weighted_mean_agreement - report.unweighted_mean_agreement
        )

    def test_inherits_route_cross_check(self, conflict_filtered, monkeypatch):
        import passklab.conflict

        # the direct route's grad_k, scaled off the other two routes
        original = passklab.conflict._weighted_gradient
        monkeypatch.setattr(
            "passklab.conflict._weighted_gradient",
            lambda *args: (1.0 + 1e-6) * original(*args),
        )
        with pytest.raises(IdentityCheckError, match="routes disagree"):
            diagnose(conflict_filtered, 32)

    def test_all_zero_gradients(self):
        # the fallback g2 stays positive, so a log of zero rows is reported
        records = [GradLogRecord(f"p{i}", 0.3 + i / 100, np.zeros(3)) for i in range(6)]
        report = diagnose(filter_by_difficulty(records, FilterSpec(0.9, 0.5)), 8)
        assert all(row[2] == 0.0 for row in report.rows)
        assert report.unweighted_mean_agreement == 0.0
        assert report.weighted_mean_agreement == 0.0
        assert report.inner_product == 0.0

    def test_needs_two_records(self):
        records = [GradLogRecord("only", 0.05, np.ones(2))]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        with pytest.raises(DomainError):
            diagnose(filtered, 4)

    def test_matches_conflict_report_route(self, conflict_filtered):
        # same quantity through the population conflict machinery with
        # uniform mass over the filtered prompts
        report = diagnose(conflict_filtered, 32)
        grads = np.stack([r.grad for r in conflict_filtered.records])
        ids = tuple(r.prompt_id for r in conflict_filtered.records)
        table = GradientTable.uniform(grads, ids=ids)
        profile = SuccessProfile.uniform(
            [r.pass1 for r in conflict_filtered.records], ids=ids
        )
        pop = conflict_report(table, profile, 32)
        assert report.inner_product == pytest.approx(pop.inner_product, rel=1e-10)
        assert report.unweighted_mean_agreement == pytest.approx(
            pop.norm_sq_mean_grad, rel=1e-10
        )

    def test_causal_chain(self, conflict_filtered):
        # weights concentrate on low-pass1 records, those records have
        # negative agreement, so the inner product is negative
        report = diagnose(conflict_filtered, 32)
        rows = report.rows
        heavy = [row for row in rows if row[3] > 1.0]
        assert heavy, "some prompts must carry significant weight"
        assert all(row[1] < 0.10 for row in heavy)  # all heavy rows are hard
        assert all(row[2] < 0 for row in heavy)  # and anti-aligned
        assert report.inner_product < 0


class TestOptionalMassColumn:
    def test_mass_round_trip(self, tmp_path):
        records = [
            GradLogRecord("a", 0.05, np.array([1.0, 0.0]), mass=3.0),
            GradLogRecord("b", 0.95, np.array([0.0, 1.0]), mass=1.0),
        ]
        path = tmp_path / "mass.jsonl"
        export_gradlog(records, path)
        loaded = load_gradlog(path)
        assert [r.mass for r in loaded] == [3.0, 1.0]

    def test_masses_reweight_the_means(self):
        g = np.array([1.0, 0.0])
        records = [
            GradLogRecord("a", 0.05, g, mass=3.0),
            GradLogRecord("b", 0.95, 2 * g, mass=1.0),
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        report = diagnose(filtered, 4)
        mass = np.array([0.75, 0.25])
        grads = np.stack([g, 2 * g])
        mean_grad = mass @ grads
        expected_unweighted = float(mass @ (grads @ mean_grad))
        assert report.unweighted_mean_agreement == pytest.approx(
            expected_unweighted, rel=1e-12
        )

    def test_partial_masses_rejected(self):
        records = [
            GradLogRecord("a", 0.05, np.ones(2), mass=1.0),
            GradLogRecord("b", 0.95, np.ones(2)),
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        with pytest.raises(DomainError, match="mass"):
            diagnose(filtered, 4)

    def test_mass_on_a_dropped_record_is_not_read(self):
        # the all-or-none rule is over the filtered records only
        records = [
            GradLogRecord("a", 0.05, np.array([1.0, 0.5])),
            GradLogRecord("b", 0.5, np.array([1.0, 0.5]), mass=3.0),
            GradLogRecord("c", 0.9, np.array([0.2, 0.5])),
        ]
        report = diagnose(filter_by_difficulty(records, FilterSpec(0.85, 0.10)), 4)
        plain = diagnose(filter_by_difficulty(records[::2], FilterSpec(0.85, 0.10)), 4)
        assert report == plain

    def test_all_zero_masses_rejected(self):
        records = [
            GradLogRecord("a", 0.05, np.ones(2), mass=0.0),
            GradLogRecord("b", 0.95, np.ones(2), mass=0.0),
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        with pytest.raises(DomainError, match="record masses must not all be zero"):
            diagnose(filtered, 4)

    def test_mass_sum_past_the_float_range_rejected(self):
        records = [
            GradLogRecord(pid, p1, np.ones(2), mass=1e308)
            for pid, p1 in (("a", 0.05), ("b", 0.9), ("c", 0.95))
        ]
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        with pytest.raises(DomainError, match="record masses sum past the float range"):
            diagnose(filtered, 4)

    def test_negative_mass_rejected(self):
        with pytest.raises(DomainError):
            GradLogRecord("a", 0.5, np.ones(2), mass=-1.0)


class TestRecordPromptId:
    # the file loader requires a JSON string; a record built in code must
    # hold a str too, instead of turning None into 'None'
    @pytest.mark.parametrize("pid", [None, 3, ["a"], b"a", 1.5])
    def test_non_string_id_rejected(self, pid):
        with pytest.raises(DomainError) as exc:
            GradLogRecord(pid, 0.5, [1.0])
        assert str(exc.value) == f"prompt_id must be a string, got {pid!r}"

    def test_string_id_kept(self):
        assert GradLogRecord("p0", 0.5, [1.0]).prompt_id == "p0"


class TestRecordValueNames:
    # a bad pass1, mass or label is named as JSON writes it, and by repr
    # when JSON cannot write it
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"pass1": None}, "pass1 must be a number, not null"),
            ({"pass1": "0.5"}, 'pass1 must be a number, not "0.5"'),
            ({"mass": [1]}, "mass must be a number, not [1]"),
            ({"label": ("x",)}, 'label must be a string, got ["x"]'),
            ({"pass1": 0.5j}, "pass1 must be a number, not 0.5j"),
            ({"mass": {1.0}}, "mass must be a number, not {1.0}"),
            ({"label": b"x"}, "label must be a string, got b'x'"),
        ],
    )
    def test_bad_value_named(self, fields, message):
        with pytest.raises(DomainError) as exc:
            GradLogRecord(**{"prompt_id": "a", "pass1": 0.5, "grad": [1.0], **fields})
        assert str(exc.value) == message


class TestScatterExport:
    def test_row_count_and_cluster_property(self, tmp_path, conflict_filtered):
        path = tmp_path / "scatter.csv"
        scatter_export(conflict_filtered, 32, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(conflict_filtered.records)
        # high-weight cluster sits strictly in the negative-agreement region
        high = [r for r in rows if float(r["weight"]) > 16.0]
        assert high, "the hard cluster must appear"
        assert all(float(r["agreement"]) < 0 for r in high)

    def test_round_trip_precision(self, tmp_path, conflict_filtered):
        path = tmp_path / "scatter.csv"
        scatter_export(conflict_filtered, 32, path)
        report = diagnose(conflict_filtered, 32)
        by_id = {row[0]: row for row in report.rows}
        with path.open() as fh:
            for row in csv.DictReader(fh):
                pid, p1, agreement, weight, _, tag = by_id[row["prompt_id"]]
                assert float(row["pass1"]) == p1
                assert float(row["agreement"]) == agreement
                assert float(row["weight"]) == weight
                assert row["tag"] == tag


class TestReportOutputs:
    def test_json_and_csv(self, tmp_path, conflict_filtered):
        report = diagnose(conflict_filtered, 32)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "rows.csv"
        report_to_json(report, jpath)
        report_rows_to_csv(report, cpath)
        obj = json.loads(jpath.read_text())
        assert obj["k"] == 32
        assert obj["inner_product"] == report.inner_product
        assert obj["n_hard"] == report.n_hard
        with cpath.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        assert {r["tag"] for r in rows} == {"hard", "easy"}


class TestSyntheticLogConstruction:
    def test_size_and_dimension(self, conflict_log):
        assert len(conflict_log) == 600
        assert all(r.grad.size == 64 for r in conflict_log)
        labels = {r.label for r in conflict_log}
        assert labels == {"hard", "easy"}

    def test_deterministic(self):
        a = make_synthetic_conflict_log(n=50, d=8, seed=5)
        b = make_synthetic_conflict_log(n=50, d=8, seed=5)
        for ra, rb in zip(a, b, strict=True):
            assert ra.pass1 == rb.pass1
            np.testing.assert_array_equal(ra.grad, rb.grad)

    def test_validation(self):
        with pytest.raises(DomainError, match="n must be >= 10, got 5"):
            make_synthetic_conflict_log(n=5)
        with pytest.raises(DomainError):
            make_synthetic_conflict_log(n=100, hard_fraction=0.0)
        for seed in (-1, True):
            with pytest.raises(DomainError, match="seed must be an integer >= 0"):
                make_synthetic_conflict_log(n=100, seed=seed)

    @pytest.mark.parametrize(
        "size,message",
        [
            ({"n": 20.0}, "n must be an integer, got 20.0"),
            ({"d": True}, "d must be an integer, got True"),
            ({"d": 2.0}, "d must be an integer, got 2.0"),
        ],
    )
    def test_sizes_must_be_integers(self, size, message):
        # each raised a bare TypeError from numpy or range
        with pytest.raises(DomainError, match=message):
            make_synthetic_conflict_log(**size)
