"""Command dispatch, document parsing, report rendering and exit codes."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nusamp
from nusamp import SamplingSchedule, SystemDocumentError, ToleranceError, cli, numeric_rank, oracle
from nusamp import system_model
from nusamp.cli import (
    EXIT_NEGATIVE,
    EXIT_NOT_MINIMAL,
    EXIT_OK,
    EXIT_USAGE,
    SystemDocument,
    Tolerances,
    build_analysis,
    document_to_json,
    main,
    parse_system_document,
)
from conftest import build_system, cli_tolerance_flags, count_calls, random_schedule

PI_16 = "3.141592653589793"
CORPUS = Path(__file__).parent / "corpus"
ROTATION = {"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0]}


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(
        json.dumps({"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0]})
    )
    return str(path)


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(
        json.dumps({"order": 2, "A": [0, 0, 0, -1], "b": [1, 1], "c": [1, 1]})
    )
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"order": 1, "A": [-1], "b": [1], "c": [1]}))
    return str(path)


@pytest.fixture
def scheduled_rotation_file(tmp_path):
    path = tmp_path / "scheduled.json"
    path.write_text(json.dumps(
        {"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0], "schedule": [0.0, 1.0, 2.5]}
    ))
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestDocumentParsing:
    def test_roundtrip(self):
        document = SystemDocument(
            order=2,
            A=np.array([[0.0, -1.0], [1.0, 0.0]]),
            b=np.array([1.0, 0.0]),
            c=np.array([1.0, 0.0]),
            schedule=(0.0, 1.5),
            x0=(0.5, -0.25),
            tolerances=Tolerances(singularity=1e-8),
        )
        parsed = parse_system_document(document_to_json(document))
        assert parsed.order == document.order
        assert np.array_equal(parsed.A, document.A)
        assert np.array_equal(parsed.b, document.b)
        assert np.array_equal(parsed.c, document.c)
        assert parsed.schedule == document.schedule
        assert parsed.x0 == document.x0
        assert parsed.tolerances == document.tolerances

    def test_field_length_message(self):
        with pytest.raises(SystemDocumentError, match="field b: expected 2 entries, found 3"):
            parse_system_document(
                json.dumps({"order": 2, "A": [0, -1, 1, 0], "b": [1, 0, 0], "c": [1, 0]})
            )

    def test_missing_field(self):
        with pytest.raises(SystemDocumentError, match="field c: missing"):
            parse_system_document(json.dumps({"order": 1, "A": [1], "b": [1]}))

    def test_bad_schedule(self):
        with pytest.raises(SystemDocumentError, match="strictly increasing"):
            parse_system_document(
                json.dumps(
                    {
                        "order": 1,
                        "A": [-1],
                        "b": [1],
                        "c": [1],
                        "schedule": [1.0, 0.5],
                    }
                )
            )

    def test_unknown_field(self):
        with pytest.raises(SystemDocumentError, match="field extra: unknown"):
            parse_system_document(
                json.dumps({"order": 1, "A": [-1], "b": [1], "c": [1], "extra": 1})
            )

    @pytest.mark.parametrize("key", ["singularity", "cluster", "rank", "residual"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, key, value):
        text = json.dumps({"order": 1, "A": [-1], "b": [1], "c": [1], "tolerances": {key: value}})
        with pytest.raises(SystemDocumentError) as caught:
            parse_system_document(text)
        assert str(caught.value) == f"field tolerances.{key}: must be a positive number"

    def test_integer_tolerance_is_stored_as_float(self):
        text = json.dumps({"order": 1, "A": [-1], "b": [1], "c": [1], "tolerances": {"rank": 1}})
        document = parse_system_document(text)
        assert type(document.tolerances.rank) is float
        assert '"rank": 1.0' in document_to_json(document)

    def test_nan_tolerance_in_file_exits_one(self, tmp_path):
        path = tmp_path / "nan_tol.json"
        # json writes NaN as a bare token, which json.loads accepts.
        path.write_text(json.dumps(
            {"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0],
             "tolerances": {"singularity": float("nan")}}
        ))
        code, out, err = run_cli("analyze", str(path), "--schedule", "0,1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: field tolerances.singularity: must be a positive number\n"

    @pytest.mark.parametrize("field", ["A", "b", "c", "schedule", "x0"])
    def test_integer_beyond_float_range_exits_one(self, tmp_path, field):
        raw = {"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0],
               "schedule": [0.0, 1.0, 2.5], "x0": [1.0, 0.0]}
        raw[field] = [10**400] + raw[field][1:]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli("analyze", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: field {field}: entries must be finite\n"

    @pytest.mark.parametrize("key", ["singularity", "cluster", "rank", "residual"])
    def test_integer_tolerance_beyond_float_range_exits_one(self, tmp_path, key):
        path = tmp_path / "huge_tol.json"
        path.write_text(json.dumps(
            {"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0], "tolerances": {key: 10**400}}
        ))
        code, out, err = run_cli("analyze", str(path), "--schedule", "0,1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: field tolerances.{key}: must be a positive number\n"

    @pytest.mark.parametrize(
        "order", [0, 13, 10**400, 10**2199], ids=["0", "13", "401-digits", "2200-digits"]
    )
    def test_order_outside_the_supported_range_exits_one(self, tmp_path, order):
        path = tmp_path / "huge_order.json"
        path.write_text(json.dumps({"order": order, "A": [-1], "b": [1], "c": [1]}))
        code, out, err = run_cli("analyze", str(path), "--schedule", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: field order: must be an integer in 1..12\n"

    def test_tolerances_reject_integer_beyond_float_range(self):
        with pytest.raises(ToleranceError, match="tolerance cluster must be a positive finite"):
            Tolerances(cluster=10**400)


    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON: "),
        ("[1, 2]", "document root must be a JSON object"),
        (json.dumps(dict(ROTATION, A=1)), "field A: expected a list of numbers"),
        (json.dumps(dict(ROTATION, b=[1, "x"])), "field b: entry 1 is not a number"),
        (json.dumps(dict(ROTATION, b=[1, True])), "field b: entry 1 is not a number"),
        (json.dumps(dict(ROTATION, c=[None, 1])), "field c: entry 0 is not a number"),
        (json.dumps(dict(ROTATION, A=[0, -1, [1], 0])), "field A: entry 2 is not a number"),
        (json.dumps(dict(ROTATION, schedule=[])), "field schedule: expected a non-empty list"),
        (json.dumps(dict(ROTATION, tolerances=[1e-9])), "field tolerances: expected an object"),
        (None, "cannot read "),
    ])
    def test_document_errors_print_one_error_line(self, tmp_path, text, message):
        path = tmp_path / "system.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli("analyze", str(path), "--schedule", "0,1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1


class TestAnalyze:
    def test_quarter_turn_exit_zero(self, rotation_file):
        code, out, _ = run_cli("analyze", rotation_file, "--schedule", "0,1.5707963")
        assert code == EXIT_OK
        assert "jointly reachable and observable: yes" in out

    def test_half_turn_exit_two(self, rotation_file):
        code, out, _ = run_cli("analyze", rotation_file, "--schedule", "0," + PI_16)
        assert code == EXIT_NEGATIVE
        assert "jointly reachable and observable: no" in out
        assert "sigma ratio" in out

    def test_non_minimal_exit_three(self, tmp_path):
        path = tmp_path / "badmin.json"
        path.write_text(
            json.dumps({"order": 2, "A": [0, 0, 0, -1], "b": [1, 0], "c": [1, 1]})
        )
        code, out, _ = run_cli("analyze", str(path), "--schedule", "0,1")
        assert code == EXIT_NOT_MINIMAL
        assert "minimal: no" in out

    def test_malformed_file_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"order": 2, "A": [0, -1, 1, 0], "b": [1, 0, 0], "c": [1, 0]})
        )
        code, _, err = run_cli("analyze", str(path), "--schedule", "0,1")
        assert code == EXIT_USAGE
        assert "field b: expected 2 entries, found 3" in err

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol", "--rank-tol", "--residual-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_flag_exits_one(self, rotation_file, flag, value):
        code, out, err = run_cli("analyze", rotation_file, "--schedule", "0,1", f"{flag}={value}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: tolerance ")
        assert err.count("\n") == 1

    def test_analysis_computes_each_fact_once(self, monkeypatch):
        calls = count_calls(monkeypatch, [
            (system_model, "check_minimal"),
            (system_model, "modal_decompose"),
            (oracle, "joint_verdict"),
            (cli, "classify_case"),
        ])
        document = SystemDocument(
            order=2, A=np.array([[0.0, -1.0], [1.0, 0.0]]), b=np.ones(2), c=np.ones(2)
        )
        result = build_analysis(document, SamplingSchedule((0.0, 1.0, 2.5)), Tolerances())
        assert result["case"] == {"label": "a"}
        assert calls == {
            "check_minimal": 1, "modal_decompose": 1, "joint_verdict": 1, "classify_case": 1
        }

    def test_json_and_text_carry_identical_values(self, rotation_file):
        code_t, text, _ = run_cli("analyze", rotation_file, "--schedule", "0,0.8")
        code_j, raw, _ = run_cli(
            "analyze", rotation_file, "--schedule", "0,0.8", "--format", "json"
        )
        assert code_t == code_j == EXIT_OK
        payload = json.loads(raw)
        sigma = payload["criterion"]["sigma_ratio"]
        assert f"{sigma:.6g}" in text
        mode_abs = payload["criterion"]["mode_determinant"]["abs"]
        assert f"{mode_abs:.6g}" in text

    def test_schedule_flag_overrides_file(self, tmp_path):
        path = tmp_path / "withsched.json"
        path.write_text(
            json.dumps(
                {
                    "order": 2,
                    "A": [0, -1, 1, 0],
                    "b": [1, 0],
                    "c": [1, 0],
                    "schedule": [0.0, float(PI_16)],
                }
            )
        )
        code, out, err = run_cli("analyze", str(path), "--schedule", "0,1.5707963")
        assert code == EXIT_OK
        assert "overrides" in err

    def test_schedule_from_file(self, tmp_path):
        path = tmp_path / "filesched.json"
        path.write_text(
            json.dumps(
                {
                    "order": 2,
                    "A": [0, -1, 1, 0],
                    "b": [1, 0],
                    "c": [1, 0],
                    "schedule": [0.0, 1.0],
                }
            )
        )
        code, _, _ = run_cli("analyze", str(path))
        assert code == EXIT_OK

    @pytest.mark.parametrize("schedule", ["0,,1", "0,1,"])
    def test_empty_schedule_field_exits_one(self, rotation_file, schedule):
        code, out, err = run_cli("analyze", rotation_file, "--schedule", schedule)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --schedule: could not convert string to float: ''\n"

    def test_missing_schedule(self, rotation_file):
        code, _, err = run_cli("analyze", rotation_file)
        assert code == EXIT_USAGE
        assert "no schedule" in err

    def test_case_label_reported(self, rotation_file):
        code, raw, _ = run_cli(
            "analyze",
            rotation_file,
            "--schedule",
            f"0,{PI_16},{2 * float(PI_16)}",
            "--format",
            "json",
        )
        assert code == EXIT_NEGATIVE
        payload = json.loads(raw)
        assert payload["case"]["label"] == "b"
        assert payload["criterion"]["controllable"] is True

    def test_x0_specific_controllability(self, tmp_path):
        path = tmp_path / "withx0.json"
        path.write_text(
            json.dumps(
                {
                    "order": 2,
                    "A": [0, -1, 1, 0],
                    "b": [1, 0],
                    "c": [1, 0],
                    "x0": [0.0, 1.0],
                }
            )
        )
        code, raw, _ = run_cli(
            "analyze",
            str(path),
            "--schedule",
            f"0,{PI_16},{float(PI_16) + 1.5}",
            "--format",
            "json",
        )
        assert code == EXIT_NEGATIVE
        payload = json.loads(raw)
        assert payload["oracle"]["controllable_x0"] is False

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["unit", "2**-40"])
    def test_case_label_ignores_the_scale_of_b_and_x0(self, tmp_path, scale):
        # At (0, pi, 4) the half turn leaves one direction and the third
        # instant's vector lies 0.757 of its norm off it, at any scale.
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({**ROTATION, "b": [scale, 0], "x0": [0, scale]}))
        code, raw, _ = run_cli("analyze", str(path), "--schedule", f"0,{PI_16},4", "--format", "json")
        assert code == EXIT_NEGATIVE
        payload = json.loads(raw)
        assert payload["case"]["label"] == "c"
        assert payload["criterion"]["controllable"] is False
        assert payload["oracle"]["controllable_x0"] is False

    def test_oracle_agreement_in_report(self, diag_file):
        code, raw, _ = run_cli(
            "analyze", diag_file, "--schedule", "0,1", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(raw)
        assert payload["oracle"]["agrees_with_criterion"] is True

    def test_oracle_disagreement_warns(self):
        # At --tol 0.01 the criterion's sigma ratio (0.0354) passes while the
        # oracle's observability ratio (0.00776) fails.
        code, out, err = run_cli("analyze", str(CORPUS / "order4.json"), "--tol", "0.01")
        assert code == EXIT_OK
        assert "agreement no" in out
        assert out.endswith(
            "warning: criterion and direct rank test disagree: mode-matrix sigma ratio "
            "0.0353566, direct reachability sigma ratio 0.020695, direct observability "
            "sigma ratio 0.00775749, singularity tolerance 0.01\n"
        )
        assert err == ""

    def test_ill_conditioned_basis_still_analyzes(self, tmp_path):
        # A minimal system whose modal basis has sigma ratio 5e-11: y0 comes
        # from the one solve, and the factorization identity still holds.
        A = [[-1.0, 1e4], [0.0, -1.0 + 1e-6]]
        system = system_model.Realization(A, [0.3, 1.0], [1.0, 0.7])
        assert system.minimality.minimal
        assert numeric_rank(system.decomposition.B).sigma_ratio < 1e-10
        path = tmp_path / "ill.json"
        path.write_text(json.dumps(
            {"order": 2, "A": [x for row in A for x in row], "b": [0.3, 1], "c": [1, 0.7]}
        ))
        code, raw, _ = run_cli("analyze", str(path), "--schedule", "0,1", "--format", "json")
        assert code == EXIT_OK
        criterion = json.loads(raw)["criterion"]
        full_det = criterion["full_determinant"]["abs"]
        assert criterion["factorization_residual"] <= 1e-8 * max(1.0, full_det)


def _rotation_document(**changes) -> SystemDocument:
    entries = {
        "order": 2,
        "A": np.array([[0.0, -1.0], [1.0, 0.0]]),
        "b": np.array([1.0, 0.5]),
        "c": np.array([1.0, 0.0]),
        **changes,
    }
    return SystemDocument(**entries)


def _scalar_document(k: int) -> SystemDocument:
    return SystemDocument(order=1, A=np.array([[-1.0 - k]]), b=np.ones(1), c=np.ones(1))


class TestAnalysisMemo:
    """``build_analysis`` reuses the realization of a system it analyses again."""

    SCHEDULE = SamplingSchedule((0.0, 1.0))

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, [
            (system_model, "check_minimal"),
            (system_model, "modal_decompose"),
            (system_model.numerics, "eig_clustered"),
            (np.linalg, "eig"),
        ])

    def test_third_analysis_computes_no_fact(self, calls):
        document = _rotation_document()
        first = build_analysis(document, self.SCHEDULE, Tolerances())
        build_analysis(document, SamplingSchedule((0.0, 2.0)), Tolerances())
        assert calls == {"check_minimal": 2, "modal_decompose": 2, "eig_clustered": 2, "eig": 2}
        calls.clear()
        # An equal document, not the same object, hits as well.
        assert build_analysis(_rotation_document(), self.SCHEDULE, Tolerances()) == first
        assert calls == {}

    @pytest.mark.parametrize("document, tolerances", [
        pytest.param(_rotation_document(), Tolerances(rank=1e-8), id="tolerance"),
        pytest.param(_rotation_document(A=np.array([[0.0, -1.0], [1.0, 1e-3]])), Tolerances(), id="A"),
        pytest.param(_rotation_document(b=np.array([1.0, 0.25])), Tolerances(), id="b"),
        pytest.param(_rotation_document(c=np.array([1.0, 1e-3])), Tolerances(), id="c"),
        pytest.param(_rotation_document(A=np.array([[-0.0, -1.0], [1.0, 0.0]])), Tolerances(),
                     id="negative-zero"),
    ])
    def test_a_changed_system_computes_fresh_facts(self, calls, document, tolerances):
        for _ in range(2):
            build_analysis(_rotation_document(), self.SCHEDULE, Tolerances())
        calls.clear()
        build_analysis(document, self.SCHEDULE, tolerances)
        assert calls == {"check_minimal": 1, "modal_decompose": 1, "eig_clustered": 1, "eig": 1}

    def test_a_fortran_ordered_copy_hits_the_memo(self, calls):
        # Equal entries in another memory layout are the same system.
        for _ in range(2):
            expected = json.dumps(build_analysis(_rotation_document(), self.SCHEDULE, Tolerances()))
        calls.clear()
        document = _rotation_document(A=np.asfortranarray([[0.0, -1.0], [1.0, 0.0]]))
        assert json.dumps(build_analysis(document, self.SCHEDULE, Tolerances())) == expected
        assert calls == {}

    def test_memory_layout_moves_no_bit(self):
        """On seeded systems of orders 1-12, a C- and a Fortran-ordered A
        give the same report, each computed on an empty memo."""
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            A, b, c = rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=n), rng.normal(size=n)
            schedule = random_schedule(rng, n)
            reports = []
            for layout in (np.ascontiguousarray, np.asfortranarray):
                cli._memo.clear()
                document = SystemDocument(order=n, A=layout(A), b=b, c=c)
                reports.append(json.dumps(build_analysis(document, schedule, Tolerances())))
            assert reports[0] == reports[1], n

    def test_first_sight_keeps_no_realization(self):
        for k in range(2 * cli._MEMO_SYSTEMS):
            build_analysis(_scalar_document(k), SamplingSchedule((0.0,)), Tolerances())
        assert len(cli._memo) == cli._MEMO_SYSTEMS
        assert not any(isinstance(kept, system_model.Realization) for kept in cli._memo.values())

    def test_the_least_recently_analysed_system_is_dropped(self, calls):
        schedule = SamplingSchedule((0.0,))
        oldest, evicted = _scalar_document(0), _scalar_document(1)
        for document in (oldest, oldest, evicted, evicted):
            build_analysis(document, schedule, Tolerances())
        for k in range(2, cli._MEMO_SYSTEMS):
            build_analysis(_scalar_document(k), schedule, Tolerances())
        # The memo is full; reusing the oldest makes the second the least recent.
        calls.clear()
        build_analysis(oldest, schedule, Tolerances())
        assert calls == {}
        build_analysis(_scalar_document(cli._MEMO_SYSTEMS), schedule, Tolerances())
        calls.clear()
        build_analysis(oldest, schedule, Tolerances())
        assert calls == {}
        build_analysis(evicted, schedule, Tolerances())
        assert calls["check_minimal"] == 1

    def test_reuse_is_byte_identical(self):
        """A seeded sweep: each document is analysed three times among others,
        and every report equals the same analysis on an empty memo."""
        rng = np.random.default_rng(23)
        # Coarse enough to move verdicts, so a memo that ignored the
        # tolerances would change reports.
        custom = Tolerances(singularity=1e-3, cluster=1e-3, rank=1e-3, residual=1e-6)
        documents = []
        for k in range(16):
            n = 1 + k % 12
            A, b, c = rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=n), rng.normal(size=n)
            if k % 5 == 4:
                # A decoupled state the input never reaches: non-minimal.
                A[-1, :], A[:, -1], b[-1] = 0.0, 0.0, 0.0
            elif 2 <= n <= 6 and k % 3 == 0:
                # A double eigenvalue at -0.5: one defective cluster.
                structure = [(-0.5, 0.0, 2)] + [(0.4 * j - 1.0, 0.0, 1) for j in range(n - 2)]
                system = build_system(rng, structure)
                A, b, c = system.A, system.b, system.c
            x0 = tuple(rng.normal(size=n)) if k % 4 == 1 else None
            documents.append(SystemDocument(order=n, A=A, b=b, c=c, x0=x0))
            if k % 2:
                # The same system with other tolerances, analysed alongside.
                documents.append(SystemDocument(order=n, A=A, b=b, c=c, x0=x0, tolerances=custom))
        runs = []
        for group in (documents[:8], documents[8:16], documents[16:]):
            cli._memo.clear()
            for _ in range(3):
                for document in group:
                    schedule = random_schedule(rng, document.order + int(rng.integers(2)))
                    report = build_analysis(document, schedule, document.tolerances)
                    runs.append((document, schedule, json.dumps(report)))
            assert sum(kept is not None for kept in cli._memo.values()) == len(group)
        assert any('"minimal": false' in report for _, _, report in runs)
        for document, schedule, report in runs:
            cli._memo.clear()
            assert json.dumps(build_analysis(document, schedule, document.tolerances)) == report


class TestForbidden:
    def test_lists_instants(self, rotation_file):
        code, out, _ = run_cli("forbidden", rotation_file, "--t0", "0", "--window", "0,7")
        assert code == EXIT_OK
        assert "3.14159" in out
        assert "6.28319" in out

    def test_real_eigenvalues_exit_two(self, diag_file):
        code, _, err = run_cli("forbidden", diag_file, "--t0", "0", "--window", "0,7")
        assert code == EXIT_NEGATIVE
        assert "real distinct" in err

    def test_frequency_two(self, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(
            json.dumps({"order": 2, "A": [0, -2, 2, 0], "b": [1, 0], "c": [1, 0]})
        )
        code, raw, _ = run_cli(
            "forbidden", str(path), "--t0", "0", "--window", "0.1,2", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(raw)
        assert payload["forbidden"] == pytest.approx([np.pi / 2])


    def test_window_too_far_from_t0_exits_one(self, rotation_file):
        code, out, err = run_cli(
            "forbidden", rotation_file, "--t0=-1e308", "--window", "1e308,1e308"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: window ") and "too far from t0" in err
        assert err.count("\n") == 1 and err.endswith("\n")


class TestSuggest:
    def test_rotation(self, rotation_file):
        code, raw, _ = run_cli(
            "suggest",
            rotation_file,
            "--window",
            "0,2",
            "--count",
            "2",
            "--min-spacing",
            "0.1",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(raw)
        spacing = payload["schedule"][1] - payload["schedule"][0]
        assert abs(spacing - np.pi / 2) < 1e-2
        assert payload["sigma_ratio"] > 0.99


class TestDeadbeatAndReconstruct:
    def test_deadbeat_scalar(self, scalar_file):
        code, raw, _ = run_cli(
            "deadbeat",
            scalar_file,
            "--schedule",
            "0",
            "--x0",
            "0",
            "--target",
            "1",
            "--final-time",
            "1",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(raw)
        assert payload["inputs"][0] == pytest.approx(np.e, abs=1e-10)
        assert payload["resimulation_residual"] < 1e-10

    def test_deadbeat_singular_schedule(self, rotation_file):
        code, _, err = run_cli(
            "deadbeat",
            rotation_file,
            "--schedule",
            "0," + PI_16,
            "--x0",
            "0,0",
            "--target",
            "1,1",
        )
        assert code == EXIT_NEGATIVE
        assert "singular" in err

    def test_reconstruct(self, rotation_file):
        code, raw, _ = run_cli(
            "reconstruct",
            rotation_file,
            "--schedule",
            "0,1.5707963267948966",
            "--outputs",
            "2,1",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(raw)
        assert payload["x0"] == pytest.approx([2.0, -1.0])
        assert payload["resimulation_residual"] < 1e-10

    def test_deadbeat_non_finite_final_time(self, rotation_file):
        code, out, err = run_cli(
            "deadbeat", rotation_file, "--schedule", "0,1", "--x0", "1,0", "--target", "0,1",
            "--final-time", "nan",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: t_final must be finite, got nan\n"

    def test_reconstruct_rejects_non_finite_outputs(self, rotation_file):
        code, out, err = run_cli(
            "reconstruct", rotation_file, "--schedule", "0,1", "--outputs", "nan,1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: outputs must be finite\n"

    @pytest.mark.parametrize("document, schedule, x0, outputs, messages", [
        ("rotation.json", ["--schedule", "0," + PI_16], "1,nan", "1,nan",
         ("x0 must be finite", "outputs must be finite")),
        ("non_minimal.json", [], "1,0,0", "1,0,0",
         ("x0 has 3 entries, expected 2", "outputs has 3 entries, expected 2")),
    ], ids=["singular-schedule", "non-minimal"])
    def test_malformed_arguments_exit_1_before_the_gates(self, document, schedule, x0, outputs, messages):
        # Both designs check their arguments before regularity (a singular
        # schedule exits 2) and minimality (a non-minimal system exits 3).
        path = str(CORPUS / document)
        runs = (
            run_cli("deadbeat", path, *schedule, "--x0", x0, "--target", "0,1"),
            run_cli("reconstruct", path, *schedule, "--outputs", outputs),
        )
        for (code, out, err), message in zip(runs, messages):
            assert (code, out) == (EXIT_USAGE, "")
            assert err.splitlines()[-1] == "error: " + message

    @pytest.mark.parametrize("document, flags, bound", [
        # An exact design on a huge x0: the residual is relative to the terms
        # that sum to the final state, not to the zero target alone.
        ({"order": 2, "A": [1, 0, 0, 2], "b": [1, 1], "c": [1, 1]},
         ["--schedule", "0,1", "--x0", "1e300,1e300", "--target", "0,0"], 1e-15),
        # exp(700) ~ 1e304 stays in range: the design answers.
        ({"order": 2, "A": [0.5, -3, 3, 0.5], "b": [1, 0], "c": [1, 1]},
         ["--schedule", "0,1", "--x0", "1,1", "--target", "0,0", "--final-time", "1400"], 1e-11),
    ], ids=["x0-1e300", "final-time-1400"])
    def test_deadbeat_residual_is_relative_to_the_terms(self, tmp_path, document, flags, bound):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli("deadbeat", str(path), *flags, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["resimulation_residual"] < bound


class TestDeterminantOverflow:
    """A determinant beyond the float range is one error line, exit 1."""

    @pytest.fixture
    def growing_file(self, tmp_path):
        path = tmp_path / "growing.json"
        path.write_text(json.dumps(
            {"order": 3, "A": [1, 0, 0, 0, 2, 0, 0, 0, 3], "b": [1, 1, 1], "c": [1, 1, 1]}
        ))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--schedule", "0,60,197"],
        ["analyze", "--schedule", "0,60,170", "--format", "json"],
        ["deadbeat", "--schedule", "0,60,197", "--x0", "0,0,0", "--target", "1,1,1"],
        ["reconstruct", "--schedule", "0,60,197", "--outputs", "1,1,1"],
    ])
    def test_exits_one_with_an_error_line(self, growing_file, argv):
        command, *flags = argv
        code, out, err = run_cli(command, growing_file, *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: determinant overflowed; shrink the schedule window or scale down b\n"

    def test_uniform_names_the_multiple(self, growing_file):
        code, out, err = run_cli("uniform", growing_file, "--interval", "100")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: uniform schedule at multiple 1 of interval 100.0: "
            "determinant overflowed; shrink the schedule window or scale down b\n"
        )


class TestTimeUnit:
    def test_rescaled_order8_keeps_its_analysis(self, tmp_path):
        # (A, t) -> (10 A, t / 10) is the same sampled system in another
        # time unit, so minimality and the verdict statistic stay.
        document = json.loads((CORPUS / "order8.json").read_text())
        document["A"] = [10.0 * a for a in document["A"]]
        document["schedule"] = [t / 10.0 for t in document["schedule"]]
        path = tmp_path / "order8-rescaled.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli("analyze", str(path), "--format", "json")
        _, base, _ = run_cli("analyze", str(CORPUS / "order8.json"), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        report, base = json.loads(out), json.loads(base)
        assert report["minimality"]["minimal"]
        assert report["criterion"]["sigma_ratio"] == pytest.approx(
            base["criterion"]["sigma_ratio"], rel=1e-9
        )


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFloatRange:
    """Products and norms beyond the float range: stdout is empty or one
    strict JSON document, stderr empty or one error line, and no
    RuntimeWarning escapes (pyproject makes them errors)."""

    @pytest.mark.parametrize("document, argv, exit_code", [
        ({"order": 2, "A": [-1, 0, -1, 1], "b": [1, 1], "c": [1, 1e300]},
         ["analyze", "--schedule", "0,100"], EXIT_USAGE),
        ({"order": 3, "A": [3, 1, 0, 0.6, 0, -1, 0, -1.9, 1.9], "b": [1.7, 1.8, 1.4],
          "c": [1.6, 1.2, 2]},
         ["deadbeat", "--schedule", "0,5,120", "--x0", "1,1,1", "--target", "0,0,0"], EXIT_OK),
        ({"order": 1, "A": [-2], "b": [1e300], "c": [1]},
         ["analyze", "--schedule", "0,1"], EXIT_OK),
        ({"order": 3, "A": [-1, -1, 0, 0, 1e300, 0, 0, -1, -2], "b": [1, 1, 1], "c": [1, 1, 1]},
         ["analyze", "--schedule", "0,1,2"], EXIT_NOT_MINIMAL),
    ], ids=["c-1e300", "deadbeat-replay", "b-1e300", "A-1e300"])
    def test_json_reports_stay_finite(self, tmp_path, document, argv, exit_code):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(document))
        command, *flags = argv
        code, out, err = run_cli(command, str(path), *flags, "--format", "json")
        assert code == exit_code
        if out:
            json.loads(out, parse_constant=_refuse_constant)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
        assert bool(out) != bool(err)

    def test_mode_space_overflow_is_one_error_line(self, tmp_path):
        # exp(690) * 1e10 leaves the range in the mode-space vectors, before
        # the oracle's sampled product; no RuntimeWarning may come first.
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"order": 1, "A": [1], "b": [1e10], "c": [1]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("analyze", str(path), "--schedule", "0,690", "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: mode-space vectors overflowed; shrink the schedule window or scale down b\n"
        )

    def test_designs_answer_where_only_the_report_overflows(self, tmp_path):
        # N2 = 1e330 leaves the range, so analyze refuses; deadbeat design and
        # reconstruction check regularity with the sigma ratio and answer.
        path = tmp_path / "system.json"
        path.write_text(json.dumps(
            {"order": 3, "A": [1, 0, 0, 0, 2, 0, 0, 0, 3], "b": [1e110] * 3, "c": [1, 1, 1]}
        ))
        schedule = ["--schedule", "0,1,2", "--format", "json"]
        for command, flags in (
            ("deadbeat", ["--x0", "1,1,1", "--target", "0,0,0"]),
            ("reconstruct", ["--outputs", "1,2,3"]),
        ):
            code, out, err = run_cli(command, str(path), *schedule, *flags)
            assert (code, err) == (EXIT_OK, ""), command
            assert json.loads(out, parse_constant=_refuse_constant)["resimulation_residual"] < 1e-12
        code, out, err = run_cli("analyze", str(path), *schedule)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestWarningOrder:
    """A warning line comes only after every input has validated, and before
    the analysis runs."""

    @pytest.mark.parametrize("command, flags", [
        ("deadbeat", ["--x0", "1,0", "--target", "0,1"]),
        ("reconstruct", ["--outputs", "1,0"]),
    ])
    def test_bad_tolerance_flag_writes_only_the_error(self, scheduled_rotation_file, command, flags):
        code, out, err = run_cli(
            command, scheduled_rotation_file, "--schedule", "0,1.2", "--tol", "nan", *flags
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: tolerance singularity must be a positive finite number, got nan\n"

    @pytest.mark.parametrize("command, flags", [
        ("deadbeat", ["--x0", "1,x", "--target", "0,1"]),
        ("deadbeat", ["--x0", "1,0", "--target", "x"]),
        ("reconstruct", ["--outputs", "1,x"]),
    ])
    def test_bad_own_flag_writes_only_the_error(self, scheduled_rotation_file, command, flags):
        code, out, err = run_cli(command, scheduled_rotation_file, "--schedule", "0,1.2", *flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --")
        assert err.count("\n") == 1

    def test_analysis_error_follows_the_warning(self, scheduled_rotation_file):
        code, out, err = run_cli("analyze", scheduled_rotation_file, "--schedule", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [
            "warning: schedule: command-line value overrides the one in the file",
            "error: schedule has 1 instants but the order-2 test needs at least 2",
        ]


# The flags each subcommand needs besides the system file, on the rotation.
OWN_FLAGS = {
    "analyze": ["--schedule", "0,1"],
    "forbidden": ["--window", "0,7"],
    "suggest": ["--window", "0,2", "--count", "2", "--min-spacing", "0.1"],
    "deadbeat": ["--schedule", "0,1", "--x0", "1,0", "--target", "0,1"],
    "reconstruct": ["--schedule", "0,1", "--outputs", "2,1"],
    "uniform": ["--interval", "1"],
}
NO_MEMBERSHIP = {"--tol": "singularity", "--cluster-tol": "cluster", "--rank-tol": "rank"}
TOLERANCE_FLAGS = {
    "analyze": {**NO_MEMBERSHIP, "--residual-tol": "residual"},
    "forbidden": {"--tol": "singularity", "--cluster-tol": "cluster"},
    "suggest": NO_MEMBERSHIP,
    "deadbeat": NO_MEMBERSHIP,
    "reconstruct": NO_MEMBERSHIP,
    "uniform": NO_MEMBERSHIP,
}
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in TOLERANCE_FLAGS.items()
    for flag in TOLERANCE_FLAGS["analyze"]
    if flag not in flags
]


class TestToleranceFlags:
    """Each subcommand takes the flags of exactly the tolerances its analysis
    reads: only analyze tests membership on n instants, and forbidden reads
    only the mode set and the guard band."""

    def test_each_subcommand_takes_the_flags_it_reads(self):
        assert cli_tolerance_flags() == TOLERANCE_FLAGS

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_an_unread_tolerance_flag_is_refused(self, rotation_file, command, flag):
        argv = [command, rotation_file, *OWN_FLAGS[command]]
        assert run_cli(*argv)[0] == EXIT_OK
        code, out, err = run_cli(*argv, flag, "1e-3")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: unrecognized arguments: {flag} 1e-3" in err


class TestUniform:
    def test_pass_and_fail(self, rotation_file):
        code, out, _ = run_cli("uniform", rotation_file, "--interval", "1.0")
        assert code == EXIT_OK
        assert "pass" in out
        code, out, _ = run_cli("uniform", rotation_file, "--interval", PI_16)
        assert code == EXIT_NEGATIVE
        assert "fail" in out

    def test_exit_codes_stable(self, rotation_file):
        results = {run_cli("uniform", rotation_file, "--interval", "1.0")[0] for _ in range(3)}
        assert results == {EXIT_OK}


def _python(*args, cwd=None):
    """Run the interpreter with the checkout's package first on the path."""
    src = str(Path(nusamp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["nusamp", "nusamp.cli"])
    def test_missing_file_exits_with_usage_error(self, module, tmp_path):
        done = _python("-m", module, "analyze", "nothing.json", cwd=tmp_path)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("error:")
        assert "nothing.json" in done.stderr

    def test_parser_exits_become_return_codes(self, capsys):
        assert main(["analyze", "system.json", "--no-such-flag"]) == EXIT_USAGE
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: nusamp")

    def test_parser_writes_to_the_given_streams(self, capsys):
        code, out, err = run_cli("analyze")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: nusamp analyze") and "required: system" in err
        code, out, err = run_cli("--help")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: nusamp")
        assert capsys.readouterr() == ("", "")

    def test_module_run_prints_what_main_prints(self):
        argv = ["analyze", str(CORPUS / "order4.json"), "--format", "json"]
        done = _python("-m", "nusamp", *argv)
        code, out, err = run_cli(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert code == EXIT_OK and out.startswith("{")

    def test_cli_imports_no_scipy(self):
        done = _python(
            "-c",
            "import sys, nusamp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_overflow_prints_one_error_line(self, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({"order": 2, "A": [0, 0, 0, 3], "b": [1, 1], "c": [1, 1]}))
        done = _python(
            "-m", "nusamp", "suggest", str(path), "--window", "0,400",
            "--count", "2", "--min-spacing", "50", cwd=tmp_path,
        )
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr == "error: mode matrix overflowed; shrink the schedule window\n"
