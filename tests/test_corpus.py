"""Golden corpus: every subcommand's output on a fixed set of system documents.

``tests/corpus/*.json`` holds fifteen system documents: order 1, the rotation
and its damped form, a diagonal order 3, a defective order 3 in modal form,
orders 4, 6 and 8, a non-minimal system, one with a ``tolerances`` record, a
nearly uncontrollable one, a nearly defective one, the rotation without a
schedule, one whose ``tolerances`` record has an unknown key, and a defective
cluster at -800 whose sampled exponentials are subnormal.
``tests/corpus/runs.json`` lists the command lines run on them, each with the
exit code, stdout and stderr the CLI produced.  Together the runs cover every
subcommand in both formats, each tolerance flag a subcommand takes on a case
where it changes the output, and the input errors of the CLI (a malformed
window, a missing schedule, a rejected tolerance), so refactors are held to
the same output and the same tolerance routing.  A subcommand takes no flag
for a tolerance it never reads, and a document's value for that tolerance
changes none of its runs.

Exit codes, keys, booleans, integers and strings must match exactly; floats
match to a relative 1e-9 with an absolute floor of 1e-12, so a BLAS that
rounds differently does not fail the test.  Text output and stderr are
compared the same way, number by number.  No recorded sigma ratio lies in the
ambiguity band (``AMBIGUITY_BAND`` of conftest.py), where the verdict could
flip on such rounding.

The recorded outputs pin the tolerance routing: the singularity tolerance
decides the verdict, truncates the rank of every span and judges the range
membership residual, so ``--tol 0.05`` turns the verdict off in
``rotation-analyze-tol``; ``--residual-tol``, whose tolerance folded into
``--tol``, is refused in ``rotation-analyze-residual-tol``.
A change that alters an output on purpose re-records the runs it moves with
``python tests/test_corpus.py NAME ...`` (every run when no name is given)
and says which runs changed.
"""

import dataclasses
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from nusamp.cli import Tolerances, main
from conftest import AMBIGUITY_BAND, cli_tolerance_flags

CORPUS = Path(__file__).parent / "corpus"
RUNS = CORPUS / "runs.json"
REL_TOL = 1e-9
ABS_TOL = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def run(argv, documents=CORPUS):
    """Run the CLI in-process on a document of ``documents``; (exit, stdout, stderr)."""
    argv = [argv[0], str(documents / argv[1]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def assert_same_json(actual, expected, path="$"):
    assert type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert list(actual) == list(expected), f"{path}: keys differ"
        for key in expected:
            assert_same_json(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: lengths differ"
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_same_json(a, e, f"{path}[{k}]")
    elif isinstance(expected, float):
        assert _close(actual, expected), f"{path}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def assert_same_text(actual: str, expected: str, label: str):
    """Equal text between the numbers, and close numbers."""
    assert NUMBER.split(actual) == NUMBER.split(expected), f"{label}: {actual!r}"
    got, want = NUMBER.findall(actual), NUMBER.findall(expected)
    assert len(got) == len(want), f"{label}: {actual!r}"
    for a, e in zip(got, want):
        assert _close(float(a), float(e)), f"{label}: {a} != {e}"


def _sigma_ratios(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _sigma_ratios(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _sigma_ratios(v, key)
    elif isinstance(value, float) and "sigma_ratio" in key:
        yield value


def _is_json(argv) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


RECORDED = json.loads(RUNS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", RECORDED, ids=[case["name"] for case in RECORDED])
def test_corpus_run(case):
    code, out, err = run(case["argv"])
    assert code == case["exit"]
    if _is_json(case["argv"]) and case["stdout"]:
        expected = json.loads(case["stdout"])
        assert_same_json(json.loads(out), expected)
        for ratio in _sigma_ratios(expected):
            assert not AMBIGUITY_BAND[0] <= ratio <= AMBIGUITY_BAND[1]
    else:
        assert_same_text(out, case["stdout"], "stdout")
    assert_same_text(err, case["stderr"], "stderr")


SUGGESTED = [
    case for case in RECORDED if case["argv"][0] == "suggest" and _is_json(case["argv"]) and case["stdout"]
]


@pytest.mark.parametrize("case", SUGGESTED, ids=[case["name"] for case in SUGGESTED])
def test_recorded_suggestion_meets_its_spec(case):
    argv = case["argv"]

    def option(name):
        return argv[argv.index(name) + 1]

    lo, hi = map(float, option("--window").split(","))
    spacing = float(option("--min-spacing"))
    instants = json.loads(case["stdout"])["schedule"]
    assert len(instants) == int(option("--count"))
    assert lo <= instants[0] and instants[-1] <= hi, instants
    assert all(b - a >= spacing for a, b in zip(instants, instants[1:])), instants


def _flag_moves_output(argv, flag) -> bool:
    """Whether argv sets ``flag`` to a positive finite value and its run
    differs from the run of argv without it."""
    if flag not in argv:
        return False
    k = argv.index(flag)
    value = float(argv[k + 1])
    return math.isfinite(value) and value > 0 and run(argv) != run(argv[:k] + argv[k + 2:])


TOLERANCE_FLAGS = cli_tolerance_flags()


def test_corpus_covers_every_subcommand_and_tolerance_flag():
    argvs = [case["argv"] for case in RECORDED]
    for command, flags in TOLERANCE_FLAGS.items():
        used = [argv for argv in argvs if argv[0] == command]
        assert any(_is_json(argv) for argv in used), command
        assert any(not _is_json(argv) for argv in used), command
        for flag in flags:
            assert any(_flag_moves_output(argv, flag) for argv in used), (command, flag)


UNREAD_TOLERANCES = [
    (command, name)
    for command, flags in TOLERANCE_FLAGS.items()
    for name in (field.name for field in dataclasses.fields(Tolerances))
    if name not in flags.values()
]


@pytest.mark.parametrize("command, name", UNREAD_TOLERANCES)
def test_a_tolerance_without_a_flag_changes_no_run(tmp_path, command, name):
    for case in RECORDED:
        if case["argv"][0] != command:
            continue
        document = json.loads((CORPUS / case["argv"][1]).read_text(encoding="utf-8"))
        for value in (1e-300, 1e300):
            document["tolerances"] = {**(document.get("tolerances") or {}), name: value}
            (tmp_path / case["argv"][1]).write_text(json.dumps(document), encoding="utf-8")
            assert run(case["argv"], tmp_path) == run(case["argv"]), (case["name"], value)


def record(names=()) -> int:
    """Re-run the named command lines in runs.json (all of them when none
    are named) and store what they printed; 1 on an unknown name."""
    unknown = set(names) - {case["name"] for case in RECORDED}
    if unknown:
        print(f"unknown corpus runs: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    for case in RECORDED:
        if not names or case["name"] in names:
            case["exit"], case["stdout"], case["stderr"] = run(case["argv"])
    RUNS.write_text(json.dumps(RECORDED, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
