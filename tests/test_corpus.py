"""Golden corpus: every subcommand's output on a fixed set of system documents.

``tests/corpus/*.json`` holds thirteen system documents: order 1, the rotation
and its damped form, a diagonal order 3, a defective order 3 in modal form,
orders 4 and 8, a non-minimal system, one with a ``tolerances`` record, a
nearly uncontrollable one, a nearly defective one, the rotation without a
schedule, and one whose ``tolerances`` record has an unknown key.
``tests/corpus/runs.json`` lists the command lines run on them, each with the
exit code, stdout and stderr the CLI produced.  Together the runs cover every
subcommand in both formats, each of ``--tol``, ``--cluster-tol``,
``--rank-tol`` and ``--residual-tol`` on a case where it changes the output,
and the input errors of the CLI (a malformed window, a missing schedule, a
rejected tolerance), so refactors are held to the same output and the same
tolerance routing.

Exit codes, keys, booleans, integers and strings must match exactly; floats
match to a relative 1e-9 with an absolute floor of 1e-12, so a BLAS that
rounds differently does not fail the test.  Text output and stderr are
compared the same way, number by number.  No recorded sigma ratio lies in the
ambiguity band [1e-11, 1e-7], where the verdict could flip on such rounding.

The recorded outputs pin the tolerance routing: the singularity tolerance
decides the verdict and truncates the rank of every span, and the residual
tolerance judges range membership, so ``--residual-tol 10`` turns
``criterion.controllable`` on in ``rotation-analyze-residual-tol-singular``.
A change that alters an output on purpose re-records the runs it moves with
``python tests/test_corpus.py NAME ...`` (every run when no name is given)
and says which runs changed.
"""

import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from nusamp.cli import main

CORPUS = Path(__file__).parent / "corpus"
RUNS = CORPUS / "runs.json"
REL_TOL = 1e-9
ABS_TOL = 1e-12
AMBIGUITY_BAND = (1e-11, 1e-7)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def run(argv):
    """Run the CLI in-process on a corpus document; (exit, stdout, stderr)."""
    argv = [argv[0], str(CORPUS / argv[1]), *argv[2:]]
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


def test_corpus_covers_every_subcommand_and_tolerance_flag():
    argvs = [case["argv"] for case in RECORDED]
    for command in ("analyze", "forbidden", "suggest", "deadbeat", "reconstruct", "uniform"):
        used = [argv for argv in argvs if argv[0] == command]
        assert any(_is_json(argv) for argv in used), command
        assert any(not _is_json(argv) for argv in used), command
    for flag in ("--tol", "--cluster-tol", "--rank-tol", "--residual-tol"):
        assert any(flag in argv for argv in argvs), flag


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
