"""``tools/corpus.py``, the report corpus and its differ, on the benchmark's
reduced workloads at one seed.

The corpus runs on the pklab modules this process has loaded:
``workloads.import_pklab`` would import a second copy, and other tests hold
references into the first.
"""

import importlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import corpus  # noqa: E402


@pytest.fixture(scope="module")
def texts():
    pk = SimpleNamespace(**{m: importlib.import_module(f"pklab.{m}")
                            for m in ("catalog", "exprs", "suites")})
    return corpus.corpus_texts(pk, [(w, [0]) for w in corpus.workloads.REDUCED.values()])


def _edited(text, name, **changes):
    """``text`` with result ``name``'s entries replaced, written as
    ``VerificationReport.to_json`` writes it."""
    report = json.loads(text)
    for check in report["checks"]:
        if check["name"] == name:
            check.update(changes)
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _nonzero_result(texts):
    for key, text in texts.items():
        for check in json.loads(text)["checks"]:
            if check["residual"]:
                return key, check
    raise AssertionError("no nonzero residual in the corpus")


def test_the_corpus_compared_with_itself_is_identical(texts, tmp_path):
    assert len(texts) == 1 + 3 + 2  # the reduced workloads' triples
    corpus.write(tmp_path, texts)
    cmp = corpus.compare(texts, corpus.read(tmp_path))
    assert cmp.identical == len(texts)
    assert (cmp.differ, cmp.only_old, cmp.only_new) == ([], [], [])
    assert (cmp.moves, cmp.changes, cmp.outside_bound) == ({}, [], [])
    assert cmp.lines()[0] == f"texts: {len(texts)} identical, 0 differ, 0 only in OLD, 0 only in NEW"


def test_a_text_that_does_not_match_its_digest_is_refused(texts, tmp_path):
    corpus.write(tmp_path, texts)
    key = sorted(texts)[0]
    (tmp_path / key).write_text(texts[key].replace("}", "} "))
    with pytest.raises(ValueError, match="does not match its digest"):
        corpus.read(tmp_path)


def test_a_one_ulp_nudge_is_one_move_and_no_verdict_change(texts):
    key, check = _nonzero_result(texts)
    assert _edited(texts[key], check["name"]) == texts[key]
    nudged = math.nextafter(check["residual"], math.inf)
    cmp = corpus.compare(texts, {**texts, key: _edited(texts[key], check["name"],
                                                       residual=nudged)})
    assert cmp.differ == [key] and cmp.identical == len(texts) - 1
    assert list(cmp.moves) == [check["name"]]
    move = cmp.moves[check["name"]]
    assert move.count == 1 and move.absolute == nudged - check["residual"]
    assert cmp.changes == []


def test_a_flipped_verdict_is_one_change(texts):
    key, check = _nonzero_result(texts)
    flipped = _edited(texts[key], check["name"], passed=not check["passed"])
    cmp = corpus.compare(texts, {**texts, key: flipped})
    assert cmp.moves == {}
    assert len(cmp.changes) == 1 and cmp.changes[0].startswith(f"{key} {check['name']}: ")


def test_a_negative_zero_becoming_positive_is_a_text_difference(texts):
    key, check = _nonzero_result(texts)
    old = _edited(texts[key], check["name"], residual=-0.0)
    new = _edited(texts[key], check["name"], residual=0.0)
    assert '"residual":-0.0' in old and old != new
    cmp = corpus.compare({**texts, key: old}, {**texts, key: new})
    assert cmp.differ == [key]
    assert (cmp.moves, cmp.changes) == ({}, [])


def test_a_residual_past_the_gates_bound_is_listed(texts):
    key, check = _nonzero_result(texts)
    raised = _edited(texts[key], check["name"], residual=1.0)
    (problem,) = corpus.compare(texts, {**texts, key: raised}).outside_bound
    assert problem.startswith(f"{key} {check['name']}: residual 1.000e+00 above")
