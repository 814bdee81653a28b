"""The benchmark's report corpus, and a differ for two corpora.

Run from the repository root:

    PYTHONPATH=src python3 tools/corpus.py write DIR
    python3 tools/corpus.py compare OLD NEW

``write`` imports the pklab that ``PYTHONPATH`` names (``src/`` of this
checkout if none), runs one verification pass of each workload of
``perfbench/workloads.py`` at each seed 0-63, and every preset with all
checks at 6 points at seeds 0-3, and writes each report's JSON text to
``DIR/<workload>/seed<NN>/<label>.json`` (1,172 texts), with a manifest of
their SHA-256 digests in ``DIR/MANIFEST.sha256`` (``sha256sum -c`` reads
it).  Each workload's triples are built once and serve all its seeds.

``compare`` prints:

* how many texts are identical and how many differ;
* per result name, how many residuals moved, the largest absolute move and
  the largest relative move, |new - old| / |old|, among residuals above
  1e-10 (below that, a residual is rounding noise and a relative move
  means nothing);
* every verdict and flag change, and every result found in one text only;
* every result of NEW's workload texts that leaves the benchmark gate's
  bound, ``gate.baseline_problem`` against ``perfbench/baseline.json``
  (the preset texts have no baseline and are not gated).

A text can differ with no residual moved: a -0.0 that becomes +0.0 does
so, and so does a change of an identity text or a tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_SEEDS = range(64)
PRESET_SEEDS = range(4)
PRESET_POINTS = 6
MANIFEST = "MANIFEST.sha256"
# residuals at or below this size are left out of the relative moves
RELATIVE_FLOOR = 1e-10
# differing texts listed by name
SHOWN = 20


def preset_workload(pk: SimpleNamespace) -> workloads.Workload:
    """Every preset with all checks at ``PRESET_POINTS`` points."""
    # a preset's family comes first in its registry entry, in every version
    # of the catalog
    presets = pk.catalog.PRESETS
    specs = tuple(workloads.TripleSpec(presets[p][0], p) for p in sorted(presets))
    return workloads.Workload("presets", specs, None, PRESET_POINTS)


def full_runs(pk: SimpleNamespace) -> list:
    """The corpus's (workload, seeds) pairs."""
    return [(w, WORKLOAD_SEEDS) for w in workloads.WORKLOADS.values()] + [
        (preset_workload(pk), PRESET_SEEDS)
    ]


def corpus_texts(pk: SimpleNamespace, runs) -> dict[str, str]:
    """Report texts of one pass of each workload at each of its seeds, by
    ``<workload>/seed<NN>/<label>.json``; a raising run's text is its error."""
    texts = {}
    for workload, seeds in runs:
        built = workloads.build(pk, workload, 0)
        for seed in seeds:
            entries = [workloads.Entry(e.label, e.triple, e.checks, {**e.config, "seed": seed})
                       for e in built]
            for o in workloads.run_pass(pk, entries, workload.points, seed):
                text = o.text if o.error is None else f"error: {o.error}\n"
                texts[f"{workload.name}/seed{seed:02d}/{o.label}.json"] = text
    return texts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write(directory: Path, texts: dict[str, str]) -> None:
    for key, text in texts.items():
        path = directory / key
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    lines = [f"{_digest(texts[key])}  {key}\n" for key in sorted(texts)]
    (directory / MANIFEST).write_text("".join(lines))


def read(directory: Path) -> dict[str, str]:
    """The texts a manifest lists; ValueError if one does not match its digest."""
    texts = {}
    for line in (directory / MANIFEST).read_text().splitlines():
        digest, key = line.split("  ", 1)
        texts[key] = (directory / key).read_text()
        if _digest(texts[key]) != digest:
            raise ValueError(f"{directory / key} does not match its digest in {MANIFEST}")
    return texts


def _results(text: str) -> dict:
    """A report text's results by name, a residual written as null (not
    finite) read as NaN; none for a raising run's text."""
    if text.startswith("error:"):
        return {}
    checks = json.loads(text)["checks"]
    return {c["name"]: {**c, "residual": math.nan if c["residual"] is None else c["residual"]}
            for c in checks}


@dataclass
class Moves:
    """The residual moves of one result name."""

    count: int = 0
    absolute: float = 0.0
    relative: float | None = None

    def add(self, old: float, new: float) -> None:
        move = abs(new - old)
        if math.isnan(move):  # to or from a residual that is not finite
            move = math.inf
        self.count += 1
        self.absolute = max(self.absolute, move)
        if abs(old) > RELATIVE_FLOOR:
            self.relative = max(self.relative or 0.0, move / abs(old))


@dataclass
class Comparison:
    identical: int = 0
    differ: list = field(default_factory=list)
    only_old: list = field(default_factory=list)
    only_new: list = field(default_factory=list)
    moves: dict = field(default_factory=dict)  # result name -> Moves
    changes: list = field(default_factory=list)  # verdict, flag and presence changes
    outside_bound: list = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"texts: {self.identical} identical, {len(self.differ)} differ, "
               f"{len(self.only_old)} only in OLD, {len(self.only_new)} only in NEW"]
        out += [f"  differs: {key}" for key in self.differ[:SHOWN]]
        if len(self.differ) > SHOWN:
            out.append(f"  ... and {len(self.differ) - SHOWN} more")
        out += [f"  only in OLD: {key}" for key in self.only_old]
        out += [f"  only in NEW: {key}" for key in self.only_new]
        out.append("residual moves (result: moved, largest absolute, largest relative"
                   f" above {RELATIVE_FLOOR:g}):" + ("" if self.moves else " none"))
        for name, m in sorted(self.moves.items()):
            rel = "-" if m.relative is None else f"{m.relative:.3e}"
            out.append(f"  {name}: {m.count}, {m.absolute:.3e}, {rel}")
        out.append("verdict and flag changes:" + ("" if self.changes else " none"))
        out += [f"  {c}" for c in self.changes]
        out.append("outside the gate's bound in NEW:" + ("" if self.outside_bound else " none"))
        out += [f"  {p}" for p in self.outside_bound]
        return out


_VERDICT = {True: "PASS", False: "FAIL"}


def _same(old: float, new: float) -> bool:
    # -0.0 == +0.0: a change of sign of zero is a text difference, not a move
    return old == new or (math.isnan(old) and math.isnan(new))


def compare(old: dict[str, str], new: dict[str, str]) -> Comparison:
    cmp = Comparison(only_old=sorted(set(old) - set(new)), only_new=sorted(set(new) - set(old)))
    for key in sorted(set(old) & set(new)):
        if old[key] == new[key]:
            cmp.identical += 1
            continue
        cmp.differ.append(key)
        a, b = _results(old[key]), _results(new[key])
        cmp.changes += [f"{key} {n}: only in OLD" for n in sorted(set(a) - set(b))]
        cmp.changes += [f"{key} {n}: only in NEW" for n in sorted(set(b) - set(a))]
        for name in sorted(set(a) & set(b)):
            ra, rb = a[name], b[name]
            if not _same(ra["residual"], rb["residual"]):
                cmp.moves.setdefault(name, Moves()).add(ra["residual"], rb["residual"])
            if ra["passed"] != rb["passed"]:
                cmp.changes.append(f"{key} {name}: {_VERDICT[ra['passed']]} -> "
                                   f"{_VERDICT[rb['passed']]}")
            if ra["flags"] != rb["flags"]:
                cmp.changes.append(f"{key} {name}: flags {ra['flags']} -> {rb['flags']}")
    cmp.outside_bound = outside_bound(new)
    return cmp


def outside_bound(texts: dict[str, str]) -> list[str]:
    """The results of workload texts that the benchmark gate's baseline
    bound rejects."""
    baselines, out = {}, []
    for key in sorted(texts):
        name = key.split("/", 1)[0]
        if name not in workloads.WORKLOADS:
            continue
        if name not in baselines:
            baselines[name] = gate.load_baseline(name)
        label = key.rsplit("/", 1)[1].removesuffix(".json")
        expected = baselines[name].residuals.get(label, {})
        for result in _results(texts[key]).values():
            r = SimpleNamespace(**result)
            if gate.is_skipped(r):
                continue
            problem = gate.baseline_problem(r, expected.get(r.name))
            if problem:
                out.append(f"{key} {r.name}: {problem}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="corpus.py", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="write the corpus and its manifest to DIR")
    w.add_argument("dir", type=Path)
    c = sub.add_parser("compare", help="compare the corpora OLD and NEW")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "write":
        # as the benchmark does, one thread per pool before numpy loads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path.append(str(ROOT / "src"))  # after PYTHONPATH's entries
        pk = workloads.import_pklab()
        print(f"pklab from {Path(pk.catalog.__file__).parent}", file=sys.stderr)
        texts = corpus_texts(pk, full_runs(pk))
        write(args.dir, texts)
        print(f"wrote {len(texts)} texts to {args.dir}")
        return 0
    print("\n".join(compare(read(args.old), read(args.new)).lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
