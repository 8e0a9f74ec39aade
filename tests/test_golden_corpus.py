"""Golden corpus: absolute simulator outputs pinned to a committed fixture.

Every other simulator test checks run-vs-run agreement or a qualitative paper
claim; this one pins the numbers themselves.  ``tests/data/golden_sim.json``
holds ``cycles``, ``energy_pj`` and all eight DRAM/L1/L0/op counters for every
registered scheduler x hardware preset x corpus entry x tiling, where the
tilings are the scheduler's default plus ``SAMPLES`` tilings drawn from the
:class:`~repro.search.space.TilingSearchSpace` with a fixed seed.  A tiling the
scheduler rejects records the exception type instead.

The fixture changes only when a change is *meant* to move simulated numbers.
Regenerate it explicitly (and say so in the change description)::

    PYTHONPATH=src python tests/test_golden_corpus.py --regenerate

Without ``--regenerate`` the script compares against the fixture and lists
the cases that differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.hardware.presets import get_preset
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.search.space import TilingSearchSpace
from repro.workloads.suites import get_suite

FIXTURE = Path(__file__).parent / "data" / "golden_sim.json"

PRESETS: tuple[str, ...] = ("edge-sim", "davinci-like", "edge-constrained")

#: ``(suite, entry)`` pairs: two Table-1 shapes, one GQA and one decode step.
ENTRIES: tuple[tuple[str, str], ...] = (
    ("table1", "ViT-B/14"),
    ("table1", "BERT-Base & T5-Base"),
    ("gqa", "gemma-2b.mqa"),
    ("decode-step", "BERT-Base & T5-Base @dec"),
)

#: Sampled tilings per (entry, preset), drawn from ``default_rng(SAMPLE_SEED)``.
SAMPLES = 3
SAMPLE_SEED = 2

COUNTERS: tuple[str, ...] = (
    "dram_bytes_read",
    "dram_bytes_written",
    "l1_bytes_read",
    "l1_bytes_written",
    "l0_bytes_read",
    "l0_bytes_written",
    "mac_ops",
    "vec_ops",
)


def _case(scheduler, workload, tiling) -> dict[str, object]:
    """The pinned outcome of simulating one case."""
    try:
        result = scheduler.simulate(workload, tiling)
    except Exception as exc:  # the corpus records infeasibility, whatever the type
        return {"error": type(exc).__name__}
    record: dict[str, object] = {"cycles": result.cycles, "energy_pj": result.energy_pj}
    for name in COUNTERS:
        record[name] = getattr(result.counters, name)
    return record


def compute_corpus() -> dict[str, dict[str, object]]:
    """Simulate every corpus case; keys are ``scheduler|preset|suite:entry|tiling``."""
    cases: dict[str, dict[str, object]] = {}
    for suite, entry in ENTRIES:
        workload = get_suite(suite).workload_for(entry)
        for preset in PRESETS:
            hardware = get_preset(preset)
            space = TilingSearchSpace(workload, hardware)
            rng = np.random.default_rng(SAMPLE_SEED)
            sampled = [space.sample(rng) for _ in range(SAMPLES)]
            for name in ALL_SCHEDULERS:
                scheduler = make_scheduler(name, hardware)
                tilings = [("default", scheduler.default_tiling(workload))]
                tilings += [(f"sample{i}", t) for i, t in enumerate(sampled)]
                for label, tiling in tilings:
                    key = f"{name}|{preset}|{suite}:{entry}|{label}"
                    record = {"tiling": tiling.as_dict()}
                    record.update(_case(scheduler, workload, tiling))
                    cases[key] = record
    return cases


def load_fixture() -> dict[str, dict[str, object]]:
    return json.loads(FIXTURE.read_text())["cases"]


def write_fixture(cases: dict[str, dict[str, object]]) -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "about": "pinned simulator outputs; regenerate only with "
        "`python tests/test_golden_corpus.py --regenerate`",
        "cases": cases,
    }
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def mismatches(expected: dict, actual: dict) -> list[str]:
    """One line per case that is missing, extra or different."""
    lines = [f"missing: {key}" for key in sorted(expected.keys() - actual.keys())]
    lines += [f"unexpected: {key}" for key in sorted(actual.keys() - expected.keys())]
    for key in sorted(expected.keys() & actual.keys()):
        if expected[key] != actual[key]:
            lines.append(f"differs: {key}: fixture {expected[key]} != simulated {actual[key]}")
    return lines


def test_corpus_covers_every_scheduler_preset_entry_and_tiling():
    cases = load_fixture()
    assert len(cases) == len(ALL_SCHEDULERS) * len(PRESETS) * len(ENTRIES) * (1 + SAMPLES)
    assert any("error" in record for record in cases.values())  # infeasible tilings pinned too


def test_simulator_reproduces_golden_corpus_exactly():
    problems = mismatches(load_fixture(), compute_corpus())
    assert not problems, f"{len(problems)} corpus case(s) changed:\n" + "\n".join(problems[:20])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true", help=f"rewrite {FIXTURE.name} from the current code"
    )
    args = parser.parse_args(argv)
    cases = compute_corpus()
    if args.regenerate:
        write_fixture(cases)
        print(f"wrote {len(cases)} cases to {FIXTURE}")
        return 0
    problems = mismatches(load_fixture(), cases)
    for line in problems:
        print(line)
    print(f"{len(cases)} cases, {len(problems)} changed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
