"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --self RUNS_A RUNS_B        # same-code agreement

Each directory holds the ``result_*.json`` files of one side, at least two
runs per workload, the same seeds on both sides (a run on seed ``n`` is
paired with the other side's run on seed ``n``).  One row is printed per
workload and end-to-end metric: each side's median and quartiles, the share
of pairs the change won, the ratio of the medians **with its base**, and a
verdict by the rule of the choosing-metrics guide, section 8:

``improved``    the change wins at least nine tenths of the pairs (ties count
                for neither side) and the medians differ by more than the
                distance between the parent's own quartiles;
``regressed``   the change's median is worse than the parent's by more than
                the metric's bound in ``BENCHMARK.json``;
``unresolved``  the run-to-run spread of either side is wider than the bound,
                unless every run of one side beats every run of the other;
``unchanged``   otherwise.

Files whose host fingerprints, settings or operation counts differ are
refused (exit 2).  ``--self`` exits 1 unless, for every row, the second
set's median is no worse than the first's by more than the bound and (except
for ``setup_s``) both spreads stay inside it, and every exact count is
identical run for run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import SCHEMA, load_spec, quartiles

#: Per-layer counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "cache.misses",
    "runtime.tiles_executed",
    "runtime.tile_waves",
    "runtime.band_cells",
    "runtime.redundant_cells",
    "runtime.phase_cells",
    "client.samples",
)


class Refused(Exception):
    """The two sides cannot be compared."""


def load_side(directory: Path) -> dict:
    """``{(workload, trace): {seed: (settings, record)}}`` of one directory."""
    runs: dict = {}
    for path in sorted(directory.glob("result_*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("schema") != SCHEMA:
            raise Refused(f"{path}: result schema {result.get('schema')!r}, expected {SCHEMA}")
        settings = {
            "fingerprint": result["fingerprint"],
            "seconds": result["seconds"],
            "smoke": result["smoke"],
        }
        for workload, record in result["workloads"].items():
            by_seed = runs.setdefault((workload, result["trace"]), {})
            if result["seed"] in by_seed:
                raise Refused(f"{path}: a second run of {workload} on seed {result['seed']}")
            by_seed[result["seed"]] = (settings, record)
    if not runs:
        raise Refused(f"no result_*.json files in {directory}")
    return runs


def paired(side_a: dict, side_b: dict, key: tuple) -> list[tuple[dict, dict]]:
    """Records of one (workload, trace) paired by seed, after the refusals."""
    runs_a, runs_b = side_a[key], side_b.get(key, {})
    if sorted(runs_a) != sorted(runs_b):
        raise Refused(f"{key[0]}: seeds differ ({sorted(runs_a)} vs {sorted(runs_b)})")
    if len(runs_a) < 2:
        raise Refused(f"{key[0]}: {len(runs_a)} run per side, at least 2 needed")
    pairs = []
    for seed in sorted(runs_a):
        (settings_a, record_a), (settings_b, record_b) = runs_a[seed], runs_b[seed]
        if settings_a != settings_b:
            raise Refused(f"{key[0]} seed {seed}: host fingerprint or settings differ:\n"
                          f"  {settings_a}\n  {settings_b}")
        if record_a["ops"] != record_b["ops"]:
            raise Refused(f"{key[0]} seed {seed}: operation counts differ: "
                          f"{record_a['ops']} vs {record_b['ops']}")
        pairs.append((record_a, record_b))
    return pairs


def judge(values_a: list[float], values_b: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pairs won, ratio and verdict of one row."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value: bigger is better
    q1_a, med_a, q3_a = quartiles(values_a)
    q1_b, med_b, q3_b = quartiles(values_b)
    wins = sum(sign * b > sign * a for a, b in zip(values_a, values_b))
    losses = sum(sign * b < sign * a for a, b in zip(values_a, values_b))
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    worse_by = sign * (med_a - med_b) / abs(med_a)
    all_better = min(sign * b for b in values_b) > max(sign * a for a in values_a)
    all_worse = max(sign * b for b in values_b) < min(sign * a for a in values_a)
    if wins >= 0.9 * len(values_a) and abs(med_b - med_a) > q3_a - q1_a:
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed" if spread <= bound or all_worse else "unresolved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "a": (q1_a, med_a, q3_a),
        "b": (q1_b, med_b, q3_b),
        "won": wins / len(values_a),
        "lost": losses / len(values_a),
        "ratio": med_b / med_a,
        "spread": spread,
        "worse_by": worse_by,
        "verdict": verdict,
    }


def _show(row_side: tuple[float, float, float]) -> str:
    q1, med, q3 = row_side
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="result files of the parent (or run set A)")
    parser.add_argument("change", type=Path, help="result files of the change (or run set B)")
    parser.add_argument("--self", dest="same_code", action="store_true",
                        help="both sets ran the same code: check that they agree")
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        side_a, side_b = load_side(args.parent), load_side(args.change)
        disagreements = []
        print(f"{'workload':<17}{'metric':<16}{'A median [q1, q3]':<36}"
              f"{'B median [q1, q3]':<36}{'won':>5}  {'B/A (base A)':<28}verdict")
        for workload in (w["name"] for w in spec["workloads"]):
            if (workload, 0) not in side_a:
                continue
            pairs = paired(side_a, side_b, (workload, 0))
            for metric in spec["end_to_end"]:
                name = metric["name"]
                values_a = [a["metrics"][name]["value"] for a, _ in pairs]
                values_b = [b["metrics"][name]["value"] for _, b in pairs]
                row = judge(values_a, values_b, metric["better"], metric["bound"])
                base = f"{row['ratio']:.3f} (A = {row['a'][1]:.5g} {metric['unit']})"
                print(f"{workload:<17}{name:<16}{_show(row['a']):<36}{_show(row['b']):<36}"
                      f"{row['won']:>5.0%}  {base:<28}{row['verdict']}"
                      f"  spread {row['spread']:.1%}")
                if row["worse_by"] > metric["bound"] or (
                    name != "setup_s" and row["spread"] > metric["bound"]
                ):
                    disagreements.append(f"{workload} {name}: worse by {row['worse_by']:.1%}, "
                                         f"spread {row['spread']:.1%}, bound {metric['bound']:.0%}")
            failed = sum(r["failed"] for pair in pairs for r in pair)
            if failed:
                disagreements.append(f"{workload}: {failed} failed operations")
        for workload, trace in sorted(side_a):
            if trace != 1 or (workload, 1) not in side_b:
                continue
            for record_a, record_b in paired(side_a, side_b, (workload, 1)):
                for name in EXACT_COUNTS:
                    a, b = (r["metrics"].get(name, {}).get("value") for r in (record_a, record_b))
                    if a != b:
                        disagreements.append(f"{workload} {name}: {a} vs {b} on one seed")
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    if args.same_code:
        for line in disagreements:
            print(f"DISAGREE {line}")
        print("same-code agreement:", "FAILED" if disagreements else "OK")
        return 1 if disagreements else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
