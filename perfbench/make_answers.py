#!/usr/bin/env python3
"""Regenerate the benchmark's known answers in perfbench/answers/.

    python3 perfbench/make_answers.py

closed_forms.json holds the closed-form Hilbert series that the `hilb`
invocations must reproduce, computed from qgrass.qseries, which shares no code
with the ring engines.  sweep-default.txt is the stdout of `qgrass verify all`,
pinned byte for byte; it is taken from the CLI, so regenerate it only from a
commit whose report is known to be right (449 passes, no failures).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ANSWERS = BENCH_DIR / "answers"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qgrass.qseries import grass_subalgebra_formula, lg_subalgebra_formula

    forms = {
        "grass 7 7 2": grass_subalgebra_formula(7, 7, 2).coeffs(),
        "grass 6 6 3": grass_subalgebra_formula(6, 6, 3).coeffs(),
        "lg 10 5": lg_subalgebra_formula(10, 5).coeffs(),
    }
    ANSWERS.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(coeffs)}" for key, coeffs in forms.items()]
    (ANSWERS / "closed_forms.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report = subprocess.run(
        [sys.executable, "-m", "qgrass.cli", "verify", "all"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    summary = report.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if report.returncode != 0 or summary != "summary: pass=449 fail=0 error=0":
        print(f"error: verify all gave exit {report.returncode}, {summary!r}", file=sys.stderr)
        return 1
    (ANSWERS / "sweep-default.txt").write_text(report.stdout, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
