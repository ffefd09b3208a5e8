"""Record the verify pool's reference reports at the default seed.

    python3 perfbench/record_golden.py

Writes perfbench/golden/<command>.json for every command of the verify
pool (in the checks workload) at seed 42, except the job with a known
defect.  Run it only at a commit whose reports are known to be right: the
benchmark compares later reports with these byte for byte.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    workloads.GOLDEN.mkdir(exist_ok=True)
    for argv in workloads.golden_argvs():
        code, text = workloads.run_cli(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}; nothing recorded")
        (workloads.GOLDEN / workloads.golden_name(argv)).write_text(text, encoding="utf-8")
        print(workloads.golden_name(argv))


if __name__ == "__main__":
    main()
