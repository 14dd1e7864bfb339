#!/usr/bin/env python3
"""Workload characterisation report (the §4.1/§4.2 methodology).

Characterises each standard workload the way the paper's performance
architects did before the design studies: instruction mix, footprints,
structural miss ratios, and the Figure 7 stall decomposition — rendered
as tables and a stacked text chart.

Run:  python examples/workload_characterization.py [workload ...]
"""

import sys

from repro.analysis.characterize import characterize_workload
from repro.analysis.plots import stacked_breakdown_chart
from repro.analysis.workloads import standard_workloads, workload_by_name

WARM = 60_000
TIMED = 15_000


def main() -> None:
    names = sys.argv[1:]
    if names:
        workloads = [workload_by_name(name, warm=WARM, timed=TIMED) for name in names]
    else:
        workloads = standard_workloads(warm=WARM, timed=TIMED)

    breakdowns = {}
    for workload in workloads:
        print(f"characterising {workload.name} ...")
        report = characterize_workload(workload, with_breakdown=True)
        print(report.format_report())
        print()
        breakdowns[workload.name] = report.breakdown.as_dict()

    print(
        stacked_breakdown_chart(
            breakdowns,
            order=["core", "branch", "ibs/tlb", "sx"],
            title="Figure 7 — execution-time breakdown (100% stacked)",
        )
    )


if __name__ == "__main__":
    main()
