"""Extension experiment: the differential oracle over the 27-app corpus.

The paper's evaluation pins expected outcomes per app by hand (Table 3
and friends).  The oracle turns that around: run every corpus app's
seeded session under all three policies, diff end states and span
streams pairwise, and let the rule table classify each divergence.
The paper's qualitative result then has to *emerge* from the
classification instead of being asserted:

* stock Android 10 shows ``STATE_DIVERGENCE`` across the corpus — the
  restart path loses what users entered;
* RCHDroid confines ``STATE_DIVERGENCE`` to the two bare-field apps its
  essence migration cannot reach (paper Table 3's 25-of-27);
* RuntimeDroid shows none — in-place updates never recreate the
  activity, so even bare fields survive;
* nothing, anywhere, classifies as ``SIMULATOR_BUG`` — every policy
  replays deterministically and agrees wherever agreement is promised.

``benchmarks/test_ext_oracle.py`` pins exactly that shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.appset27 import build_appset27

if TYPE_CHECKING:  # pragma: no cover
    from repro.oracle import OracleReport

#: Corpus apps the oracle is allowed to see rchdroid state loss on —
#: the bare-field pair RCHDroid cannot fix (paper Table 3).
RCHDROID_ALLOWED_LOSS = ("tp37.diskdiggerpro", "tp37.dock4droid")


def run(seed: int = 0x5EED, member: int = 0) -> OracleReport:
    # Imported here, as in format_report: the oracle package is a third
    # of the experiment registry's import time, which the daemon pays
    # on its first experiment job and never uses.
    from repro.oracle import OracleReport, run_oracle_session

    report = OracleReport()
    for app in build_appset27(seed):
        report.add(run_oracle_session(app, seed=seed, member=member))
    return report


def format_report(report: OracleReport) -> str:
    from repro.oracle import format_oracle_report

    data = report.to_dict()
    divergent = {
        policy: sorted({
            finding["app"] for finding in data["findings"]
            if (finding["verdict"] == "STATE_DIVERGENCE"
                and policy in finding["policies"])
        })
        for policy in report.policies
    }
    lines = [format_oracle_report(report, max_findings=6), ""]
    lines.append("  apps with state divergence, by policy:")
    for policy in report.policies:
        apps = divergent.get(policy, [])
        shown = ", ".join(apps[:4]) + (" ..." if len(apps) > 4 else "")
        lines.append(f"    {policy:<14} {len(apps):>2}/27"
                     + (f"  ({shown})" if apps else ""))
    return "\n".join(lines)
