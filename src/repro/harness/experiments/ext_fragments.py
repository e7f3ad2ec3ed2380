"""Extension experiment: dynamic view trees (fragments).

Section 2.2 argues the Android-System way's key qualitative advantage:
static app-level patching (RuntimeDroid) cannot reconstruct view trees
that are assembled dynamically from fragments, while the system level
knows exactly which fragments are attached.  The paper makes the
argument; this experiment quantifies it on a synthetic fragment corpus:

* N apps, each attaching 1-3 fragments at runtime and then receiving a
  rotation mid-session;
* RuntimeDroid cannot patch them (they fall back to the stock restart),
  so fragment-held view state is lost;
* RCHDroid restores both the fragment structure (framework-saved) and
  the fragment views' state (full snapshot + essence mapping).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.res import Orientation, ResourceTable
from repro.android.views.inflate import LayoutSpec, ViewSpec
from repro.apps.dsl import AppSpec, simple_layout
from repro.baselines.android10 import Android10Policy
from repro.baselines.runtimedroid import RuntimeDroidPolicy
from repro.core.policy import RCHDroidPolicy
from repro.harness.report import render_table
from repro.sim.rng import DeterministicRng
from repro.system import AndroidSystem

CONTAINER_ID = 5
FRAG_ID_BASE = 1000


def build_fragment_app(index: int, num_fragments: int) -> AppSpec:
    table = ResourceTable()
    main = simple_layout(
        "main",
        [ViewSpec("ViewGroup", view_id=CONTAINER_ID),
         ViewSpec("TextView", view_id=20)],
    )
    for orientation in (Orientation.PORTRAIT, Orientation.LANDSCAPE):
        table.add_layout("main", main, orientation)
    for frag in range(num_fragments):
        layout = LayoutSpec(
            f"frag{frag}",
            roots=[ViewSpec(
                "ViewGroup", view_id=FRAG_ID_BASE + frag * 10,
                children=[ViewSpec("TextView",
                                   view_id=FRAG_ID_BASE + frag * 10 + 1)],
            )],
        )
        for orientation in (Orientation.PORTRAIT, Orientation.LANDSCAPE):
            table.add_layout(f"frag{frag}", layout, orientation)
    return AppSpec(
        package=f"fragcorpus.app{index}",
        label=f"FragmentApp-{index}",
        resources=table,
        runtimedroid_compatible=False,  # Section 2.2's limitation
    )


@dataclass
class FragmentRunResult:
    label: str
    num_fragments: int
    preserved: dict[str, bool]  # policy name -> fragment state preserved


@dataclass
class ExtFragmentsResult:
    rows: list[FragmentRunResult]

    def preservation_rate(self, policy: str) -> float:
        total = len(self.rows)
        kept = sum(1 for row in self.rows if row.preserved[policy])
        return kept / total if total else 0.0


def _drive(policy_factory, app: AppSpec, num_fragments: int) -> bool:
    system = AndroidSystem(policy=policy_factory())
    system.launch(app)
    activity = system.foreground_activity(app.package)
    for frag in range(num_fragments):
        activity.fragments.attach(f"f{frag}", f"frag{frag}", CONTAINER_ID)
        activity.require_view(FRAG_ID_BASE + frag * 10 + 1).set_attr(
            "text", f"frag-state-{frag}"
        )
    system.rotate()
    fresh = system.foreground_activity(app.package)
    if fresh is None:
        return False
    for frag in range(num_fragments):
        view = fresh.find_view(FRAG_ID_BASE + frag * 10 + 1)
        if view is None or view.get_attr("text") != f"frag-state-{frag}":
            return False
    return True


def run(num_apps: int = 12, seed: int = 0x5EED) -> ExtFragmentsResult:
    rng = DeterministicRng(seed)
    rows: list[FragmentRunResult] = []
    for index in range(num_apps):
        num_fragments = rng.randint(1, 3)
        app_builder = lambda: build_fragment_app(index, num_fragments)
        preserved = {
            policy_factory().name: _drive(
                policy_factory, app_builder(), num_fragments
            )
            for policy_factory in (
                Android10Policy, RuntimeDroidPolicy, RCHDroidPolicy
            )
        }
        rows.append(FragmentRunResult(
            label=f"FragmentApp-{index}",
            num_fragments=num_fragments,
            preserved=preserved,
        ))
    return ExtFragmentsResult(rows=rows)


def format_report(result: ExtFragmentsResult) -> str:
    table = render_table(
        ["App", "#fragments", "Android-10", "RuntimeDroid", "RCHDroid"],
        [
            [row.label, row.num_fragments,
             "kept" if row.preserved["android10"] else "LOST",
             "kept" if row.preserved["runtimedroid"] else "LOST",
             "kept" if row.preserved["rchdroid"] else "LOST"]
            for row in result.rows
        ],
        title="Extension: fragment (dynamic-view-tree) state across a "
              "runtime change",
    )
    footer = (
        f"\npreservation rate: Android-10 "
        f"{100 * result.preservation_rate('android10'):.0f}% | RuntimeDroid "
        f"{100 * result.preservation_rate('runtimedroid'):.0f}% | RCHDroid "
        f"{100 * result.preservation_rate('rchdroid'):.0f}%"
        "\n(Section 2.2: static app patching cannot handle dynamic trees;"
        " the system level can)"
    )
    return table + footer
