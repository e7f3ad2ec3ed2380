"""The Google Play top-100 corpus of Table 5 / Section 6.

Every row of the published table is encoded: app name, downloads, whether
a runtime-change issue was observed, and the specific problem.  From the
problem text we derive where the app keeps the affected state (the same
inference as :mod:`repro.apps.appset27`):

* the 63 "Yes" apps are restart-based with the named state in a
  non-auto-saved view attribute — except the four the paper reports
  RCHDroid cannot fix (#2 Filto, #57 HaircutPrank, #66 CastForChrome,
  #70 KingJamesBible), whose state is a bare field without
  ``onSaveInstanceState``;
* of the 37 "No" apps, 26 declare ``android:configChanges`` and handle
  changes themselves, and 11 are restart-based but keep their state only
  in auto-saved widgets (EditText), so the restart is harmless.  The
  paper gives the 26/11 split but not the membership, so the 11 are a
  fixed, documented choice here.

Cost parameters are drawn per-app from a seeded stream with ranges
calibrated to the Section 6 aggregates: mean handling time 420.58 ms
stock vs 250.39 ms RCHDroid over the 59 fixable apps (Fig. 14a), and
mean memory 162.28 vs 173.85 MB (Fig. 14b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.views.inflate import ViewSpec
from repro.apps.dsl import (
    AppSpec,
    IssueKind,
    StateSlot,
    StorageKind,
    filler_views,
    two_orientation_resources,
)
from repro.sim.rng import DeterministicRng

STATE_VIEW_ID = 20

#: The four "Yes" apps RCHDroid cannot fix (Section 6, Effectiveness).
UNFIXABLE_TOP100 = frozenset(
    {"Filto", "HaircutPrank", "CastForChrome", "KingJamesBible"}
)

#: The 11 restart-based apps without issues (fixed choice; see module doc).
RESTART_BASED_NO_ISSUE = frozenset(
    {
        "Instagram", "WhatsApp", "CashApp", "AmazonShopping", "McDonald's",
        "Indeed", "Tubi", "Roku", "OfferUp", "EmailHome", "Wish",
    }
)


@dataclass(frozen=True)
class Top100Row:
    rank: int
    name: str
    downloads: str
    has_issue: bool
    problem: str  # the table's "Specific Problem" text ("No" when none)


_Y, _N = True, False

TOP100_TABLE: tuple[Top100Row, ...] = tuple(
    Top100Row(rank, name, downloads, issue, problem)
    for rank, (name, downloads, issue, problem) in enumerate(
        [
            ("AmazonPrimeVideo", "100M+", _Y, "State loss (text box)"),
            ("Filto", "5M+", _Y, "State loss (selection list)"),
            ("TikTok", "1B+", _Y, "State loss (text box)"),
            ("Instagram", "1B+", _N, "No"),
            ("WhatsApp", "5B+", _N, "No"),
            ("CashApp", "50M+", _N, "No"),
            ("DeepCleaner", "10M+", _N, "No"),
            ("ZOOM", "500M+", _N, "No"),
            ("Disney+", "100M+", _Y, "State loss (scroll location)"),
            ("Snapchat", "1B+", _Y, "State loss (login page)"),
            ("AmazonShopping", "500M+", _N, "No"),
            ("Telegram", "1B+", _Y, "State loss (text box)"),
            ("TorBrowser", "10M+", _N, "No"),
            ("MaxCleaner", "5M+", _N, "No"),
            ("Messenger", "5B+", _N, "No"),
            ("PeacockTV", "10M+", _N, "No"),
            ("WalmartShopping", "50M+", _Y, "State loss (scroll location)"),
            ("McDonald's", "10M+", _N, "No"),
            ("Facebook", "5B+", _Y, "State loss (selection list)"),
            ("NewsBreak", "50M+", _Y, "State loss (text box)"),
            ("CapCut", "100M+", _N, "No"),
            ("QR&BarcodeScanner", "100M+", _Y, "State loss (zoom bar)"),
            ("MicrosoftTeams", "100M+", _Y, "State loss (text box)"),
            ("Indeed", "100M+", _N, "No"),
            ("Tubi", "100M+", _N, "No"),
            ("SHEIN", "100M+", _Y, "State loss (selection list)"),
            ("TextNow", "50M+", _Y, "State loss (login page)"),
            ("Twitter", "1B+", _Y, "State loss (text box)"),
            ("Wonder", "1M+", _N, "No"),
            ("Netflix", "1B+", _Y, "State loss (FAQ list)"),
            ("AllDocumentReader", "50M+", _Y, "State loss (selection list)"),
            ("Roku", "50M+", _N, "No"),
            ("PlutoTV", "100M+", _N, "No"),
            ("DoorDash", "10M+", _Y, "State loss (selection list)"),
            ("Uber", "500M+", _N, "No"),
            ("Discord", "100M+", _Y, "State loss (register page)"),
            ("Audible", "100M+", _Y, "State loss (text box)"),
            ("Ticketmaster", "10M+", _Y, "State loss (selection list)"),
            ("Life360", "100M+", _N, "No"),
            ("Hulu", "50M+", _Y, "State loss (text box)"),
            ("Orbot", "10M+", _Y, "State loss (selection list)"),
            ("MovetoiOS", "100M+", _Y, "State loss (scroll location)"),
            ("DailyDiary", "10M+", _Y, "State loss (text box)"),
            ("Yoshion", "1M+", _Y, "State loss (selection list)"),
            ("MSAuthenticator", "50M+", _Y, "State loss (text box)"),
            ("PowerCleaner", "10M+", _Y, "State loss (report page)"),
            ("SamsungSmartSwitch", "100M+", _N, "No"),
            ("Alibaba.com", "100M+", _Y, "State loss (selection list)"),
            ("Reddit", "100M+", _N, "No"),
            ("Paramount+", "10M+", _N, "No"),
            ("Lyft", "50M+", _N, "No"),
            ("Pinterest", "500M+", _Y, "State loss (text box)"),
            ("OfferUp", "50M+", _N, "No"),
            ("BeReal", "5M+", _Y, "State loss (text box)"),
            ("UberEats", "100M+", _Y, "State loss (text box)"),
            ("FetchRewards", "10M+", _Y, "State loss (scroll location)"),
            ("HaircutPrank", "1M+", _Y, "State loss (volume bar)"),
            ("MyBath&BodyWorks", "1M+", _Y, "State loss (scroll location)"),
            ("Wholee", "5M+", _Y, "State loss (selection list)"),
            ("UltraCleaner", "1M+", _Y, "State loss (file number)"),
            ("eBay", "100M+", _N, "No"),
            ("FacebookLite", "1B+", _Y, "State loss (text box)"),
            ("Adidas", "10M+", _Y, "State loss (product list)"),
            ("Duolingo", "100M+", _N, "No"),
            ("BravoCleaner", "10M+", _Y, "State loss (selection list)"),
            ("CastForChrome", "10M+", _Y, "State loss (selection list)"),
            ("Waze", "100M+", _N, "No"),
            ("UltraSurf", "10M+", _Y, "State loss (selection list)"),
            ("PetDiary", "500K+", _Y, "State loss (scroll location)"),
            ("KingJamesBible", "50M+", _Y, "State loss (selection list)"),
            ("EmailHome", "5M+", _N, "No"),
            ("CapitalOne", "10M+", _N, "No"),
            ("Plex", "10M+", _N, "No"),
            ("DoordashDasher", "10M+", _Y, "State loss (text box)"),
            ("Shop", "10M+", _N, "No"),
            ("Expedia", "10M+", _Y, "State loss (text box)"),
            ("ESPN", "50M+", _Y, "State loss (scroll location)"),
            ("Pandora", "100M+", _N, "No"),
            ("Picsart", "500M+", _Y, "State loss (scroll location)"),
            ("FileRecovery", "10M+", _Y, "State loss (report page)"),
            ("Callapp", "100M+", _Y, "State loss (selection list)"),
            ("Tinder", "100M+", _Y, "State loss (text box)"),
            ("Etsy", "10M+", _Y, "State loss (text box)"),
            ("SiriusXM", "10M+", _N, "No"),
            ("AliExpress", "500M+", _Y, "State loss (scroll location)"),
            ("NFL", "100M+", _N, "No"),
            ("Adobe", "500M+", _Y, "State loss (login page)"),
            ("KJVBible", "100K+", _Y, "State loss (timer state)"),
            ("HomeDepot", "10M+", _Y, "State loss (selection list)"),
            ("TacoBell", "10M+", _Y, "State loss (location page)"),
            ("UberDriver", "100M+", _Y, "State loss (login page)"),
            ("Booking.com", "500M+", _Y, "State loss (text box)"),
            ("CCFileManager", "5M+", _Y, "State loss (selection list)"),
            ("SpeedBooster", "5M+", _Y, "State loss (report page)"),
            ("Firefox", "100M+", _N, "No"),
            ("Twitch", "100M+", _N, "No"),
            ("Target", "10M+", _Y, "State loss (check box)"),
            ("SmartBooster", "10M+", _Y, "State loss (report page)"),
            ("Bumble", "10M+", _Y, "State loss (selection list)"),
            ("Wish", "500M+", _N, "No"),
        ],
        start=1,
    )
)


_PROBLEM_WIDGETS: dict[str, tuple[str, str]] = {
    "text box": ("TextView", "text"),
    "selection list": ("ListView", "checked_item"),
    "FAQ list": ("ListView", "checked_item"),
    "product list": ("ListView", "checked_item"),
    "scroll location": ("ScrollView", "selector_position"),
    "login page": ("TextView", "text"),
    "register page": ("TextView", "text"),
    "report page": ("TextView", "text"),
    "location page": ("TextView", "text"),
    "file number": ("TextView", "text"),
    "timer state": ("TextView", "text"),
    "zoom bar": ("SeekBar", "progress"),
    "volume bar": ("SeekBar", "progress"),
    "check box": ("CheckBox", "checked"),
}


def _problem_widget(problem: str) -> tuple[str, str]:
    inner = problem[problem.find("(") + 1 : problem.rfind(")")]
    return _PROBLEM_WIDGETS[inner]


def _issue_kind(row: Top100Row) -> IssueKind:
    if row.has_issue:
        if row.name in UNFIXABLE_TOP100:
            return IssueKind.BARE_FIELD_LOSS
        return IssueKind.VIEW_STATE_LOSS
    if row.name in RESTART_BASED_NO_ISSUE:
        return IssueKind.NONE
    return IssueKind.SELF_HANDLED


def _build_app(row: Top100Row, rng: DeterministicRng) -> AppSpec:
    issue = _issue_kind(row)
    filler_count = rng.randint(40, 80)
    image_count = rng.randint(9, 17)

    if row.has_issue:
        widget, attr = _problem_widget(row.problem)
    elif issue is IssueKind.NONE:
        widget, attr = "EditText", "text"  # auto-saved: harmless restart
    else:
        widget, attr = "TextView", "text"  # self-handled: instance survives

    widgets: list[ViewSpec] = [ViewSpec(widget, view_id=STATE_VIEW_ID)]
    widgets.extend(
        ViewSpec("ImageView", view_id=500 + index,
                 attrs={"drawable": f"asset-{index}"})
        for index in range(image_count)
    )
    widgets.extend(filler_views(filler_count))

    if issue is IssueKind.BARE_FIELD_LOSS:
        slot = StateSlot("user_state", StorageKind.BARE_FIELD)
    else:
        slot = StateSlot(
            "user_state", StorageKind.VIEW_ATTR,
            view_id=STATE_VIEW_ID, attr=attr,
        )

    safe_name = (
        row.name.lower()
        .replace("&", "and").replace("'", "").replace(".", "").replace("+", "plus")
    )
    return AppSpec(
        package=f"top100.{safe_name}",
        label=row.name,
        resources=two_orientation_resources(
            "main", widgets, resource_factor=rng.uniform(2.4, 3.6)
        ),
        logic_cost_ms=rng.uniform(34.0, 82.0),
        extra_heap_mb=rng.uniform(98.0, 144.0),
        ui_complexity=rng.uniform(3.2, 4.2),
        handles_config_changes=(issue is IssueKind.SELF_HANDLED),
        slots=(slot,),
        issue=issue,
        issue_description=row.problem,
        downloads=row.downloads,
        app_loc=rng.randint(8_000, 35_000),
    )


#: Most seeds whose built corpus is kept per process (oldest dropped
#: first); the paper's experiments all use one seed.
_BUILT_CAP = 4
_BUILT: dict[int, tuple[AppSpec, ...]] = {}


def build_top100(seed: int = 0x5EED) -> list[AppSpec]:
    """Build the 100 Table 5 apps, deterministically for a given seed.

    The specs are built once per seed per process and shared: nothing
    mutates an :class:`AppSpec` after construction (snapshots already
    externalise them by identity), so every caller gets a fresh list
    over the same objects.  Sharing them also keeps the engine's
    per-object fingerprint memo from filling with identical rebuilds.
    """
    specs = _BUILT.get(seed)
    if specs is None:
        base = DeterministicRng(seed)
        specs = tuple(_build_app(row, base.fork(f"{row.rank}:{row.name}"))
                      for row in TOP100_TABLE)
        if len(_BUILT) >= _BUILT_CAP:
            _BUILT.pop(next(iter(_BUILT)))
        _BUILT[seed] = specs
    return list(specs)


def expected_counts() -> dict[str, int]:
    """The paper's published Table 5 aggregates (ground truth to check)."""
    return {
        "total": 100,
        "with_issue": 63,
        "self_handled": 26,
        "restart_no_issue": 11,
        "rchdroid_fixed": 59,
        "rchdroid_unfixed": 4,
    }
