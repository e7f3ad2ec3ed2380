"""Documentation consistency guards.

DESIGN.md promises a per-experiment index and EXPERIMENTS.md a
paper-vs-measured record; these tests keep both in lock-step with the
actual experiment registry so the docs cannot silently rot.
"""

import re
from pathlib import Path

import pytest

from repro.harness.experiments import REGISTRY

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_text():
    return (ROOT / "EXPERIMENTS.md").read_text()


def test_design_confirms_paper_identity(design_text):
    assert "Transparent Runtime Change Handling for Android Apps" in design_text
    assert "ASPLOS 2023" in design_text
    assert "No title collision" in design_text


def test_design_lists_every_paper_artifact(design_text):
    for artifact in ("Table 1", "Table 2", "Table 3", "Table 5", "Fig 7",
                     "Fig 8", "Fig 9", "Fig 10", "Fig 11", "Fig 12",
                     "Fig 13", "Fig 14"):
        assert artifact in design_text, artifact


def test_experiments_md_covers_every_paper_artifact(experiments_text):
    for artifact in ("Table 3", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10a",
                     "Fig. 10b", "Fig. 11", "Fig. 12", "Fig. 13",
                     "Fig. 14a", "Fig. 14b", "Table 5", "§5.6", "§5.7",
                     "Table 1", "Table 2", "Table 4"):
        assert artifact in experiments_text, artifact


def test_experiments_md_documents_extensions(experiments_text):
    for ext in ("ext-fleet", "ext-fragments", "ext-oracle", "ext-probes",
                "ext-robustness", "ext-sessions"):
        assert ext in experiments_text, ext


def test_registry_ids_have_benchmark_modules():
    benchmark_files = "\n".join(
        path.name for path in (ROOT / "benchmarks").glob("test_*.py")
    )
    expectations = {
        "table2": "table2", "table3": "table3", "table5": "table5",
        "fig7": "fig7", "fig8": "fig8", "fig9": "fig9", "fig10": "fig10",
        "fig11": "fig11", "fig12": "fig12", "fig13": "fig13",
        "fig14": "fig14", "sec5.6-energy": "sec56",
        "sec5.7-deployment": "sec57", "ext-fleet": "ext_fleet",
        "ext-fragments": "ext_fragments", "ext-oracle": "ext_oracle",
        "ext-probes": "ext_probes", "ext-robustness": "ext_robustness",
        "ext-sessions": "ext_sessions",
    }
    assert set(expectations) == set(REGISTRY)
    for marker in expectations.values():
        assert marker in benchmark_files, marker


def test_readme_mentions_all_examples():
    readme = (ROOT / "README.md").read_text()
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in readme, example.name


def test_known_deviations_section_exists(experiments_text):
    assert "Known deviations" in experiments_text


def test_serve_md_job_params_table_matches_the_option_schema():
    from repro.options import COMMANDS
    from repro.serve.protocol import JOB_KINDS

    text = (ROOT / "docs" / "SERVE.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text, re.M))
    for kind in JOB_KINDS:
        documented = set(re.findall(r"`(\w+)`", rows[kind]))
        declared = {option.param for option in COMMANDS[kind].options
                    if option.param}
        assert documented == declared, kind
