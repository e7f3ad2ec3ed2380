"""Pinned bytes of every experiment's printed report.

``format_report(run())`` for all nineteen experiments, serial and
uncached, is the reproduction's user-visible output.  The hashes were
recorded before the engine-backed experiments declared their request
lists and folds as data: moving where an experiment's work is declared
may not move a byte of what it prints.
"""

import hashlib
import inspect

import pytest

from repro.harness.experiments import EXPERIMENTS

#: sha256 of ``format_report(run(jobs=1, cache=False))`` per experiment
#: (each keyword only where ``run`` takes it).
REPORT_SHA256 = {
    "table2":
        "a62051e783b9a4ca28838b21845b008805fbd056af0c7b610d6695a91d49a169",
    "table3":
        "4a695dd78a2f0e16c6b741841a450a4a72cbe62c00f30c7efb01604a56078606",
    "table5":
        "e77d0f9d2b7704a0967ea991668fbd3d8a5c3f6f9f194bfbba357f79f43314e5",
    "fig7":
        "2b0aceb935e1f77c3b61cdccdfdbba47cc202f2b6450ff7ce4185d78da03a5b2",
    "fig8":
        "5aa5307e363a613e31050f7fef03eb2ac59ee15bd6a851e87336182873e7c8c5",
    "fig9":
        "90a0b2addbfe20ce66e6fa4ec931b1eaa8576ea108514c41964041d4a7f31f07",
    "fig10":
        "09f58b6a38b252d294ab9b61d02fe9befd15d27b7e70ca26c39036de54f1caa1",
    "fig11":
        "f66b57603971da64966ba1df14f2ae6a72b8e76703f8ca6e9cbfd0b9b820fa12",
    "fig12":
        "a1a3530a9e0c0dbdf173feab17fa532a0094a4e63276e03c2b261464adb14464",
    "fig13":
        "01fff47336d82853466bbdead27af65fceb89b5cece50abf722e8280351a729d",
    "fig14":
        "a0743fdc1f48b5e09ac6867f039ac21a20e639b947648e7e91ee4389b61002d2",
    "ext-fleet":
        "c828b51cfb892388a190a11e8fd2402c970307083f4b67d4c206df5b84c1dc1e",
    "ext-fragments":
        "39529d565b8abf4f4cd432d14136787f8d06a1e26d2dcd5106151acbd5a8ddb9",
    "ext-oracle":
        "8937e329cf6850d29993175d3a636504a91676ffa92e9d398d45a8b9201be10f",
    "ext-probes":
        "3bda14320b23e4a36f81637c4746fdad4b24f97ee35fbe847edb41a18b903ab0",
    "ext-robustness":
        "e5964358935b4c394cc25e2f1d18092c7528cb7acfd0a6fa6e1577525ef366b5",
    "ext-sessions":
        "d2ab734e6c00d29a0118ce12d5a3f33a3dfbe9488f2effae6b3b2f6fb9d1c84e",
    "sec5.6-energy":
        "cb12bc106630af14d64adcec2426b3ac551439c113ce9fe950b1ad2274f62e47",
    "sec5.7-deployment":
        "af919037c3c07a45840c103750278697ad8cf5476bb680cfa5a94a98d23e3cd5",
}


def test_every_experiment_is_pinned():
    assert set(REPORT_SHA256) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(REPORT_SHA256))
def test_report_is_pinned(name):
    module = EXPERIMENTS[name]
    params = inspect.signature(module.run).parameters
    kwargs = {key: value for key, value in (("jobs", 1), ("cache", False))
              if key in params}
    text = module.format_report(module.run(**kwargs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
        == REPORT_SHA256[name]
