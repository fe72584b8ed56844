"""Every annihilator and every oblique verdict a test computes is certified.

`symmetry.annihilator` trusts the exact check its solver makes on each kernel
vector, and `deciders.decide_oblique` its own antichain check.  The autouse
fixtures below rebind each of them wherever a loaded trisupport module or the
running test module holds it, so that calls by name (`check_propagation`, the
`CRITERIA` table, the in-process CLI) go through the wrapper too, and run
`certify.check_annihilator` or `certify.check_oblique` on every report.  A
fixture's value is the list of reports certified during the test.
"""

import sys

import pytest

from trisupport import deciders, symmetry
from trisupport.certify import check_annihilator, check_oblique


def _certify_calls(request, monkeypatch, original, check):
    certified = []

    def certifying(arg, *args, **kwargs):
        report = original(arg, *args, **kwargs)
        check(arg, report)
        certified.append(report)
        return report

    modules = [m for name, m in sys.modules.items() if name == "trisupport" or name.startswith("trisupport.")]
    for mod in modules + [request.module]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, certifying)
    return certified


@pytest.fixture(autouse=True)
def certified_annihilators(request, monkeypatch):
    return _certify_calls(request, monkeypatch, symmetry.annihilator, check_annihilator)


@pytest.fixture(autouse=True)
def certified_oblique_results(request, monkeypatch):
    return _certify_calls(request, monkeypatch, deciders.decide_oblique, check_oblique)
