"""Every annihilator a test computes is certified.

`symmetry.annihilator` trusts the exact check its solver makes on each kernel
vector.  The autouse fixture below rebinds `annihilator` wherever a loaded
trisupport module or the running test module holds it, so that calls by name
(`check_propagation`, the `CRITERIA` table, the in-process CLI) go through the
wrapper too, and runs `certify.check_annihilator` on every report.  The
fixture's value is the list of reports certified during the test.
"""

import sys

import pytest

from trisupport import symmetry
from trisupport.certify import check_annihilator


@pytest.fixture(autouse=True)
def certified_annihilators(request, monkeypatch):
    original = symmetry.annihilator
    certified = []

    def certifying(t):
        report = original(t)
        check_annihilator(t, report)
        certified.append(report)
        return report

    modules = [m for name, m in sys.modules.items() if name == "trisupport" or name.startswith("trisupport.")]
    for mod in modules + [request.module]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, certifying)
    return certified
