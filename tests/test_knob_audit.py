"""Every knob of the simulation stack has a caller.

``scripts/knob_audit.py`` lists each defaulted parameter or config
field of the stack packages that no run, test, benchmark, example or
``perf/`` workload sets.  Such a knob is one more configuration to
account for with no one asking for it: it becomes the constant it
always is.  What the script may still print is the allowlist below,
one reason per entry; a new knob without a caller fails here.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "knob_audit.py"

#: knobs nothing sets that stay, and why.
ALLOWED = {
    "repro.link.frag:Fragment(link_src)": (
        "a field of the fragment record the process transport pickles; "
        "dropping it shrinks shard.exchange_bytes, which "
        "tests/test_metrics_snapshot.py pins"
    ),
}


def test_every_knob_has_a_caller():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True,
        check=True, timeout=60,
    )
    unset = result.stdout.splitlines()
    assert unset == sorted(ALLOWED), (
        "knobs nothing sets (make each a constant, or allowlist it with "
        f"a reason): {sorted(set(unset) - set(ALLOWED))}; "
        f"allowlisted but no longer unset: {sorted(set(ALLOWED) - set(unset))}"
    )
