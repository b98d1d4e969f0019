"""The boundaries that ``perfbench/tracer.py`` cannot find in the library.

The tracer wraps each boundary it finds in its owner's own ``__dict__`` and
lists the others as ``absent``; an absent boundary's per-layer metrics read
0.  A refactor that moves a traced method (to a base class, say) would blank
its metric without failing anything, so the list is pinned here.
"""

import os
import subprocess
import sys

import dunklcms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Boundaries whose code has left the library on purpose: the term-by-term
#: building blocks now live in ``tests/reference_ops.py``, and ``coeffs``
#: takes no polynomial gcd, its denominators being integers times powers of k.
ABSENT = ["coeffs.poly_gcd", "powersums.partial", "powersums.delta", "powersums.reflect",
          "powersums.project_E"]


def test_absent_boundaries_are_pinned():
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n"
            "import tracer\n"
            "print(' '.join(tracer.install().absent))" % os.path.join(ROOT, "perfbench"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dunklcms.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ABSENT
