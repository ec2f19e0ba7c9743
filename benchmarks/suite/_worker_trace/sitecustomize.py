"""Worker-side tracing for fleets spawned by a traced benchmark run.

``run.py --trace`` prepends this directory to the ``PYTHONPATH`` of the
``repro serve`` workers it spawns, so Python imports this module at
start-up.  It wraps the worker's engine stage and frame sends with the
suite's :mod:`spans` and writes them to the directory named by
``ISLBENCH_TRACE_DIR`` when the worker exits.
"""

import os
import sys

_out = os.environ.get("ISLBENCH_TRACE_DIR")
if _out:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    spans.trace_worker(_out)
