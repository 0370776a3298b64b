"""The chaos golden: plans and batch verdicts for seed 0 at the CI sizes.

``chaos_golden.json`` was recorded when standalone, fleet and service
trials still had a batch driver each.  ``plans`` holds, per layer, every
trial's ``fields`` in draw order; ``summaries`` holds each layer's
:meth:`ChaosReport.summary`.  The one driver must reproduce both exactly.
"""

import json
import os

with open(os.path.join(os.path.dirname(__file__), "chaos_golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)
