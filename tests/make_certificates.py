"""Write ``tests/golden/certificates.json``: certificates as float hex.

Run ``PYTHONPATH=src python tests/make_certificates.py`` from the repository
root to rewrite the file when a change moves certificate bits on purpose;
``tests/test_certificates.py`` recomputes every entry and compares.  The
inputs have dyadic edge lengths and eps, so no distance sum rounds and any
change of a bit is a change of the program, not of rounding.

Entries:
- ``gh_tree_interval`` between the README's quick-start combs (s = 0.5 and
  0.375) at eps 2**-6, 2**-8 and 2**-10, and between the golden comb
  documents ``comb_a.json`` and ``comb_b.json`` at eps 2**-4: ``lo``,
  ``hi``, ``method`` and the SHA-256 of the packed witness with its type
  code;
- ``diameter()`` of each golden comb document.
"""

import hashlib
import json
import pathlib

from treegh import CombParams, comb_tree, gh_tree_interval, load_tree

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PATH = GOLDEN / "certificates.json"


def _interval(a, b, k):
    iv = gh_tree_interval(a, b, 2.0 ** -k)
    w = iv.hi_witness
    return {
        "eps": "2**-%d" % k,
        "lo": iv.lo.hex(),
        "hi": iv.hi.hex(),
        "method": iv.method,
        "witness": hashlib.sha256(w.code.encode() + w.packed).hexdigest(),
    }


def certificates() -> dict:
    quick = comb_tree(CombParams(s=0.5)), comb_tree(CombParams(s=0.375))
    golden = {name: load_tree(str(GOLDEN / name)) for name in ("comb_a.json", "comb_b.json")}
    return {
        "quick_start_intervals": [_interval(*quick, k) for k in (6, 8, 10)],
        "golden_comb_intervals": [_interval(*golden.values(), 4)],
        "golden_comb_diameters": {name: t.diameter().hex() for name, t in golden.items()},
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(certificates(), indent=2, sort_keys=True) + "\n")
