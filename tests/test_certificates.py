"""Certificate bits on inputs where no distance sum rounds.

The report golden files print 12 significant digits and miss a change of
the last bit; this test compares float hex.  ``tests/make_certificates.py``
wrote ``tests/golden/certificates.json`` and lists its entries; rerun it
only when a change moves certificate bits on purpose, and say which
entries moved and why.
"""

import json

from make_certificates import PATH, certificates


def test_certificates_equal_their_digests_bit_for_bit():
    assert certificates() == json.loads(PATH.read_text())
