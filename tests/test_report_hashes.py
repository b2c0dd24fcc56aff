"""Every fixture's report, byte for byte.

The sha256 of `to_json` for each of the 52 fixtures in each configuration of
`gen_fixtures.report_configs()` (call bounds 1-4, the default threshold and
threshold 0: 416 reports) must equal its line in
fixtures/golden/report_sha256.txt.  After a deliberate report change,
`python tests/gen_fixtures.py` rewrites the file.
"""

from gen_fixtures import REPORT_HASHES, report_hashes


def test_every_report_matches_its_pinned_hash():
    pinned = REPORT_HASHES.read_text().splitlines()
    assert len(pinned) == 416
    assert report_hashes() == pinned
