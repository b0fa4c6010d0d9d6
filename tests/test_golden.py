"""Golden data rows of the default ``ccsl scan``.

The digests were recorded from the default scan before the scan was
factored (white response per rc, one noise factor per cutoff). Any change
to a printed data row, including the last of its 9 significant digits,
changes a digest. Regenerate only for a change that is meant to move
numbers, and say so where the change is recorded.
"""

import hashlib

import pytest

from ccsl.cli import main

# SHA-256 of each panel's non-comment lines, each ending in "\n"
DEFAULT_SCAN_DIGESTS = {
    "scan_omega_c_inf.csv":
        "1ac24e4dfd2c7164af21b26730bccfbcf6e52466ff0f33194fe6467732c5a62a",
    "scan_omega_c_1e15.csv":
        "861a1993e5a9efbcabff966dc033f7a0a3f73ca5a3f34cb0bfed4781897c5e65",
    "scan_omega_c_1e4.csv":
        "86771dd5d0f9de8989aaa8da80ef48b10cf3da2206c2badb6e150d613d3d8cb8",
    "scan_omega_c_1e1.csv":
        "05f84552a96e494acaaa4158e40bc30e0138bbcfb7c77dd989cfbba881a74b22",
}


def data_digest(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = "".join(ln + "\n" for ln in lines if not ln.startswith("#"))
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def default_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    assert main(["scan", "--jobs", "1", "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("panel", sorted(DEFAULT_SCAN_DIGESTS))
def test_default_scan_data_rows_unchanged(default_scan, panel):
    assert data_digest(default_scan / panel) == DEFAULT_SCAN_DIGESTS[panel]


def test_default_scan_writes_only_the_known_panels(default_scan):
    assert sorted(p.name for p in default_scan.glob("*.csv")) == sorted(DEFAULT_SCAN_DIGESTS)
