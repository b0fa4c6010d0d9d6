"""Golden data rows of the default ``ccsl scan`` and of scans with holes.

The digests were recorded from the default scan before the scan was
factored (white response per rc, one noise factor per cutoff). Any change
to a printed data row, including the last of its 9 significant digits,
changes a digest. Regenerate only for a change that is meant to move
numbers, and say so where the change is recorded.
"""

import hashlib

import pytest

from ccsl.cli import main
from fixtures import SPHERE_CYLINDER_PAIR

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


# Scans whose panels have empty cells: a composite whose every point fails,
# bulk heating washed out at a tiny cutoff, and one cutoff spelled two ways.
# Recorded before the panels were built column by column.
HOLES_SCAN_DIGESTS = {
    "scan_omega_c_inf.csv":
        "2d6ef7be7524263d6173b70f03685ac8340571c87ad5d3fb5a484cfaca070f8f",
    "scan_omega_c_1e-10.csv":
        "2d64f4d0c830f183740fb6d3f005152424d07e08aebe546d543958fdff1becc4",
    "scan_omega_c_1e4.csv":
        "25c99047fa95087d0911c3b048ce25a2fd0b17e6190258cbe852f30f1e6ab788",
    "scan_omega_c_10000.csv":
        "25c99047fa95087d0911c3b048ce25a2fd0b17e6190258cbe852f30f1e6ab788",
}
ONE_POINT_SCAN_DIGESTS = {
    "scan_omega_c_inf.csv":
        "e8fa3b3e37af187b25301d233d679b98cd4201921c3d09b9d2cd8d0fc1220b76",
    "scan_omega_c_1e-10.csv":
        "76ac91812c3f7ef34471acb5848ff40d916f3130cadc2011fee6f08beb2d67f3",
}


@pytest.mark.parametrize("omega_c, rc_grid, digests", [
    ("inf,1e-10,1e4,10000", "1e-9:1e-3:40", HOLES_SCAN_DIGESTS),
    ("inf,1e-10", "1e-7:1e-7:1", ONE_POINT_SCAN_DIGESTS),
])
def test_scan_with_empty_cells_data_rows_unchanged(tmp_path, omega_c, rc_grid, digests):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(SPHERE_CYLINDER_PAIR, encoding="utf-8")
    out = tmp_path / "scan"
    assert main(["scan", "--experiments", f"{cfg},bulk-heating,xray,cold-atom",
                 "--omega-c", omega_c, "--rc-grid", rc_grid, "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(digests)
    for panel, want in digests.items():
        lines = (out / panel).read_text(encoding="utf-8").splitlines()
        cells = [c for ln in lines[3:] for c in ln.split(",")]
        assert "" in cells, panel
        assert data_digest(out / panel) == want, panel


# A dense scan, 300 rc x 8 cutoffs over the bundled set, recorded before each
# panel was formatted as one block from its columns.
DENSE_SCAN_DIGESTS = {
    "scan_omega_c_inf.csv":
        "1eadf7bd52d314af90538309b14a03b510a65ea62aefb1b69763aeca9b7d883b",
    "scan_omega_c_1e15.csv":
        "d6ea3d7708c982c7be018782350de9a5d588f41cc9fe5850b74b8933588d826f",
    "scan_omega_c_1e12.csv":
        "40560a8b42d6bd0bc5fdeb58dca57f1e025025771444ba88844097581dfebf59",
    "scan_omega_c_1e9.csv":
        "e0348805e77aaba2ec4ce504f42dc2059a5c4a78a786e6b28135b1e2b828d49e",
    "scan_omega_c_1e6.csv":
        "fd4317fbd1b4751996ae278c2ea9f73d4a5588710bb2a174f1b7b46b2540ba15",
    "scan_omega_c_1e4.csv":
        "05e443bef9e765d262ac24e5da51a505856814a847df77aca42c42bc8e6724d1",
    "scan_omega_c_1e2.csv":
        "363b7b706c142384bee1d07fa92f91c2c99d417e32f6bc39c719d749d460141b",
    "scan_omega_c_1e1.csv":
        "330c8a8bd1fd2a66ae6e04c9107553fc2b7e7caad67e73b353b4fa1fba5e8a4f",
}


def test_dense_scan_data_rows_unchanged(tmp_path):
    assert main(["scan", "--rc-grid", "1e-9:1e-3:300",
                 "--omega-c", "inf,1e15,1e12,1e9,1e6,1e4,1e2,1e1",
                 "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(DENSE_SCAN_DIGESTS)
    for panel, want in DENSE_SCAN_DIGESTS.items():
        assert data_digest(tmp_path / panel) == want, panel
