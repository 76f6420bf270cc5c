"""Pinned SHA-256 digests of `normalize` reports on seeded operators.

Each operator comes from `random_operator(Random("stable:<family>:<dim>:<hint>"), ...)`
and covers all four families at dimensions 4-6.  The report of the CLI is
byte-stable for a fixed request, so any change to a certificate, its column
order, its norms or a verification detail shows up here.
"""

import hashlib
import json
from random import Random

import pytest

from twistaff.cli import main
from twistaff.sampling import random_operator

DIGESTS = {
    ("C_unitary", 4, 3): "ec01b6a52bdb2c7d281811f87b74c9356149a6f9101cf5bc2d18de52cb417e35",
    ("C_unitary", 4, 6): "2f4578696bc8916c89bb86d911392c6fab17084d0c2e5a7e0ac66e74a62b0504",
    ("C_unitary", 5, 4): "25aa7fd47731affbcfebe6f4ad854afe20905f70c50b880286d9c718232dddc6",
    ("C_unitary", 6, 2): "22614540e894364dfe8b032df5ee398928d6f64aaaa884d614f69b811d0fcdfd",
    ("C_unitary", 6, 6): "4ccbaadc8ce9eb2a25a91e5c956b1040be1714612fcbd4deb53d9be4343db15f",
    ("H", 4, 2): "98faa42edc1bc051b495a68583d416278326872d8af0cda38446c4223e73e67e",
    ("H", 4, 4): "2658452f9325167cb6fde955e4aabbc3ed742b77288ca8978c2d437fdc8882e4",
    ("H", 6, 3): "83257ae162be2317b8a4dc6ae2e082fcbceda7e5fb058bbe961870478e73afe3",
    ("H", 6, 6): "febc63652c0f4a7cd4fbf6d110612658d2fdd17f84a2550344c9ca81d38291ad",
    ("R", 4, 4): "8d4a3db5456e306436c6c49c0f9848fe94a19e34f6214c051cb74f95a7bf8d20",  # D1
    ("R", 5, 3): "a4f20ea8099c3735dd156a2c8f25e2cd21dc566fbd190b6339df4c05f356a2eb",  # B1
    ("R", 5, 6): "a60493350932c1126c40fb895b348e951f91a1925eb810098e67a876b6acb49f",  # B1
    ("R", 6, 2): "6a1b06e150a7364fce9a6a720c374f2f69baa0820f9be349bfca95dbf5684adf",  # D1
    ("R", 6, 4): "fb932f6bef48bc0e2fb15af4544095a224f930d6256f369e8c792d6455342039",  # D1
    ("C_antiunitary", 4, 2): "8e96aac2a6a0be20983b668c6cab709b156f1d1d2b3da9964b5b9f47e1999830",
    ("C_antiunitary", 4, 4): "ab40143bdb954842581a9ef3b6537044e3a2fc2b124114e7c066bfb7b7bec512",
    ("C_antiunitary", 5, 2): "46d5eb6c6916119c9f3d140ad00b66e56ae6ddd0480bae4e78cc0cfa92d24958",
    ("C_antiunitary", 5, 3): "8d53960f7f6aa689f639e2d36f81002e9463e66f873807d80f30f42413f7a163",
    ("C_antiunitary", 6, 3): "bd6f68dafa934f648028c05c258ae746a779fcf1840eea0b3d8cb8d4a5f3a523",
    ("C_antiunitary", 6, 4): "08e54fe51573333f79f875f87504f550ccd5d51f72663213e13e085081f38c9f",
}


@pytest.mark.parametrize("family,dim,hint", sorted(DIGESTS))
def test_normalize_report_is_byte_stable(family, dim, hint, tmp_path, monkeypatch):
    spec = random_operator(Random(f"stable:{family}:{dim}:{hint}"), family, dim, order_hint=hint)
    # the report echoes the input path, so both paths are fixed relative names
    monkeypatch.chdir(tmp_path)
    (tmp_path / "req.json").write_text(json.dumps(spec.to_json()))
    assert main(["normalize", "--input", "req.json", "--output", "out.json"]) == 0
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert digest == DIGESTS[(family, dim, hint)]
