"""Pinned SHA-256 digests of seeded `normalize`, `bracket-check`, `check-isom` and
`map-roots` reports.

Each operator comes from `random_operator(Random("stable:<family>:<dim>:<hint>"), ...)`
and covers all four families; the bracket checks cover the seven standard
kinds at ranks 2-4.  The report of the CLI is byte-stable for a fixed request
and seed, so any change to a certificate, its column order, its norms, a
verification detail or a bracket check's outcome shows up here.
"""

import hashlib
import json
from random import Random

import pytest

from twistaff.affine import standard_spec
from twistaff.cli import main
from twistaff.sampling import random_functional, random_operator

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


def _report_digest(tmp_path, monkeypatch, request, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "req.json").write_text(json.dumps(request))
    assert main([*argv, "--input", "req.json", "--output", "out.json"]) == 0
    return hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()


#: `bracket-check --seed 1 --count 2` on every standard kind at ranks 2-4, with
#: the slant drawn from Random("stable:<kind>:<rank>")
BRACKET_DIGESTS = {
    ("A1", 2): "20a27764003a2324f27265105b6633740e38f9281f7231d1cfca20e92f4e1588",
    ("A1", 3): "daacd685ca15485b8734425001459ca88b5ff103ce7caacdec81229e99eebbf9",
    ("A1", 4): "794f3ae0ff7af6855b9585a9eee1d70cd05a6e0d3a3ffe97a324fc7cce3edfea",
    ("B1", 2): "34b2bfe26e6737f59722cb57051f56418bcaca7daec4c4c2c58a8167bceb1a73",
    ("B1", 3): "2e5810ec04cab3a8a0d1007cc8977769b23022f2bc37cb7eabd5fad28b692656",
    ("B1", 4): "f2203ae4fa4a937d65855a410e419e847a8ec68354e300c4412401a2c078af15",
    ("C1", 2): "e2d7047e8f0db53d3b605fe1ecd474fa3a6ec847ba36765d2a21e1bccfe27b30",
    ("C1", 3): "a24d649910a38a9e433fd85b15cf77edc739c3561fa8e11aa0246958e8ed1d24",
    ("C1", 4): "ea314105cb3ad00455e01b2419217cd5c14443956d8744cdfbaa20d16d09a349",
    ("D1", 2): "731f7324116076b9ff797e8d7ffeac0f91209b003c11b3278c02e5cec0c14032",
    ("D1", 3): "95b97affcdbd0e210888b400cb6ef40e83a15ef0e929dbd372c3c39e90b416e4",
    ("D1", 4): "6f20481ad35d068644b45176ee17e9494037497e9c2280f3d66203efdcb17281",
    ("B2", 2): "787a538a56379156713b0ee94e5d7de11e249b585f62b618f7fdc43d0aa6c586",
    ("B2", 3): "d9307018cbd12477310fdb11fea4d9d8410d0fc25c586773e50ca89e5c703185",
    ("B2", 4): "d40e7d2e8403263a3b862f389fd97c04fd059885226790b674b5beb72a113d4d",
    ("C2", 2): "b7d130b612cb3568330b02ce1059a48a89ed9764fa1adb9eef3e40dfb1fe74a2",
    ("C2", 3): "7bf7c50148c2e8efdff12343e6969ecdff4f36f3b5380beeafa1493c9cda6280",
    ("C2", 4): "ed32b4b0a26791aba0ba9f503315f49424420444a1fda47d183725e33afb7565",
    ("BC2", 2): "8f78c5e028d2a08d4da2972b4697f2ba423ab055aec5a662c4ddda22e2368b76",
    ("BC2", 3): "eb4dd0a74291b33756fcbfaa8abaf42a556a3419f435c8aafb0a610150fcb3d7",
    ("BC2", 4): "35758568a1b43b536675ff1ece9bc5d48e2d7155556506aac2551784e9868435",
}


def bracket_request(kind, rank):
    nu = random_functional(Random(f"stable:{kind}:{rank}"), rank)
    return standard_spec(kind, rank, nu=nu).to_json()


@pytest.mark.parametrize("kind,rank", sorted(BRACKET_DIGESTS))
def test_bracket_check_report_is_byte_stable(kind, rank, tmp_path, monkeypatch):
    argv = ["bracket-check", "--seed", "1", "--count", "2"]
    digest = _report_digest(tmp_path, monkeypatch, bracket_request(kind, rank), argv)
    assert digest == BRACKET_DIGESTS[(kind, rank)]


#: `check-isom --seed 3 --count 2` on seeded operators of all four families
ISOM_DIGESTS = {
    ("C_unitary", 3, 3): "5c3726ea793d5a0f6508dfd4146df14061eea20481f6e3c5762a910df1935e01",
    ("C_unitary", 4, 4): "e667f0fb9f310fc73719f8f777ddf0aed31e161cb56754b66a9045de7a6c7fdc",
    ("H", 4, 2): "c36de37b8bf625b87060316877fc537d1e2fee2a4a537968779ac4c3029d0375",
    ("H", 4, 3): "18288198ac2b824c641e2ec958c8a6701347d20decb1a497f251b343b541cfba",
    ("R", 4, 4): "9a3b4006550d032a825dfac12b6815b9eb126675e08597977603a2a49fe1554c",
    ("R", 5, 3): "2b71ecae665a9d4f3571ecc8439ca85fe6889daf318dd61e972449eab5be2299",
    ("C_antiunitary", 4, 2): "65ae85abfa12ba2a701962144f84502bb141f33ff3046b4c8b0415207dfdcb5f",
    ("C_antiunitary", 5, 3): "04ae6dc2eb969415a0b856d5f41849ae24f01f635f3f50ed64b1a938d72a0c5b",
}


def isom_request(family, dim, hint):
    spec = random_operator(Random(f"stable:{family}:{dim}:{hint}"), family, dim, order_hint=hint)
    return {"operator": spec.to_json()}


@pytest.mark.parametrize("family,dim,hint", sorted(ISOM_DIGESTS))
def test_check_isom_report_is_byte_stable(family, dim, hint, tmp_path, monkeypatch):
    argv = ["check-isom", "--seed", "3", "--count", "2"]
    digest = _report_digest(tmp_path, monkeypatch, isom_request(family, dim, hint), argv)
    assert digest == ISOM_DIGESTS[(family, dim, hint)]


#: `map-roots` at its default window on seeded operators of all four families,
#: among them R and antiunitary operators whose normal form takes rational
#: square roots at conductors 8-24
MAP_ROOTS_DIGESTS = {
    ("C_unitary", 4, 3): "e0ae4659bee868d34e2f75048d415884a532bf2b73f131a58a95c5336e647a5c",
    ("C_unitary", 6, 6): "c3154f42a5ce2ac5788c6418ea9bf85f26d45e55790612fccb0653e50323dd75",
    ("H", 4, 2): "8365bb74372a5155787f03271ebbf168daa071520574f8ddac086d1370078a57",
    ("H", 6, 3): "435de00c697423ffa50be657d334723fb9205b171b177ee173dd91bd41a24d94",
    ("R", 4, 2): "24f78bbfa118b4c4b7cb3fe9387ea141d70abb18f029e046c2620cae9cbbac2b",
    ("R", 4, 3): "5f7b1d40fa201d9bdf7066c2cb14609bea90f4ae250d125eafa1188064f9cef1",
    ("R", 5, 6): "af8617afa031f2fa3292056398a204d0c866f8712fbad76385a84c48abf45235",
    ("R", 6, 2): "0cac39e3a2f12bf67285f4ceec1ff8896f263f6af04b781500d99171c681cacc",
    ("R", 6, 4): "2068da2e2df901f46575523ddd2be536e2c2ff72da036af81c00144dd3dade87",
    ("C_antiunitary", 5, 2): "724a6ff618df17e5b8a3822d204c0d88d67713bb245ed9f67e75ab47b7b8b46c",
    ("C_antiunitary", 5, 4): "80ecf77a0e9f00e99eb1a633f923d36d6d463e07265d9589e1e66b113c491d5a",
    ("C_antiunitary", 6, 4): "1682d947ecddd79b6214be3ded978c70495773766bf7a0dd7d26e4a96225ddd9",
}


@pytest.mark.parametrize("family,dim,hint", sorted(MAP_ROOTS_DIGESTS))
def test_map_roots_report_is_byte_stable(family, dim, hint, tmp_path, monkeypatch):
    digest = _report_digest(tmp_path, monkeypatch, isom_request(family, dim, hint), ["map-roots"])
    assert digest == MAP_ROOTS_DIGESTS[(family, dim, hint)]
