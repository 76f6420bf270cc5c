"""Pinned SHA-256 digests of seeded `normalize`, `bracket-check`, `check-isom`,
`map-roots`, `min-energy` and `theorem-b` reports, of seeded certificates'
twisted gradings, and of the certificates of operators whose normal form
enlarges the conductor.

Each operator comes from `random_operator(Random("stable:<family>:<dim>:<hint>"), ...)`
and covers all four families; the bracket checks cover the seven standard
kinds at ranks 2-4.  The report of the CLI is byte-stable for a fixed request
and seed, so any change to a certificate, its column order, its norms, a
verification detail or a bracket check's outcome shows up here.
"""

import hashlib
import json
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistaff import jsonio
from twistaff.affine import Weight, lars_finite_parts, standard_spec
from twistaff.autnorm import StandardizeError, cartan_mode_vectors, mode_class_vectors, standardize
from twistaff.cli import main
from twistaff.jsonio import mat_to_json
from twistaff.rootdata import Functional
from twistaff.sampling import random_functional, random_operator



@pytest.fixture(autouse=True)
def reports_match_json_dumps(monkeypatch):
    """Every report a test here writes has the bytes of json.dumps with sorted keys and indent 2."""
    real = jsonio.dump_report

    def checked(obj, path=None):
        text = real(obj, path)
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        return text

    monkeypatch.setattr(jsonio, "dump_report", checked)


#: JSON trees of the types a report holds: str keys, ints of any size, any text
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@given(JSON_TREES)
@example({"": [], "z": {}, "a": [[{}], [[]], {"b": None}], "\u00e9\x00\x1f\"\\/\u2028": "\ud83d\ude00\n\t"})
@example([-(10**60), 0, True, False, None, "", {"k": [-1]}])
def test_report_writer_matches_json_dumps(tree):
    assert jsonio.dump_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("tree", [1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, {1, 2}, [b"x"], (1, 2)])
def test_report_writer_refuses_other_types(tree):
    with pytest.raises(TypeError):
        jsonio.dump_report(tree)


def test_report_writer_reuses_shared_subtrees():
    """A dict shared at two depths and thrice at one depth, and a shared list, are written as
    json.dumps writes them; a non-str key in a shared dict is still refused."""
    shared = {"coeffs": {"1": 1, "2": -1}, "flags": [True, None, "x"]}
    row = [shared, 0]
    tree = {"a": [shared, shared, shared], "b": {"c": shared, "d": [row, row]}, "e": row, "f": [[shared]]}
    assert jsonio.dump_report(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    bad = {1: "x"}
    with pytest.raises(TypeError, match="report keys must be str"):
        jsonio.dump_report({"a": [bad, bad], "b": bad})


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
    ("R", 6, 6): "5c038f284235c59945ba7834613c0efaa16908623929493b7c6f1893e03c53fb",  # B2
    ("R", 8, 4): "d368e69d2d47143e9985e7fe0972c94f680940ec9996c3d5052f2827203c8672",  # B2
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


#: `normalize` on `random_operator(Random(seed), "C_antiunitary", dim, hint)` for the
#: rare branches of the conjugation block decomposition
RARE_BRANCH_DIGESTS = {
    # isotropic search with a conductor enlargement to 272
    (10, 5, 4): "63d7a5af7c0b272c34e3133070a7a8380a1854726430168d9642b9919b98ba50",
    # B-plane stage with an isotropic B-orthogonalized partner (cw == 0)
    (4, 5, 2): "b166459797664f69aad7c55ddc43f2bc820d4d8b1b8dd286259745ca4ec2817d",
    # stage 3: pairing of conjugation-fixed vectors
    (28, 5, 2): "8df03bde47c38d90a26dc4b6742cbe67be955747c1b69c036a5560de66d57e52",
    # a non-rational square root found down the Galois tower
    (14, 5, 3): "765a127d4eabf0acfae6d861d3eb007fc871004dbd84748adb2c2d0a2ab07118",
    (15, 4, 2): "bedf30ae97220577f8de5d9539c728583fa00ae2d9ec7378bf13304f470e4b05",
}


@pytest.mark.parametrize("seed,dim,hint", sorted(RARE_BRANCH_DIGESTS))
def test_normalize_rare_branch_report_is_byte_stable(seed, dim, hint, tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)  # the program must not import sympy
    spec = random_operator(Random(seed), "C_antiunitary", dim, order_hint=hint)
    digest = _report_digest(tmp_path, monkeypatch, spec.to_json(), ["normalize"])
    assert digest == RARE_BRANCH_DIGESTS[(seed, dim, hint)]


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
    ("R", 6, 6): "a43d4ec6a7153b47b9039e04309dc6cda0f6fb8126e731893fef0f6e385667c6",  # B2
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


def energy_request(kind, rank, lc, chi0):
    """A min-energy request drawn from Random("energy:<kind>:<rank>"); chi0 = nu_prime - nu."""
    rng = Random(f"energy:{kind}:{rank}")
    nu = random_functional(rng, rank)
    l0 = random_functional(rng, rank, denoms=(1, 2))
    ld = Fraction(rng.randint(-2, 2), 3)
    nu_prime = random_functional(rng, rank) if chi0 else nu
    return {
        "spec": standard_spec(kind, rank, nu=nu).to_json(),
        "weight": Weight(lc, l0, ld).to_json(),
        "nu_prime": nu_prime.to_json(),
    }


#: `min-energy --bound 3` on every standard kind at ranks 2-4, for the central
#: values 1, 2 and -1 (the divergence path) and a zero or nonzero chi0
ENERGY_DIGESTS = {
    ('A1', 2, 1, False): "d5385963910e3febd42456711e18fcec2c9cffaa3fde23aaeee5472f51d14f6b",
    ('A1', 2, 1, True): "ad54ae564e7a4e4fed5131d879c4970c14036b8622f3a671a1fc19782898ca94",
    ('A1', 2, 2, False): "550cc0232357fb2fb2f6ad1900ea71fdcf50f11ac3257e6ba0e74aca152927df",
    ('A1', 2, 2, True): "4558a4737438f19cab8ff1ffd025ff8e0c85eda404402741b7429f32422c55b6",
    ('A1', 2, -1, False): "552b395343fff47ea770c301a28ff4fbe7ff1408ad8e2d5e0ac9d816dbc2b1e9",
    ('A1', 2, -1, True): "8c730902f6a1ea319a47b09a952b0968517a5905fbc0f45918eafd3ecee2b932",
    ('A1', 3, 1, False): "9fcadf0b51b5121ca75ee926808207024c429d772cb667d9ef87fa84646289ca",
    ('A1', 3, 1, True): "db4342a811e57b26dabefea03240caa632446e98589582e101cbdd417d290f5b",
    ('A1', 3, 2, False): "6c1a7b0cb34eff9950c64406e96a1ef831bb9d44d6ed6816422ec51119614df0",
    ('A1', 3, 2, True): "0db4b438236bb79961c7ea208fde79de2fa6bd9ab32274773fd0b39119636e85",
    ('A1', 3, -1, False): "49ca83e75543774fd10b468dbe24ca804150669633d019675e15855a7ed7a3b9",
    ('A1', 3, -1, True): "68c822bdeaaff76268d01a3bee47562ba37361efcc0d5c9922f745411b985912",
    ('A1', 4, 1, False): "5f7d9cfb9f08c15ef0eaaa0434cfdcb30d8e20295922995bbf3105e9c3d82666",
    ('A1', 4, 1, True): "fdf01202f0a936cb189cef606bdc5d18990d6c7c7664154d269e0a7bc7a92705",
    ('A1', 4, 2, False): "031fad59c6f58de841ee99ed4eec48002251d966be7d3f47722202f1111d30ff",
    ('A1', 4, 2, True): "e1253aae1ae1dd72050d597ee7ad2d537b2a30327b27d0e48403134b70664c40",
    ('A1', 4, -1, False): "807110a65599bd0a71f31548d2fcb78ce722c4c2b17c69666b6d4f906307ad67",
    ('A1', 4, -1, True): "bf6b6bf0ff408d3c531b83f9520f14d39353d87e10dcca5eadbe98e2edf84fac",
    ('B1', 2, 1, False): "cfc243a9a86f0bdfb96f00b737a9b6f00fd373bf3ddc3f5271354c294df56a1d",
    ('B1', 2, 1, True): "968fbd4a93a8247129e7873d527f77e59f36aca060304e1700ba9f2ef8431fb5",
    ('B1', 2, 2, False): "e926b70a244da298ebbd404bc0fcc2c562e7c50aeb86bb1687c8139e3f7b620f",
    ('B1', 2, 2, True): "7a04849b7c757b3b824a27ada368a6c9224002be71e53941ed67ab3385e2cf70",
    ('B1', 2, -1, False): "012401196730d67ad197baad9d703874dc880c14df4d8c47ee7611be0389d676",
    ('B1', 2, -1, True): "8375f54e42827b56a4f1c5f229dd3d1473d5676fd34cbff6b9e31662d465bff8",
    ('B1', 3, 1, False): "c89c3b021961db12ba9ab9eb2692a2875666231ad199cf869909d90bcf269dab",
    ('B1', 3, 1, True): "454fd13f593826d058f555e95c6b22d5393d214f6b22af8ac6c0de1021273ea2",
    ('B1', 3, 2, False): "c79a219fc5ed0fb9db15175056a4b3146799fd8f724a2985640e12ec8371c21b",
    ('B1', 3, 2, True): "601213712800aab4941992c133a919081e6a71ac972ba993b17c249f624ade29",
    ('B1', 3, -1, False): "3257a561309ba65c038285267d858b63cd342d967d71ff58e16b0dc22fbc67b9",
    ('B1', 3, -1, True): "abd50a274aacaefd8c54282fdcfd03c0b2d6fe28ac5fad2830638eb54f7148f4",
    ('B1', 4, 1, False): "f743e1eaea0e9e55c4b980b8a183df42315eb9cea78577d76b327b6487059abd",
    ('B1', 4, 1, True): "c2cf66e4aa954c2b94fcfd2b2e72066a4e8da106960417082225b771b3535bc4",
    ('B1', 4, 2, False): "e6acfce8ff6555af968b289c358f74fa9262dbaec7cdb28d7f574c284e77a939",
    ('B1', 4, 2, True): "3aac0ccc6fb13b8b37f3c0b413423e4871605aecd6203c9e84013590dc11ea4b",
    ('B1', 4, -1, False): "050ebb804d25fbc3e1b9da41837c8047a42b3e8eec99bab3f24a8b2b5051974c",
    ('B1', 4, -1, True): "66564b30e5f3d2eb9ef9aff358f7eddb901d611eb06e9d21d8899c136bc4b95c",
    ('C1', 2, 1, False): "dd1fd7b98aaf067e3a030ce77f9b92a0d56984000b5dfe71074e76713cb4e2e0",
    ('C1', 2, 1, True): "2ff981ccee14a82a3681d1183f8bebda7d50131eb0e3c85969104cce3beecb3d",
    ('C1', 2, 2, False): "8d8248b9de7d6fce5f48146737a927e3375f58ec8f3756b42d822cfb630a23ca",
    ('C1', 2, 2, True): "cdca7f8c99f2323602fba77b65ac36cd55cfe342de7e44faf43e4834a34ca904",
    ('C1', 2, -1, False): "de83eb7f94bcd474c4b772da3f6c8715c3ef2fc6ade19910a1fa279f2cbf71ea",
    ('C1', 2, -1, True): "8a01a55e8f44d3cf7cdf601ff52cc1eb2ccc3e76dd91cda9783811cdbca875b3",
    ('C1', 3, 1, False): "069c41fe891ba460a613310aa775664d7aaa588b8b7a078753129a73ca667d9b",
    ('C1', 3, 1, True): "3c78f36a167b0928b2cddb235008f7d44546c59a6ef98fca3df43b98fd851ffc",
    ('C1', 3, 2, False): "90dfcefacf17531f164df9108dac34e95c9b83c96576d38bb59a7712b78c65f1",
    ('C1', 3, 2, True): "85df61486f9812e14dc3ee4a642168df712381c9ee3c258c50931f9916facb17",
    ('C1', 3, -1, False): "6cc0b7cd06ae91ea2ab4c4d4a2827554bd68dfb9f4bf93b8ae5d97991f1f3f79",
    ('C1', 3, -1, True): "a2d538261bc3b58865ea7a6b04f7468cf46e033e6417cb30e88cfe207ba1ddd0",
    ('C1', 4, 1, False): "81223921acb613df698614804d6c787ebe2727f668d5db91c7fc215f4f070d2c",
    ('C1', 4, 1, True): "84e7f8029c1354a6ef85609eabf413113ae0021cdaffbb651f9055f698912784",
    ('C1', 4, 2, False): "c42bdf8a243501aca245f56f887752d7baff5462b378b8f3940fd48801284db5",
    ('C1', 4, 2, True): "68d66412c1e7a2ecae6808b5dc8a9ea79b3e46f9875c88b4de22317e18803ad8",
    ('C1', 4, -1, False): "571cb663e78d226fcf4f9badf9ae7b56368251e2fe0dbc2ea49f026ed5d5b212",
    ('C1', 4, -1, True): "59e2a56658fb6bd3f5a51c86f107c31f09b6103858b894ffdbbee0f3c025637d",
    ('D1', 2, 1, False): "eaa3a840f22969881df09410667e1a8ec08a2b6f838f6209ee260ceed0be7f03",
    ('D1', 2, 1, True): "ad38096c528d19ddfcdefe63ddd16bb6a6f717daad98129de8f8a1648f43f87d",
    ('D1', 2, 2, False): "c23a004affabe1624f261819dbc1e3c25330f61ce946657dabf0a5052064a82b",
    ('D1', 2, 2, True): "1d9ccf57a2e81c814acaf81feea07826e15236454be9517e448606f68724e6c2",
    ('D1', 2, -1, False): "b2bd5adca80f01999b50df09d5505aedb24e4a92f8842d34955fb0054f9734ba",
    ('D1', 2, -1, True): "de6e919ceef0ead7215c487f084095dce3749086480497845efecd0d13630e8b",
    ('D1', 3, 1, False): "7afc85e31b35a34c07f6493ee6832b1fd5413b1160fbb4550492563aaff6fc27",
    ('D1', 3, 1, True): "67e986050f783b37b81e77f419976eff0c731382be468e1097b66071c79f9a73",
    ('D1', 3, 2, False): "33a69c8f44189804e9b08de45614909724af64aad20b81a736b6f5c27847aba2",
    ('D1', 3, 2, True): "574ac24c92592daff65821af26582ef6231fcfe3678fb3aa849c5977779ed591",
    ('D1', 3, -1, False): "740ab8cbcaa8ecb158140b023941f5b4354582631434079ac5d733ca42832fb0",
    ('D1', 3, -1, True): "9ba419126b35da54a6712de568f0765e42d82697ffc1865fd6008dcdfac4cc3f",
    ('D1', 4, 1, False): "859bda6d5733bc776ab7167141428958531b34e306bce694e73974b4d93a1d69",
    ('D1', 4, 1, True): "1e12fd0ba243b32fea916a8297228333880b89ef57eff7a5850c2ac2ade49659",
    ('D1', 4, 2, False): "55863f65f4167f2a6ec3b62b143d14afaac8aa9a03c0267a20fc6a12d2415ffd",
    ('D1', 4, 2, True): "b029f3a4eca148645f280eddf217882e82b228c37b74307d47483b337ef6d346",
    ('D1', 4, -1, False): "244ea139b656b8fc0e77c81081a758abfd824ef34902403a9dfff99f27322844",
    ('D1', 4, -1, True): "4f82270fcce8c0d6e4353561fd184f5484d98d9afd132fc51b97a48d447cb4fc",
    ('B2', 2, 1, False): "895fb19df206362b7a423e85101d5d824165dde3d2bd2420f5ef0e1ce0daef39",
    ('B2', 2, 1, True): "0b6fb8b5994a8cc429253eefb1edff50b6ecb76cf0b906bd278577f2a157e2ab",
    ('B2', 2, 2, False): "26849b373570e224150436367889659d803aa97173d4ce7e96de5f72745617c4",
    ('B2', 2, 2, True): "8abf84b7e14d1fb9ce9bfb841a3f28a695bb51f453fc4122fb32a408a295e5ed",
    ('B2', 2, -1, False): "37e84cc60f8c85339912a1b84f29909adff523a8c7510aa406c99742c12982a4",
    ('B2', 2, -1, True): "ac9f44277c9071583c7d885e6ed181afe71fbd79346f1d9dc03b831e6c68fe30",
    ('B2', 3, 1, False): "4e7851b7037df1f87749f62fb13bcebe4aace25f19435351aeab58ba3eb87304",
    ('B2', 3, 1, True): "76a55686482317874c6e2d4ce545d40226f8147a8d4f727885371516f56c6293",
    ('B2', 3, 2, False): "a8958f2a6ae1521c5894747b8e2890b42c5e9c6f29cafbd86bbcc929ff84b193",
    ('B2', 3, 2, True): "b3b3a3abe6bb873a881db8235e1efe4ac3912173a427c98c787991639fc8dd91",
    ('B2', 3, -1, False): "d9d780da8664cce3ec4c04844f5aa84706d9c17f0ba7d091ad417b29058c5941",
    ('B2', 3, -1, True): "5a604ac58562f6a9780fa54417ba31ae879fe6b230051cdde779705f54304d3a",
    ('B2', 4, 1, False): "dcc22f85d0eb0f516a32219f112dbfea0fc0015df950ebce82c60ef5d22828ec",
    ('B2', 4, 1, True): "003e7572f6810c51f37e03f6fa08ac20b1ad33369515b5a4ee763e615694cf2f",
    ('B2', 4, 2, False): "892a38d01cf79e7da80a2734c45b222b03447874776a7409581b67b7394d4964",
    ('B2', 4, 2, True): "d61187ddfc6543caf1a256aa91fe3329628b84150a80d3082ca9ce7bcb1ec8e4",
    ('B2', 4, -1, False): "43b93b93b4659d13ca81a3bb2cec55431dbd9bb9f3964411ebbd7aa214878bb3",
    ('B2', 4, -1, True): "63d382b2dad75b9c16c5d3acefa8b51525a0f1cbdacc594ef453ca66163945f4",
    ('C2', 2, 1, False): "c027230af34273984eea938f461ad075858cc73c1627342cc2b0532b827e6e0b",
    ('C2', 2, 1, True): "a553fd971a7a8aa54d64e694ee1b6f820ce3cd18fb809eafacfe8db782364822",
    ('C2', 2, 2, False): "f46b0817d66cd6a3a1c44843fba0cdf49250fb30ecbb88e51a2fda2a760190b3",
    ('C2', 2, 2, True): "449a5e557a272b4be974ac82076652a81914c6a57a0ecf7896675a52da82367d",
    ('C2', 2, -1, False): "37fb0c530b4263767031d85326ae905154428c8cd03ffc8a5b4590c644e5fd63",
    ('C2', 2, -1, True): "9184f2c750bf1d83cbb50d119b55880336e21629b9e0cc81f8c2488cd93afad8",
    ('C2', 3, 1, False): "861c729cc1bd0c5d2043110d309dcfd6fe3695d7899cf8258351babbc7cefad5",
    ('C2', 3, 1, True): "e11e29148dd4920d73fa15d9dfe8fbc1cde2a70b0bbdce01daac9cd18d805e96",
    ('C2', 3, 2, False): "eb83266c4bdb5d1defbf5a292aa70d63cad283cdd00062543d5f1ea58eedc6da",
    ('C2', 3, 2, True): "7474460b4a872517c420266654022ab35864e27001de0f6c7e3ef52d6f90df90",
    ('C2', 3, -1, False): "a64db8c3a1ca767c0c2f2b1105e6033d9aa5326ebab3959518d9d9a7fad1cba1",
    ('C2', 3, -1, True): "043192804044099e4cc73a6ae364ecb713521f6df89ca1fcd9936b6b4cddc6d1",
    ('C2', 4, 1, False): "a0248f9a706cf51317018e987569650b8e7589a65534ed4a8856ee4e53ae1c23",
    ('C2', 4, 1, True): "753a20cc91dbeec31e05262c2bf16e76642eeb6734fbd6d52ff5fffb595eaef8",
    ('C2', 4, 2, False): "f35062ae3a27c9d0564c8277c7763c7301a41be58f08ed42412921e80d93d82e",
    ('C2', 4, 2, True): "7ca62b687e733d34f97cd96025f2b2d3de4f46eda6c458e8cd52c263cbd50ff5",
    ('C2', 4, -1, False): "1cfae9bcf6191ce3f8418b66089d6b03395fbd2b31fcbff4640fadd3bf6f4e87",
    ('C2', 4, -1, True): "d6ee5b505bba3d9ed7881dffa184cad455d64677ef2d0f3db6c08e4a093ea079",
    ('BC2', 2, 1, False): "998a78ec8560962a8238ffddad8626c07082ebe8cd4a0a7ec6c3f69d70f2536f",
    ('BC2', 2, 1, True): "07a0ad1ea0a8b2e8976f5be53a2c167be7c402aedc9f4426f9ceb3d3cdb5c01e",
    ('BC2', 2, 2, False): "253696971cfddfe107c54047841c01c179052579db8a585befb640f83e354897",
    ('BC2', 2, 2, True): "c55248f061d9eee6b936f98e074cbd8629def08f6d72d4ec3a3453c746926d0b",
    ('BC2', 2, -1, False): "1660edf8586f138ef268bee7a80b1dfbafd1864d5e5c735528f45f14e1eb2092",
    ('BC2', 2, -1, True): "14bd303eaf553880fe5430b846284e82588a4f65b9f5e0f436022b01bc3901f2",
    ('BC2', 3, 1, False): "b288b9ac1698518b3e7b3aad68c4ec9fcaa21a6df301425a86a08d9b525253d3",
    ('BC2', 3, 1, True): "4848138497b2c878d1bb633fcc485a4a8b4f86f1d958c4f84799e6b119ad9a6b",
    ('BC2', 3, 2, False): "1a8b603c68a9c03a55dde81388c3dd771c01c1fced0a4718ef661b3643b2bb16",
    ('BC2', 3, 2, True): "6fccc1727c586e6da532403765b2b79d204aa9febe5ee72028ebfc03a2fa308d",
    ('BC2', 3, -1, False): "c844102f4e8e6c4900e45d3c0dd210bc2f0c3b2fe896a4d0c1af6c215da3b5f5",
    ('BC2', 3, -1, True): "2f995b04191c78b4001ddd9d99649817a817ae80dc931d24f6203ab988254a0d",
    ('BC2', 4, 1, False): "1cc3fc35074d36b5ad22d025e171953cd151fbdd6038dd5ebd02e33147545d5c",
    ('BC2', 4, 1, True): "b28b3875974c11011d9c00de7bb10dfd523afaa33f10494ff218be0fb6f7d8ed",
    ('BC2', 4, 2, False): "53d0548eff86c5cc8c2e11f61f6808c5c67b55bdc46cb5bc8528b05f73cade79",
    ('BC2', 4, 2, True): "7f44d0a3a9c8a86c3a335a1b66c04bc610f6598b7ecaad8d86e02001b01959dc",
    ('BC2', 4, -1, False): "23835c2a8863a39436e927da1ee5c8517b426ac7dfe4b73ebc393871c98131c3",
    ('BC2', 4, -1, True): "21bdde9830a57f6ef600c0f0ae644ef2bef866d860c4cd1404394961ed26cb92",
}


@pytest.mark.parametrize("kind,rank,lc,chi0", sorted(ENERGY_DIGESTS))
def test_min_energy_report_is_byte_stable(kind, rank, lc, chi0, tmp_path, monkeypatch):
    request = energy_request(kind, rank, lc, chi0)
    digest = _report_digest(tmp_path, monkeypatch, request, ["min-energy", "--bound", "3"])
    assert digest == ENERGY_DIGESTS[(kind, rank, lc, chi0)]


def theorem_b_request(family, dim, hint, negative):
    """A theorem-b request whose weight is integral: lc is twice the operator order."""
    rng = Random(f"stable:{family}:{dim}:{hint}")
    spec = random_operator(rng, family, dim, order_hint=hint)
    lc = 2 * spec.declared_order * (-1 if negative else 1)
    return {
        "operator": spec.to_json(),
        "weight": Weight(lc, Functional({1: rng.randint(-1, 1)}), 0).to_json(),
        "nu": random_functional(rng, 2, denoms=(1,)).to_json(),
        "nu_prime": Functional({1: Fraction(rng.randint(-2, 2), 2)}).to_json(),
    }


#: `theorem-b` at the default oracle bound on seeded operators of all four families; the negative
#: central values take the divergence path
THEOREM_B_DIGESTS = {
    ('H', 6, 2, False): "9fc7dd2160b01196403155714414f8a41dfef3eec2307f4390e0ab28eb6bac64",
    ('H', 6, 3, True): "b65f25ebb865e866a7e723c3c1c017b00828c969fe72149d915f1b6e3ba69805",
    ('R', 4, 4, False): "252fc315f37d2a9cbddb475f38f6cdb93cecc97d3fad1ca146500e2dfc05c502",
    ('R', 6, 2, True): "287e0aa7b6dfdde74f5e72477003408c7782892cf2083d9f11f8fa9ca4ee8f2d",
    ('C_unitary', 4, 3, False): "83c6284a54a79b2f04f80864152a890c56a6cf1bb56c2ddae059cf91ef2a9365",
    ('C_unitary', 4, 4, True): "d70fe8f70615eadd2949125ecc53faba4492c0073440b3b676526c999d0ddf8c",
    ('C_antiunitary', 5, 2, False): "0837216d235049270a1b05c7228fb12a3a61568d4a3caa7e5759f2afd62786b2",
    ('C_antiunitary', 6, 3, True): "ab49874681dc20172f5fa2f3ef60e8bbf72740224f49671227a39966ecc221ca",
}


@pytest.mark.parametrize("family,dim,hint,negative", sorted(THEOREM_B_DIGESTS))
def test_theorem_b_report_is_byte_stable(family, dim, hint, negative, tmp_path, monkeypatch):
    request = theorem_b_request(family, dim, hint, negative)
    digest = _report_digest(tmp_path, monkeypatch, request, ["theorem-b"])
    assert digest == THEOREM_B_DIGESTS[(family, dim, hint, negative)]


#: one SHA-256 per certificate over its twisted grading, for the operator
#: `random_operator(Random(seed), family, dim, hint)`: the root, residue and matrix
#: JSON of every `mode_class_vectors` piece of each finite root, then the residue
#: and matrix JSON of every `cartan_mode_vectors` piece
GRADING_DIGESTS = {
    ("C_unitary", 0, 4, 3): "8e568d884f1df5f58928bd9ad313a0dde7eff408125e0bbafcb631dbfa14c51b",  # A1
    ("R", 0, 5, 3): "9f33c57d7c5c6921a6f9e534997ccfd90c4886160b50ee8b644ed0da8c2fa99d",  # B1
    ("H", 0, 4, 4): "58a48604e60b5571a75684c3babb97b3227769fef5eadd08249afbc05e2aadeb",  # C1
    ("R", 0, 6, 2): "912e476c2e46ac9029ee2e8e80f3cd7a8cd8f72ad9c591127f0ce9e43b7478d8",  # D1
    ("R", 2, 6, 2): "5886b7d6ff2ecd31e5edfd1958e3cb58b3078b939951c19c74b0be3392e5e337",  # B2
    ("C_antiunitary", 0, 6, 4): "a3bb863446aa28f0a3c99550576e8644dde9f92ce4d250da6827e8c9c4d15e0c",  # C2
    ("C_antiunitary", 0, 4, 2): "595ee7e51a6d7220e81158882ead45ce12310ef6db0ef4367db9d74e6999e095",  # C2
    ("C_antiunitary", 0, 5, 3): "f54a37eb3c7cb7904e157a1c2fe08185c0c2192ad4dd09e5f7f91a617fe13905",  # BC2
    ("C_antiunitary", 1, 5, 3): "ef89d01cafba93f0d9b484ad22b68c05a96c2161ea198e3fbb7d96f6cdb5cdb2",  # BC2
}


def grading_digest(cert):
    digest = hashlib.sha256()
    for a in lars_finite_parts(cert.lars, cert.base):
        for m, v in mode_class_vectors(cert, a):
            digest.update(json.dumps([a.to_json(), m, mat_to_json(v)]).encode())
    for m, v in cartan_mode_vectors(cert):
        digest.update(json.dumps([None, m, mat_to_json(v)]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family,seed,dim,hint", sorted(GRADING_DIGESTS))
def test_grading_is_byte_stable(family, seed, dim, hint):
    cert = standardize(random_operator(Random(seed), family, dim, order_hint=hint))
    assert grading_digest(cert) == GRADING_DIGESTS[(family, seed, dim, hint)]


#: `standardize(random_operator(Random(seed), family, dim, hint))` on operators whose
#: normal form adjoins a missing rational square root by a conductor enlargement:
#: the SHA-256 of the certificate JSON with sorted keys
ENLARGING_DIGESTS = {
    ("R", 5, 6, 2): "2c15568d7ae1767006bcd9f3fe9f7d58f3b76b7c4ebd3155d64de700b6e4e56e",  # D1 at 328
    # B1 at 328, after two enlargements
    ("R", 34, 5, 2): "7afbf5b80d95d3558dcf66a5554168f7019720d4233117555e62aa713d00c911",
    ("C_antiunitary", 36, 5, 2): "541ab59806eddf164c8b91f12946fda82cbc7fe72a0ea2c1f98414f2bc203ae0",  # BC2 at 472
    ("C_antiunitary", 40, 5, 3): "80747a169bcfadcb4f0ba3cd1d03bca776016540951f24f31207993f1459eab3",  # BC2 at 408
}


@pytest.mark.parametrize("family,seed,dim,hint", sorted(ENLARGING_DIGESTS))
def test_enlarging_certificate_is_byte_stable(family, seed, dim, hint):
    cert = standardize(random_operator(Random(seed), family, dim, order_hint=hint))
    digest = hashlib.sha256(json.dumps(cert.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == ENLARGING_DIGESTS[(family, seed, dim, hint)]


def test_enlarging_operator_refused_at_rank_one():
    # this operator enlarges the conductor, then standardizes to rank 1
    spec = random_operator(Random(28), "C_antiunitary", 3, order_hint=4)
    with pytest.raises(StandardizeError) as refused:
        standardize(spec)
    assert str(refused.value) == "truncation too small: standardized rank 1 < 2"
