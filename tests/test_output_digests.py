"""Output bytes pinned by sha256: the refactors of the library must leave the
CLI's payloads byte-identical.

The digests were taken from the CLI before the vertex-sequence core, the
splice helper and the Eulerian-walk connectivity check landed; the three
GF(4), GF(9) and GF(31) Grassmann pins before the Singer cycle moved onto
gf's polynomial arithmetic.  A change in any of them means the
construction, the serialization or the report of some structure changed.
"""

import hashlib
import json

import pytest

from ucycle.cli import main
from ucycle.gf import field_make
from ucycle.grassmann import GrassCycle, nested_cycles
from ucycle.verify import verify_grassmann

PINNED = {
    ("gen", "--n", "3", "--p", "3"):
        "8d217ee0ab8ac96b94f85cc7d6ce5b32626ca0f802cb70c4c92f0c549c5b67d3",
    ("gen", "--n", "2", "--p", "3", "--k", "2"):
        "4f13d25fd7570e7bde7e42579fc4c2c906f6a9adaecec10fb8f152149a109f27",
    ("gen", "--n", "3", "--p", "2", "--k", "2", "--format", "text"):
        "f6b6aae464e98c27b14503a54a391fc0a0a1815eae53afdfc746c60aeaa9e046",
    ("grassmann", "--m", "5", "--p", "2", "--nested"):
        "c586ad1caa51b92500b9a7901410668285586ff1fd5fdf058a498b5c2cba5b8d",
    ("grassmann", "--m", "4", "--p", "3", "--nested"):
        "c02e5aedcb1820b85bc71d9dffbf8ff09e76d465b3cb360c8c149871ed1dc688",
    # the Singer cubic over a proper extension GF(4), GF(9), and over GF(31)
    ("grassmann", "--m", "4", "--p", "2", "--k", "2", "--nested"):
        "2dfd559581d388aefee996f00a05b5be90aada12fc629e531035a109dc1b1c0d",
    ("grassmann", "--m", "3", "--p", "3", "--k", "2", "--nested"):
        "bc9a17b0ea8024ba976904b7255be47c0eda30ffa8ae4d7cf243da93dad5bf00",
    ("grassmann", "--m", "3", "--p", "31"):
        "99328a36f49babfbc6c513aee61811e2ff039d48e423f6e0319f13e187179c04",
    # taken before the constructions moved onto code arrays: a triplet lifted
    # over 8 cosets, odd q with the w* detour and 5 cosets, a text payload
    # over GF(8), and a last level written without the rest of the chain
    ("gen", "--n", "5", "--p", "2"):
        "3f3a1b2cf44648d06ac7002f1880eab7bbcd95552ac66fc2d3542d58faf24d10",
    ("gen", "--n", "3", "--p", "5"):
        "e7a6b7a5573d5212ddbe5267194f813b0637ff0640476a7ca9fca684fdd2b4fb",
    ("gen", "--n", "2", "--p", "2", "--k", "3", "--format", "text"):
        "e66c5475b7b8adcb056a9009ba9c58cc3a4ce8fe55f069d65db2b21e394d6e39",
    ("grassmann", "--m", "6", "--p", "2"):
        "14e3ca9b00fd6c8a4d4f433c4e12424ab51f588b438010004559e34f2aa90797",
    # taken before the odd-q kernels were written down as literals: the
    # characteristic-3 kernel at q = 9 and the p >= 5 kernel over GF(25)
    ("gen", "--n", "3", "--p", "3", "--k", "2"):
        "cc2892d4fd4f9c7726e42c62c4921ee70358530169ed1fe7a97b0f03d1216ced",
    ("gen", "--n", "3", "--p", "5", "--k", "2"):
        "0b7d436b463750516ebafb9896ff7ecfb610844c15977a3de94241a8059382a2",
    # taken before the encoder's tokens grew from one code to a group of
    # codes: whole-row tokens at AG(10,2) (JSON and text), AG(5,5) and the
    # upper levels of the m = 9 chain, rows cut into uneven groups at its
    # m = 5 level, and one code per token over GF(509)
    ("gen", "--n", "10", "--p", "2"):
        "b94e4d3606444a30346d93ffa31b336661e39cadabba9b63b67b8c21474c9798",
    ("gen", "--n", "10", "--p", "2", "--format", "text"):
        "9be1c833c3d9df1d76309ef23af6bbccfcd389d93638f3e15b6ff5e7c7db72b1",
    ("gen", "--n", "5", "--p", "5"):
        "1a70b00643b359c3c3522b65830b7444f5602744de2a4cb798fa3129f5393b80",
    ("grassmann", "--m", "9", "--p", "2", "--nested"):
        "2b2496dc2ef29b01a59af41f537fd0616ad50c09be489dbb9b281979bec83b30",
    ("grassmann", "--m", "3", "--p", "509"):
        "a5339c40234da04a4e9c0f78a33cdf7c30de846d67e28664a3b12e7b14699cff",
}

# the dtype edges of the code arrays, taken before the field tables and the
# codes narrowed to uint8 (q <= 256) and uint16: gen at AG(2,256), AG(2,257)
# and AG(2,512), each as JSON and as text
EDGES = {
    ("2", "8"): ("ca1c2792663bd156cdf08501ada6ae291fbb48570703df2e71a913912d9a6980",
                 "e90333e414868ef0cd2e744c98ff8c389b239e102bf9100f15f7a4fc78286dd6"),
    ("257", "1"): ("9083b779e51643172dacd1679d43f78d19310fe77943615a021fa02083c62e3c",
                   "385525ac09eca3128288081b4d9cf3461845b32d16eb237f39c20a629f507cff"),
    ("2", "9"): ("a882e47a73cf181567ce537bff9b4e14bd58fa35b8c57038305e16f527d81405",
                 "a6bede99e6093460c3b90e4aedc2f2f561c208dad5d70ede2737adbc638df0f4"),
}

# verify report of AG(3,3)'s cycle with its first vertex deleted
PINNED_FAILING_REPORT = "7e0c9751f8cb4576328224f36f67be081bed9f7ad8895ecf23bf39955a9417bf"

# verify_grassmann report of U_4 over GF(3) with its first vertex deleted,
# taken before the plane keys were packed and decoded in one vectorized pass
PINNED_FAILING_PLANE_REPORT = "7b554150ee89a85271b68530b44f1730652144c315ee78df68bc2412d93052fa"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_cli_payload_digest(capsys, argv):
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == PINNED[argv]


@pytest.mark.parametrize("p,k", list(EDGES), ids=["q256", "q257", "q512"])
def test_dtype_edge_payloads_are_pinned_and_verify(tmp_path, capsys, p, k):
    flags = ["--n", "2", "--p", p, "--k", k]
    for fmt, digest in zip(("json", "text"), EDGES[p, k]):
        f = tmp_path / f"c.{fmt}"
        assert main(["gen", *flags, "--format", fmt, "--out", str(f)]) == 0
        assert hashlib.sha256(f.read_bytes()).hexdigest() == digest
        capsys.readouterr()
        assert main(["verify", "--in", str(f), *(flags if fmt == "text" else [])]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


def test_failing_verify_report_digest(tmp_path, capsys):
    assert main(["gen", "--n", "3", "--p", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    del obj["vertices"][0]
    f = tmp_path / "c.json"
    f.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(f)]) == 1
    assert sha256(capsys.readouterr().out) == PINNED_FAILING_REPORT


def test_failing_grassmann_report_digest():
    F = field_make(3)
    u4 = nested_cycles(4, F)[-1]
    rep = verify_grassmann(GrassCycle(u4.vertices[1:], F), 4, F)
    assert not rep.passed
    text = json.dumps(rep.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"
    assert sha256(text) == PINNED_FAILING_PLANE_REPORT
