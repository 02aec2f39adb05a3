"""Byte-identity gate: the CLI reports must not change under a refactor.

The digests are SHA-256 of the exact stdout of ``chiy system --n N --branch B``
for n = 3..15 on every valid branch, and of ``chiy classify --n N --branch B``
for n = 3, 5, 7 on both branches and n = 9 on the half branch.  They were first
recorded before the integer-numerator polynomial kernel replaced the
``Fraction`` one, and
re-recorded when the ``mode`` key was removed from the system and report
schemas: that removal deletes the ``"mode": "ak"`` lines and changes no other
byte.  The classify digests were re-recorded once more when the enumeration's
per-candidate residue filter was deleted together with the report key that
listed its primes: the report loses that key's block and keeps every other
byte, and the system digests stayed as they were.  The n = 7 half report
joined when the residue search decided it: its verdict went from
``inconclusive`` after a box scan to ``no_integer_solution`` with a
``local_obstruction`` certificate modulo 9, and every other digest stayed.
The n = 7 standard report, the only shipped one decided by box enumeration
(it finds the binomial vector and reports its ``visited`` count), joined as
recorded before the scan's candidates came from one equation only; its bytes
did not change with that.
The n = 9 half report, decided by a ``local_obstruction`` certificate modulo
13 and the only shipped verdict whose residue search runs over five free
variables, joined as recorded before that search was compiled into one
function per system; its bytes did not change with that.
The n = 14 standard, n = 15 standard and n = 15 half systems joined as
recorded before the chi_y weights were tabulated in the (y+1)-basis and only
the even coefficients were accumulated; their bytes did not change with that.
The weight table digests (SHA-256 of the JSON list of the denominator of
``genus._weight_table(n)`` and its ``[partition, numerators]`` rows in
partition order, n = 1..20), the ``pn-verify --max-n 20`` report and the
``genus --chern`` reports on 3,3 / 0,24 / 6,15,20,15,6 / 1/2,1/3 in text and
json joined as recorded before the Todd coefficients and the weight rows were
written in closed form and the two changes of basis became one shift; their
bytes did not change with that.
A change that is meant to alter these reports regenerates the digests
and says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from chiy.cli import main
from chiy.genus import _weight_table

SYSTEM_DIGESTS = {
    (3, "standard"): "d487d582ac71517905a3cc2738059c7c44d008d1e941453ca703b18c2d041c42",
    (3, "half"): "d9eeb8d7960072857ba3ea4e7351e04ec49c63a5c89411a3353391d416f88fb2",
    (4, "standard"): "62ba510c3cd23340ce699b6067cbb20bbb419bf6cf672e986624ba23bf9b5d17",
    (5, "standard"): "e5fbbf09857f6569a6293fa2e0f528b2bbd3c114569900e0dd05ee87d6d5a6ed",
    (5, "half"): "23d1c9e58852de4063a56f82034952402033e977722ce98af7938cd06bfce079",
    (6, "standard"): "325fddadbdc53f691396b63ea2e7a7003fa0ee4797ec9ba49dd6bcfa511cb5b0",
    (7, "standard"): "8d5df37ed4696713b90fc8bdfaf09f80c5562abbb25ce1ede025f23b4a343ec0",
    (7, "half"): "46e50de9b6862c669036b9f116c7174b6454efc46dba873ca3ba69c84634c01b",
    (8, "standard"): "4a2e57382af3edc0a7beaf3f23188c4d18311ea7f11f542a1a1ffaf654da73e9",
    (9, "standard"): "68df50d7e6fd144ef93649803dfe157914f8ac01e35b33931c314cb836cf1676",
    (9, "half"): "3a2c578cecc02fd5032cfe5eb9a51f25d2f7f2dc7658a4861b469de1c0829e5c",
    (10, "standard"): "cd9617066573bd2950751f2ff398ba2813da7bc2c7d8e520a33dda664b4ba5dc",
    (11, "standard"): "e525d62a79b7e2b18f326a1f23b25176adb093054fe9a964cd7cb1d298897ad6",
    (11, "half"): "6b1bf2191859d796f875acb8e987a808a581ca0775a1ac7c6ba9015b08d06885",
    (12, "standard"): "f1aa95dcef4f3f4a21076e590968f724a14eb0f2c27aa8e37544a406b1ed19d8",
    (13, "standard"): "111637f3344aac1c0136f75b5441fe05d450281ff4f5c2d365e8afbb4a55fc1e",
    (13, "half"): "d001ea3fb8846797201ace72fb18bec6c4358495aaffc1bcb2149303650b8de9",
    (14, "standard"): "c6d697ab0c9ad6db637ccb1f7370996816130d2625686d2e4389bd00c2dfd1a5",
    (15, "standard"): "eb485011ab413a86d8d1bd8a9c780c1226252cbca49baeda8b5381707e02300d",
    (15, "half"): "6d2c81b150d02e861a8015a4c506c1e5327368377e24c42a91dcb0eafb0aafc9",
}

CLASSIFY_DIGESTS = {
    (3, "standard"): "961acc6f5b33284a9c390ee557839f6459bcb0e3c373c72ed1a97af2e1dcd6a2",
    (3, "half"): "b15aa6be8ac3fc49ba2a57ed7a0dcb9ff12785cee98f22226497f35ae0341723",
    (5, "standard"): "643486321b784ec0263fc898c55b302af9b0607aa6b7b44f83937f3505ac7dd5",
    (5, "half"): "f6c0bcbb9597de0559de4cc4559b3b8d994380f2137a72dcd23120e37049777c",
    (7, "standard"): "69fdca50b22ee2b983595e2e664049458a811bbd088604af6367eb247472a6af",
    (7, "half"): "70078869852b59085bed393250f36f2e6c495fceb33bdbf04425926c888ba14d",
    (9, "half"): "b95be29946a961fe564ae0972db32d25dd518eaf0d54d56739e817394ce083bb",
}

WEIGHT_TABLE_DIGESTS = {
    1: "c0b4fba806443f6f73ba2dde0a34b912043ece6dd05b2360bf0d65e5a32c2353",
    2: "11b68c3c0c9a0b4fc6b53b8decde7c0dfa327ff07948f4f4a41815016ec1d6a1",
    3: "4feea3ed48a78712f921bbb7c6548f14736cf57104b9a0f8d9b31ba46f8b29a9",
    4: "15b7196dabdce08ecf35c01d559900c6219037014c58ea866a242a327de0ac18",
    5: "7248538cb43750d00d669fd07226b99005922ba01938b1caf9b1fde42657bfec",
    6: "60015dc667ced6a7dd8a752124a84fc42bc851de2c01401ba0179f013b2ae210",
    7: "fa423c6d9504b7cc2bce5fa5051dc11d1e4762a575dcd7fa3bb12c313d196708",
    8: "a51dc3f8a152a89238bd2aef092a6666c98c0f79c8db0a329ee357973ecfb87e",
    9: "2b690b0b1e2864a5fe5166dffaebd7d7c1804924f8cd8f54fb58b08cac88ad50",
    10: "ef9b5d20b02606e5814dbd6cb850f2d6d712eda7dad3c965bf7866025c57e28f",
    11: "352eb10c00f87810562fa66948fe52f231a1ccd23b2f6723b42c00736a60baf6",
    12: "57b88d658135523815d7c8244bf66477d132e732b24b8e436bed2435530660e9",
    13: "7dc87f98116d4e5bc1f8b9e3b19938c8ee8faff9346a902cf38c816ccb0d48aa",
    14: "9e46781a699e1ee67508cc56278b9d0af11c95e20defba2af15aa2df7ab2204a",
    15: "d6a4a6ddf98271a888620074fb4dca1407ca320adce5b8ed4313e2db6e535467",
    16: "901cf8626e1fc6b6118691ba72c52c61af35c26b3fe6bbfce823a9ccbee6039c",
    17: "327e4431a784ca38b8d90bc6c3c384a293a8bed979a8432b8087fd424cd42bb5",
    18: "68697658d9817b91dd9216963ba5a264b0fc19470c900c3f4f33e532845f579a",
    19: "d3689d5bbc3d364e8bacf472975633806ce8b118a08c9a9729c2d5920f08347b",
    20: "ec45c1b6d489d29e8e0e580a5fec07b16816d868d59e3344a072e73a5d579d69",
}

PN_VERIFY_DIGEST = "a93abc55289a311e8541a75be39d8f6dd26f3bf42b8333d7707fbf36aefffc4c"

GENUS_DIGESTS = {
    ("3,3", "text"): "7d33aa71e1ebf298bb241bc70e49ef9b868a5562437f72922716ec1d78be0217",
    ("3,3", "json"): "d0e85a169b1f4754bc118df2110e082d6694f71c80deb1e2ff7d4e3d58eb59d3",
    ("0,24", "text"): "685eb8d013797835b26b76a3b30497f1ecd20175111cc3e5e8c1f8014024b10d",
    ("0,24", "json"): "221331cf61c2cc614ab1259b40376ec26dd98dd4ef2335fed4fba0092c31991a",
    ("6,15,20,15,6", "text"): "6a1a48ddaf0560757e48b8490df3a94ed6f8363cf4bfd02e3bcb5bb747a78c8d",
    ("6,15,20,15,6", "json"): "1870c5e3196853101d214eb41909381066022ee96e9cd2eea19a0d504e43c129",
    ("1/2,1/3", "text"): "d46b959aff4c278e1a6f2cf58d8f2f25e2f254ba187fef54ed7b3e87d662f36e",
    ("1/2,1/3", "json"): "b8050cd204c605268dd4596affd7fec64d46d0cacabc92e8b0c1d3c5e7206bf1",
}


def _stdout_digest(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("n, branch", sorted(SYSTEM_DIGESTS))
def test_system_report_bytes(n, branch):
    digest = _stdout_digest("system", "--n", str(n), "--branch", branch)
    assert digest == SYSTEM_DIGESTS[n, branch]


@pytest.mark.parametrize("n, branch", sorted(CLASSIFY_DIGESTS))
def test_classify_report_bytes(n, branch):
    digest = _stdout_digest("classify", "--n", str(n), "--branch", branch)
    assert digest == CLASSIFY_DIGESTS[n, branch]


@pytest.mark.parametrize("n", sorted(WEIGHT_TABLE_DIGESTS))
def test_weight_table_bytes(n):
    denominator, table = _weight_table(n)
    rows = [[list(parts), list(numerators)] for parts, numerators in table.items()]
    text = json.dumps([denominator, rows])
    assert hashlib.sha256(text.encode()).hexdigest() == WEIGHT_TABLE_DIGESTS[n]


def test_pn_verify_report_bytes():
    assert _stdout_digest("pn-verify", "--max-n", "20") == PN_VERIFY_DIGEST


@pytest.mark.parametrize("vector, fmt", sorted(GENUS_DIGESTS))
def test_genus_report_bytes(vector, fmt):
    digest = _stdout_digest("genus", "--chern", vector, "--format", fmt)
    assert digest == GENUS_DIGESTS[vector, fmt]
