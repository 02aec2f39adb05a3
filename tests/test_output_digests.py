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
A change that is meant to alter these reports regenerates the digests
and says why.
"""

import contextlib
import hashlib
import io

import pytest

from chiy.cli import main

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
