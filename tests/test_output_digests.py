"""Byte-identity gate: the CLI reports must not change under a refactor.

The digests are SHA-256 of the exact stdout of ``chiy system --n N --branch B``
for n = 3..13 on every valid branch, and of ``chiy classify --n N --branch B``
for n = 3, 5 on both branches, recorded before the integer-numerator
polynomial kernel replaced the ``Fraction`` one.  A change that is meant to
alter these reports regenerates the digests and says why; removing the
``mode`` field from the system and report schemas (ROADMAP item 5) is such a
change.
"""

import contextlib
import hashlib
import io

import pytest

from chiy.cli import main

SYSTEM_DIGESTS = {
    (3, "standard"): "713a344896b65a6e255c229f53901ae929f7dfddb46954169fe79355d1a8ad13",
    (3, "half"): "2aff6a52a784e44495d80cd8cb6a0e9964ed7029777d996cb6630ce028627367",
    (4, "standard"): "70c6298480f3438ddd160178b99674b078168c4a712ac98d01123286fd9787fb",
    (5, "standard"): "4da6d0cffc4dae0b92e8e1f37450fea90888f4afbbe8e69e9982df59355a0024",
    (5, "half"): "3181433772f05e4d5c369a67693d5355b322f4aea28a95f83448be0ca127997e",
    (6, "standard"): "8d3f696ef8daf85ed8ab944a3cf797e75c3c33cf91244b73da78e035cd16fb15",
    (7, "standard"): "8a8113dd2cefa8b6251206d9a125529aece8608af17d60936ca4eeda1d9e0cd9",
    (7, "half"): "696c0a7d7f71ad5b0a1028807826f432b2c3eadca5823420ed92b350fee7ea5b",
    (8, "standard"): "46084af1839aa67f12aaf987eac95e3a7d27434c1b7c9a847b0d9673a069ec39",
    (9, "standard"): "5970598921dbd0388c33848fff0ac0dcd08a0915b28cd7c2c7a79824d965c30e",
    (9, "half"): "6aa44fa9e9bd6991d772c2db3574158b0bf24424b8221d5c3c8936ebbacc086c",
    (10, "standard"): "7ffdff66aa98c84cde37ed90bca34a2fad270e2ff3387f765058fdf355159e95",
    (11, "standard"): "0153a18b74069084e204ce421e9a1e1039276bcfea5f22949b68b3df4796f870",
    (11, "half"): "ae0e5baba4502a72f5d02d28e853abc5088df4168442df1b1ed3b6b8dfe59552",
    (12, "standard"): "734776cdeba9736e27b3e57ec9cfe5c995688529f53150ad04d01575b28eaedb",
    (13, "standard"): "f3b5ce312d0af71a0b1e5382a7c26af12f68762c7f5d281027a30d688e45bfcf",
    (13, "half"): "56bb9add5195e42058cab5f2ac969f454b842392d80fd59939ff3a7416e07699",
}

CLASSIFY_DIGESTS = {
    (3, "standard"): "f69fb57019b1caa9c0b271823e22083fdd2b569887fe7333248f6883690015fb",
    (3, "half"): "79d6249a718047dade36ed4dc05f8e4714edecf195622d6b04d4a81bfcd6784f",
    (5, "standard"): "f016d1c59bd8a8c617badb19b46a9e4a9204a2d11ca0f5fa93f85d1294aef3c5",
    (5, "half"): "cd3506ef16755985df8fcb05cffa8769bd998d6931be4609570c614371459f1b",
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
