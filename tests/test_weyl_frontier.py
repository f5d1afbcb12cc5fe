"""The rank-five frontier of weyl-verify: B5, C5, twisted A5 and twisted
D6, plus twisted A7 and A8, whose restricted rank is only four but whose
splits come from 2^8 and 2^9 sign vectors; each about a second or less."""

import contextlib
import hashlib
import io
import json

import pytest

from arthurcalc.cli import main

# SHA-256 of each datum's weyl-verify stdout, which prints every
# alternating-sum row; pins the output above rank four
STDOUT_SHA256 = {
    ("B", 5):
        "b422cb8c5d97ae0b860b323a784f5c6339abe69525663874a156ade43ef88e04",
    ("C", 5):
        "d76b24053f3f25d5fe9a50c436e069bf32fa85fbba00a66c4da3ac4cc8f1f699",
    ("A", 5):
        "f248cdeaf630f24405e1632f910b10e3748542e09b2a48cec984e2f7110d5a18",
    ("D", 6):
        "5f42e1e72b912c8eec00387a55660a060d9747062a5350de890828389ea50445",
    ("A", 7):
        "41bcc540be301d6815b336f82bc98fcbc9bee1be7e9bc443e5b19f66e1afc8ad",
    ("A", 8):
        "c55bc554f63953f6c559152bc35f6b0b9b37d38b0d56627f4b02b0ece6f1a15a",
}


@pytest.mark.parametrize("gtype,rank", [("B", 5), ("C", 5), ("A", 5),
                                        ("D", 6), ("A", 7), ("A", 8)])
def test_weyl_verify_rank_five_frontier(gtype, rank):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["weyl-verify", "--type", gtype, "--rank", str(rank),
                   "--rank-bound", str(rank)])
    assert rc == 0
    payload = json.loads(out.getvalue())
    assert payload["splits"]
    assert payload["all_pass"] is True
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == STDOUT_SHA256[gtype, rank]
