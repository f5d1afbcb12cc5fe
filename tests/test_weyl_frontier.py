"""The rank-five frontier of weyl-verify: B5, C5, twisted A5 and twisted
D6, each about a second or less."""

import contextlib
import io
import json

import pytest

from arthurcalc.cli import main


@pytest.mark.parametrize("gtype,rank", [("B", 5), ("C", 5), ("A", 5),
                                        ("D", 6)])
def test_weyl_verify_rank_five_frontier(gtype, rank):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["weyl-verify", "--type", gtype, "--rank", str(rank),
                   "--rank-bound", str(rank)])
    assert rc == 0
    payload = json.loads(out.getvalue())
    assert payload["splits"]
    assert payload["all_pass"] is True
