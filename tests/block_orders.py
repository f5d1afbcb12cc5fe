"""Every order of a small parameter's block instances that satisfies
condition (P): the reference set that the signs and endoscopy tests
quantify over."""

import itertools

from arthurcalc.errors import OrderViolation
from arthurcalc.params import BlockOrder


def all_p_orders(psi):
    out = []
    for perm in itertools.permutations(psi.instances()):
        try:
            out.append(BlockOrder(perm))
        except OrderViolation:
            continue
    return out
