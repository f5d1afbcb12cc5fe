"""Planted faults: each entry breaks one formula on purpose and names
cheap tests that must then fail, so that a memo, cache or refactor that
turns one of those tests vacuous fails here.

A fault is installed before its tests build any parameter, so that no
derived table kept on a value built earlier can hide it.  A function is
faulted in place, through its code object, so the names that modules
and tests imported before the fault see it as well.
"""

import functools
import inspect

import pytest

from arthurcalc import params, signs
from arthurcalc.halfint import sign_pow
from arthurcalc.params import ArthurParameter

import test_elementary
import test_packets
import test_params
import test_segments
import test_signs


def _trampoline(*args, _fault, **kwargs):
    return _fault(*args, **kwargs)


def _fault_function(monkeypatch, func, fault):
    """Make func run fault(real, *args, **kwargs) wherever it is called
    from, real being func as it was."""
    real = type(func)(func.__code__, func.__globals__, func.__name__,
                      func.__defaults__)
    monkeypatch.setattr(func, "__code__", _trampoline.__code__)
    monkeypatch.setattr(func, "__defaults__", None)
    monkeypatch.setattr(func, "__kwdefaults__",
                        {"_fault": functools.partial(fault, real)})


def _fault_derived(monkeypatch, name, fault):
    """Make ArthurParameter's derived value name read fault(real, psi)."""
    derived = vars(ArthurParameter)[name]
    monkeypatch.setattr(derived, "derive",
                        functools.partial(fault, derived.derive))


def _beta_without_pair_term(real, psi, rho, x0):
    """beta_sign without its (-1)**(k(k-1)/2) on k odd sizes below x0."""
    beta = real(psi, rho, x0)
    below = [blk.alpha for blk in psi.blocks
             if blk.rho.id == rho.id and blk.alpha < x0]
    k = len(below)
    return beta * sign_pow(k * (k - 1) // 2) if below and below[0] % 2 \
        else beta


def _flip_strict_at_most(real, psi, rho, x0, strict=True):
    """The strict flip also flips the size x0."""
    return real(psi, rho, x0, False)


def _one_more_l(real, gap, sign):
    """An odd gap counts l up to [gap/2] + 1."""
    return real(gap, sign) + gap % 2


def _lost_half_class(real, gap, sign):
    """An even gap loses its class l = gap/2."""
    return real(gap, sign) - (gap % 2 == 0 and sign == 1)


def _rows_l_plus_one(real, gap, sign):
    """Every class has its l one too large."""
    ls, etas = real(gap, sign)
    return tuple(l + 1 for l in ls), etas


def _rows_lost_half_class(real, gap, sign):
    """An even gap loses its class l = gap/2, the last row."""
    ls, etas = real(gap, sign)
    return (ls[:-1], etas[:-1]) if gap % 2 == 0 and sign == 1 else (ls, etas)


def _labels_unsorted(real, psi):
    """Each label's sizes, and their zetas, descending."""
    return {rid: (rho, alphas[::-1], zetas[::-1])
            for rid, (rho, alphas, zetas) in real(psi).items()}


def _labels_dropped(real, psi):
    """The table without its last label."""
    return dict(list(real(psi).items())[:-1])


# name -> (install the fault, the tests that must fail under it)
FAULTS = {
    "beta_sign without k(k-1)/2": (
        lambda mp: _fault_function(mp, signs.beta_sign,
                                   _beta_without_pair_term),
        [test_signs.test_beta_sign_spec_examples,
         test_signs.test_flip_fingerprint]),
    "aubert_flip strict at <= x0": (
        lambda mp: _fault_function(mp, signs.aubert_flip,
                                   _flip_strict_at_most),
        [test_elementary.test_aubert_chain_rebuilds_parameter,
         test_signs.test_s_ratio_matches_flip_pairing]),
    "_class_count off-by-one l": (
        lambda mp: _fault_function(mp, params._class_count, _one_more_l),
        [test_packets.test_block_classes_closed_form_matches_the_filter,
         test_packets.test_class_counts_of_both_signs_sum_to_gap_plus_one,
         test_packets.test_enumeration_bound]),
    "_class_count lost l = gap/2": (
        lambda mp: _fault_function(mp, params._class_count,
                                   _lost_half_class),
        [test_packets.test_block_classes_closed_form_matches_the_filter,
         test_packets.test_class_counts_of_both_signs_sum_to_gap_plus_one]),
    "_block_classes off-by-one l": (
        lambda mp: _fault_function(mp, params._block_classes,
                                   _rows_l_plus_one),
        [test_packets.test_block_classes_closed_form_matches_the_filter,
         test_packets.test_packet_constituents_match_reference_off_ddr]),
    "_block_classes lost l = gap/2": (
        lambda mp: _fault_function(mp, params._block_classes,
                                   _rows_lost_half_class),
        [test_packets.test_block_classes_closed_form_matches_the_filter,
         test_packets.test_packet_constituents_match_reference_off_ddr,
         test_packets.test_census_multi_block]),
    "_labels unsorted alpha": (
        lambda mp: _fault_derived(mp, "_labels", _labels_unsorted),
        [test_params.test_label_table_matches_its_definition,
         test_elementary.test_rho_cuspidal_bound_gap,
         test_segments.test_parabolic_reduction_gap_case]),
    "_labels dropped label": (
        lambda mp: _fault_derived(mp, "_labels", _labels_dropped),
        [test_params.test_label_table_matches_its_definition,
         test_signs.test_beta_sign_spec_examples,
         test_signs.test_eps_m_mw_elementary_spec_example]),
}


def _forget_values_derived_under(monkeypatch):
    """Record each value that a derived-value read stores from now on,
    and return a function that takes them all off again, so that no
    value derived under a fault outlives it."""
    stored = []
    real = params._store

    def store(obj, name, value):
        stored.append((obj, name))
        real(obj, name, value)

    monkeypatch.setattr(params, "_store", store)

    def forget():
        for obj, name in stored:
            vars(obj).pop(name, None)
    return forget


def _run(catcher, monkeypatch):
    if "monkeypatch" in inspect.signature(catcher).parameters:
        catcher(monkeypatch)
    else:
        catcher()


def _pass_through(real, *args, **kwargs):
    return real(*args, **kwargs)


@pytest.mark.parametrize("catcher", list(dict.fromkeys(
    catcher for _, catchers in FAULTS.values() for catcher in catchers)),
    ids=lambda catcher: catcher.__name__)
def test_catchers_pass_through_the_fault_machinery(catcher, monkeypatch):
    """With every faulted function and derived value only passed through
    to its real self, each catcher passes: what fails it below is the
    fault, not the way it is installed."""
    for func in (signs.beta_sign, signs.aubert_flip, params._class_count,
                 params._block_classes):
        _fault_function(monkeypatch, func, _pass_through)
    _fault_derived(monkeypatch, "_labels", _pass_through)
    _run(catcher, monkeypatch)


@pytest.mark.parametrize("fault,catcher", [
    (fault, catcher) for fault, (_, catchers) in FAULTS.items()
    for catcher in catchers],
    ids=lambda item: getattr(item, "__name__", item))
def test_planted_fault_is_caught(fault, catcher, monkeypatch):
    install, _ = FAULTS[fault]
    forget = _forget_values_derived_under(monkeypatch)
    install(monkeypatch)
    try:
        with pytest.raises((Exception, pytest.fail.Exception)):
            _run(catcher, monkeypatch)
    finally:
        monkeypatch.undo()
        forget()
