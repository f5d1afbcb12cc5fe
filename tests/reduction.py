"""The checked form of one cuspidal-support reduction step, which the
segments, charspace and elementary tests call: the checks that
cuspidal_support runs once, then the step it loops."""

from arthurcalc.segments import (_reduce_step, _require_discrete,
                                 check_character)


def parabolic_reduce_step(phi, eps):
    """One step of cuspidal-support reduction on a discrete pair with a
    matching character, or none when the pair is supercuspidal."""
    _require_discrete(phi)
    check_character(phi, eps)
    return _reduce_step(phi, eps)
