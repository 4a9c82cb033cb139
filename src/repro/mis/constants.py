"""Randomness tags and bounds that define the Luby B and Ghaffari rules.

Each rule is written once per model — a CONGEST node program
(:mod:`repro.mis.luby`, :mod:`repro.mis.ghaffari`), a columnar kernel
(:mod:`repro.mis.bulk`) and a sharded MPC phase (:mod:`repro.mpc.runtime`)
— and all three must draw from identical keyed streams.  The constants
live in this leaf module so that every engine imports them from one place
without importing each other.
"""

from __future__ import annotations

__all__ = ["LUBY_B_TAG", "GHAFFARI_MARK_TAG", "GHAFFARI_MIN_EXPONENT"]

#: rng tag separating Luby B's marking coin from priority draws.
LUBY_B_TAG = 17

#: rng tag for Ghaffari's marking coin.
GHAFFARI_MARK_TAG = 23

#: Floor for Ghaffari's desire level p = 2^-j; keeps exponents bounded.
GHAFFARI_MIN_EXPONENT = 60
