"""dB/linear and dBm/watt conversions."""

import math

SPEED_OF_LIGHT = 299792458.0


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)
