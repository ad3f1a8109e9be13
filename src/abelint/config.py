"""Runtime configuration for the numeric parts of the pipeline.

Everything numeric (root finding, tracking, quadrature, oracle sampling)
reads its precision, tolerances and seed from a single Config value so
that two runs with the same Config are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_args, get_type_hints

from .errors import InputError

COUNT_LIMIT = 1 << 16   # largest count (degree bound, samples, ...) an input may ask for


def sample_count(count: int) -> int:
    """count, a number of samples asked of an API call, or InputError
    outside [1, COUNT_LIMIT]."""
    if count < 1:
        raise InputError(f"samples must be at least 1, got {count}")
    if count > COUNT_LIMIT:
        raise InputError(f"samples must be at most {COUNT_LIMIT}, not {count}")
    return count


@dataclass(frozen=True)
class Config:
    precision_bits: int = 128
    track_step: float = 0.25      # fraction of the fiber gap one step may move a root
    collision_tol: float = 2.0 ** -40   # relative root-collision threshold
    oracle_tol: float | None = None     # default: 2^-(precision_bits/4)
    degree_bound: int | None = None     # default at use sites: 2*deg(P)
    samples: int = 8
    seed: int = 20259

    def __post_init__(self):
        if self.precision_bits < 64:
            raise InputError("precision_bits must be at least 64")
        if self.precision_bits > COUNT_LIMIT:
            raise InputError(f"precision_bits must be at most {COUNT_LIMIT}, "
                             f"not {self.precision_bits}")
        if not (0 < self.track_step <= 1):
            raise InputError("track_step must lie in (0, 1]")
        for name in ("collision_tol", "oracle_tol"):
            val = getattr(self, name)
            if val is not None and not 0 < val < math.inf:
                raise InputError(f"{name} must be positive and finite")
        if self.samples < 1:
            raise InputError("samples must be positive")
        if self.samples > COUNT_LIMIT:
            raise InputError(f"samples must be at most {COUNT_LIMIT}, "
                             f"not {self.samples}")
        if self.degree_bound is not None and self.degree_bound < 0:
            raise InputError("degree_bound must be nonnegative")
        if self.degree_bound is not None and self.degree_bound > COUNT_LIMIT:
            raise InputError(f"degree_bound must be at most {COUNT_LIMIT}, "
                             f"not {self.degree_bound}")

    @property
    def resolved_oracle_tol(self) -> float:
        if self.oracle_tol is not None:
            return self.oracle_tol
        return 2.0 ** -(self.precision_bits // 4)

    def resolved_degree_bound(self, poly_degree: int) -> int:
        if self.degree_bound is not None:
            return self.degree_bound
        return 2 * poly_degree

    def doubled(self) -> "Config":
        """Same configuration at doubled precision and halved step."""
        return replace(self, precision_bits=2 * self.precision_bits,
                       track_step=self.track_step / 2)


DEFAULT_CONFIG = Config()


# Each Config field's number type and whether it may be null, in field
# order: the CLI flags and `serialize.config_from_json` take these alone.
CONFIG_OPTIONS = {name: ((get_args(hint) or (hint,))[0], type(None) in get_args(hint))
                  for name, hint in get_type_hints(Config).items()}
