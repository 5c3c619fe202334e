"""The pinned workloads: one INI config each, all at one simulation seed.

Every workload fixes a true geometry, an acquisition (frames, pixels,
orders) and reconstruction bounds.  The benchmark's ``--seed`` does not
become a simulation seed: fit cost and fit outcome both depend on the
acquisition (free-fit time ranges 4.5-7.9 s over demo seeds 0-11, and
some seeds lose a line), so a run keyed to a free seed would measure the
seed, not the program.  Every round of a run repeats the same acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_SOURCES = 6  # the program's default; every workload searches up to it
SIM_SEED = 1  # the README's simulation seed; every workload pins it


@dataclass(frozen=True)
class Workload:
    name: str
    x: tuple[int, ...]
    frames: int
    pixels: int
    orders: tuple[int, ...]
    max_span: int = 20
    allow_unknown_span: bool = False
    unique_winner: bool = False  # truth must be the only winner within one chi2 unit
    check_curve_order: int | None = None  # order whose curve is checked analytically

    def ini(self) -> str:
        """The config file handed to every CLI command; seeds come by flag."""
        return (
            "[geometry]\n"
            f"x = {list(self.x)}\n\n"
            "[simulate]\n"
            f"frames = {self.frames}\n"
            f"pixels = {self.pixels}\n"
            f"orders = {list(self.orders)}\n\n"
            "[reconstruct]\n"
            f"max_sources = {MAX_SOURCES}\n"
            f"max_span = {self.max_span}\n"
            f"allow_unknown_span = {self.allow_unknown_span}\n"
        )


WORKLOADS = {
    # the README session; the free fit over four orders dominates
    "demo": Workload(
        name="demo",
        x=(3, 1, 4),
        frames=20000,
        pixels=240,
        orders=(3, 4, 5, 6),
        unique_winner=True,
    ),
    # everything but the fit: a long acquisition at one order (the
    # acceptance tests' 100k-frame one) for sampling, the frame file and
    # memory, and a widened search for thousands of candidates to rank.
    # The span-9 truth lies past max(Present) = 8, so unknown spans are
    # allowed; span 18 gives 2702 candidates
    "deep": Workload(
        name="deep",
        x=(1, 3, 5),
        frames=100000,
        pixels=120,
        orders=(5,),
        max_span=18,
        allow_unknown_span=True,
        check_curve_order=5,
    ),
}
