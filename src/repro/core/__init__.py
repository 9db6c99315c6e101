"""The paper's primary contribution: portable optimizations.

- :mod:`repro.core.sorting` — hardware-targeted particle sorting:
  the standard cell sort, *strided sort* (Algorithm 1), *tiled strided
  sort* (Algorithm 2), and a random-order baseline, plus inspectors
  that verify each order's structural guarantees.
- :mod:`repro.core.plan` — the plans a step reads: the ordering
  (:class:`~repro.core.plan.SortPlan`) and the step lane
  (:class:`~repro.core.plan.StepPlan`).
- :mod:`repro.core.tuning` — the hardware-targeted selection logic:
  which sort, which tile size, and which strategy a platform should
  use, including the cache-resident "don't sort at all" regime that
  unlocks the paper's superlinear strong scaling (§5.5). It leans on
  the machine model, so it is not imported here: import it directly.
"""

from repro.core.sorting import (
    SortKind,
    standard_sort,
    strided_sort,
    tiled_strided_sort,
    random_order,
    apply_sort,
    strided_keys,
    tiled_strided_keys,
    monotone_run_lengths,
    is_strided_order,
    is_tiled_strided_order,
)

__all__ = [
    "SortKind", "standard_sort", "strided_sort", "tiled_strided_sort",
    "random_order", "apply_sort", "strided_keys", "tiled_strided_keys",
    "monotone_run_lengths", "is_strided_order", "is_tiled_strided_order",
]
