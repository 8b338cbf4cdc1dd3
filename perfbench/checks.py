"""Output checks.  Each returns one message per failed operation; an empty
list means every operation it covers produced the expected output."""

from __future__ import annotations

import math

import numpy as np


def check_losses(runs: list, reference: list, steps: int) -> list:
    """Per-step training losses.

    ``runs`` holds one list of per-step total losses per training call, every
    call starting from the same weights and seed and meant to run ``steps``
    steps.  Each step is one operation: it fails when its loss is not finite,
    differs from the reference call's loss at that step, or is missing
    because training stopped early.
    """
    failures = []
    for call, losses in enumerate(runs):
        for step in range(steps):
            expected = reference[step] if step < len(reference) else None
            if step >= len(losses):
                problem = "not run"
            elif not math.isfinite(losses[step]):
                problem = f"loss {losses[step]}"
            elif losses[step] != expected:
                problem = f"loss {losses[step]!r} != {expected!r}"
            elif step == steps - 1 and len(losses) > steps:
                problem = f"followed by {len(losses) - steps} more steps"
            else:
                continue
            failures.append(f"call {call} step {step}: {problem}")
    return failures


def check_predictions(small: np.ndarray, bulk: np.ndarray, reference: np.ndarray,
                      small_batch: int, bulk_batch: int) -> list:
    """One classify round.

    Each small batch is one operation and fails when its predictions differ
    from the bulk predictions for the same rows.  Each bulk batch is one
    operation and fails when it differs from ``reference``: the predictions
    of the model before its checkpoint round trip.
    """
    failures = []
    for start in range(0, len(bulk), small_batch):
        rows = slice(start, start + small_batch)
        if not np.array_equal(small[rows], bulk[rows]):
            failures.append(f"small batch at row {start} disagrees with bulk predict")
    for start in range(0, len(bulk), bulk_batch):
        rows = slice(start, start + bulk_batch)
        if not np.array_equal(bulk[rows], reference[rows]):
            failures.append(f"bulk batch at row {start} changed across the checkpoint "
                            "round trip")
    return failures


def check_preprocess(code: int, summary: dict, skipped_lines: list, flow_csv,
                     cache_shapes: tuple, cache_finite: bool, digest: str,
                     reference_digest: str) -> list:
    """One cold ``preprocess`` call followed by a cache load.

    The expected skips are exactly the rows the writer made malformed; they
    are not failures.  The cache must hold every parsed row at the schema's
    width of 78 and reload to the same bytes as the reference call's cache.
    """
    if code != 0:
        return [f"preprocess exited with code {code}"]
    problems = []
    parsed, skipped = summary.get("rows_parsed"), summary.get("rows_skipped")
    if parsed is None or skipped is None or parsed + skipped != flow_csv.rows:
        problems.append(f"rows parsed {parsed} + skipped {skipped} != rows written "
                        f"{flow_csv.rows}")
    if sorted(skipped_lines) != list(flow_csv.bad_lines):
        problems.append(f"skipped lines differ from the malformed lines written "
                        f"({len(skipped_lines)} reported, {len(flow_csv.bad_lines)} written)")
    if summary.get("rows_per_class") != flow_csv.rows_per_class:
        problems.append("rows per class differ from the well-formed rows written")
    (n_train, width_train), (n_test, width_test) = cache_shapes
    if width_train != 78 or width_test != 78:
        problems.append(f"encoded width {width_train}/{width_test}, expected 78")
    if parsed is not None and n_train + n_test != parsed:
        problems.append(f"cache holds {n_train + n_test} rows, {parsed} were parsed")
    if not cache_finite:
        problems.append("cache holds non-finite features")
    if digest != reference_digest:
        problems.append("cache reloads to different bytes than the reference call's")
    return ["; ".join(problems)] if problems else []
