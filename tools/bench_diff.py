#!/usr/bin/env python3
"""Compare a freshly generated bench JSON against the committed one.

Usage:
    tools/bench_diff.py COMMITTED_JSON FRESH_JSON

The committed file records the perf trajectory the repo promises;
this script fails (exit 1) when the fresh run regresses it:

  * speedup-type fields (``*speedup*``) and larger-is-better fields
    (``*psnr_db``) may not fall below ``committed / 1.15`` — a >15%
    relative regression of the ratio or quality the field tracks;
  * quality-type fields (error bounds, ATE, reacquisition latency)
    may not *grow* beyond ``committed * 1.15 + eps`` — approximation
    error and recovery behavior are part of the contract, not a
    tunable;
  * boolean gates recorded as ``true`` in the committed file must
    still be ``true``.

Nested objects are flattened into dotted keys before comparison, and
lists whose elements carry a ``"name"`` field are keyed by it — so a
per-scenario record gates as ``scenarios.clean.ate_rmse`` no matter
where it sits in the array. Quality/floor classification matches on
the LEAF field name, so the same rules apply at any nesting depth.

Absolute millisecond fields are reported for context but never
gated: they measure the host, not the code. Fields present in only
one file are reported as informational (the committed file is
allowed to lag a PR that adds new fields). Negative committed values
are sentinels ("no measurement") and are never gated either.
"""

import json
import sys

# Fields measuring absolute host speed: report, never gate.
ABSOLUTE_HINTS = ("_ms", "_s", "wall", "cpu")
# Quality fields: smaller (or equal) is better, growth is a regression.
QUALITY_KEYS = {
    "max_abs_channel_diff",
    "backward_max_rel_grad_diff",
    "backward_seed_vs_f64_truth",
    "backward_rtgs_vs_f64_truth",
}
# Leaf-name suffixes classified as quality (smaller is better) or as
# floor-gated (larger is better) wherever they appear in the tree.
QUALITY_SUFFIXES = ("ate_rmse", "reacquire_frames")
FLOOR_SUFFIXES = ("psnr_db",)
# Relative slack on gated comparisons (15%, per the CI contract), plus
# an absolute epsilon so zero-valued quality fields tolerate noise.
SLACK = 1.15
EPS = 1e-9


def load(path):
    with open(path) as fh:
        return json.load(fh)


def flatten(value, prefix=""):
    """Flatten nested dicts/lists into {dotted_key: scalar}.

    Lists of dicts that all carry a "name" field are keyed by that
    name (order-independent); other lists are keyed by index.
    """
    out = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(sub, dotted))
    elif isinstance(value, list):
        named = all(isinstance(e, dict) and "name" in e for e in value)
        for idx, element in enumerate(value):
            label = element["name"] if named else str(idx)
            dotted = f"{prefix}.{label}" if prefix else str(label)
            if named:
                element = {k: v for k, v in element.items()
                           if k != "name"}
            out.update(flatten(element, dotted))
    else:
        out[prefix] = value
    return out


def leaf(key):
    return key.rsplit(".", 1)[-1]


def is_floor_gated(key):
    return "speedup" in leaf(key) or leaf(key).endswith(FLOOR_SUFFIXES)


def is_quality(key):
    return leaf(key) in QUALITY_KEYS or leaf(key).endswith(
        QUALITY_SUFFIXES)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    committed = flatten(load(argv[1]))
    fresh = flatten(load(argv[2]))

    failures = []
    notes = []

    for key, old in sorted(committed.items()):
        if key not in fresh:
            notes.append(f"  - {key}: only in committed file")
            continue
        new = fresh[key]
        if isinstance(old, bool):
            if old and not new:
                failures.append(f"{key}: was true, now false")
            continue
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            if old != new:
                notes.append(f"  ~ {key}: {old!r} -> {new!r}")
            continue
        if old < 0:
            # Negative committed values are "no measurement" sentinels
            # (e.g. a scenario without a post-fault tail window).
            notes.append(f"  info  {key}: {old} -> {new} (sentinel)")
            continue
        if is_floor_gated(key):
            floor = old / SLACK
            line = f"{key}: {old:.3f} -> {new:.3f} (floor {floor:.3f})"
            if new < floor:
                failures.append(line)
            else:
                notes.append(f"  ok  {line}")
        elif is_quality(key):
            ceil = old * SLACK + EPS
            line = f"{key}: {old:.3g} -> {new:.3g} (ceil {ceil:.3g})"
            if new > ceil:
                failures.append(line)
            else:
                notes.append(f"  ok  {line}")
        elif any(h in key for h in ABSOLUTE_HINTS):
            notes.append(f"  info  {key}: {old} -> {new} (not gated)")
        else:
            notes.append(f"  info  {key}: {old} -> {new}")

    for key in sorted(set(fresh) - set(committed)):
        notes.append(f"  + {key}: new field {fresh[key]!r}")

    print(f"bench_diff: {argv[1]} vs {argv[2]}")
    for n in notes:
        print(n)
    if failures:
        print("\nREGRESSIONS:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
