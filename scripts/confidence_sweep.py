#!/usr/bin/env python3
"""Sweep UAV-victim distance and print both modeled confidence curves next
to the simulated detector's expected per-call frequency, to eyeball how an
inspection's confidence climbs as the aircraft closes in."""

import argparse
from random import Random

from skysearch.cli import _at_least_one, _checked
from skysearch.geometry import CameraIntrinsics, EnuPoint
from skysearch.model import ModelConfig, confidence_paper_literal, confidence_proximity
from skysearch.world import DetectorProfile, GroundTruth, sense


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=_checked(int, lambda n: n >= 2, "at least 2"),
                    default=12)
    ap.add_argument("--calls", type=_at_least_one, default=2000)
    ap.add_argument("--occlusion", type=_checked(float, lambda v: 0.0 <= v <= 1.0,
                                                 "in [0, 1]"), default=0.0)
    args = ap.parse_args(argv)

    cfg = ModelConfig()
    cam = CameraIntrinsics()
    profile = DetectorProfile()
    truth = GroundTruth(victims=[(0.0, 0.0, args.occlusion)])
    rng = Random(0)

    print(f"{'z (m)':>6} {'model':>8} {'literal':>8} {'detector E[zeta]':>17}")
    for i in range(args.points):
        z = cfg.z_min + i * (cfg.z_max - cfg.z_min) / (args.points - 1)
        total = 0.0
        for _ in range(args.calls):
            obs = sense(EnuPoint(0, 0, z), cam, truth, profile, rng)
            total += obs.zeta or 0.0
        print(f"{z:6.2f} {confidence_proximity(z, cfg):8.3f} "
              f"{confidence_paper_literal(z, cfg):8.3f} {total / args.calls:17.3f}")


if __name__ == "__main__":
    main()
